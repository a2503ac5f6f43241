// The traced run's training and session layer timings. Each function
// times the public calls of one group of modules on a workload's own
// models and inputs, with spans opened only here, and stores the
// per-layer metrics in an Outcome. The serve layers are timed by the
// serving harness (serve_harness.h). A traced run times all of them, so
// every workload reports every per-layer metric, measured at its own
// model shapes.
#ifndef DHMM_PERFBENCH_LAYERS_H_
#define DHMM_PERFBENCH_LAYERS_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/dhmm_trainer.h"
#include "core/incremental_em.h"
#include "core/transition_update.h"
#include "dpp/logdet.h"
#include "hmm/engine.h"
#include "hmm/trainer.h"
#include "obs/metrics.h"
#include "serve/session_manager.h"
#include "store/dual_slot.h"

namespace perfbench {

/// hmm (E-step, likelihood pass), core (transition M-step), optim (ascent
/// iterations) and dpp (log-det + gradient): the diversified MAP-EM fit of
/// `init` to `data`, stepped one outer iteration at a time through
/// hmm::FitEm with a transition_m_step callback around
/// core::UpdateTransitions — the composition core::FitDiversifiedHmm uses,
/// so the MAP-objective history must match it bit for bit. Returns that
/// history; `fit_s` receives the wall time of the fit's own calls.
template <typename Obs>
std::vector<double> TraceTrainLayers(
    const dhmm::hmm::HmmModel<Obs>& init, const dhmm::hmm::Dataset<Obs>& data,
    const dhmm::core::DiversifiedEmOptions& opts, Tracer* tr, Outcome* out,
    double* fit_s) {
  namespace core = dhmm::core;
  namespace hmm = dhmm::hmm;
  dhmm::hmm::HmmModel<Obs> model(init);
  core::TransitionUpdateOptions uo;
  uo.alpha = opts.alpha;
  uo.rho = opts.rho;
  uo.ascent = opts.ascent;
  uo.row_floor = opts.row_floor;
  core::TransitionUpdateWorkspace ws;
  core::TransitionUpdateResult mr;
  double ascent_iters = 0.0, capped = 0.0;
  hmm::EmOptions em;
  em.max_iters = 1;
  em.update_pi = opts.update_pi;
  em.update_emission = opts.update_emission;
  em.num_threads = opts.num_threads;
  em.checkpoint_threshold_frames = opts.checkpoint_threshold_frames;
  em.transition_m_step = [&](const dhmm::linalg::Matrix& counts,
                             dhmm::linalg::Matrix* a) {
    ScopedSpan s(tr, "core.update_transitions");
    core::UpdateTransitions(*a, counts, uo, &ws, &mr);
    std::swap(*a, mr.a);
    ascent_iters += mr.iterations;
    if (!mr.converged && mr.iterations >= opts.ascent.max_iters) capped += 1;
  };
  hmm::BatchEmEngine<Obs> engine(
      hmm::BatchOptions{em.num_threads, em.checkpoint_threshold_frames});
  std::vector<double> history;
  double prev = 0.0;
  int iters = 0;
  int64_t fit_ns = 0;
  for (int iter = 0; iter < opts.max_iters; ++iter) {
    const int64_t t0 = NowNs();
    double map_obj = 0.0;
    {
      ScopedSpan s(tr, "core.outer_iteration");
      hmm::EmResult one = hmm::FitEm(&model, data, em, &engine);
      map_obj = one.final_loglik +
                opts.alpha *
                    dhmm::dpp::LogDetNormalizedKernel(model.a, opts.rho,
                                                      &ws.kernel);
    }
    fit_ns += NowNs() - t0;
    history.push_back(map_obj);
    ++iters;
    ++out->attempted;
    // Outside the fit's own time: the E-step and likelihood pass alone, on
    // the iteration's model (a cloned emission takes the accumulation).
    {
      auto acc = model.emission->Clone();
      ScopedSpan s(tr, "hmm.estep");
      engine.EStep(model, data, acc.get());
    }
    {
      ScopedSpan s(tr, "hmm.loglik_pass");
      engine.LogLikelihood(model, data);
    }
    if (iter > 0 && core::MapObjectiveConverged(prev, map_obj, opts.tol)) break;
    prev = map_obj;
  }
  *fit_s = static_cast<double>(fit_ns) * 1e-9;
  dhmm::dpp::KernelWorkspace kws;
  dhmm::linalg::Matrix grad;
  double log_det = 0.0;
  for (int r = 0; r < 64; ++r) {
    ScopedSpan s(tr, "dpp.logdet_and_grad");
    dhmm::dpp::LogDetAndGrad(model.a, opts.rho, &kws, &log_det, &grad);
  }
  out->Set("hmm.estep_ms", tr->P50Us("hmm.estep") * 1e-3, "ms");
  out->Set("hmm.loglik_pass_ms", tr->P50Us("hmm.loglik_pass") * 1e-3, "ms");
  out->Set("core.mstep_ms", tr->P50Us("core.update_transitions") * 1e-3, "ms");
  out->Set("optim.ascent_iters", ascent_iters, "steps");
  out->Set("core.mstep_capped", capped, "M-steps");
  out->Set("core.outer_iters", iters, "iterations");
  out->Set("dpp.logdet_grad_us", tr->P50Us("dpp.logdet_and_grad"), "us");
  return history;
}

/// session_manager, the online half of core, and store: `sessions`
/// resident lag-`lag` sessions stream `streams` (session s plays stream
/// s mod size, restarting at its end). After lag sweeps fill every lag
/// window, two sweeps time pushes with no trainer attached; then an
/// IncrementalEmTrainer is attached for `sweeps` more, stepping,
/// publishing and hot-swapping after each.
template <typename Obs>
void TraceSessionLayers(const ModelPtr<Obs>& model,
                        const std::vector<std::vector<Obs>>& streams,
                        size_t sessions, size_t lag, double alpha,
                        size_t sweeps, const std::string& dir, Tracer* tr,
                        Outcome* out) {
  namespace serve = dhmm::serve;
  auto bad = [&](const dhmm::Status& st, const char* what) {
    ++out->attempted;
    if (!st.ok()) out->CheckFailed(std::string(what) + ": " + st.ToString());
  };
  serve::SessionManagerOptions so;
  so.lag = lag;
  serve::SessionManager<Obs> mgr(model, so);
  std::vector<serve::SessionHandle> h(sessions);
  std::vector<size_t> pos(sessions, 0);
  for (size_t s = 0; s < sessions; ++s) {
    auto c = mgr.CreateSession();
    if (!c.ok()) return bad(c.status(), "create");
    h[s] = c.value();
  }
  out->Set("sessions.slab_bytes",
           dhmm::obs::Registry::Global().GetGauge("sessions.slab_bytes")->Value(),
           "bytes");
  std::vector<int> tail;
  auto push = [&](size_t s) {
    const auto& str = streams[s % streams.size()];
    int label = -1;
    bad(mgr.Push(h[s], str[pos[s]], &label), "push");
    if (++pos[s] == str.size()) {
      tail.clear();
      bad(mgr.Finish(h[s], &tail), "finish");
      bad(mgr.ResetSession(h[s]), "reset");
      pos[s] = 0;
    }
  };
  // One sweep pushes one frame to every session, in blocks of kBlock
  // pushes per span.
  constexpr size_t kBlock = 1024;
  auto sweep = [&](const char* block_name) {
    for (size_t done = 0; done < sessions;) {
      const size_t n = std::min(kBlock, sessions - done);
      ScopedSpan s(n == kBlock ? tr : nullptr, block_name);
      for (size_t j = 0; j < n; ++j) push(done + j);
      done += n;
    }
  };
  for (size_t f = 0; f < lag; ++f) sweep("sessions.fill_block");
  for (size_t f = 0; f < 2; ++f) sweep("sessions.push_block");
  dhmm::core::IncrementalEmOptions io;
  io.alpha = alpha;
  dhmm::core::IncrementalEmTrainer<Obs> trainer(model, io);
  mgr.AttachTrainer(&trainer);
  const std::string store_dir = dir + "/trace_sessions";
  ResetDir(store_dir);
  auto slots = dhmm::store::DualSlotStore::Open(store_dir);
  if (!slots.ok()) return bad(slots.status(), "store open");
  for (size_t f = 0; f < sweeps; ++f) {
    sweep("sessions.push_train_block");
    ModelPtr<Obs> snap;
    {
      ScopedSpan s(tr, "core.step");
      snap = trainer.Step();
      ++out->attempted;
    }
    {
      ScopedSpan s(tr, "store.session_publish");
      bad(slots.value().Publish(*snap), "publish");
    }
    ScopedSpan s(tr, "sessions.update_model");
    mgr.UpdateModel(snap);
  }
  mgr.AttachTrainer(nullptr);
  out->Set("sessions.push_ns", tr->P50Us("sessions.push_block") * 1e3 / kBlock,
           "ns");
  out->Set("sessions.push_train_ns",
           tr->P50Us("sessions.push_train_block") * 1e3 / kBlock, "ns");
  out->Set("core.step_ms", tr->P50Us("core.step") * 1e-3, "ms");
  out->Set("sessions.update_model_us", tr->P50Us("sessions.update_model"),
           "us");
}

}  // namespace perfbench

#endif  // DHMM_PERFBENCH_LAYERS_H_
