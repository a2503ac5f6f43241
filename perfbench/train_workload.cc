// train_pos: the paper's unsupervised PoS task. Each round fits the
// diversified HMM (15 states, alpha = 10, rho = 0.5) to the same synthetic
// WSJ-like corpora from the same seeded random starts with
// core::FitDiversifiedHmm, to convergence at a stated tolerance under an
// iteration cap. No serve or store code runs in the timed rounds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/dhmm_trainer.h"
#include "data/pos_corpus.h"
#include "hmm/engine.h"
#include "layers.h"
#include "prob/categorical_emission.h"
#include "prob/rng.h"
#include "reference.h"
#include "serve_harness.h"
#include "store/dual_slot.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Model = dhmm::hmm::HmmModel<int>;

constexpr size_t kStates = dhmm::data::kNumPosTags;
constexpr uint64_t kProblems = 4;
// Set-ups before each round: a round is four fits, a few seconds, and a
// set-up about 10 ms.
constexpr int kSetupsPerRound = 4;

dhmm::data::PosCorpusOptions CorpusOptions(uint64_t seed) {
  dhmm::data::PosCorpusOptions c;
  c.num_sentences = 500;
  c.vocab_size = 600;
  c.ambiguity = 0.10;
  c.seed = seed;
  return c;
}

dhmm::core::DiversifiedEmOptions FitOptions() {
  dhmm::core::DiversifiedEmOptions o;
  o.alpha = 10.0;
  o.rho = 0.5;
  o.tol = 1e-4;
  o.max_iters = 60;
  return o;
}

Model RandomStart(size_t vocab, uint64_t seed) {
  dhmm::prob::Rng rng(seed * 31 + 3);
  return Model(rng.DirichletSymmetric(kStates, 1.0),
               rng.RandomStochasticMatrix(kStates, kStates, 1.0),
               std::make_unique<dhmm::prob::CategoricalEmission>(
                   dhmm::prob::CategoricalEmission::RandomInit(kStates, vocab,
                                                               rng)));
}

bool RowsStochastic(const double* row, size_t n, double floor) {
  double s = 0.0;
  for (size_t j = 0; j < n; ++j) {
    if (!(row[j] >= floor)) return false;
    s += row[j];
  }
  return std::fabs(s - 1.0) <= 1e-9;
}

// Output checks on one fit (§3.5.3 monotone MAP objective, reference
// likelihood, stochastic parameters, tagging accuracy).
void CheckFit(const Model& model, const dhmm::core::DiversifiedFitResult& fit,
              const dhmm::data::PosCorpus& corpus,
              const dhmm::core::DiversifiedEmOptions& opts, Outcome* out) {
  const auto& h = fit.map_objective_history;
  for (size_t i = 1; i < h.size(); ++i) {
    if (h[i] < h[i - 1] - opts.ascent.tol * std::max(1.0, std::fabs(h[i - 1]))) {
      out->CheckFailed("MAP objective decreased at iteration " +
                       std::to_string(i));
      break;
    }
  }
  const double ll = ref::CorpusLogLikelihood(model, corpus.sentences);
  if (!ref::CloseRel(fit.loglik_history.back(), ll, 1e-9)) {
    out->CheckFailed("final log-likelihood vs reference");
  }
  const size_t k = model.num_states();
  bool ok = RowsStochastic(model.pi.data(), k, 0.0);
  for (size_t i = 0; ok && i < k; ++i) {
    ok = RowsStochastic(model.a.row_data(i), k, opts.row_floor * (1 - 1e-9));
  }
  const auto* b =
      dynamic_cast<const dhmm::prob::CategoricalEmission*>(model.emission.get());
  ok = ok && b != nullptr;
  for (size_t i = 0; ok && i < k; ++i) {
    ok = RowsStochastic(b->b().row_data(i), b->b().cols(), 0.0);
  }
  if (!ok) out->CheckFailed("parameters not stochastic / below row_floor");

  // Many-to-one accuracy of reference Viterbi tags vs the majority tag.
  const ref::LogModel<int> lm(model);
  std::vector<std::vector<double>> counts(k, std::vector<double>(kStates, 0));
  std::vector<double> tag_counts(kStates, 0);
  double n = 0;
  for (const auto& s : corpus.sentences) {
    const auto path = ref::ViterbiPath(lm, lm.Table(s.obs), s.obs.size());
    for (size_t t = 0; t < path.size(); ++t) {
      counts[static_cast<size_t>(path[t])][static_cast<size_t>(s.labels[t])] += 1;
      tag_counts[static_cast<size_t>(s.labels[t])] += 1;
      n += 1;
    }
  }
  double many = 0;
  for (const auto& row : counts) many += *std::max_element(row.begin(), row.end());
  const double majority =
      *std::max_element(tag_counts.begin(), tag_counts.end()) / n;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "fit iterations %d converged %d many_to_one %.4f majority %.4f",
                fit.iterations, fit.converged ? 1 : 0, many / n, majority);
  out->Note(buf);
  if (!(many / n > majority)) out->CheckFailed("many-to-one <= majority tag");
}

}  // namespace

Outcome RunTrain(const RunOptions& opt) {
  Outcome out;
  // Each round fits kProblems corpora (each with its own random start)
  // drawn from the run's seed: how many ascent steps an M-step takes
  // depends on the corpus, and fitting several per round keeps that
  // variation from one seed to the next small.
  struct Problem {
    dhmm::data::PosCorpus corpus;
    Model init;
    Model reopened;  // what the store must give back for `init`
    size_t tokens = 0;
  };
  std::vector<Problem> problems;
  for (uint64_t p = 0; p < kProblems; ++p) {
    const uint64_t sub = opt.seed * kProblems + p;
    auto corpus = dhmm::data::GeneratePosCorpus(CorpusOptions(sub));
    Model init = RandomStart(corpus.vocab_size, sub);
    size_t tokens = 0;
    for (const auto& s : corpus.sentences) tokens += s.obs.size();
    Model reopened = AsReopened(init);
    problems.push_back(
        {std::move(corpus), std::move(init), std::move(reopened), tokens});
  }
  const auto opts = FitOptions();

  // Set-up: load each starting model from its store checkpoint and warm
  // the E-step engine with one likelihood pass over its corpus.
  const std::string dir = opt.work_dir + "/train_start";
  for (size_t p = 0; p < problems.size(); ++p) {
    const std::string d = dir + std::to_string(p);
    ResetDir(d);
    auto slots = dhmm::store::DualSlotStore::Open(d);
    ++out.attempted;
    if (!slots.ok() || !slots.value().Publish(problems[p].init).ok()) {
      out.CheckFailed("publish start model");
      return out;
    }
  }
  SetupTimer setup;
  auto set_up = [&] {
    for (int r = 0; r < kSetupsPerRound; ++r) {
      const bool ok = setup.Time([&] {
        dhmm::hmm::BatchEmEngine<int> engine;
        for (size_t p = 0; p < problems.size(); ++p) {
          auto loaded = dhmm::store::LoadAnyModel<int>(dir + std::to_string(p));
          ++out.attempted;
          if (!loaded.ok() ||
              !SameModelBits(loaded.value(), problems[p].reopened)) {
            out.CheckFailed("start model reload");
            return false;
          }
          engine.LogLikelihood(loaded.value(), problems[p].corpus.sentences);
        }
        return true;
      });
      if (!ok) return false;
    }
    return true;
  };
  if (!set_up()) return out;

  struct Fit {
    Model model;
    dhmm::core::DiversifiedFitResult result;
    double wall_s, cpu_s;
  };
  auto fit_once = [&](const Problem& p) {
    Fit f{p.init, {}, 0.0, 0.0};
    const double c0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    f.result = dhmm::core::FitDiversifiedHmm(&f.model, p.corpus.sentences, opts);
    f.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    f.cpu_s = ProcessCpuSeconds() - c0;
    ++out.attempted;
    return f;
  };

  // Round 0: the checked fits every later round must reproduce bit for bit.
  std::vector<Fit> first;
  for (const Problem& p : problems) {
    first.push_back(fit_once(p));
    CheckFit(first.back().model, first.back().result, p.corpus, opts, &out);
  }
  auto same_as_first = [&](size_t p, const Fit& f) {
    return f.result.map_objective_history ==
               first[p].result.map_objective_history &&
           SameModelBits(f.model, first[p].model);
  };

  if (opt.trace) {
    const Problem& p0 = problems[0];
    const Fit plain = fit_once(p0);
    if (!same_as_first(0, plain)) out.CheckFailed("fit not reproducible");
    Tracer tr;
    double traced_s = 0.0;
    const std::vector<double> hist =
        TraceTrainLayers(p0.init, p0.corpus.sentences, opts, &tr, &out, &traced_s);
    const bool equal = hist == first[0].result.map_objective_history;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "trace_overhead fit_s %.4f -> %.4f (untraced -> traced); "
                  "stepped FitEm MAP history bitwise equal: %s",
                  plain.wall_s, traced_s, equal ? "yes" : "no");
    out.Note(buf);
    if (!equal) out.CheckFailed("stepped FitEm history differs");
    // Serve and session layers on the fitted tagger and its corpus. The
    // sessions' online M-steps see a fraction of the corpus at a time, so
    // their tagger gets a pseudo-count: with none, a step that saw no
    // instance of a word gives it probability zero in every state and a
    // later push of that word is rejected.
    const ModelPtr<int> fitted = std::make_shared<const Model>(first[0].model);
    const auto* fb =
        dynamic_cast<const dhmm::prob::CategoricalEmission*>(fitted->emission.get());
    const ModelPtr<int> smoothed = std::make_shared<const Model>(
        fitted->pi, fitted->a,
        std::make_unique<dhmm::prob::CategoricalEmission>(fb->b(), 0.01));
    std::vector<std::vector<int>> sents;
    for (const auto& s : p0.corpus.sentences) sents.push_back(s.obs);
    TraceServeLayers<int>(fitted, {sents.begin(), sents.begin() + 64}, opt,
                          &tr, &out);
    TraceSessionLayers<int>(smoothed, sents, 4096, 8, opts.alpha, 4,
                            opt.work_dir, &tr, &out);
    tr.WriteJsonLines(opt.work_dir + "/trace_spans.jsonl");
    return out;
  }

  std::vector<double> iter_us, tok_per_s, cpu_us;
  double iters = 0, token_iters = 0;
  for (size_t p = 0; p < problems.size(); ++p) {
    iters += first[p].result.iterations;
    token_iters += static_cast<double>(problems[p].tokens) *
                   first[p].result.iterations;
  }
  const int64_t deadline = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  do {
    if (!set_up()) return out;
    double wall = 0.0, cpu = 0.0;
    for (size_t p = 0; p < problems.size(); ++p) {
      const Fit f = fit_once(problems[p]);
      if (!same_as_first(p, f)) out.CheckFailed("fit not reproducible");
      wall += f.wall_s;
      cpu += f.cpu_s;
    }
    iter_us.push_back(wall * 1e6 / iters);
    tok_per_s.push_back(token_iters / wall);
    cpu_us.push_back(cpu * 1e6 / iters);
  } while (NowNs() < deadline);
  char buf[160];
  std::snprintf(buf, sizeof buf, "rounds %zu of %zu fits, outer_iterations %.0f",
                iter_us.size(), problems.size(), iters);
  out.Note(buf);
  setup.NoteTo(&out);
  out.Set("setup_s", setup.MedianSeconds(), "s");
  out.Set("latency_p50_us", Median(iter_us), "us");
  out.Set("throughput_per_s", Median(tok_per_s), "1/s");
  out.Set("cpu_us_per_op", Median(cpu_us), "us");
  return out;
}

}  // namespace perfbench
