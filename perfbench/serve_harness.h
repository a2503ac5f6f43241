// The one serving harness of the benchmark: the loopback wire path
// WireClient -> FrontEnd -> ModelRegistry -> DecodeService over models
// published to DualSlotStore directories. The timed serve workloads run
// its rounds, and every traced run times the serve layers through the
// same set-up, request mix and window loop (TraceLayers), so the per-layer
// figures describe the path the end-to-end figures measure.
#ifndef DHMM_PERFBENCH_SERVE_HARNESS_H_
#define DHMM_PERFBENCH_SERVE_HARNESS_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.h"
#include "hmm/inference.h"
#include "hmm/posterior_decoding.h"
#include "obs/metrics.h"
#include "reference.h"
#include "serve/frontend.h"
#include "serve/model_registry.h"
#include "serve/wire_client.h"
#include "store/dual_slot.h"

namespace perfbench {

/// Request kind of the i-th request of a mix: `viterbi_tenths` of every
/// ten requests are Viterbi, the rest alternate posterior and
/// log-likelihood.
inline dhmm::serve::DecodeKind MixKind(uint64_t i, int viterbi_tenths) {
  const int r = static_cast<int>(i % 10);
  if (r < viterbi_tenths) return dhmm::serve::DecodeKind::kViterbi;
  return (r - viterbi_tenths) % 2 == 0 ? dhmm::serve::DecodeKind::kPosterior
                                       : dhmm::serve::DecodeKind::kLogLikelihood;
}

inline double CounterValue(const char* name) {
  return static_cast<double>(
      dhmm::obs::Registry::Global().GetCounter(name)->Value());
}

struct ServeConfig {
  int viterbi_tenths;         // Viterbi share of the mix, in tenths
  size_t latency_requests;    // phase 1: one in flight
  size_t window_requests;     // phase 2: `window` in flight
  size_t window;
  size_t stats_every;         // every n-th latency-phase request is kStats
  size_t reload_every;        // a publish + reload every n requests; 0 = none
  size_t trace_requests;      // requests of the traced layer timings
};

template <typename Obs>
class ServeHarness {
 public:
  /// variants[m] are model m's snapshots (the first is served at set-up,
  /// reloads cycle through the rest); seqs[m] are its request sequences.
  ServeHarness(std::vector<std::vector<ModelPtr<Obs>>> variants,
               std::vector<std::vector<std::vector<Obs>>> seqs,
               const ServeConfig& cfg, const RunOptions& opt, Outcome* out)
      : cfg_(cfg),
        opt_(opt),
        out_(out),
        variants_(std::move(variants)),
        seqs_(std::move(seqs)) {}

  ~ServeHarness() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (swapper_.joinable()) swapper_.join();
    TearDown();
  }

  // Store publish + registration of every model, FrontEnd::Start, client
  // connect and a warm-up of every request kind. Returns false on failure.
  // Call on a torn-down harness, with no round running.
  bool SetUp() {
    const int threads_before = ThreadCount();
    registry_ = std::make_unique<dhmm::serve::ModelRegistry<Obs>>();
    stores_.clear();
    reloads_.assign(variants_.size(), 0);
    for (size_t m = 0; m < variants_.size(); ++m) {
      ResetDir(Dir(m));
      auto st = dhmm::store::DualSlotStore::Open(Dir(m));
      if (!st.ok()) return Ok(st.status(), "store open");
      stores_.push_back(std::move(st).value());
      if (!Ok(stores_.back().Publish(*variants_[m][0]), "publish")) return false;
      if (!Ok(registry_->RegisterFromFile(m + 1, Dir(m)), "register")) return false;
    }
    frontend_ = std::make_unique<dhmm::serve::FrontEnd<Obs>>(registry_.get());
    if (!Ok(frontend_->Start(), "frontend start")) return false;
    client_ = std::make_unique<dhmm::serve::WireClient>();
    if (!Ok(client_->Connect(frontend_->port()), "connect")) return false;
    dhmm::serve::DecodeResponse resp;
    for (uint64_t i = 0; i < 64; ++i) {
      if (!Ok(client_->Call(Request(0, i), &resp), "warm-up")) return false;
    }
    // FrontEnd plus one DecodeService per model.
    threads_started_ = ThreadCount() - threads_before;
    return true;
  }

  void StartSwapper() {
    if (cfg_.reload_every > 0) swapper_ = std::thread([this] { SwapLoop(); });
  }

  struct RoundStats {
    double window_rps, cpu_us_per_req, batch_size;
  };

  // One round: the latency phase, then the window phase. `latencies` (if
  // given) receives the one-in-flight request times; `tr` (if given)
  // traces the wire calls.
  RoundStats Round(uint64_t round, std::vector<double>* latencies, Tracer* tr) {
    BeginRound();
    dhmm::serve::DecodeResponse resp;
    for (size_t i = 0; i < cfg_.latency_requests; ++i) {
      const dhmm::serve::DecodeRequest<Obs> req = Request(round, i);
      const int64_t s = NowNs();
      dhmm::Status st;
      {
        ScopedSpan span(tr, "frontend.call");
        st = client_->Call(req, &resp);
      }
      const int64_t e = NowNs();
      Record(req, st, resp);
      if (req.kind != dhmm::serve::DecodeKind::kStats && latencies != nullptr) {
        latencies->push_back(static_cast<double>(e - s) * 1e-3);
      }
      Sent(i);
    }
    const RoundStats rs = WindowPhase(round, tr);
    WaitSwapsDone();
    return rs;
  }

  // The serve layers, timed on this harness's stack: `trace_requests`
  // requests of the mix, each sent over the wire, then through
  // ModelRegistry::Acquire and DecodeService Submit->Wait, then as a
  // direct hmm::Try* call; one window phase for the batch size; and eight
  // store publishes + registry reloads.
  void TraceLayers(uint64_t round, Tracer* tr) {
    namespace hmm = dhmm::hmm;
    using dhmm::serve::DecodeKind;
    BeginRound();
    dhmm::serve::DecodeResponse resp;
    hmm::InferenceWorkspace ws;
    dhmm::linalg::Matrix log_b;
    hmm::ViterbiResult vr;
    hmm::ForwardBackwardResult fb;
    std::vector<int> path;
    // Self times are per-request differences of the three nested paths,
    // taken back to back on the same request, so host drift between
    // requests cancels.
    std::vector<double> ns_per_cell, frontend_self_us, service_self_us;
    for (size_t i = 0; i < cfg_.trace_requests; ++i) {
      const dhmm::serve::DecodeRequest<Obs> req = Request(round, i);
      dhmm::Status st;
      const int64_t c0 = NowNs();
      {
        ScopedSpan s(tr, "frontend.call");
        st = client_->Call(req, &resp);
      }
      const int64_t call_ns = NowNs() - c0;
      Record(req, st, resp);
      if (req.kind == DecodeKind::kStats) continue;
      std::shared_ptr<dhmm::serve::DecodeService<Obs>> svc;
      {
        ScopedSpan s(tr, "registry.acquire");
        auto acq = registry_->Acquire(req.model);
        if (!Ok(acq.status(), "acquire")) continue;
        svc = acq.value();
      }
      const int64_t s0 = NowNs();
      {
        ScopedSpan s(tr, "decode_service.submit_wait");
        dhmm::serve::DecodeFuture<Obs> f = svc->Submit(req);
        Ok(f.Wait().status, "submit");
      }
      const int64_t submit_ns = NowNs() - s0;
      const ModelPtr<Obs> snap = svc->ModelSnapshot();
      const size_t k = snap->num_states();
      const size_t T = req.obs->size();
      const int64_t d0 = NowNs();
      {
        ScopedSpan s(tr, "hmm.request");
        snap->emission->LogProbTableInto(*req.obs, &log_b);
        if (req.kind == DecodeKind::kViterbi) {
          const int64_t t0 = NowNs();
          {
            ScopedSpan v(tr, "hmm.viterbi");
            Ok(hmm::TryViterbi(snap->pi, snap->a, log_b, &ws, &vr), "viterbi");
          }
          ns_per_cell.push_back(static_cast<double>(NowNs() - t0) /
                                static_cast<double>(T * k * k));
        } else if (req.kind == DecodeKind::kPosterior) {
          ScopedSpan v(tr, "hmm.posterior");
          Ok(hmm::TryPosteriorDecode(snap->pi, snap->a, log_b, &ws, &fb, &path),
             "posterior");
        } else {
          ScopedSpan v(tr, "hmm.loglik");
          double ll = 0.0;
          Ok(hmm::TryLogLikelihood(snap->pi, snap->a, log_b, &ws, &ll), "loglik");
        }
      }
      const int64_t direct_ns = NowNs() - d0;
      frontend_self_us.push_back(static_cast<double>(call_ns - submit_ns) * 1e-3);
      service_self_us.push_back(static_cast<double>(submit_ns - direct_ns) * 1e-3);
    }
    const RoundStats rs = WindowPhase(round, nullptr);
    WaitSwapsDone();
    for (size_t r = 0; r < 8; ++r) {
      const auto [attempted, st] = SwapOnce(r % variants_.size(), tr);
      out_->attempted += attempted;
      if (!st.ok()) out_->CheckFailed("publish/reload: " + st.ToString());
    }

    out_->Set("serve.threads", threads_started_, "threads");
    out_->Set("frontend.self_us", Median(frontend_self_us), "us");
    out_->Set("decode_service.self_us", Median(service_self_us), "us");
    out_->Set("decode_service.batch_size", rs.batch_size, "requests");
    out_->Set("registry.acquire_us", tr->P50Us("registry.acquire"), "us");
    out_->Set("registry.reload_ms", tr->P50Us("registry.reload") * 1e-3, "ms");
    out_->Set("store.publish_ms", tr->P50Us("store.publish") * 1e-3, "ms");
    out_->Set("hmm.viterbi_us", tr->P50Us("hmm.viterbi"), "us");
    out_->Set("hmm.posterior_us", tr->P50Us("hmm.posterior"), "us");
    out_->Set("hmm.viterbi_ns_per_cell", Median(ns_per_cell), "ns");
  }

  // After a round (untimed): repeats must equal the first response for
  // their key bitwise; stats replies must partition accepted frames.
  void CheckRound() {
    for (const Rec& r : recs_) {  // OK responses only; failures were counted
      const Key key{r.model, r.seq,
                    static_cast<uint32_t>((r.version - 1) % variants_[r.model].size()),
                    r.kind};
      auto it = memo_.find(key);
      if (it == memo_.end()) {
        Full f;
        f.path.assign(paths_.begin() + static_cast<ptrdiff_t>(r.path_off),
                      paths_.begin() + static_cast<ptrdiff_t>(r.path_off + r.path_len));
        f.value = r.value;
        f.hash = r.hash;
        memo_.emplace(key, std::move(f));
      } else if (it->second.hash != r.hash) {
        out_->CheckFailed("repeat response differs");
      }
    }
    for (const std::string& text : stats_) {
      double sum = 0.0, accepted = -1.0;
      std::istringstream in(text);
      std::string name;
      double value = 0.0;
      while (in >> name >> value) {
        if (name.rfind("frontend.requests.", 0) == 0) sum += value;
        if (name == "frontend.frames_accepted") accepted = value;
      }
      if (accepted < 0.0 || sum != accepted) {
        out_->CheckFailed("kStats partition");
      }
    }
  }

  // Every distinct response against the reference computations, under
  // the snapshot its model_version names.
  void CheckReference() {
    using dhmm::serve::DecodeKind;
    for (const auto& [key, f] : memo_) {
      const auto [m, s, variant, kind] = key;
      const ref::LogModel<Obs> lm(*variants_[m][variant]);
      const std::vector<Obs>& y = seqs_[m][s];
      const std::vector<double> lb = lm.Table(y);
      const auto k = static_cast<DecodeKind>(kind);
      if (k == DecodeKind::kViterbi) {
        const double best = ref::ViterbiLogJoint(lm, lb, y.size());
        if (!ref::CloseRel(f.value, best, 1e-9) ||
            f.path.size() != y.size() ||
            !ref::CloseRel(ref::PathLogJoint(lm, lb, f.path), best, 1e-9)) {
          out_->CheckFailed("viterbi vs reference");
        }
      } else {
        std::vector<double> gamma;
        const double ll = ref::Posterior(lm, lb, y.size(), &gamma);
        if (!ref::CloseRel(f.value, ll, 1e-9)) {
          out_->CheckFailed("log-likelihood vs reference");
        }
        if (k == DecodeKind::kPosterior) {
          bool ok = f.path.size() == y.size();
          for (size_t t = 0; ok && t < y.size(); ++t) {
            ok = ref::IsArgMax(gamma.data() + t * lm.k, lm.k, f.path[t], 1e-9);
          }
          if (!ok) out_->CheckFailed("posterior labels vs reference");
        }
      }
    }
  }

  size_t memo_size() const { return memo_.size(); }

  // Stops the serving stack SetUp started (the swapper thread stays).
  void TearDown() {
    if (client_) client_->Close();
    client_.reset();
    if (frontend_) frontend_->Stop();
    frontend_.reset();
    registry_.reset();
  }

 private:
  // One response, kept compact: the path lives in the round's flat arena.
  struct Rec {
    uint32_t model;    // 0-based
    uint32_t seq;      // index into the model's sequences
    uint32_t version;  // DecodeService model_version
    uint8_t kind;
    double value;
    uint64_t hash;     // of path and value bits
    size_t path_off, path_len;
  };
  // First response seen for one (model, seq, snapshot, kind): checked
  // against the reference once; every repeat must hash the same.
  struct Full {
    std::vector<int> path;
    double value;
    uint64_t hash;
  };
  using Key = std::tuple<uint32_t, uint32_t, uint32_t, uint8_t>;

  static uint64_t RequestId(uint64_t round, size_t i) {
    return round * 1000000 + i;
  }
  std::string Dir(size_t m) const {
    return opt_.work_dir + "/model" + std::to_string(m);
  }
  size_t SeqIndex(size_t m, size_t i) const {
    return (i / variants_.size()) % seqs_[m].size();
  }

  dhmm::serve::DecodeRequest<Obs> Request(uint64_t round, size_t i) const {
    dhmm::serve::DecodeRequest<Obs> req;
    req.request_id = RequestId(round, i);
    // kStats only while one request is in flight: its partition check is
    // exact only when no other frame is being accepted as the snapshot
    // is taken.
    if (i < cfg_.latency_requests &&
        i % cfg_.stats_every == cfg_.stats_every - 1) {
      req.kind = dhmm::serve::DecodeKind::kStats;
      req.obs = &empty_;
      return req;
    }
    const size_t m = i % variants_.size();
    req.model = m + 1;
    req.kind = MixKind(i, cfg_.viterbi_tenths);
    req.obs = &seqs_[m][SeqIndex(m, i)];
    return req;
  }

  void BeginRound() {
    recs_.clear();
    paths_.clear();
    stats_.clear();
  }

  // `window_requests` requests kept `window` deep in flight; returns the
  // phase's throughput, CPU per request and DecodeService batch size.
  RoundStats WindowPhase(uint64_t round, Tracer* tr) {
    dhmm::serve::DecodeResponse resp;
    const double req0 = CounterValue("decode.requests");
    const double bat0 = CounterValue("decode.batches");
    const int64_t t1 = NowNs();
    const double cpu0 = ProcessCpuSeconds();
    {
      ScopedSpan span(tr, "window_phase");
      const size_t base = cfg_.latency_requests;
      const size_t n = cfg_.window_requests;
      size_t sent = 0, got = 0;
      while (got < n) {
        while (sent < n && sent - got < cfg_.window) {
          inflight_[sent] = Request(round, base + sent);
          if (!client_->Send(inflight_[sent]).ok()) {
            // A broken connection ends the phase; the unsent rest fail.
            out_->attempted += n - got;
            out_->failed += n - got;
            got = sent = n;
            break;
          }
          Sent(base + sent);
          ++sent;
        }
        if (got == n) break;
        const dhmm::Status st = client_->Receive(&resp);
        const uint64_t idx = resp.request_id - RequestId(round, base);
        if (!st.ok() || idx >= n) {
          ++out_->attempted;
          ++out_->failed;
        } else {
          Record(inflight_[idx], st, resp);
        }
        ++got;
      }
    }
    const int64_t t2 = NowNs();
    const double cpu1 = ProcessCpuSeconds();
    const double batches = CounterValue("decode.batches") - bat0;
    RoundStats rs;
    rs.window_rps = static_cast<double>(cfg_.window_requests) /
                    (static_cast<double>(t2 - t1) * 1e-9);
    rs.cpu_us_per_req =
        (cpu1 - cpu0) * 1e6 / static_cast<double>(cfg_.window_requests);
    rs.batch_size =
        batches > 0 ? (CounterValue("decode.requests") - req0) / batches : 0.0;
    return rs;
  }

  void Record(const dhmm::serve::DecodeRequest<Obs>& req, const dhmm::Status& st,
              const dhmm::serve::DecodeResponse& resp) {
    ++out_->attempted;
    if (!st.ok() || !resp.status.ok()) {
      ++out_->failed;
      return;
    }
    if (req.kind == dhmm::serve::DecodeKind::kStats) {
      stats_.push_back(resp.text);
      return;
    }
    Rec r;
    r.model = static_cast<uint32_t>(req.model - 1);
    r.seq = static_cast<uint32_t>(
        SeqIndex(r.model, static_cast<size_t>(req.request_id % 1000000)));
    r.version = static_cast<uint32_t>(resp.model_version);
    r.kind = static_cast<uint8_t>(resp.kind);
    r.value = resp.value;
    uint64_t h = HashBytes(resp.path.data(), resp.path.size() * sizeof(int),
                           1469598103934665603ULL);
    r.hash = HashBytes(&resp.value, sizeof(resp.value), h);
    r.path_off = paths_.size();
    r.path_len = resp.path.size();
    paths_.insert(paths_.end(), resp.path.begin(), resp.path.end());
    recs_.push_back(r);
  }

  // The generator side of the reload cadence: every reload_every requests
  // one publish + reload is handed to the swapper thread.
  void Sent(size_t i) {
    if (cfg_.reload_every == 0 || i % cfg_.reload_every != cfg_.reload_every - 1) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
    }
    cv_.notify_all();
  }

  // Waits for the round's reloads and folds the swapper's tallies in.
  void WaitSwapsDone() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0 && !busy_; });
    out_->attempted += swap_attempted_;
    out_->failed += swap_failed_;
    if (!swap_error_.empty()) out_->Note(swap_error_);
    swap_attempted_ = swap_failed_ = 0;
    swap_error_.clear();
  }

  // Publishes model m's next variant to its store and reloads it into the
  // registry. Returns the operations attempted and the first failure; the
  // caller counts them (the swapper thread through its tallies).
  std::pair<size_t, dhmm::Status> SwapOnce(size_t m, Tracer* tr) {
    const size_t next = (reloads_[m] + 1) % variants_[m].size();
    dhmm::Status st;
    {
      ScopedSpan s(tr, "store.publish");
      st = stores_[m].Publish(*variants_[m][next]);
    }
    size_t attempted = 1;
    if (st.ok()) {
      ++attempted;
      ScopedSpan s(tr, "registry.reload");
      st = registry_->ReloadModel(m + 1, Dir(m));
    }
    if (st.ok()) ++reloads_[m];
    return {attempted, st};
  }

  void SwapLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
      if (stop_) return;
      --pending_;
      busy_ = true;
      lock.unlock();
      const auto [attempted, st] = SwapOnce(swaps_++ % variants_.size(), nullptr);
      lock.lock();
      swap_attempted_ += attempted;
      if (!st.ok()) {
        ++swap_failed_;
        swap_error_ = "error publish/reload: " + st.ToString();
      }
      busy_ = false;
      cv_.notify_all();
    }
  }

  bool Ok(const dhmm::Status& st, const char* what) {
    ++out_->attempted;
    if (st.ok()) return true;
    ++out_->failed;
    out_->Note(std::string("error ") + what + ": " + st.ToString());
    return false;
  }

  const ServeConfig cfg_;
  const RunOptions opt_;
  Outcome* out_;
  const std::vector<std::vector<ModelPtr<Obs>>> variants_;
  const std::vector<std::vector<std::vector<Obs>>> seqs_;
  const std::vector<Obs> empty_;

  std::unique_ptr<dhmm::serve::ModelRegistry<Obs>> registry_;
  std::unique_ptr<dhmm::serve::FrontEnd<Obs>> frontend_;
  std::unique_ptr<dhmm::serve::WireClient> client_;
  std::vector<dhmm::store::DualSlotStore> stores_;
  std::vector<size_t> reloads_;
  size_t swaps_ = 0;
  int threads_started_ = 0;

  std::mutex mu_;  // guards pending_, busy_, stop_ and the swap tallies
  std::condition_variable cv_;
  size_t pending_ = 0;
  bool busy_ = false;
  bool stop_ = false;
  size_t swap_attempted_ = 0, swap_failed_ = 0;
  std::string swap_error_;
  std::thread swapper_;  // last: joined before the members it uses die

  // The window phase's requests, sized once so the phase never allocates.
  std::vector<dhmm::serve::DecodeRequest<Obs>> inflight_ =
      std::vector<dhmm::serve::DecodeRequest<Obs>>(cfg_.window_requests);
  std::vector<Rec> recs_;
  std::vector<int> paths_;
  std::vector<std::string> stats_;
  std::map<Key, Full> memo_;
};

/// The serve layers of a traced run on another workload: its model served
/// alone, `seqs` as the requests, with serve_small's mix, window and kStats
/// cadence.
template <typename Obs>
void TraceServeLayers(const ModelPtr<Obs>& model,
                      std::vector<std::vector<Obs>> seqs, const RunOptions& opt,
                      Tracer* tr, Outcome* out) {
  constexpr ServeConfig kCfg{5, 1000, 1024, 32, 256, 0, 1000};
  ServeHarness<Obs> h({{model}}, {std::move(seqs)}, kCfg, opt, out);
  if (!h.SetUp()) {
    out->correct = false;
    return;
  }
  h.TraceLayers(1, tr);
  h.CheckRound();
  h.CheckReference();
}

}  // namespace perfbench

#endif  // DHMM_PERFBENCH_SERVE_HARNESS_H_
