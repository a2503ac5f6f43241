// stream_sessions: about 1e5 resident SessionManager sessions (lag 8, 15
// states) stream corpus tokens with a DPP IncrementalEmTrainer (alpha > 0)
// attached. Once the lag windows have filled, after every quarter sweep
// over the sessions the workload runs Step(), publishes the snapshot to a
// DualSlotStore and hot-swaps it in with SessionManager::UpdateModel.
// Sessions that reach the end of a sentence are finished and reset, which
// binds them to the newest snapshot. Every
// round starts from the same initial model, so every round pushes the same
// frames and produces the same labels and snapshots.
#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/incremental_em.h"
#include "data/pos_corpus.h"
#include "layers.h"
#include "prob/categorical_emission.h"
#include "prob/rng.h"
#include "reference.h"
#include "serve_harness.h"
#include "serve/session_manager.h"
#include "store/dual_slot.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = dhmm::serve;
using Model = dhmm::hmm::HmmModel<int>;

constexpr size_t kStates = dhmm::data::kNumPosTags;
constexpr size_t kSessions = 100000;
constexpr size_t kLag = 8;
// Pushes per session per round. Sessions emit (and train on) labels only
// once `kLag` frames are in, so the trainer steps only in the last
// kFramesPerSession - kLag sweeps, kStepsPerSweep times in each.
constexpr size_t kFramesPerSession = 12;
constexpr size_t kStepsPerSweep = 4;
constexpr size_t kStride = 7919;         // coprime with kSessions
constexpr size_t kCheckEvery = kSessions / 64;
constexpr size_t kStreamed = 2000, kHeldOut = 200;
constexpr double kAlpha = 10.0;
// Set-ups before each round: a round is a few seconds, a set-up (1e5
// sessions) about 50 ms.
constexpr int kSetupsPerRound = 2;

// One sentence-long stretch of a check session, under one snapshot.
struct Segment {
  size_t snapshot;  // index into the round's snapshots
  std::vector<int> obs, labels;
};

class StreamBench {
 public:
  StreamBench(const RunOptions& opt, Outcome* out) : opt_(opt), out_(out) {
    dhmm::data::PosCorpusOptions c;
    c.num_sentences = kStreamed + kHeldOut;
    c.vocab_size = 600;
    c.seed = opt.seed;
    const auto corpus = dhmm::data::GeneratePosCorpus(c);
    for (size_t i = 0; i < corpus.sentences.size(); ++i) {
      if (i < kStreamed) {
        sentences_.push_back(corpus.sentences[i].obs);
      } else {
        held_out_.push_back(corpus.sentences[i]);
      }
    }
    dhmm::prob::Rng rng(opt.seed * 131 + 5);
    init_ = std::make_shared<const Model>(
        rng.DirichletSymmetric(kStates, 1.0),
        rng.RandomStochasticMatrix(kStates, kStates, 1.0),
        std::make_unique<dhmm::prob::CategoricalEmission>(
            dhmm::prob::CategoricalEmission::RandomInit(
                kStates, c.vocab_size, rng, 1.0, /*pseudo_count=*/0.01)));
    store_dir_ = opt.work_dir + "/stream_store";
  }

  // Manager construction, 1e5 session creations, trainer attach and the
  // initial store publish. Call on a torn-down bench.
  bool SetUp() {
    serve::SessionManagerOptions so;
    so.lag = kLag;
    mgr_ = std::make_unique<serve::SessionManager<int>>(init_, so);
    handles_.resize(kSessions);
    for (size_t s = 0; s < kSessions; ++s) {
      auto h = mgr_->CreateSession();
      if (!h.ok()) return Ok(h.status());
      handles_[s] = h.value();
    }
    NewTrainer();
    ResetDir(store_dir_);
    auto slots = dhmm::store::DualSlotStore::Open(store_dir_);
    if (!slots.ok()) return Ok(slots.status());
    store_ = std::make_unique<dhmm::store::DualSlotStore>(std::move(slots).value());
    return Ok(store_->Publish(*init_));
  }

  struct RoundStats {
    double frames_per_s, cpu_us_per_push;
    std::vector<double> step_us;
    uint64_t hash;
  };

  RoundStats Round(bool record, Tracer* tr) {
    // Untimed prelude: every round starts from the initial model.
    mgr_->UpdateModel(init_);
    NewTrainer();
    snapshots_.assign(1, init_);
    pos_.assign(kSessions, Cursor{});
    for (size_t s = 0; s < kSessions; ++s) {
      Ok(mgr_->ResetSession(handles_[s]));
      pos_[s].sentence = (s * 7) % sentences_.size();
    }
    segments_.clear();
    open_.assign(kSessions / kCheckEvery + 1, Segment{0, {}, {}});
    label_hash_ = 1469598103934665603ULL;

    RoundStats rs;
    const double c0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    constexpr size_t kChunk = kSessions / kStepsPerSweep;
    for (size_t f = 0; f < kFramesPerSession; ++f) {
      for (size_t j0 = 0; j0 < kSessions; j0 += kChunk) {
        {
          ScopedSpan span(tr, "sweep");
          for (size_t j = j0; j < j0 + kChunk; ++j) {
            Push((j * kStride) % kSessions, record);
          }
        }
        if (f < kLag) continue;
        const int64_t s0 = NowNs();
        ModelPtr<int> snap;
        {
          ScopedSpan span(tr, "core.step");
          snap = trainer_->Step();
        }
        ++out_->attempted;
        {
          ScopedSpan span(tr, "store.publish");
          Ok(store_->Publish(*snap));
        }
        {
          ScopedSpan span(tr, "sessions.update_model");
          mgr_->UpdateModel(snap);
        }
        rs.step_us.push_back(static_cast<double>(NowNs() - s0) * 1e-3);
        snapshots_.push_back(snap);
        if (record) CheckReopen(*snap);
      }
    }
    const double wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    rs.cpu_us_per_push = (ProcessCpuSeconds() - c0) * 1e6 /
                         static_cast<double>(kSessions * kFramesPerSession);
    rs.frames_per_s = static_cast<double>(kSessions * kFramesPerSession) / wall_s;
    // Close the check sessions' open sentences (untimed).
    for (size_t s = 0; s < kSessions; s += kCheckEvery) {
      if (pos_[s].offset > 0) EndSentence(s, record);
    }
    rs.hash = HashBytes(&label_hash_, sizeof label_hash_, 0);
    for (const auto& snap : snapshots_) {
      rs.hash = HashBytes(snap->a.data(), snap->a.size() * sizeof(double), rs.hash);
    }
    return rs;
  }

  // Labels of every recorded segment against the reference fixed-lag
  // smoother under its snapshot, and held-out likelihood improvement.
  void CheckSegments() {
    for (const Segment& seg : segments_) {
      const ref::LogModel<int> lm(*snapshots_[seg.snapshot]);
      std::vector<double> post;
      ref::FixedLagPosterior(lm, lm.Table(seg.obs), seg.obs.size(), kLag, &post);
      bool ok = seg.labels.size() == seg.obs.size();
      for (size_t t = 0; ok && t < seg.obs.size(); ++t) {
        ok = ref::IsArgMax(post.data() + t * kStates, kStates, seg.labels[t], 1e-9);
      }
      if (!ok) out_->CheckFailed("session labels vs reference smoother");
    }
    const double before = ref::CorpusLogLikelihood(*init_, held_out_);
    const double after = ref::CorpusLogLikelihood(*snapshots_.back(), held_out_);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "checked segments %zu held-out loglik %.1f -> %.1f",
                  segments_.size(), before, after);
    out_->Note(buf);
    if (!(after > before)) out_->CheckFailed("held-out likelihood did not improve");
  }

  ModelPtr<int> init() const { return init_; }
  const std::vector<std::vector<int>>& sentences() const { return sentences_; }
  void TearDown() {
    mgr_.reset();
    trainer_.reset();
  }

 private:
  struct Cursor {
    size_t sentence = 0, offset = 0;
  };

  void NewTrainer() {
    mgr_->AttachTrainer(nullptr);
    dhmm::core::IncrementalEmOptions io;
    io.alpha = kAlpha;
    trainer_ = std::make_unique<dhmm::core::IncrementalEmTrainer<int>>(init_, io);
    mgr_->AttachTrainer(trainer_.get());
  }

  bool Ok(const dhmm::Status& st) {
    ++out_->attempted;
    if (st.ok()) return true;
    ++out_->failed;
    out_->Note("error " + st.ToString());
    return false;
  }

  void Push(size_t s, bool record) {
    Cursor& c = pos_[s];
    const std::vector<int>& sent = sentences_[c.sentence];
    int label = -1;
    const dhmm::Status st = mgr_->Push(handles_[s], sent[c.offset], &label);
    ++out_->attempted;
    if (!st.ok()) ++out_->failed;
    const bool check = s % kCheckEvery == 0;
    if (check) {
      Segment& seg = open_[s / kCheckEvery];
      if (record) seg.obs.push_back(sent[c.offset]);
      if (label >= 0) {
        if (record) seg.labels.push_back(label);
        label_hash_ = HashBytes(&label, sizeof label, label_hash_);
      }
    }
    if (++c.offset == sent.size()) EndSentence(s, record);
  }

  // Finish (flushing the lag window's labels), then reset: the session
  // rebinds to the newest snapshot and starts the next sentence.
  void EndSentence(size_t s, bool record) {
    Cursor& c = pos_[s];
    const bool check = s % kCheckEvery == 0;
    tail_.clear();
    Ok(mgr_->Finish(handles_[s], &tail_));
    if (check) {
      Segment& seg = open_[s / kCheckEvery];
      for (int l : tail_) label_hash_ = HashBytes(&l, sizeof l, label_hash_);
      if (record) {
        seg.labels.insert(seg.labels.end(), tail_.begin(), tail_.end());
        segments_.push_back(std::move(seg));
      }
      seg = Segment{snapshots_.size() - 1, {}, {}};
    }
    Ok(mgr_->ResetSession(handles_[s]));
    c.sentence = (c.sentence + 1) % sentences_.size();
    c.offset = 0;
  }

  void CheckReopen(const Model& snap) {
    auto loaded = dhmm::store::LoadAnyModel<int>(store_dir_);
    if (!loaded.ok() || !SameModelBits(loaded.value(), AsReopened(snap))) {
      out_->CheckFailed("published snapshot does not reopen bit-exactly");
    }
  }

  const RunOptions opt_;
  Outcome* out_;
  std::vector<std::vector<int>> sentences_;
  dhmm::hmm::Dataset<int> held_out_;
  ModelPtr<int> init_;
  std::string store_dir_;

  std::unique_ptr<serve::SessionManager<int>> mgr_;
  std::unique_ptr<dhmm::core::IncrementalEmTrainer<int>> trainer_;
  std::unique_ptr<dhmm::store::DualSlotStore> store_;
  std::vector<serve::SessionHandle> handles_;
  std::vector<Cursor> pos_;
  std::vector<ModelPtr<int>> snapshots_;
  std::vector<Segment> open_, segments_;
  std::vector<int> tail_;
  uint64_t label_hash_ = 0;
};

}  // namespace

Outcome RunStream(const RunOptions& opt) {
  Outcome out;
  StreamBench bench(opt, &out);
  SetupTimer setup;
  auto set_up = [&] {
    for (int r = 0; r < kSetupsPerRound; ++r) {
      bench.TearDown();
      if (!setup.Time([&] { return bench.SetUp(); })) return false;
    }
    return true;
  };
  if (!set_up()) {
    out.correct = false;
    return out;
  }
  // Round 0 records and checks; later rounds must reproduce its hash.
  const auto first = bench.Round(true, nullptr);
  bench.CheckSegments();

  if (opt.trace) {
    const auto plain = bench.Round(false, nullptr);
    Tracer rt;
    const auto traced = bench.Round(false, &rt);
    if (plain.hash != first.hash || traced.hash != first.hash) {
      out.CheckFailed("round not reproducible");
    }
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "trace_overhead frames_per_s %.0f -> %.0f, step_p50_us "
                  "%.1f -> %.1f (untraced -> traced)",
                  plain.frames_per_s, traced.frames_per_s, Median(plain.step_us),
                  Median(traced.step_us));
    out.Note(buf);
    const ModelPtr<int> init = bench.init();
    const auto& sents = bench.sentences();
    bench.TearDown();
    Tracer tr;
    TraceSessionLayers<int>(init, sents, kSessions, kLag, kAlpha, 4,
                            opt.work_dir, &tr, &out);
    dhmm::hmm::Dataset<int> data;
    for (size_t i = 0; i < 300; ++i) data.push_back({sents[i], {}});
    dhmm::core::DiversifiedEmOptions eo;
    eo.alpha = kAlpha;
    eo.max_iters = 3;
    double fit_s = 0.0;
    TraceTrainLayers(*init, data, eo, &tr, &out, &fit_s);
    TraceServeLayers<int>(init, {sents.begin(), sents.begin() + 64}, opt, &tr,
                          &out);
    tr.WriteJsonLines(opt.work_dir + "/trace_spans.jsonl");
    return out;
  }

  std::vector<double> fps, cpu, steps;
  const int64_t deadline = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  do {
    if (!set_up()) {
      out.correct = false;
      return out;
    }
    const auto rs = bench.Round(false, nullptr);
    if (rs.hash != first.hash) out.CheckFailed("round not reproducible");
    fps.push_back(rs.frames_per_s);
    cpu.push_back(rs.cpu_us_per_push);
    steps.insert(steps.end(), rs.step_us.begin(), rs.step_us.end());
  } while (NowNs() < deadline);
  char buf[160];
  std::snprintf(buf, sizeof buf, "rounds %zu steps %zu step_p90_us %.1f",
                fps.size(), steps.size(), Quantile(steps, 0.9));
  out.Note(buf);
  setup.NoteTo(&out);
  out.Set("setup_s", setup.MedianSeconds(), "s");
  out.Set("latency_p50_us", Median(steps), "us");
  out.Set("throughput_per_s", Median(fps), "1/s");
  out.Set("cpu_us_per_op", Median(cpu), "us");
  return out;
}

}  // namespace perfbench
