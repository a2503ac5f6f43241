// serve_small / serve_large: the loopback wire path WireClient -> FrontEnd
// -> ModelRegistry -> DecodeService under a closed loop. Each round sends
// the same requests: a latency phase with one request in flight and a
// kStats query at a fixed cadence, then a throughput phase that keeps a
// fixed window in flight. On serve_small a second thread publishes a new
// model to a DualSlotStore and reloads it into the registry at a fixed
// request cadence, so store writes run beside the reads.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "hmm/sampler.h"
#include "layers.h"
#include "prob/gaussian_emission.h"
#include "prob/rng.h"
#include "serve_harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Model = dhmm::hmm::HmmModel<double>;

// Model shape and inputs of one serve workload; the serving itself is the
// shared ServeHarness.
struct Shape {
  size_t k, T, models, seqs_per_model, variants;
  ServeConfig serve;
};

constexpr Shape kSmall{5, 32, 4, 16, 4, {5, 2000, 8192, 32, 256, 1024, 2000}};
constexpr Shape kLarge{50, 256, 1, 16, 4, {8, 200, 300, 8, 50, 0, 400}};

Model MakeModel(size_t k, dhmm::prob::Rng& rng) {
  dhmm::linalg::Vector mu(k), sigma(k);
  for (size_t i = 0; i < k; ++i) {
    mu[i] = static_cast<double>(i) + rng.Uniform(-0.2, 0.2);
    sigma[i] = rng.Uniform(0.6, 0.9);
  }
  return Model(rng.DirichletSymmetric(k, 2.0),
               rng.RandomStochasticMatrix(k, k, 2.0),
               std::make_unique<dhmm::prob::GaussianEmission>(mu, sigma));
}

}  // namespace

Outcome RunServe(const RunOptions& opt, bool large) {
  const Shape& shape = large ? kLarge : kSmall;
  dhmm::prob::Rng rng(opt.seed * 7919 + shape.k);
  std::vector<std::vector<ModelPtr<double>>> variants(shape.models);
  std::vector<std::vector<std::vector<double>>> seqs(shape.models);
  for (size_t m = 0; m < shape.models; ++m) {
    for (size_t v = 0; v < shape.variants; ++v) {
      variants[m].push_back(std::make_shared<const Model>(MakeModel(shape.k, rng)));
    }
    for (size_t s = 0; s < shape.seqs_per_model; ++s) {
      seqs[m].push_back(
          dhmm::hmm::SampleSequence(*variants[m][0], shape.T, rng).obs);
    }
  }
  Outcome out;
  ServeHarness<double> bench(variants, seqs, shape.serve, opt, &out);
  SetupTimer setup;
  auto set_up = [&] {
    bench.TearDown();
    return setup.Time([&] { return bench.SetUp(); });
  };
  if (!set_up()) {
    out.correct = false;
    return out;
  }
  bench.StartSwapper();
  // Round 0 warms every path and records the responses checked below.
  bench.Round(0, nullptr, nullptr);
  bench.CheckRound();

  if (opt.trace) {
    // Tracing overhead: three untraced and three traced rounds, alternated.
    std::vector<double> plain, traced, plain_rps, traced_rps;
    Tracer rt;
    for (uint64_t r = 1; r <= 6; ++r) {
      const bool on = r % 2 == 0;
      const auto rs = bench.Round(r, on ? &traced : &plain, on ? &rt : nullptr);
      (on ? traced_rps : plain_rps).push_back(rs.window_rps);
      bench.CheckRound();
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "trace_overhead latency_p50_us %.3f -> %.3f, "
                  "throughput_per_s %.1f -> %.1f (untraced -> traced)",
                  Median(plain), Median(traced), Median(plain_rps),
                  Median(traced_rps));
    out.Note(buf);
    Tracer tr;
    bench.TraceLayers(7, &tr);
    bench.CheckRound();
    // Training and session layers at this workload's model shape.
    dhmm::hmm::Dataset<double> data;
    std::vector<std::vector<double>> streams;
    for (const auto& ms : seqs) {
      for (const auto& s : ms) {
        data.push_back({s, {}});
        streams.push_back(s);
      }
    }
    dhmm::prob::Rng init_rng(opt.seed + 17);
    const Model init = MakeModel(shape.k, init_rng);
    dhmm::core::DiversifiedEmOptions eo;
    eo.alpha = 10.0;
    eo.max_iters = 3;
    double fit_s = 0.0;
    TraceTrainLayers(init, data, eo, &tr, &out, &fit_s);
    TraceSessionLayers<double>(variants[0][0], streams, 4096, 8, 10.0, 4,
                               opt.work_dir, &tr, &out);
    tr.WriteJsonLines(opt.work_dir + "/trace_spans.jsonl");
    bench.CheckReference();
    return out;
  }

  std::vector<double> latencies, rps, cpu;
  const int64_t deadline = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  uint64_t round = 1;
  do {
    if (!set_up()) {
      out.correct = false;
      return out;
    }
    const auto rs = bench.Round(round++, &latencies, nullptr);
    bench.CheckRound();
    rps.push_back(rs.window_rps);
    cpu.push_back(rs.cpu_us_per_req);
  } while (NowNs() < deadline);
  bench.CheckReference();

  const double p99 = Quantile(latencies, 0.99);
  size_t beyond = 0;
  for (double l : latencies) beyond += l > p99 ? 1 : 0;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "latency samples %zu p90_us %.2f p99_us %.2f (%zu beyond) "
                "rounds %zu distinct_responses %zu",
                latencies.size(), Quantile(latencies, 0.9), p99, beyond,
                rps.size(), bench.memo_size());
  out.Note(buf);
  setup.NoteTo(&out);
  out.Set("setup_s", setup.MedianSeconds(), "s");
  out.Set("latency_p50_us", Median(latencies), "us");
  out.Set("throughput_per_s", Median(rps), "1/s");
  out.Set("cpu_us_per_op", Median(cpu), "us");
  return out;
}

}  // namespace perfbench
