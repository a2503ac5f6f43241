// dhmm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --work-dir <dir>
//
// Confines itself to one CPU, runs the reference self-check, runs the
// workload, and prints the run context, notes, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "linalg/kernels_dispatch.h"
#include "reference.h"
#include "workloads.h"

namespace {

// Pins the process (and every thread it starts later) to the first CPU of
// its allowed set. Returns that CPU, or -1 when the affinity call failed.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? c : -1;
  }
  return -1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "dhmm_perfbench: %s\nusage: dhmm_perfbench --workload "
               "serve_small|serve_large|train_pos|stream_sessions --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--work-dir") {
      opt.work_dir = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.work_dir.empty() || !(opt.seconds > 0.0)) return Usage("bad flags");
  if (!perfbench::ResetDir(opt.work_dir)) return Usage("cannot create work dir");

  const int cpu = PinToOneCpu();
  std::printf("context cpu_set %d\n", cpu);
  std::printf("context kernel_isa %s\n", dhmm::linalg::kernels::ActiveIsaName());

  const std::string self = perfbench::ref::SelfCheck(opt.seed);
  if (!self.empty()) {
    std::fprintf(stderr, "reference self-check failed: %s\n", self.c_str());
    return 3;
  }

  perfbench::Outcome out;
  if (opt.workload == "serve_small") {
    out = perfbench::RunServe(opt, /*large=*/false);
  } else if (opt.workload == "serve_large") {
    out = perfbench::RunServe(opt, /*large=*/true);
  } else if (opt.workload == "train_pos") {
    out = perfbench::RunTrain(opt);
  } else if (opt.workload == "stream_sessions") {
    out = perfbench::RunStream(opt);
  } else {
    return Usage(("unknown workload " + opt.workload).c_str());
  }
  if (!opt.trace) out.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");

  for (const std::string& n : out.notes) std::printf("note %s\n", n.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(m.value) ? m.value : -1.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
