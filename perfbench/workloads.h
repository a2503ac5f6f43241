// The benchmark's workloads. Each runs a fixed round of work repeatedly
// until the run's time is used, checks the outputs against the reference
// computations, and fills an Outcome. With `trace` set it instead runs
// one untraced and one traced round (tracing overhead) and then times the
// calls into every layer (layers.h, serve_harness.h) on its own models
// and inputs.
#ifndef DHMM_PERFBENCH_WORKLOADS_H_
#define DHMM_PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

Outcome RunServe(const RunOptions& opt, bool large);
Outcome RunTrain(const RunOptions& opt);
Outcome RunStream(const RunOptions& opt);

}  // namespace perfbench

#endif  // DHMM_PERFBENCH_WORKLOADS_H_
