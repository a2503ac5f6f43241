// Shared plumbing of the end-to-end benchmark: run options, the outcome a
// workload reports, span tracing, and small measurement helpers.
#ifndef DHMM_PERFBENCH_BENCH_H_
#define DHMM_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hmm/model.h"

namespace perfbench {

template <typename Obs>
using ModelPtr = std::shared_ptr<const dhmm::hmm::HmmModel<Obs>>;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory inside the checkout for store files and traces.
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload reports. `attempted`/`failed` count
/// requests, pushes, fits, steps and publishes; a failed output check
/// counts as a failed operation and also clears `correct`.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Free-form "key value" lines printed before the result (run context,
  /// tail percentiles, tracing overhead); never metrics.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& line) {
    if (notes.size() < kMaxNotes) notes.push_back(line);
  }
  static constexpr size_t kMaxNotes = 64;
  /// Records one failed output check.
  void CheckFailed(const std::string& what);
};

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();
/// Process user + system CPU time in seconds (all threads).
double ProcessCpuSeconds();
/// Peak resident set size of the process in MiB (VmHWM).
double PeakRssMb();
/// `Threads:` of /proc/self/status (0 when unreadable).
int ThreadCount();

/// Quantile by linear interpolation (Python's statistics "inclusive").
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The set-up metric. A workload sets up before its first round and again
/// before every later one (after an untimed tear-down), so setup_s is a
/// median over set-ups spread across the whole run: it sees the same
/// stretch of host time as the run's other metrics, not just its first
/// moments.
class SetupTimer {
 public:
  /// Times `setup` (a callable returning false on failure) and returns
  /// its result.
  template <typename F>
  bool Time(F&& setup) {
    const int64_t t0 = NowNs();
    const bool ok = setup();
    samples_.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    return ok;
  }
  double MedianSeconds() const { return Median(samples_); }
  /// Notes how many set-ups were timed and their quartiles.
  void NoteTo(Outcome* out) const;

 private:
  std::vector<double> samples_;
};

/// Span recorder: name, start, end and parent, kept in memory and written
/// out when the run ends. Only the benchmark's own files open spans,
/// around calls into the library.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
  };

  int32_t Begin(const char* name);
  void End(int32_t id);
  /// Durations in microseconds of every closed span called `name`.
  std::vector<double> DurationsUs(const char* name) const;
  /// p50 of DurationsUs(name); 0 when there is none.
  double P50Us(const char* name) const;
  /// One JSON object per line: name, start_ns, end_ns, parent.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// Opens a span when a tracer is given; a null tracer costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name)
      : t_(t), id_(t != nullptr ? t->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int32_t id_;
};

/// Bit-for-bit equality of two models' parameters: pi, A and the Gaussian
/// or categorical emission parameters.
template <typename Obs>
bool SameModelBits(const dhmm::hmm::HmmModel<Obs>& x,
                   const dhmm::hmm::HmmModel<Obs>& y);

/// The model a store reopen of `m` must give bit for bit. The store keeps
/// B and the pseudo-count and rebuilds the emission through
/// CategoricalEmission's constructor, which renormalizes B's rows, so the
/// same constructor applied to the published B is the exact expectation;
/// comparing against it checks the store's codec alone.
dhmm::hmm::HmmModel<int> AsReopened(const dhmm::hmm::HmmModel<int>& m);

/// FNV-1a over raw bytes, chained through `h`.
uint64_t HashBytes(const void* data, size_t n, uint64_t h);

/// Creates (or empties) `dir`; returns false on failure.
bool ResetDir(const std::string& dir);

}  // namespace perfbench

#endif  // DHMM_PERFBENCH_BENCH_H_
