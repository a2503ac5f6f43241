#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"

namespace perfbench {

void Outcome::CheckFailed(const std::string& what) {
  ++failed;
  if (correct) Note("check_failed " + what);
  correct = false;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

namespace {

// A "Name:  value" field of /proc/self/status (0 when absent).
long StatusField(const char* name) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(name);
  while (std::getline(in, line)) {
    if (line.compare(0, n, name) == 0) return std::atol(line.c_str() + n);
  }
  return 0;
}

}  // namespace

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
// so a small benchmark started from a larger parent would report the
// parent's footprint.
double PeakRssMb() { return static_cast<double>(StatusField("VmHWM:")) / 1024.0; }

int ThreadCount() { return static_cast<int>(StatusField("Threads:")); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void SetupTimer::NoteTo(Outcome* out) const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "setup samples %zu q1_s %.6f q3_s %.6f",
                samples_.size(), Quantile(samples_, 0.25),
                Quantile(samples_, 0.75));
  out->Note(buf);
}

int32_t Tracer::Begin(const char* name) {
  spans_.push_back(Span{name, NowNs(), 0, open_});
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::End(int32_t id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = NowNs();
  open_ = s.parent;
}

std::vector<double> Tracer::DurationsUs(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

double Tracer::P50Us(const char* name) const { return Median(DurationsUs(name)); }

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

namespace {

bool SameBits(const double* x, const double* y, size_t n) {
  return std::memcmp(x, y, n * sizeof(double)) == 0;
}

template <typename Obs>
bool SameTransitions(const dhmm::hmm::HmmModel<Obs>& x,
                     const dhmm::hmm::HmmModel<Obs>& y) {
  const size_t k = x.num_states();
  if (y.num_states() != k) return false;
  if (!SameBits(x.pi.data(), y.pi.data(), k)) return false;
  for (size_t i = 0; i < k; ++i) {
    if (!SameBits(x.a.row_data(i), y.a.row_data(i), k)) return false;
  }
  return true;
}

}  // namespace

template <>
bool SameModelBits(const dhmm::hmm::HmmModel<double>& x,
                   const dhmm::hmm::HmmModel<double>& y) {
  if (!SameTransitions(x, y)) return false;
  const auto* gx =
      dynamic_cast<const dhmm::prob::GaussianEmission*>(x.emission.get());
  const auto* gy =
      dynamic_cast<const dhmm::prob::GaussianEmission*>(y.emission.get());
  if (gx == nullptr || gy == nullptr) return false;
  const size_t k = x.num_states();
  return SameBits(gx->mu().data(), gy->mu().data(), k) &&
         SameBits(gx->sigma().data(), gy->sigma().data(), k);
}

template <>
bool SameModelBits(const dhmm::hmm::HmmModel<int>& x,
                   const dhmm::hmm::HmmModel<int>& y) {
  if (!SameTransitions(x, y)) return false;
  const auto* cx =
      dynamic_cast<const dhmm::prob::CategoricalEmission*>(x.emission.get());
  const auto* cy =
      dynamic_cast<const dhmm::prob::CategoricalEmission*>(y.emission.get());
  if (cx == nullptr || cy == nullptr) return false;
  if (cx->b().rows() != cy->b().rows() || cx->b().cols() != cy->b().cols()) {
    return false;
  }
  for (size_t i = 0; i < cx->b().rows(); ++i) {
    if (!SameBits(cx->b().row_data(i), cy->b().row_data(i), cx->b().cols())) {
      return false;
    }
  }
  return true;
}

dhmm::hmm::HmmModel<int> AsReopened(const dhmm::hmm::HmmModel<int>& m) {
  const auto& c = dynamic_cast<const dhmm::prob::CategoricalEmission&>(*m.emission);
  return dhmm::hmm::HmmModel<int>(
      m.pi, m.a,
      std::make_unique<dhmm::prob::CategoricalEmission>(c.b(), c.pseudo_count()));
}

uint64_t HashBytes(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return std::filesystem::create_directories(dir, ec);
}

}  // namespace perfbench
