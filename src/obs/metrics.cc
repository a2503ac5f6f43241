// Registry + renderers for the obs metric primitives (see metrics.h for
// the hot-path contract; everything in this file is the cold side).
#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace dhmm::obs {
namespace {

/// Shortest round-trippable formatting: integers ("42") stay integers,
/// gauges keep full double precision.
void AppendValue(double v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

}  // namespace

Registry& Registry::Global() {
  // Intentionally leaked: services may record metrics during static
  // teardown, so the registry must outlive every other static.
  static Registry* r = new Registry;
  return *r;
}

Registry::Entry* Registry::FindLocked(const std::string& name) {
  for (Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetCounterLocked(name);
}

Counter* Registry::GetCounterLocked(const std::string& name) {
  if (Entry* e = FindLocked(name)) {
    DHMM_CHECK_MSG(e->kind == MetricKind::kCounter,
                   "obs metric re-registered as a different kind");
    return e->counter;
  }
  counters_.emplace_back();
  entries_.push_back(
      {name, MetricKind::kCounter, &counters_.back(), nullptr, nullptr, {}});
  return &counters_.back();
}

void Registry::RegisterCounterSum(const std::string& name,
                                  const std::vector<std::string>& parts) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::size_t> idx;
  for (const std::string& part : parts) {
    GetCounterLocked(part);
    idx.push_back(static_cast<std::size_t>(FindLocked(part) - &entries_[0]));
  }
  if (Entry* e = FindLocked(name)) {
    DHMM_CHECK_MSG(e->kind == MetricKind::kCounterSum && e->parts == idx,
                   "obs counter sum re-registered differently");
    return;
  }
  entries_.push_back({name, MetricKind::kCounterSum, nullptr, nullptr,
                      nullptr, std::move(idx)});
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = FindLocked(name)) {
    DHMM_CHECK_MSG(e->kind == MetricKind::kGauge,
                   "obs metric re-registered as a different kind");
    return e->gauge;
  }
  gauges_.emplace_back();
  entries_.push_back(
      {name, MetricKind::kGauge, nullptr, &gauges_.back(), nullptr, {}});
  return &gauges_.back();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = FindLocked(name)) {
    DHMM_CHECK_MSG(e->kind == MetricKind::kHistogram,
                   "obs metric re-registered as a different kind");
    return e->histogram;
  }
  histograms_.emplace_back();
  entries_.push_back({name, MetricKind::kHistogram, nullptr, nullptr,
                      &histograms_.back(), {}});
  return &histograms_.back();
}

Snapshot Registry::TakeSnapshot(const std::string& prefix) const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  // Every counter is read exactly once, before anything is emitted; the
  // counter sums add up those same reads.
  std::vector<uint64_t> counts(entries_.size(), 0);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].kind == MetricKind::kCounter) {
      counts[i] = entries_[i].counter->Value();
    }
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (!prefix.empty() && e.name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    switch (e.kind) {
      case MetricKind::kCounter:
        snap.values.emplace_back(e.name, static_cast<double>(counts[i]));
        break;
      case MetricKind::kCounterSum: {
        uint64_t sum = 0;
        for (std::size_t p : e.parts) sum += counts[p];
        snap.values.emplace_back(e.name, static_cast<double>(sum));
        break;
      }
      case MetricKind::kGauge:
        snap.values.emplace_back(e.name, e.gauge->Value());
        break;
      case MetricKind::kHistogram: {
        uint64_t merged[Histogram::kBuckets];
        e.histogram->MergedCounts(merged);
        uint64_t count = 0;
        std::size_t top = 0;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          count += merged[b];
          if (merged[b] != 0) top = b;
        }
        snap.values.emplace_back(e.name + ".count",
                                 static_cast<double>(count));
        snap.values.emplace_back(
            e.name + ".p50",
            static_cast<double>(e.histogram->ValueAtQuantile(0.50)));
        snap.values.emplace_back(
            e.name + ".p90",
            static_cast<double>(e.histogram->ValueAtQuantile(0.90)));
        snap.values.emplace_back(
            e.name + ".p99",
            static_cast<double>(e.histogram->ValueAtQuantile(0.99)));
        snap.values.emplace_back(
            e.name + ".max",
            count == 0 ? 0.0
                       : static_cast<double>(
                             Histogram::BucketUpperBound(top)));
        break;
      }
    }
  }
  std::sort(snap.values.begin(), snap.values.end());
  return snap;
}

std::string RenderText(const Snapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.values) {
    out += name;
    out += ' ';
    if (std::isfinite(value)) {
      AppendValue(value, &out);
    } else {
      out += std::isnan(value) ? "nan" : (value > 0 ? "inf" : "-inf");
    }
    out += '\n';
  }
  return out;
}

std::string RenderJson(const Snapshot& snapshot) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : snapshot.values) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += name;  // metric names are code-chosen [a-z0-9._]: no escaping
    out += "\": ";
    if (std::isfinite(value)) {
      AppendValue(value, &out);
    } else {
      out += "null";
    }
  }
  out += "}";
  return out;
}

}  // namespace dhmm::obs
