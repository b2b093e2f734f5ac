#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/escape.h"

namespace rox::obs {

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out->append(buf);
}

// Prometheus metric names use '_' where ours use '.' and '/'.
std::string ExpositionName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '/' || c == '-') c = '_';
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double v) {
  size_t b = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  // upper_bound finds the first bound > v, i.e. bounds are inclusive
  // upper limits; adjust exact hits down into their bucket.
  if (b > 0 && bounds_[b - 1] == v) --b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  uint64_t total = Count();
  if (total == 0) return 0;
  double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t b = 0; b <= bounds_.size(); ++b) {
    uint64_t n = buckets_[b].load(std::memory_order_relaxed);
    if (n == 0) continue;
    if (static_cast<double>(seen + n) >= target) {
      double lo = b == 0 ? 0 : bounds_[b - 1];
      if (b == bounds_.size()) return lo;  // +inf bucket: its lower bound
      double hi = bounds_[b];
      double frac = (target - static_cast<double>(seen)) /
                    static_cast<double>(n);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += n;
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::vector<double> Histogram::LatencyBucketsMs() {
  std::vector<double> out;
  for (double b = 0.25; b <= 8192.0; b *= 2) out.push_back(b);
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* g = new MetricsRegistry();  // leaked: immortal
  return *g;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.gauge != nullptr || e.histogram != nullptr) return nullptr;
  if (e.counter == nullptr) {
    e.counter = std::make_unique<Counter>();
    e.help = std::move(help);
  }
  return e.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.counter != nullptr || e.histogram != nullptr) return nullptr;
  if (e.gauge == nullptr) {
    e.gauge = std::make_unique<Gauge>();
    e.help = std::move(help);
  }
  return e.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.counter != nullptr || e.gauge != nullptr) return nullptr;
  if (e.histogram == nullptr) {
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
    e.help = std::move(help);
  }
  return e.histogram.get();
}

std::string MetricsRegistry::DumpText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, e] : entries_) {
    std::string expo = ExpositionName(name);
    if (!e.help.empty()) {
      out.append("# HELP ").append(expo).append(" ").append(e.help).append(
          "\n");
    }
    if (e.counter != nullptr) {
      out.append("# TYPE ").append(expo).append(" counter\n");
      out.append(expo).append(" ");
      AppendDouble(&out, static_cast<double>(e.counter->Value()));
      out.append("\n");
    } else if (e.gauge != nullptr) {
      out.append("# TYPE ").append(expo).append(" gauge\n");
      out.append(expo).append(" ");
      AppendDouble(&out, e.gauge->Value());
      out.append("\n");
    } else if (e.histogram != nullptr) {
      out.append("# TYPE ").append(expo).append(" histogram\n");
      const std::vector<double>& bounds = e.histogram->bounds();
      std::vector<uint64_t> counts = e.histogram->BucketCounts();
      uint64_t cum = 0;
      for (size_t b = 0; b < counts.size(); ++b) {
        cum += counts[b];
        out.append(expo).append("_bucket{le=\"");
        if (b == bounds.size()) {
          out.append("+Inf");
        } else {
          AppendDouble(&out, bounds[b]);
        }
        out.append("\"} ");
        AppendDouble(&out, static_cast<double>(cum));
        out.append("\n");
      }
      out.append(expo).append("_sum ");
      AppendDouble(&out, e.histogram->Sum());
      out.append("\n");
      out.append(expo).append("_count ");
      AppendDouble(&out, static_cast<double>(e.histogram->Count()));
      out.append("\n");
    }
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(&out, name);
    out.append("\":");
    if (e.counter != nullptr) {
      AppendDouble(&out, static_cast<double>(e.counter->Value()));
    } else if (e.gauge != nullptr) {
      AppendDouble(&out, e.gauge->Value());
    } else if (e.histogram != nullptr) {
      out.append("{\"count\":");
      AppendDouble(&out, static_cast<double>(e.histogram->Count()));
      out.append(",\"sum\":");
      AppendDouble(&out, e.histogram->Sum());
      out.append(",\"p50\":");
      AppendDouble(&out, e.histogram->Quantile(0.50));
      out.append(",\"p95\":");
      AppendDouble(&out, e.histogram->Quantile(0.95));
      out.append(",\"buckets\":[");
      std::vector<uint64_t> counts = e.histogram->BucketCounts();
      for (size_t b = 0; b < counts.size(); ++b) {
        if (b > 0) out.push_back(',');
        AppendDouble(&out, static_cast<double>(counts[b]));
      }
      out.append("]}");
    } else {
      out.append("null");
    }
  }
  out.push_back('}');
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    if (e.counter != nullptr) e.counter->Reset();
    if (e.gauge != nullptr) e.gauge->Reset();
    if (e.histogram != nullptr) e.histogram->Reset();
  }
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace rox::obs
