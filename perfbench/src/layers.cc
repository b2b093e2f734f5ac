#include "layers.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ms();
  }
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      self[static_cast<size_t>(s.parent)] -= s.duration_ms();
    }
  }
  return self;
}

const char* LayerOfSpan(std::string_view name) {
  // engine/engine.cc: the query envelope, admission and cache lookup.
  if (name == "query" || name == "admission" || name == "cache_lookup") {
    return "engine";
  }
  // xq/: parsing, compilation, and RunXQuery's own time ("execute").
  if (name == "parse" || name == "compile" || name == "execute") return "xq";
  // rox/: the per-component optimizer loop and its sampling.
  if (name == "rox" || name == "phase1" || name == "chain_round" ||
      name == "resample") {
    return "rox";
  }
  // exec/: edge kernels, final assembly, gather and the plan tail.
  if (name == "edge" || name == "assembly" || name == "gather" ||
      name == "plan_tail") {
    return "exec";
  }
  return "other";
}

const std::vector<std::string>& Kernels() {
  static const std::vector<std::string>* kKernels =
      new std::vector<std::string>{"structural", "hash",      "merge",
                                   "index-nl",   "theta-run", "theta-index"};
  return *kKernels;
}

bool FoldTrace(const Json& trace, TraceFold* out) {
  const Json& spans = trace["spans"];
  if (spans.type != Json::kArray) return false;
  out->spans.clear();
  out->edges.clear();
  for (const Json& s : spans.items) {
    Span span;
    span.name = s["name"].str;
    span.parent = static_cast<int>(s["parent"].Num(-1));
    span.start_ms = s["start_ns"].Num() / 1e6;
    double dur = s["dur_ns"].Num();
    span.end_ms = span.start_ms + (dur > 0 ? dur / 1e6 : 0);
    out->spans.push_back(std::move(span));
  }
  for (const Json& e : trace["edges"].items) {
    TraceFold::Edge edge;
    edge.kernel = e["kernel"].str;
    size_t span = static_cast<size_t>(e["span"].Num(-1));
    if (span < out->spans.size()) edge.ms = out->spans[span].duration_ms();
    edge.rows = std::max(0.0, e["obs"].Num());
    out->edges.push_back(std::move(edge));
  }
  return true;
}

void LayerTotals::Add(const TraceFold& fold) {
  ++requests;
  std::vector<double> self = SelfTimes(fold.spans);
  for (size_t i = 0; i < fold.spans.size(); ++i) {
    const Span& s = fold.spans[i];
    layer_self_ms[LayerOfSpan(s.name)] += self[i];
    span_ms[s.name] += s.duration_ms();
    covered_ms += self[i];
  }
  for (const TraceFold::Edge& e : fold.edges) {
    kernel_ms[e.kernel] += e.ms;
    kernel_rows[e.kernel] += e.rows;
    edge_rows += e.rows;
  }
}

}  // namespace perfbench
