// Folding of spans-level traces into per-layer times, and the order
// statistics every metric of the benchmark is reported with.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "json.h"

namespace perfbench {

// Quantile q in [0, 1] of `values`, linearly interpolated between the
// closest ranks (numpy's default); 0 for an empty set.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

struct Span {
  std::string name;
  int parent = -1;  // index into the same request's spans; -1 = root
  double start_ms = 0;
  double end_ms = 0;
  double duration_ms() const { return end_ms - start_ms; }
};

// Self time of each span of one request: its duration minus the
// durations of its direct children. Self times sum to the roots'
// durations.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// The serving layer a span of the engine's trace taxonomy belongs to:
// "engine", "xq", "rox" or "exec"; "other" for names it does not know.
const char* LayerOfSpan(std::string_view name);

// The kernels of ROX edge executions reported per kernel.
const std::vector<std::string>& Kernels();

// One request's spans and edge payloads.
struct TraceFold {
  std::vector<Span> spans;
  struct Edge {
    std::string kernel;
    double ms = 0;    // duration of the edge's span
    double rows = 0;  // observed |R_e|
  };
  std::vector<Edge> edges;
};

// Reads the spans-level trace object of a /query response.
bool FoldTrace(const Json& trace, TraceFold* out);

// Sums of folded traces over the requests of a traced phase.
struct LayerTotals {
  uint64_t requests = 0;
  std::map<std::string, double> layer_self_ms;  // by layer
  std::map<std::string, double> span_ms;        // inclusive, by span name
  std::map<std::string, double> kernel_ms;
  std::map<std::string, double> kernel_rows;
  double edge_rows = 0;    // Σ observed |R_e| over all edges
  double covered_ms = 0;   // Σ self times = time under some span

  void Add(const TraceFold& fold);
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
