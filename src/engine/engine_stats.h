// Aggregated statistics of an Engine: query counts, cache efficiency,
// and a latency distribution (p50/p95) suitable for throughput
// benchmarking and the shell's \stats command.
//
// StatsCollector is the thread-safe accumulator the Engine records
// into; EngineStats is the immutable snapshot handed to callers.

#ifndef ROX_ENGINE_ENGINE_STATS_H_
#define ROX_ENGINE_ENGINE_STATS_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "rox/state.h"

namespace rox::engine {

struct EngineStats {
  uint64_t completed = 0;  // queries finished successfully
  uint64_t failed = 0;     // parse/compile/run errors

  // Plan cache: hits found a compiled query under the normalized text.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  // Result cache: hits served the final item sequence without running.
  uint64_t result_cache_hits = 0;
  // Runs that adopted at least one cached edge weight (skipped that
  // part of Phase 1 sampling).
  uint64_t warm_started_runs = 0;
  uint64_t warm_started_weights = 0;

  // Sums over all executed (non-result-cached) runs.
  uint64_t edges_executed = 0;
  double sampling_ms = 0;
  double execution_ms = 0;

  // Late materialization: gather operations and bytes written by them
  // across all runs, and the largest single intermediate any run
  // materialized.
  uint64_t gather_count = 0;
  uint64_t bytes_gathered = 0;
  uint64_t peak_intermediate_rows = 0;

  // Sharded execution: the engine's shard count plus the fan-out step
  // and per-shard row counters aggregated over all runs (zero/empty
  // when num_shards <= 1).
  size_t num_shards = 1;
  ShardFanoutStats sharded;

  // Corpus versioning (DESIGN.md §10). `epoch` is the currently
  // published epoch, re-read at snapshot time (like num_shards, it is
  // engine state, not a counter). The publish/doc/invalidation
  // counters accumulate since engine start or the last ResetStats.
  uint64_t epoch = 0;
  uint64_t publishes = 0;
  uint64_t docs_added = 0;
  uint64_t docs_removed = 0;
  // Cache entries of dead epochs purged by publishes.
  uint64_t cache_invalidations = 0;
  // Cache lookups that returned an entry of a different epoch than the
  // query's pinned one. Unreachable by construction (the cache key
  // includes the epoch); counted defensively and asserted zero by the
  // snapshot fuzz suite.
  uint64_t stale_cache_hits = 0;

  // Query-lifecycle governance (DESIGN.md §13). Shed queries were
  // refused at the admission gate and never ran; the other three
  // counters classify queries that started and were stopped by their
  // token. Peak memory is the largest single-query budget meter seen.
  uint64_t queries_shed = 0;
  uint64_t queries_cancelled = 0;
  uint64_t queries_deadline_exceeded = 0;
  uint64_t queries_budget_exceeded = 0;
  uint64_t peak_query_memory_bytes = 0;
  // Admission gate occupancy, re-read at snapshot time (like epoch,
  // engine state rather than a counter). All zero when no gate is
  // configured.
  size_t admission_running = 0;
  size_t admission_queued = 0;
  size_t peak_admission_queued = 0;

  // Latency distribution over all finished queries (cache hits
  // included — a hit's latency is real service latency).
  double p50_ms = 0;
  double p95_ms = 0;
  double mean_ms = 0;
  double max_ms = 0;

  // Wall-clock seconds since engine start (or ResetStats).
  double wall_seconds = 0;

  uint64_t total() const { return completed + failed; }
  double qps() const {
    return wall_seconds > 0 ? static_cast<double>(completed) / wall_seconds
                            : 0.0;
  }
  double plan_hit_rate() const {
    uint64_t lookups = plan_cache_hits + plan_cache_misses;
    return lookups > 0 ? static_cast<double>(plan_cache_hits) / lookups : 0.0;
  }
  double result_hit_rate() const {
    return completed > 0 ? static_cast<double>(result_cache_hits) / completed
                         : 0.0;
  }

  std::string ToString() const;

  // One flat JSON object (stable keys — the server's /stats endpoint;
  // see DESIGN.md §15). Monotonic counters, gate occupancy, latency
  // percentiles and qps; per-shard row vectors are summarized as
  // sharded_fanouts only.
  std::string ToJson() const;
};

// What one finished query reports back to the collector.
struct QueryRecord {
  double latency_ms = 0;
  bool failed = false;
  bool plan_cache_hit = false;
  bool plan_cache_miss = false;  // a compile happened
  bool result_cache_hit = false;
  // Governance outcome (DESIGN.md §13): shed means refused at
  // admission; the other three classify a token trip. At most one is
  // set, and any of them implies `failed`.
  bool shed = false;
  bool cancelled = false;
  bool deadline_exceeded = false;
  bool budget_exceeded = false;
  // The query's MemoryBudget meter at finish (0 when ungoverned).
  uint64_t memory_bytes = 0;
  const RoxStats* rox = nullptr;  // null for result-cache hits / failures
};

class StatsCollector {
 public:
  // `latency_capacity` bounds the latency reservoir (tests shrink it to
  // exercise the sampled path without 65k+ queries).
  explicit StatsCollector(size_t latency_capacity = kMaxLatencySamples)
      : latency_capacity_(latency_capacity > 0 ? latency_capacity : 1) {}

  // Mirrors every Record/RecordPublish into named instruments of
  // `registry` (DESIGN.md §12) in addition to the EngineStats counters
  // — the struct stays the snapshot view, the registry is the
  // process-wide exposition surface. Call once, before queries run;
  // null unbinds. Instrument names are prefixed "engine.".
  void BindMetrics(obs::MetricsRegistry* registry) {
    std::lock_guard<std::mutex> lock(mu_);
    if (registry == nullptr) {
      m_ = {};
      return;
    }
    m_.completed = registry->GetCounter("engine.queries.completed");
    m_.failed = registry->GetCounter("engine.queries.failed");
    m_.plan_hits = registry->GetCounter("engine.cache.plan_hits");
    m_.plan_misses = registry->GetCounter("engine.cache.plan_misses");
    m_.result_hits = registry->GetCounter("engine.cache.result_hits");
    m_.warm_runs = registry->GetCounter("engine.warm.runs");
    m_.warm_weights = registry->GetCounter("engine.warm.weights");
    m_.edges = registry->GetCounter("engine.rox.edges_executed");
    m_.gathers = registry->GetCounter("engine.gather.count");
    m_.gather_bytes = registry->GetCounter("engine.gather.bytes");
    m_.fanouts = registry->GetCounter("engine.sharded.fanouts");
    m_.publishes = registry->GetCounter("engine.corpus.publishes");
    m_.docs_added = registry->GetCounter("engine.corpus.docs_added");
    m_.docs_removed = registry->GetCounter("engine.corpus.docs_removed");
    m_.invalidations = registry->GetCounter("engine.cache.invalidations");
    m_.sampling_ms = registry->GetGauge("engine.rox.sampling_ms_total");
    m_.execution_ms = registry->GetGauge("engine.rox.execution_ms_total");
    m_.latency = registry->GetHistogram("engine.query.latency_ms",
                                        obs::Histogram::LatencyBucketsMs());
    m_.shed = registry->GetCounter("engine.governor.shed");
    m_.cancelled = registry->GetCounter("engine.governor.cancelled");
    m_.deadline = registry->GetCounter("engine.governor.deadline_exceeded");
    m_.budget = registry->GetCounter("engine.governor.budget_exceeded");
    m_.peak_memory =
        registry->GetGauge("engine.governor.peak_query_memory_bytes");
  }

  void Record(const QueryRecord& r) {
    std::lock_guard<std::mutex> lock(mu_);
    if (r.failed) {
      ++counters_.failed;
      if (m_.failed != nullptr) m_.failed->Inc();
    } else {
      ++counters_.completed;
      if (m_.completed != nullptr) m_.completed->Inc();
    }
    counters_.plan_cache_hits += r.plan_cache_hit ? 1 : 0;
    counters_.plan_cache_misses += r.plan_cache_miss ? 1 : 0;
    counters_.result_cache_hits += r.result_cache_hit ? 1 : 0;
    if (m_.plan_hits != nullptr) {
      if (r.plan_cache_hit) m_.plan_hits->Inc();
      if (r.plan_cache_miss) m_.plan_misses->Inc();
      if (r.result_cache_hit) m_.result_hits->Inc();
    }
    if (r.rox != nullptr) {
      counters_.edges_executed += r.rox->edges_executed;
      counters_.warm_started_weights += r.rox->warm_started_weights;
      counters_.warm_started_runs += r.rox->warm_started_weights > 0 ? 1 : 0;
      counters_.sampling_ms += r.rox->sampling_time.TotalMillis();
      counters_.execution_ms += r.rox->execution_time.TotalMillis();
      counters_.gather_count += r.rox->gather.gather_count;
      counters_.bytes_gathered += r.rox->gather.bytes_gathered;
      counters_.peak_intermediate_rows = std::max(
          counters_.peak_intermediate_rows, r.rox->peak_intermediate_rows);
      counters_.sharded.Merge(r.rox->sharded);
      if (m_.edges != nullptr) {
        m_.edges->Inc(r.rox->edges_executed);
        m_.warm_weights->Inc(r.rox->warm_started_weights);
        if (r.rox->warm_started_weights > 0) m_.warm_runs->Inc();
        m_.gathers->Inc(r.rox->gather.gather_count);
        m_.gather_bytes->Inc(r.rox->gather.bytes_gathered);
        m_.fanouts->Inc(r.rox->sharded.fanouts);
        m_.sampling_ms->Add(r.rox->sampling_time.TotalMillis());
        m_.execution_ms->Add(r.rox->execution_time.TotalMillis());
      }
    }
    counters_.queries_shed += r.shed ? 1 : 0;
    counters_.queries_cancelled += r.cancelled ? 1 : 0;
    counters_.queries_deadline_exceeded += r.deadline_exceeded ? 1 : 0;
    counters_.queries_budget_exceeded += r.budget_exceeded ? 1 : 0;
    counters_.peak_query_memory_bytes =
        std::max(counters_.peak_query_memory_bytes, r.memory_bytes);
    if (m_.shed != nullptr) {
      if (r.shed) m_.shed->Inc();
      if (r.cancelled) m_.cancelled->Inc();
      if (r.deadline_exceeded) m_.deadline->Inc();
      if (r.budget_exceeded) m_.budget->Inc();
      // Under mu_, so the read-modify-write max is race-free.
      if (static_cast<double>(r.memory_bytes) > m_.peak_memory->Value()) {
        m_.peak_memory->Set(static_cast<double>(r.memory_bytes));
      }
    }
    if (!r.failed) {
      RecordLatency(r.latency_ms);
      if (m_.latency != nullptr) m_.latency->Observe(r.latency_ms);
    }
  }

  // One epoch publish: how many documents the builder added/removed
  // and how many dead-epoch cache entries were purged.
  void RecordPublish(size_t added, size_t removed, size_t invalidated) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.publishes;
    counters_.docs_added += added;
    counters_.docs_removed += removed;
    counters_.cache_invalidations += invalidated;
    if (m_.publishes != nullptr) {
      m_.publishes->Inc();
      m_.docs_added->Inc(added);
      m_.docs_removed->Inc(removed);
      m_.invalidations->Inc(invalidated);
    }
  }

  // Defensive: a cache lookup surfaced an entry of the wrong epoch.
  void RecordStaleCacheHit() {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.stale_cache_hits;
  }

  EngineStats Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    EngineStats out = counters_;
    out.wall_seconds = since_reset_.ElapsedSeconds();
    if (!latencies_ms_.empty()) {
      std::vector<double> sorted = latencies_ms_;
      std::sort(sorted.begin(), sorted.end());
      out.p50_ms = Quantile(sorted, 0.50);
      out.p95_ms = Quantile(sorted, 0.95);
      out.max_ms = sorted.back();
      double sum = 0;
      for (double v : sorted) sum += v;
      out.mean_ms = sum / static_cast<double>(sorted.size());
    }
    return out;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = {};
    latencies_ms_.clear();
    latencies_seen_ = 0;
    since_reset_.Restart();
  }

  // Linearly interpolated quantile of an ascending-sorted sample
  // (C = 1 convention: rank q*(n-1), fractional ranks interpolate
  // between the two neighbors — p50 of {10, 20} is 15, not 10 or 20).
  static double Quantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0;
    double rank = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }

  // Default latency-reservoir bound (see RecordLatency).
  static constexpr size_t kMaxLatencySamples = 65536;

 private:
  // Latency samples are kept in a bounded reservoir (Vitter's
  // Algorithm R): a long-running engine serves unbounded query counts,
  // so storing every latency — and copy-sorting it per Snapshot —
  // would grow without limit. Up to latency_capacity_ the percentiles
  // are exact; beyond that they are over a uniform sample.
  void RecordLatency(double ms) {
    ++latencies_seen_;
    if (latencies_ms_.size() < latency_capacity_) {
      latencies_ms_.push_back(ms);
      return;
    }
    uint64_t slot = reservoir_rng_.Below(latencies_seen_);
    if (slot < latency_capacity_) latencies_ms_[slot] = ms;
  }

  mutable std::mutex mu_;
  const size_t latency_capacity_;
  EngineStats counters_;  // latency/wall fields unused here
  std::vector<double> latencies_ms_;
  uint64_t latencies_seen_ = 0;
  Rng reservoir_rng_{0x5747ca7515ULL};  // fixed seed: stats stay reproducible
  StopWatch since_reset_;

  // Bound instrument pointers (stable for the registry's lifetime; see
  // obs/metrics.h). All null until BindMetrics.
  struct Instruments {
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* plan_hits = nullptr;
    obs::Counter* plan_misses = nullptr;
    obs::Counter* result_hits = nullptr;
    obs::Counter* warm_runs = nullptr;
    obs::Counter* warm_weights = nullptr;
    obs::Counter* edges = nullptr;
    obs::Counter* gathers = nullptr;
    obs::Counter* gather_bytes = nullptr;
    obs::Counter* fanouts = nullptr;
    obs::Counter* publishes = nullptr;
    obs::Counter* docs_added = nullptr;
    obs::Counter* docs_removed = nullptr;
    obs::Counter* invalidations = nullptr;
    obs::Gauge* sampling_ms = nullptr;
    obs::Gauge* execution_ms = nullptr;
    obs::Histogram* latency = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* deadline = nullptr;
    obs::Counter* budget = nullptr;
    obs::Gauge* peak_memory = nullptr;
  };
  Instruments m_;
};

}  // namespace rox::engine

#endif  // ROX_ENGINE_ENGINE_STATS_H_
