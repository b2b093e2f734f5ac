#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <semaphore>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "xq/parser.h"

namespace rox::engine {

namespace {

// SplitMix64 finalizer: decorrelates the per-query RNG streams derived
// from (base seed, sequence number).
uint64_t MixSeed(uint64_t base, uint64_t seq) {
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (seq + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Async dispatch queues the query on the engine pool before the
// deadline is armed. A governed query's deadline must cover that wait
// too — otherwise a backlogged pool silently extends every deadline
// by its queue depth. Called at the top of the pooled task: burns the
// wait off the relative deadline (down to an already-lapsed epsilon),
// materializing the engine defaults first so they are charged too.
void ChargeDispatchQueueWait(
    QueryRequest& req, const QueryLimits& defaults,
    std::chrono::steady_clock::time_point dispatched) {
  if (!req.limits.has_value() && defaults.deadline_ms > 0) {
    req.limits = defaults;
  }
  if (!req.limits.has_value() || req.limits->deadline_ms <= 0) return;
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - dispatched)
          .count();
  req.limits->deadline_ms =
      std::max(1e-3, req.limits->deadline_ms - waited_ms);
}

}  // namespace

std::string EngineStats::ToString() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "queries: %llu ok, %llu failed in %.2fs (%.1f q/s)\n"
      "latency: p50 %.2f ms, p95 %.2f ms, mean %.2f ms, max %.2f ms\n"
      "corpus: epoch %llu, %llu publishes (+%llu/-%llu docs), "
      "%llu cache invalidations, %llu stale hits\n"
      "plan cache: %llu hits / %llu misses (%.0f%% hit rate)\n"
      "result cache: %llu replays (%.0f%% of completed)\n"
      "warm starts: %llu runs reused %llu edge weights\n"
      "optimizer: %llu edges executed, sampling %.1f ms, execution %.1f ms\n"
      "materialization: %llu gathers, %.2f MB gathered, peak intermediate "
      "%llu rows",
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed), wall_seconds, qps(), p50_ms,
      p95_ms, mean_ms, max_ms, static_cast<unsigned long long>(epoch),
      static_cast<unsigned long long>(publishes),
      static_cast<unsigned long long>(docs_added),
      static_cast<unsigned long long>(docs_removed),
      static_cast<unsigned long long>(cache_invalidations),
      static_cast<unsigned long long>(stale_cache_hits),
      static_cast<unsigned long long>(plan_cache_hits),
      static_cast<unsigned long long>(plan_cache_misses),
      100 * plan_hit_rate(),
      static_cast<unsigned long long>(result_cache_hits),
      100 * result_hit_rate(),
      static_cast<unsigned long long>(warm_started_runs),
      static_cast<unsigned long long>(warm_started_weights),
      static_cast<unsigned long long>(edges_executed), sampling_ms,
      execution_ms, static_cast<unsigned long long>(gather_count),
      static_cast<double>(bytes_gathered) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(peak_intermediate_rows));
  std::string out = buf;
  if (queries_shed + queries_cancelled + queries_deadline_exceeded +
          queries_budget_exceeded + peak_query_memory_bytes +
          admission_running + admission_queued >
      0) {
    std::snprintf(
        buf, sizeof(buf),
        "\ngovernor: %llu shed, %llu cancelled, %llu deadline-exceeded, "
        "%llu over-budget; peak query memory %.2f MB; admission %zu "
        "running / %zu queued (peak %zu)",
        static_cast<unsigned long long>(queries_shed),
        static_cast<unsigned long long>(queries_cancelled),
        static_cast<unsigned long long>(queries_deadline_exceeded),
        static_cast<unsigned long long>(queries_budget_exceeded),
        static_cast<double>(peak_query_memory_bytes) / (1024.0 * 1024.0),
        admission_running, admission_queued, peak_admission_queued);
    out += buf;
  }
  if (num_shards > 1) {
    std::snprintf(buf, sizeof(buf),
                  "\nshards: %zu, %llu fan-out steps; rows per shard:",
                  num_shards,
                  static_cast<unsigned long long>(sharded.fanouts));
    out += buf;
    for (uint64_t rows : sharded.shard_rows) {
      std::snprintf(buf, sizeof(buf), " %llu",
                    static_cast<unsigned long long>(rows));
      out += buf;
    }
  }
  return out;
}

std::string EngineStats::ToJson() const {
  std::string out = "{\n";
  char buf[128];
  bool first = true;
  auto num = [&](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "%s  \"%s\": %.3f",
                  first ? "" : ",\n", key, v);
    out += buf;
    first = false;
  };
  auto count = [&](const char* key, uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%s  \"%s\": %llu",
                  first ? "" : ",\n", key,
                  static_cast<unsigned long long>(v));
    out += buf;
    first = false;
  };
  count("completed", completed);
  count("failed", failed);
  num("wall_seconds", wall_seconds);
  num("qps", qps());
  num("p50_ms", p50_ms);
  num("p95_ms", p95_ms);
  num("mean_ms", mean_ms);
  num("max_ms", max_ms);
  count("epoch", epoch);
  count("publishes", publishes);
  count("docs_added", docs_added);
  count("docs_removed", docs_removed);
  count("cache_invalidations", cache_invalidations);
  count("plan_cache_hits", plan_cache_hits);
  count("plan_cache_misses", plan_cache_misses);
  num("plan_hit_rate", plan_hit_rate());
  count("result_cache_hits", result_cache_hits);
  num("result_hit_rate", result_hit_rate());
  count("warm_started_runs", warm_started_runs);
  count("warm_started_weights", warm_started_weights);
  count("edges_executed", edges_executed);
  num("sampling_ms", sampling_ms);
  num("execution_ms", execution_ms);
  count("gather_count", gather_count);
  count("bytes_gathered", bytes_gathered);
  count("peak_intermediate_rows", peak_intermediate_rows);
  count("num_shards", num_shards);
  count("sharded_fanouts", sharded.fanouts);
  count("queries_shed", queries_shed);
  count("queries_cancelled", queries_cancelled);
  count("queries_deadline_exceeded", queries_deadline_exceeded);
  count("queries_budget_exceeded", queries_budget_exceeded);
  count("peak_query_memory_bytes", peak_query_memory_bytes);
  count("admission_running", admission_running);
  count("admission_queued", admission_queued);
  count("peak_admission_queued", peak_admission_queued);
  out += "\n}\n";
  return out;
}

Engine::Engine(Corpus corpus, EngineOptions options)
    : Engine(std::make_shared<const Corpus>(std::move(corpus)), options) {}

Engine::Engine(std::shared_ptr<const Corpus> corpus, EngineOptions options)
    : options_(options),
      gate_(options.max_concurrent_queries, options.max_queued_queries),
      cache_(options.cache_capacity),
      pool_(options.num_threads) {
  ROX_CHECK(corpus != nullptr);
  stats_.BindMetrics(options_.metrics != nullptr
                         ? options_.metrics
                         : &obs::MetricsRegistry::Global());
  if (options_.num_shards > 1) {
    size_t workers = options_.shard_threads > 0 ? options_.shard_threads
                                                : options_.num_shards;
    // An absurd shard count must not translate into an absurd thread
    // count: std::thread construction throws on resource exhaustion
    // and nothing above us could do better than crash. ParallelFor
    // queues the excess iterations, so capping workers only bounds
    // parallelism, never correctness.
    constexpr size_t kMaxShardWorkers = 64;
    workers = std::min(workers, kMaxShardWorkers);
    shard_pool_ = std::make_unique<ThreadPool>(workers);
  }
  current_epoch_.store(corpus->epoch(), std::memory_order_release);
  state_ = MakeState(std::move(corpus), nullptr);
}

Engine::~Engine() = default;

std::shared_ptr<const Engine::PublishedState> Engine::MakeState(
    std::shared_ptr<const Corpus> corpus, const ShardedCorpus* prev) {
  auto st = std::make_shared<PublishedState>();
  st->corpus = std::move(corpus);
  if (options_.num_shards > 1) {
    st->sharded =
        prev != nullptr
            ? std::make_shared<const ShardedCorpus>(*st->corpus, *prev,
                                                    shard_pool_.get())
            : std::make_shared<const ShardedCorpus>(
                  *st->corpus, options_.num_shards, shard_pool_.get());
    st->exec.shards = st->sharded.get();
    st->exec.pool = shard_pool_.get();
    st->exec.sample_shard = options_.sample_shard;
  }
  return st;
}

void Engine::Publish(CorpusBuilder builder, const PublishedState& base) {
  const size_t added = builder.added_docs();
  const size_t removed = builder.removed_docs();
  auto next = std::make_shared<const Corpus>(std::move(builder).Build());
  const uint64_t next_epoch = next->epoch();
  // The base epoch's sharded view seeds the incremental rebuild.
  auto st = MakeState(std::move(next), base.sharded.get());
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    state_ = std::move(st);
    // Inside the lock: a query that pins the new state must never
    // observe the old epoch here (it would skip its cache write-back).
    current_epoch_.store(next_epoch, std::memory_order_release);
  }
  // Purge cache entries of dead epochs. In-flight queries of older
  // epochs finish against their pinned snapshots; their late write-
  // backs are dropped (see Execute), so nothing stale can resurface.
  size_t invalidated = 0;
  if (options_.enable_cache) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    invalidated = cache_.EvictBefore(next_epoch);
  }
  stats_.RecordPublish(added, removed, invalidated);
}

Result<std::vector<DocId>> Engine::AddDocuments(std::vector<IngestDoc> docs) {
  if (docs.empty()) return std::vector<DocId>{};
  std::lock_guard<std::mutex> ingest(ingest_mu_);
  auto base = Published();
  CorpusBuilder builder(*base->corpus);
  std::vector<DocId> ids;
  ids.reserve(docs.size());
  for (IngestDoc& d : docs) {
    // Parsing interns into the shared pool, which is safe while older
    // epochs serve queries; a failure here publishes nothing.
    ROX_ASSIGN_OR_RETURN(DocId id, builder.AddXml(d.xml, std::move(d.name)));
    ids.push_back(id);
  }
  Publish(std::move(builder), *base);
  return ids;
}

Status Engine::RemoveDocument(std::string_view name) {
  std::lock_guard<std::mutex> ingest(ingest_mu_);
  auto base = Published();
  CorpusBuilder builder(*base->corpus);
  ROX_RETURN_IF_ERROR(builder.Remove(name));
  Publish(std::move(builder), *base);
  return Status::Ok();
}

QueryResponse Engine::Execute(const QueryRequest& request) {
  return Execute(request, ReserveSequence());
}

QueryResponse Engine::Execute(const QueryRequest& request,
                              uint64_t sequence) {
  QueryResponse resp;
  resp.mode = request.mode;
  resp.client_tag = request.client_tag;

  if (request.mode == QueryMode::kExplain) {
    Result<std::string> text = ExplainText(request.text);
    resp.result.sequence = sequence;
    resp.result.epoch = CurrentEpoch();
    if (text.ok()) {
      resp.explain_text = std::move(*text);
    } else {
      resp.status = text.status();
      resp.result.status = text.status();
    }
    return resp;
  }

  // kProfile forces a full-detail trace and a real execution; kExecute
  // resolves the request's overrides against the engine defaults.
  const bool profile = request.mode == QueryMode::kProfile;
  const obs::TraceLevel trace_level =
      profile ? obs::TraceLevel::kFull
              : request.trace_level.value_or(options_.trace_level);
  const bool allow_replay = !profile && request.allow_result_replay;
  const QueryLimits* limits =
      request.limits.has_value() ? &*request.limits : nullptr;
  resp.result = ExecuteQuery(request.text, sequence, trace_level,
                             allow_replay, limits, request.client_tag);
  resp.status = resp.result.status;
  return resp;
}

std::future<QueryResponse> Engine::ExecuteAsync(QueryRequest request) {
  uint64_t seq = ReserveSequence();
  const auto dispatched = std::chrono::steady_clock::now();
  return pool_.Async([this, req = std::move(request), seq,
                      dispatched]() mutable {
    ChargeDispatchQueueWait(req, options_.default_limits, dispatched);
    return Execute(req, seq);
  });
}

void Engine::ExecuteAsync(QueryRequest request, uint64_t sequence,
                          std::function<void(QueryResponse)> done) {
  const auto dispatched = std::chrono::steady_clock::now();
  pool_.Submit([this, req = std::move(request), sequence,
                done = std::move(done), dispatched]() mutable {
    ChargeDispatchQueueWait(req, options_.default_limits, dispatched);
    done(Execute(req, sequence));
  });
}

std::future<QueryResult> Engine::Submit(std::string query_text) {
  uint64_t seq = ReserveSequence();
  QueryRequest req;
  req.text = std::move(query_text);
  const auto dispatched = std::chrono::steady_clock::now();
  return pool_.Async([this, req = std::move(req), seq,
                      dispatched]() mutable {
    ChargeDispatchQueueWait(req, options_.default_limits, dispatched);
    return Execute(req, seq).result;
  });
}

std::future<QueryResult> Engine::Submit(std::string query_text,
                                        QueryLimits limits) {
  uint64_t seq = ReserveSequence();
  QueryRequest req;
  req.text = std::move(query_text);
  req.limits = limits;
  const auto dispatched = std::chrono::steady_clock::now();
  return pool_.Async([this, req = std::move(req), seq,
                      dispatched]() mutable {
    ChargeDispatchQueueWait(req, options_.default_limits, dispatched);
    return Execute(req, seq).result;
  });
}

QueryResult Engine::Run(std::string query_text) {
  QueryRequest req;
  req.text = std::move(query_text);
  return Execute(req).result;
}

QueryResult Engine::Run(std::string query_text, QueryLimits limits) {
  QueryRequest req;
  req.text = std::move(query_text);
  req.limits = limits;
  return Execute(req).result;
}

Status Engine::Kill(uint64_t sequence) {
  std::lock_guard<std::mutex> lock(active_mu_);
  auto it = active_.find(sequence);
  if (it == active_.end()) {
    // Completed, shed, or never started: nothing in flight to cancel.
    // Distinct from OK so the server's disconnect path can tell
    // "killed" apart from "already done".
    return Status::NotFound("no in-flight query with this sequence");
  }
  it->second->Cancel();
  return Status::Ok();
}

size_t Engine::KillAll() {
  std::lock_guard<std::mutex> lock(active_mu_);
  for (auto& [seq, token] : active_) token->Cancel();
  return active_.size();
}

QueryResult Engine::Profile(std::string query_text) {
  QueryRequest req;
  req.text = std::move(query_text);
  req.mode = QueryMode::kProfile;
  return Execute(req).result;
}

Result<std::string> Engine::Explain(const std::string& query_text) {
  QueryRequest req;
  req.text = query_text;
  req.mode = QueryMode::kExplain;
  QueryResponse resp = Execute(req);
  if (!resp.ok()) return resp.status;
  return std::move(resp.explain_text);
}

Result<std::string> Engine::ExplainText(const std::string& query_text) {
  auto st = Published();
  const uint64_t epoch = st->corpus->epoch();
  CorpusSnapshot snapshot(st->corpus);

  // Share the plan cache (and its learned weights) so an explain after
  // real runs reports the warm estimates those runs would start from.
  const std::string key = QueryCache::Normalize(query_text);
  std::shared_ptr<const xq::CompiledQuery> compiled;
  std::vector<double> warm_weights;
  bool have_warm = false;
  if (options_.enable_cache) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    CacheEntry* entry = cache_.Lookup(epoch, key, /*count_hit=*/false);
    if (entry != nullptr && entry->epoch == epoch) {
      compiled = entry->compiled;
      if (options_.warm_start && !entry->warm_edge_weights.empty()) {
        warm_weights = entry->warm_edge_weights;
        have_warm = true;
      }
    }
  }
  if (compiled == nullptr) {
    ROX_ASSIGN_OR_RETURN(
        xq::CompiledQuery fresh,
        xq::CompileXQuery(snapshot, query_text, options_.compile));
    compiled = std::make_shared<const xq::CompiledQuery>(std::move(fresh));
  }

  RoxOptions rox = options_.rox;
  rox.seed = MixSeed(options_.rox.seed, next_sequence_.fetch_add(1));
  if (st->sharded != nullptr) rox.sharded = &st->exec;
  ROX_ASSIGN_OR_RETURN(
      xq::ExplainInfo info,
      xq::ExplainXQuery(snapshot, *compiled, rox,
                        have_warm ? &warm_weights : nullptr));

  const JoinGraph& g = compiled->graph;
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "explain (epoch %llu, phase-1 estimates only)\n",
                static_cast<unsigned long long>(epoch));
  out += buf;
  out += "vertices:\n";
  for (VertexId v = 0; v < g.VertexCount(); ++v) {
    double card = v < info.vertex_cards.size() ? info.vertex_cards[v] : -1.0;
    if (card >= 0) {
      std::snprintf(buf, sizeof(buf), "  v%u %s  card~%.0f\n", v,
                    g.vertex(v).label.c_str(), card);
    } else {
      std::snprintf(buf, sizeof(buf), "  v%u %s  card=?\n", v,
                    g.vertex(v).label.c_str());
    }
    out += buf;
  }
  out += "edges (w = phase-1 sampled output-cardinality estimate):\n";
  for (EdgeId e = 0; e < g.EdgeCount(); ++e) {
    double w = e < info.edge_weights.size() ? info.edge_weights[e] : -1.0;
    bool first = std::find(info.predicted_first.begin(),
                           info.predicted_first.end(),
                           e) != info.predicted_first.end();
    if (w >= 0) {
      std::snprintf(buf, sizeof(buf), "  e%u %s  w~%.0f%s\n", e,
                    g.EdgeLabel(e).c_str(), w,
                    first ? "  <- predicted first" : "");
    } else {
      std::snprintf(buf, sizeof(buf), "  e%u %s  w=?%s\n", e,
                    g.EdgeLabel(e).c_str(),
                    first ? "  <- predicted first" : "");
    }
    out += buf;
  }
  if (info.warm_started_weights > 0) {
    std::snprintf(buf, sizeof(buf),
                  "warm-started weights: %llu (from cached prior runs)\n",
                  static_cast<unsigned long long>(info.warm_started_weights));
    out += buf;
  }
  out +=
      "join order beyond each component's first edge is chosen at run "
      "time (re-weighted after every edge execution); run \\profile to "
      "see the order a real execution took.\n"
      "plan tail: project for-vars -> dedup -> doc-order sort -> "
      "project return var.\n";
  return out;
}

std::vector<QueryResult> Engine::RunBatch(
    const std::vector<std::string>& queries, size_t concurrency) {
  // An empty batch must not touch the pool (or, with concurrency 0 on
  // an idle engine, the semaphore below): return immediately.
  if (queries.empty()) return {};
  if (concurrency == 0 || concurrency > pool_.num_threads()) {
    concurrency = pool_.num_threads();
  }
  // Bounds the number of in-flight batch queries to `concurrency`.
  std::counting_semaphore<> limiter(static_cast<std::ptrdiff_t>(concurrency));
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(queries.size());
  for (const std::string& q : queries) {
    // Sequence numbers are assigned here, in input order, so a batch is
    // reproducible regardless of how the pool interleaves execution.
    uint64_t seq = next_sequence_.fetch_add(1);
    limiter.acquire();
    futures.push_back(pool_.Async([this, &q, seq, &limiter]() {
      // RAII so the slot frees even if Execute throws.
      struct Slot {
        std::counting_semaphore<>* limiter;
        ~Slot() { limiter->release(); }
      } slot{&limiter};
      QueryRequest req;
      req.text = q;
      return Execute(req, seq).result;
    }));
  }
  std::vector<QueryResult> out;
  out.reserve(queries.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

QueryResult Engine::ExecuteQuery(const std::string& text, uint64_t seq,
                                 obs::TraceLevel trace_level,
                                 bool allow_result_replay,
                                 const QueryLimits* limits_in,
                                 std::string_view client_tag) {
  StopWatch watch;
  QueryResult out;
  out.sequence = seq;

  // --- query governance (DESIGN.md §13) -------------------------------------
  // The deadline is armed before admission so time spent queued counts
  // against it; the budget meters every query (limit 0 never latches),
  // so peak-footprint stats stay meaningful even ungoverned.
  const QueryLimits limits =
      limits_in != nullptr ? *limits_in : options_.default_limits;
  MemoryBudget budget(limits.memory_budget_bytes);
  CancellationToken token;
  token.set_budget(&budget);
  if (limits.deadline_ms > 0) {
    token.ArmDeadline(Deadline::AfterMillis(limits.deadline_ms));
  }

  // Registered before admission so Kill() reaches queued queries too;
  // the guard unregisters on every return path (the token is on this
  // stack frame, so the map entry must not outlive it).
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    active_.emplace(seq, &token);
  }
  struct ActiveGuard {
    Engine* engine;
    uint64_t seq;
    ~ActiveGuard() {
      std::lock_guard<std::mutex> lock(engine->active_mu_);
      engine->active_.erase(seq);
    }
  } active_guard{this, seq};

  // Classifies the governance outcome of a finished record: at most one
  // flag, derived from the status the query is returning with.
  auto classify = [&](QueryRecord rec) {
    rec.memory_bytes = budget.used();
    switch (out.status.code()) {
      case StatusCode::kCancelled:
        rec.cancelled = true;
        break;
      case StatusCode::kDeadlineExceeded:
        rec.deadline_exceeded = true;
        break;
      case StatusCode::kResourceExhausted:
        rec.budget_exceeded = true;
        break;
      default:
        break;
    }
    return rec;
  };

  // The flight recorder. Off (the default) allocates nothing; every
  // instrumentation site below and in the layers underneath is a
  // single null check.
  std::shared_ptr<obs::QueryTrace> trace;
  uint32_t root_span = 0;
  if (trace_level != obs::TraceLevel::kOff) {
    trace = std::make_shared<obs::QueryTrace>(trace_level);
    root_span = trace->BeginSpan("query");
    trace->AttrNum(root_span, "seq", static_cast<double>(seq));
    if (!client_tag.empty()) {
      trace->AttrStr(root_span, "client_tag", std::string(client_tag));
    }
    if (limits.deadline_ms > 0) {
      trace->AttrNum(root_span, "deadline_ms", limits.deadline_ms);
    }
    if (limits.memory_budget_bytes > 0) {
      trace->AttrNum(root_span, "memory_budget_bytes",
                     static_cast<double>(limits.memory_budget_bytes));
    }
  }
  // Closes the root span and hands the trace to the result on every
  // return path; also the single site stamping the budget meter into
  // the result.
  auto finish_trace = [&]() {
    out.memory_bytes = budget.used();
    if (trace != nullptr) {
      trace->AttrStr(root_span, "status",
                     out.ok() ? "ok" : out.status.ToString());
      trace->AttrNum(root_span, "memory_bytes",
                     static_cast<double>(out.memory_bytes));
      trace->EndSpan(root_span);
      out.trace = std::move(trace);
    }
  };

  // Bounded admission: when a gate is configured, wait (within the
  // deadline) for an execution slot; shed immediately when the wait
  // queue is full. The ticket holds the slot for the whole execution.
  AdmissionGate::Ticket admission;
  if (options_.max_concurrent_queries > 0) {
    obs::ScopedSpan admit_span(trace.get(), "admission");
    Result<AdmissionGate::Ticket> ticket = gate_.Admit(token.deadline());
    if (!ticket.ok()) {
      out.status = ticket.status();
      out.wall_ms = watch.ElapsedMillis();
      QueryRecord rec{.latency_ms = out.wall_ms, .failed = true};
      // kResourceExhausted here means the queue was full (shed, the
      // query never ran) — distinct from a budget trip; anything else
      // is the deadline lapsing while queued.
      if (out.status.code() == StatusCode::kResourceExhausted) {
        rec.shed = true;
      } else {
        rec.deadline_exceeded = true;
      }
      stats_.Record(rec);
      admit_span.End();
      finish_trace();
      return out;
    }
    admission = std::move(*ticket);
  }

  // Test-only fault injection (compiled out without ROX_FAILPOINTS):
  // fail the query right after admission, before it touches any state.
  if (ROX_FAILPOINT_HIT("engine.execute")) {
    out.status = Status::Internal("failpoint engine.execute fired");
    out.wall_ms = watch.ElapsedMillis();
    stats_.Record(classify({.latency_ms = out.wall_ms, .failed = true}));
    finish_trace();
    return out;
  }

  // A query cancelled or past deadline before doing any work (e.g. the
  // gate is off but the deadline already lapsed) exits here.
  if (Status early = token.Check(); !early.ok()) {
    out.status = early;
    out.wall_ms = watch.ElapsedMillis();
    stats_.Record(classify({.latency_ms = out.wall_ms, .failed = true}));
    finish_trace();
    return out;
  }

  // Pin the published epoch for the whole execution: the snapshot (and
  // the sharded view / fan-out bundle packaged with it) stays alive
  // even if AddDocuments/RemoveDocument publish successors mid-run.
  auto st = Published();
  const uint64_t epoch = st->corpus->epoch();
  CorpusSnapshot snapshot(st->corpus);
  out.epoch = epoch;
  out.snapshot = st->corpus;
  if (trace != nullptr) {
    trace->AttrNum(root_span, "epoch", static_cast<double>(epoch));
  }

  const std::string key = QueryCache::Normalize(text);
  std::shared_ptr<const xq::CompiledQuery> compiled;
  std::vector<double> warm_weights;
  bool have_warm = false;

  if (options_.enable_cache) {
    obs::ScopedSpan cache_span(trace.get(), "cache_lookup");
    std::lock_guard<std::mutex> lock(cache_mu_);
    CacheEntry* entry = cache_.Lookup(epoch, key);
    if (entry != nullptr && entry->epoch != epoch) {
      // Unreachable by construction (the epoch is part of the key);
      // counted defensively and never served.
      stats_.RecordStaleCacheHit();
      entry = nullptr;
    }
    if (entry != nullptr) {
      out.plan_cache_hit = true;
      compiled = entry->compiled;
      if (options_.cache_results && allow_result_replay &&
          entry->result != nullptr) {
        // The row cap applies to replays too: the memoized result is
        // the result this query would produce, so an over-cap replay
        // fails exactly like an over-cap execution — without running.
        if (limits.max_result_rows > 0 &&
            entry->result->size() > limits.max_result_rows) {
          out.status = Status::ResourceExhausted(
              "query result exceeds max_result_rows limit");
          out.wall_ms = watch.ElapsedMillis();
          stats_.Record(classify({.latency_ms = out.wall_ms,
                                  .failed = true,
                                  .plan_cache_hit = true}));
          cache_span.End();
          finish_trace();
          return out;
        }
        out.compiled = compiled;
        out.items = entry->result;
        out.result_doc =
            compiled->graph.vertex(compiled->return_vertex).doc;
        out.result_cache_hit = true;
        cache_span.AttrStr("plan_cache", "hit");
        cache_span.AttrStr("result_cache", "hit");
        out.wall_ms = watch.ElapsedMillis();
        stats_.Record({.latency_ms = out.wall_ms,
                       .plan_cache_hit = true,
                       .result_cache_hit = true});
        cache_span.End();
        finish_trace();
        return out;
      }
      if (options_.warm_start && !entry->warm_edge_weights.empty()) {
        warm_weights = entry->warm_edge_weights;  // copy out under lock
        have_warm = true;
      }
    }
    cache_span.AttrStr("plan_cache", entry != nullptr ? "hit" : "miss");
    cache_span.AttrStr("warm_weights", have_warm ? "hit" : "miss");
  }

  bool compiled_now = false;
  if (compiled == nullptr) {
    // Parse and compile separately so each gets its own span; the
    // combined xq::CompileXQuery(text) overload is exactly these two
    // calls.
    Result<xq::AstQuery> ast = [&]() {
      obs::ScopedSpan parse_span(trace.get(), "parse");
      return xq::ParseXQuery(text);
    }();
    Result<xq::CompiledQuery> result =
        ast.ok() ? [&]() {
          obs::ScopedSpan compile_span(trace.get(), "compile");
          return xq::CompileXQuery(snapshot, *ast, options_.compile);
        }()
                 : Result<xq::CompiledQuery>(ast.status());
    if (!result.ok()) {
      out.status = result.status();
      out.wall_ms = watch.ElapsedMillis();
      stats_.Record({.latency_ms = out.wall_ms,
                     .failed = true,
                     .plan_cache_miss = true});
      finish_trace();
      return out;
    }
    compiled =
        std::make_shared<const xq::CompiledQuery>(std::move(*result));
    compiled_now = true;
    if (options_.enable_cache) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      // A concurrent miss on the same query may have raced us here and
      // already run to completion — never replace an entry that exists,
      // or its learned weights, memoized result and hit count are lost.
      if (cache_.Lookup(epoch, key, /*count_hit=*/false) == nullptr) {
        cache_.Insert(epoch, key, CacheEntry{compiled, {}, nullptr});
      }
    }
  }
  out.compiled = compiled;
  out.result_doc = compiled->graph.vertex(compiled->return_vertex).doc;

  RoxOptions rox = options_.rox;
  rox.seed = MixSeed(options_.rox.seed, seq);
  if (st->sharded != nullptr) rox.sharded = &st->exec;
  rox.query_trace = trace.get();
  // Hand the whole pipeline its stop signal and allocation meter: the
  // optimizer polls the token at round/edge boundaries, kernels poll it
  // amortized in their emission loops, and the run's column arena
  // charges the budget.
  rox.cancel = &token;
  rox.budget = &budget;
  std::vector<double> learned;
  RoxStats rox_stats;
  Result<std::vector<Pre>> items = [&]() {
    obs::ScopedSpan exec_span(trace.get(), "execute");
    auto r = xq::RunXQuery(snapshot, *compiled, rox, &rox_stats,
                           have_warm ? &warm_weights : nullptr, &learned);
    if (exec_span.armed()) {
      exec_span.AttrNum("edges_executed",
                        static_cast<double>(rox_stats.edges_executed));
      exec_span.AttrNum("sampled_tuples",
                        static_cast<double>(rox_stats.sampled_tuples));
      exec_span.AttrNum("gather_bytes",
                        static_cast<double>(rox_stats.gather.bytes_gathered));
      exec_span.AttrNum("arena_bytes",
                        static_cast<double>(rox_stats.arena_bytes));
      exec_span.AttrNum("fanouts",
                        static_cast<double>(rox_stats.sharded.fanouts));
    }
    return r;
  }();
  out.rox_stats = rox_stats;
  out.warm_started = rox_stats.warm_started_weights > 0;
  if (!items.ok()) {
    out.status = items.status();
    out.wall_ms = watch.ElapsedMillis();
    stats_.Record(classify({.latency_ms = out.wall_ms,
                            .failed = true,
                            .plan_cache_hit = out.plan_cache_hit,
                            .plan_cache_miss = compiled_now}));
    finish_trace();
    return out;
  }
  // Final governance checkpoint: a trip that landed after the last
  // in-run poll (e.g. a budget latch during final gather) must not
  // surface as OK — deadline/budget semantics are "the whole query,
  // bounded", not "the parts that happened to poll".
  if (Status late = token.Check(); !late.ok()) {
    out.status = late;
    out.wall_ms = watch.ElapsedMillis();
    stats_.Record(classify({.latency_ms = out.wall_ms,
                            .failed = true,
                            .plan_cache_hit = out.plan_cache_hit,
                            .plan_cache_miss = compiled_now}));
    finish_trace();
    return out;
  }
  if (limits.max_result_rows > 0 &&
      items->size() > limits.max_result_rows) {
    // The run completed but produced more rows than the caller is
    // willing to accept; fail without caching (a capped client must
    // not poison the shared result cache with its refusal).
    out.status = Status::ResourceExhausted(
        "query result exceeds max_result_rows limit");
    out.wall_ms = watch.ElapsedMillis();
    stats_.Record(classify({.latency_ms = out.wall_ms,
                            .failed = true,
                            .plan_cache_hit = out.plan_cache_hit,
                            .plan_cache_miss = compiled_now}));
    finish_trace();
    return out;
  }
  out.items = std::make_shared<const std::vector<Pre>>(std::move(*items));

  if (options_.enable_cache &&
      epoch == current_epoch_.load(std::memory_order_acquire)) {
    // Write learned weights / the memoized result back only while our
    // epoch is still the published one. A publish can still race in
    // between the check and the insert; that is harmless — the entry
    // is epoch-keyed, so the worst case is a dead old-epoch entry
    // occupying one LRU slot until evicted, never a stale hit.
    std::lock_guard<std::mutex> lock(cache_mu_);
    CacheEntry* entry = cache_.Lookup(epoch, key, /*count_hit=*/false);
    if (entry == nullptr) {
      // Evicted (or invalidated) while we ran; re-insert so the work
      // is not lost.
      entry = cache_.Insert(epoch, key, CacheEntry{compiled, {}, nullptr});
    }
    entry->warm_edge_weights = std::move(learned);
    if (options_.cache_results) entry->result = out.items;
  }

  out.wall_ms = watch.ElapsedMillis();
  stats_.Record({.latency_ms = out.wall_ms,
                 .plan_cache_hit = out.plan_cache_hit,
                 .plan_cache_miss = compiled_now,
                 .rox = &rox_stats});
  finish_trace();
  return out;
}

std::vector<QueryCache::Listing> Engine::CacheContents() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.List();
}

size_t Engine::CacheSize() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

uint64_t Engine::CacheEvictions() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.evictions();
}

void Engine::ClearCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.Clear();
}

}  // namespace rox::engine
