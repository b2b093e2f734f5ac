// The unified public query API of the Engine (DESIGN.md §15).
//
// Every way of asking the engine a question — the shell, the benches,
// the test suites, and the network server — goes through one pair:
//
//   QueryRequest   what to run: the query text, the execution mode
//                  (execute / explain / profile), per-query limits,
//                  a trace-level override, and a client tag
//   QueryResponse  what came back: the status, the QueryResult (items,
//                  pinned snapshot, optimizer stats, trace), and — for
//                  explain mode — the rendered plan text
//
// Engine::Execute(const QueryRequest&) is the single entry point; the
// legacy Run/Submit/Explain/Profile overloads on Engine are thin shims
// over it (kept for source compatibility, documented as deprecated).
//
// QueryResponse::ToJson is the *stable wire format*: the HTTP server's
// /query handler and xq_shell's --json printer emit exactly this, and
// tests/query_api_test.cc pins it against a golden file so the format
// cannot drift silently.

#ifndef ROX_ENGINE_QUERY_API_H_
#define ROX_ENGINE_QUERY_API_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/governor.h"
#include "index/corpus.h"
#include "obs/trace.h"
#include "rox/state.h"
#include "xq/compile.h"

namespace rox::engine {

// What kind of answer the request wants.
enum class QueryMode : uint8_t {
  kExecute = 0,  // run the query, return its items
  kExplain,      // compile + Phase-1 estimates only, no execution
  kProfile,      // execute with a forced full trace, replay bypassed
};

// "execute" / "explain" / "profile" (the wire spelling).
const char* QueryModeName(QueryMode mode);
// Parses the wire spelling (case-insensitive). False on anything else.
bool ParseQueryMode(std::string_view text, QueryMode* out);

// One query, fully specified. Everything beyond `text` is optional:
// the defaults reproduce Engine::Run(text) exactly.
struct QueryRequest {
  std::string text;

  QueryMode mode = QueryMode::kExecute;

  // Per-query resource caps; unset applies the engine's
  // EngineOptions::default_limits.
  std::optional<QueryLimits> limits;

  // Flight-recorder level for this query; unset applies the engine's
  // EngineOptions::trace_level. kProfile mode forces kFull regardless.
  std::optional<obs::TraceLevel> trace_level;

  // Serve a memoized result without executing when one is cached.
  // kProfile mode always executes regardless.
  bool allow_result_replay = true;

  // Free-form caller identity ("bench:load", a peer address, ...);
  // recorded on the trace root span and in the response JSON.
  std::string client_tag;
};

// Everything one query produced.
struct QueryResult {
  Status status = Status::Ok();
  // The compiled query (shared with the cache); null on compile errors.
  std::shared_ptr<const xq::CompiledQuery> compiled;
  // The result node sequence; null on any error.
  std::shared_ptr<const std::vector<Pre>> items;
  // Document of the result items (the return variable's document).
  DocId result_doc = kInvalidDocId;
  // The corpus epoch this query ran against, and the pinned snapshot
  // itself — holding the result keeps its epoch alive, so result Pre
  // ids can always be resolved against `snapshot` even after later
  // publishes (the shell serializes results through it, and the
  // differential fuzz harness rebuilds reference engines from it).
  uint64_t epoch = 0;
  std::shared_ptr<const Corpus> snapshot;
  // Optimizer statistics (zeroed for result-cache hits: nothing ran).
  RoxStats rox_stats;
  bool plan_cache_hit = false;
  bool result_cache_hit = false;
  bool warm_started = false;
  double wall_ms = 0;
  // Engine-assigned sequence number (also the query's RNG stream id,
  // and the handle Engine::Kill takes).
  uint64_t sequence = 0;
  // Bytes the query's memory budget metered (arena blocks and adopted
  // columns). Informational even when no budget limit was set.
  uint64_t memory_bytes = 0;
  // The query's flight recorder; null when the effective trace level
  // was kOff (the default).
  std::shared_ptr<const obs::QueryTrace> trace;

  bool ok() const { return status.ok(); }
  // The trace as one JSON document ("{}" when tracing was off) — what
  // benches and the fuzz harness dump on failure.
  std::string trace_json() const { return trace ? trace->ToJson() : "{}"; }
};

// Knobs of the JSON serialization. The *shape* of the output never
// changes with these; they only bound row volume and drop fields whose
// values are nondeterministic (timings) or bulky (traces).
struct ResponseJsonOptions {
  // Serialize at most this many result rows (0 = all). `row_count` in
  // the JSON always reports the full count, and `rows_truncated` is
  // emitted (true) whenever rows were dropped.
  size_t max_rows = 0;
  // Include wall/sampling/execution timings and memory in "stats".
  // Off for golden-file comparisons — timings are nondeterministic.
  bool include_timings = true;
  // Embed the flight-recorder trace as a "trace" object (only present
  // when the query recorded one).
  bool include_trace = false;
};

// One query's answer: the unified return type of Engine::Execute.
struct QueryResponse {
  // Mirrors result.status for execute/profile; the Explain status for
  // explain mode.
  Status status = Status::Ok();
  QueryMode mode = QueryMode::kExecute;
  QueryResult result;
  // The rendered plan (explain mode only; empty otherwise).
  std::string explain_text;
  // Echo of QueryRequest::client_tag.
  std::string client_tag;

  bool ok() const { return status.ok(); }
  uint64_t epoch() const { return result.epoch; }
  uint64_t sequence() const { return result.sequence; }

  // The stable wire serialization (DESIGN.md §15):
  //   {"status": {"code": "...", "message": "..."}, "mode": "...",
  //    "sequence": N, "epoch": N, "row_count": N, "rows": [...],
  //    "rows_truncated": bool?, "explain": "..."?, "client_tag": "..."?,
  //    "stats": {...}, "trace": {...}?}
  // Rows are the results' XML subtree serializations, in document
  // order. Pinned by the golden-file test; extend only by *adding*
  // fields.
  std::string ToJson(const ResponseJsonOptions& opts = {}) const;
};

// Serializes up to `max_rows` result items (0 = all) as XML subtree
// strings through the result's pinned snapshot: the rows of
// QueryResponse::ToJson, one string each, for xq_shell's pretty-printer
// and tests. Empty when the result holds no items.
std::vector<std::string> SerializeResultRows(const QueryResult& result,
                                             size_t max_rows = 0);

}  // namespace rox::engine

#endif  // ROX_ENGINE_QUERY_API_H_
