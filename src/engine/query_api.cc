#include "engine/query_api.h"

#include <algorithm>
#include <cstdio>

#include "common/escape.h"
#include "xml/parser.h"

namespace rox::engine {

namespace {

void AppendQuotedString(std::string* out, std::string_view s) {
  out->push_back('"');
  AppendJsonEscaped(out, s);
  out->push_back('"');
}

void AppendKey(std::string* out, std::string_view key) {
  AppendQuotedString(out, key);
  out->append(": ");
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out->append(buf);
}

void AppendMillis(std::string* out, double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  out->append(buf);
}

}  // namespace

const char* QueryModeName(QueryMode mode) {
  switch (mode) {
    case QueryMode::kExecute:
      return "execute";
    case QueryMode::kExplain:
      return "explain";
    case QueryMode::kProfile:
      return "profile";
  }
  return "execute";
}

bool ParseQueryMode(std::string_view text, QueryMode* out) {
  std::string lower(text);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lower == "execute") {
    *out = QueryMode::kExecute;
  } else if (lower == "explain") {
    *out = QueryMode::kExplain;
  } else if (lower == "profile") {
    *out = QueryMode::kProfile;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> SerializeResultRows(const QueryResult& result,
                                             size_t max_rows) {
  std::vector<std::string> rows;
  if (result.items == nullptr || result.snapshot == nullptr ||
      result.result_doc == kInvalidDocId) {
    return rows;
  }
  size_t n = result.items->size();
  if (max_rows > 0 && max_rows < n) n = max_rows;
  rows.reserve(n);
  const Document& doc = result.snapshot->doc(result.result_doc);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(SerializeSubtree(doc, (*result.items)[i]));
  }
  return rows;
}

std::string QueryResponse::ToJson(const ResponseJsonOptions& opts) const {
  std::string out;
  out.reserve(256);
  out.append("{\n  ");
  AppendKey(&out, "status");
  out.append("{");
  AppendKey(&out, "code");
  AppendQuotedString(&out, StatusCodeName(status.code()));
  out.append(", ");
  AppendKey(&out, "message");
  AppendQuotedString(&out, status.message());
  out.append("},\n  ");
  AppendKey(&out, "mode");
  AppendQuotedString(&out, QueryModeName(mode));
  out.append(",\n  ");
  AppendKey(&out, "sequence");
  AppendUint(&out, result.sequence);
  out.append(",\n  ");
  AppendKey(&out, "epoch");
  AppendUint(&out, result.epoch);

  const size_t total_rows =
      result.items != nullptr ? result.items->size() : 0;
  out.append(",\n  ");
  AppendKey(&out, "row_count");
  AppendUint(&out, total_rows);
  out.append(",\n  ");
  AppendKey(&out, "rows");
  out.append("[");
  // Each row is serialized straight into the body, already escaped as a
  // JSON string.
  size_t rows = 0;
  if (result.snapshot != nullptr && result.result_doc != kInvalidDocId) {
    rows = opts.max_rows > 0 ? std::min(total_rows, opts.max_rows)
                             : total_rows;
    const Document& doc = result.snapshot->doc(result.result_doc);
    for (size_t i = 0; i < rows; ++i) {
      out.append(i == 0 ? "\n    \"" : ",\n    \"");
      AppendSubtree(doc, (*result.items)[i], XmlOutput::kJsonString, &out);
      out.push_back('"');
    }
  }
  out.append(rows == 0 ? "]" : "\n  ]");
  if (rows < total_rows) {
    out.append(",\n  ");
    AppendKey(&out, "rows_truncated");
    out.append("true");
  }

  if (mode == QueryMode::kExplain) {
    out.append(",\n  ");
    AppendKey(&out, "explain");
    AppendQuotedString(&out, explain_text);
  }
  if (!client_tag.empty()) {
    out.append(",\n  ");
    AppendKey(&out, "client_tag");
    AppendQuotedString(&out, client_tag);
  }

  out.append(",\n  ");
  AppendKey(&out, "stats");
  out.append("{");
  AppendKey(&out, "plan_cache_hit");
  out.append(result.plan_cache_hit ? "true" : "false");
  out.append(", ");
  AppendKey(&out, "result_cache_hit");
  out.append(result.result_cache_hit ? "true" : "false");
  out.append(", ");
  AppendKey(&out, "warm_started");
  out.append(result.warm_started ? "true" : "false");
  out.append(", ");
  AppendKey(&out, "edges_executed");
  AppendUint(&out, result.rox_stats.edges_executed);
  if (opts.include_timings) {
    out.append(", ");
    AppendKey(&out, "wall_ms");
    AppendMillis(&out, result.wall_ms);
    out.append(", ");
    AppendKey(&out, "sampling_ms");
    AppendMillis(&out, result.rox_stats.sampling_time.TotalMillis());
    out.append(", ");
    AppendKey(&out, "execution_ms");
    AppendMillis(&out, result.rox_stats.execution_time.TotalMillis());
    out.append(", ");
    AppendKey(&out, "memory_bytes");
    AppendUint(&out, result.memory_bytes);
  }
  out.append("}");

  if (opts.include_trace && result.trace != nullptr) {
    out.append(",\n  ");
    AppendKey(&out, "trace");
    out.append(result.trace->ToJson());
  }
  out.append("\n}\n");
  return out;
}

}  // namespace rox::engine
