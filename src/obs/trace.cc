#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "common/check.h"
#include "common/escape.h"

namespace rox::obs {

namespace {

uint64_t ThisThreadId() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

// Appends a double, printing integral values without a fraction (most
// trace numbers are cardinalities and byte counts).
void AppendNum(std::string* out, double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out->append(buf);
}

std::string FormatDuration(int64_t ns) {
  char buf[32];
  if (ns < 0) {
    return "open";
  }
  if (ns < 1000000) {
    std::snprintf(buf, sizeof(buf), "%.1f us",
                  static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f ms",
                  static_cast<double>(ns) / 1e6);
  }
  return buf;
}

}  // namespace

const char* TraceLevelName(TraceLevel level) {
  switch (level) {
    case TraceLevel::kOff:
      return "off";
    case TraceLevel::kSpans:
      return "spans";
    case TraceLevel::kFull:
      return "full";
  }
  return "?";
}

bool ParseTraceLevel(std::string_view text, TraceLevel* out) {
  if (text == "off") {
    *out = TraceLevel::kOff;
  } else if (text == "spans") {
    *out = TraceLevel::kSpans;
  } else if (text == "full") {
    *out = TraceLevel::kFull;
  } else {
    return false;
  }
  return true;
}

QueryTrace::QueryTrace(TraceLevel level)
    : level_(level), birth_(std::chrono::steady_clock::now()) {}

int64_t QueryTrace::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - birth_)
      .count();
}

uint32_t QueryTrace::BeginSpan(const char* name, std::string detail) {
  TraceSpan s;
  s.name = name;
  s.detail = std::move(detail);
  s.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  s.start_ns = Now();
  s.thread_id = ThisThreadId();
  uint32_t id = static_cast<uint32_t>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  return id;
}

void QueryTrace::EndSpan(uint32_t id) {
  ROX_DCHECK(!open_.empty() && open_.back() == id);
  spans_[id].duration_ns = Now() - spans_[id].start_ns;
  open_.pop_back();
}

void QueryTrace::AttrNum(uint32_t span, const char* key, double value) {
  TraceAttr a;
  a.key = key;
  a.num = value;
  spans_[span].attrs.push_back(std::move(a));
}

void QueryTrace::AttrStr(uint32_t span, const char* key, std::string value) {
  TraceAttr a;
  a.key = key;
  a.str = std::move(value);
  a.is_num = false;
  spans_[span].attrs.push_back(std::move(a));
}

void QueryTrace::Event(const char* name, std::string detail) {
  uint32_t id = BeginSpan(name, std::move(detail));
  spans_[id].duration_ns = 0;
  open_.pop_back();
}

EdgeTrace* QueryTrace::BeginEdge(int64_t edge_id, std::string label) {
  ROX_DCHECK(open_edge_ < 0);
  EdgeTrace et;
  et.span = BeginSpan("edge", label);
  et.edge_id = edge_id;
  et.label = std::move(label);
  open_edge_ = static_cast<int64_t>(edges_.size());
  edges_.push_back(std::move(et));
  return &edges_.back();
}

void QueryTrace::EndEdge() {
  ROX_DCHECK(open_edge_ >= 0);
  EdgeTrace& et = edges_[static_cast<size_t>(open_edge_)];
  EndSpan(et.span);
  open_edge_ = -1;
}

void QueryTrace::CountSampleCall(int64_t edge_id) {
  ++total_sample_calls_;
  EdgeTrace* et = open_edge();
  if (et != nullptr && et->edge_id == edge_id) ++et->sample_calls;
}

std::string QueryTrace::ToJson() const {
  std::string out;
  out.reserve(256 + spans_.size() * 128 + edges_.size() * 128);
  out.append("{\"level\":\"");
  out.append(TraceLevelName(level_));
  out.append("\",\"spans\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    if (i > 0) out.push_back(',');
    out.append("{\"name\":\"");
    AppendJsonEscaped(&out, s.name);
    out.append("\"");
    if (!s.detail.empty()) {
      out.append(",\"detail\":\"");
      AppendJsonEscaped(&out, s.detail);
      out.append("\"");
    }
    out.append(",\"parent\":");
    AppendNum(&out, s.parent);
    out.append(",\"start_ns\":");
    AppendNum(&out, static_cast<double>(s.start_ns));
    out.append(",\"dur_ns\":");
    AppendNum(&out, static_cast<double>(s.duration_ns));
    out.append(",\"tid\":\"");
    char tid[24];
    std::snprintf(tid, sizeof(tid), "%" PRIx64, s.thread_id);
    out.append(tid);
    out.append("\"");
    for (const TraceAttr& a : s.attrs) {
      out.append(",\"");
      AppendJsonEscaped(&out, a.key);
      out.append("\":");
      if (a.is_num) {
        AppendNum(&out, a.num);
      } else {
        out.push_back('"');
        AppendJsonEscaped(&out, a.str);
        out.push_back('"');
      }
    }
    out.push_back('}');
  }
  out.append("],\"edges\":[");
  for (size_t i = 0; i < edges_.size(); ++i) {
    const EdgeTrace& e = edges_[i];
    if (i > 0) out.push_back(',');
    out.append("{\"edge\":");
    AppendNum(&out, static_cast<double>(e.edge_id));
    out.append(",\"span\":");
    AppendNum(&out, e.span);
    out.append(",\"label\":\"");
    AppendJsonEscaped(&out, e.label);
    out.append("\",\"kernel\":\"");
    AppendJsonEscaped(&out, e.kernel);
    out.append("\",\"est\":");
    AppendNum(&out, e.estimated);
    out.append(",\"obs\":");
    AppendNum(&out, e.observed);
    out.append(",\"card_v1\":");
    AppendNum(&out, e.card_v1);
    out.append(",\"card_v2\":");
    AppendNum(&out, e.card_v2);
    out.append(",\"fanout_lanes\":");
    AppendNum(&out, static_cast<double>(e.fanout_lanes));
    out.append(",\"lane_rows\":[");
    for (size_t l = 0; l < e.lane_rows.size(); ++l) {
      if (l > 0) out.push_back(',');
      AppendNum(&out, static_cast<double>(e.lane_rows[l]));
    }
    out.append("],\"sample_calls\":");
    AppendNum(&out, static_cast<double>(e.sample_calls));
    out.append(",\"resamples\":");
    AppendNum(&out, static_cast<double>(e.resamples));
    out.push_back('}');
  }
  out.append("],\"total_sample_calls\":");
  AppendNum(&out, static_cast<double>(total_sample_calls_));
  out.push_back('}');
  return out;
}

std::string QueryTrace::ToTree() const {
  // children[i] = span ids whose parent is i (plus the roots at -1).
  std::vector<std::vector<uint32_t>> children(spans_.size() + 1);
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    size_t slot = spans_[i].parent < 0
                      ? spans_.size()
                      : static_cast<size_t>(spans_[i].parent);
    children[slot].push_back(i);
  }
  // Edge payload by span id, for the drift annotation.
  std::vector<int64_t> edge_of(spans_.size(), -1);
  for (size_t i = 0; i < edges_.size(); ++i) {
    edge_of[edges_[i].span] = static_cast<int64_t>(i);
  }

  std::string out;
  // Recursive pre-order walk with box-drawing-free ASCII connectors.
  std::function<void(uint32_t, const std::string&, bool)> walk =
      [&](uint32_t id, const std::string& prefix, bool last) {
        const TraceSpan& s = spans_[id];
        out.append(prefix);
        if (!prefix.empty() || s.parent >= 0) {
          out.append(last ? "`- " : "|- ");
        }
        out.append(s.name);
        if (!s.detail.empty()) {
          out.push_back(' ');
          out.append(s.detail);
        }
        out.append("  (");
        out.append(FormatDuration(s.duration_ns));
        out.push_back(')');
        if (edge_of[id] >= 0) {
          const EdgeTrace& e = edges_[static_cast<size_t>(edge_of[id])];
          out.append("  [kernel=");
          out.append(e.kernel);
          out.append(" est=");
          AppendNum(&out, e.estimated);
          out.append(" obs=");
          AppendNum(&out, e.observed);
          if (e.estimated > 0 && e.observed >= 0) {
            out.append(" drift=");
            AppendNum(&out, e.observed / e.estimated);
            out.push_back('x');
          }
          if (e.fanout_lanes > 0) {
            out.append(" lanes=");
            AppendNum(&out, static_cast<double>(e.fanout_lanes));
          }
          if (e.sample_calls > 0) {
            out.append(" sample_calls=");
            AppendNum(&out, static_cast<double>(e.sample_calls));
          }
          if (e.resamples > 0) {
            out.append(" resamples=");
            AppendNum(&out, static_cast<double>(e.resamples));
          }
          out.push_back(']');
        }
        for (const TraceAttr& a : s.attrs) {
          out.append("  ");
          out.append(a.key);
          out.push_back('=');
          if (a.is_num) {
            AppendNum(&out, a.num);
          } else {
            out.append(a.str);
          }
        }
        out.push_back('\n');
        std::string child_prefix = prefix;
        if (!prefix.empty() || s.parent >= 0) {
          child_prefix.append(last ? "   " : "|  ");
        }
        const std::vector<uint32_t>& kids = children[id];
        for (size_t k = 0; k < kids.size(); ++k) {
          walk(kids[k], child_prefix, k + 1 == kids.size());
        }
      };
  const std::vector<uint32_t>& roots = children[spans_.size()];
  for (size_t r = 0; r < roots.size(); ++r) {
    walk(roots[r], "", r + 1 == roots.size());
  }
  return out;
}

}  // namespace rox::obs
