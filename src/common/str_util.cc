#include "common/str_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rox {

double ParseNumeric(std::string_view s) {
  if (s.empty()) return std::nan("");
  // Full-string parse: trailing garbage disqualifies.
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nan("");
  return v;
}

bool ParseDecimalU64(std::string_view s, uint64_t* out, bool* overflow) {
  if (overflow != nullptr) *overflow = false;
  if (s.empty()) return false;
  uint64_t v = 0;
  bool too_big = false;
  // Keep scanning past an overflow: trailing junk still makes the text
  // malformed rather than merely too large.
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t d = static_cast<uint64_t>(c - '0');
    too_big = too_big || v > (UINT64_MAX - d) / 10;
    if (!too_big) v = v * 10 + d;
  }
  if (too_big) {
    if (overflow != nullptr) *overflow = true;
    return false;
  }
  *out = v;
  return true;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> StrSplit(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[32];
  if (u == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", v, units[u]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, units[u]);
  }
  return buf;
}

std::string HumanCount(double count) {
  char buf[32];
  if (count >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", count / 1e6);
  } else if (count >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", count / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", count);
  }
  return buf;
}

}  // namespace rox
