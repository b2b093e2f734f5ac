#include "json.h"

#include <cstdlib>
#include <cstring>

#include "inputs.h"

namespace perfbench {

namespace {

const Json& NullJson() {
  static const Json* kNull = new Json;
  return *kNull;
}

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool Document(Json* out) {
    if (!Value(out)) return false;
    Ws();
    return i_ == s_.size();
  }

 private:
  void Ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  bool String(std::string* out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size()) {
      char c = s_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return false;
      char e = s_[i_++];
      switch (e) {
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          if (i_ + 4 > s_.size()) return false;
          unsigned v = static_cast<unsigned>(
              std::strtoul(std::string(s_.substr(i_, 4)).c_str(), nullptr, 16));
          i_ += 4;
          // The server only escapes control characters this way.
          out->push_back(static_cast<char>(v < 0x80 ? v : '?'));
          break;
        }
        default:
          out->push_back(e);
      }
    }
    return false;
  }

  bool Value(Json* out) {
    Ws();
    if (i_ >= s_.size()) return false;
    char c = s_[i_];
    if (c == '{') {
      ++i_;
      out->type = Json::kObject;
      Ws();
      if (i_ < s_.size() && s_[i_] == '}') {
        ++i_;
        return true;
      }
      for (;;) {
        Ws();
        std::pair<std::string, Json> field;
        if (!String(&field.first)) return false;
        Ws();
        if (i_ >= s_.size() || s_[i_] != ':') return false;
        ++i_;
        if (!Value(&field.second)) return false;
        out->fields.push_back(std::move(field));
        Ws();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < s_.size() && s_[i_] == '}') {
          ++i_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++i_;
      out->type = Json::kArray;
      Ws();
      if (i_ < s_.size() && s_[i_] == ']') {
        ++i_;
        return true;
      }
      for (;;) {
        out->items.emplace_back();
        if (!Value(&out->items.back())) return false;
        Ws();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < s_.size() && s_[i_] == ']') {
          ++i_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->type = Json::kString;
      return String(&out->str);
    }
    if (Literal("true")) {
      out->type = Json::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = Json::kBool;
      return true;
    }
    if (Literal("null")) return true;
    size_t start = i_;
    while (i_ < s_.size() &&
           std::strchr("+-0123456789.eE", s_[i_]) != nullptr) {
      ++i_;
    }
    if (i_ == start || i_ - start > 40) return false;
    char buf[48];
    std::memcpy(buf, s_.data() + start, i_ - start);
    buf[i_ - start] = '\0';
    char* end = nullptr;
    out->type = Json::kNumber;
    out->number = std::strtod(buf, &end);
    return end == buf + (i_ - start);
  }

  std::string_view s_;
  size_t i_ = 0;
};

// Index one past the string starting at s[i] (an opening quote), or
// npos when unterminated. memchr hops quote to quote; a quote preceded
// by an odd run of backslashes is escaped.
size_t SkipString(std::string_view s, size_t i) {
  size_t p = i + 1;
  for (;;) {
    const void* hit = std::memchr(s.data() + p, '"', s.size() - p);
    if (hit == nullptr) return std::string_view::npos;
    size_t q = static_cast<size_t>(static_cast<const char*>(hit) - s.data());
    size_t backslashes = 0;
    while (q - backslashes > i + 1 && s[q - backslashes - 1] == '\\') {
      ++backslashes;
    }
    if (backslashes % 2 == 0) return q + 1;
    p = q + 1;
  }
}

// Index one past the JSON value starting at s[i], or npos.
size_t SkipValue(std::string_view s, size_t i) {
  if (i >= s.size()) return std::string_view::npos;
  if (s[i] == '"') return SkipString(s, i);
  if (s[i] != '{' && s[i] != '[') {
    while (i < s.size() && std::strchr(",}] \n\r\t", s[i]) == nullptr) ++i;
    return i;
  }
  int depth = 0;
  while (i < s.size()) {
    char c = s[i];
    if (c == '"') {
      i = SkipString(s, i);
      if (i == std::string_view::npos) return i;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth == 0) return i + 1;
    }
    ++i;
  }
  return std::string_view::npos;
}

size_t SkipWs(std::string_view s, size_t i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' || s[i] == '\t')) {
    ++i;
  }
  return i;
}

}  // namespace

const Json& Json::operator[](std::string_view key) const {
  if (type == kObject) {
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
  }
  return NullJson();
}

bool ParseJson(std::string_view text, Json* out) {
  return Parser(text).Document(out);
}

ResponseDigest DigestResponse(std::string_view body) {
  ResponseDigest d;
  constexpr size_t npos = std::string_view::npos;
  size_t i = SkipWs(body, 0);
  if (i >= body.size() || body[i] != '{') return d;
  ++i;
  bool saw_rows = false;
  for (;;) {
    i = SkipWs(body, i);
    if (i >= body.size()) return d;
    if (body[i] == '}') break;
    size_t key_end = SkipString(body, i);
    if (key_end == npos) return d;
    std::string_view key = body.substr(i + 1, key_end - i - 2);
    i = SkipWs(body, key_end);
    if (i >= body.size() || body[i] != ':') return d;
    i = SkipWs(body, i + 1);
    size_t end = SkipValue(body, i);
    if (end == npos) return d;
    std::string_view value = body.substr(i, end - i);
    if (key == "rows") {
      d.rows_digest = Digest(value.data(), value.size());
      saw_rows = true;
    } else if (key == "status") {
      Json status;
      if (!ParseJson(value, &status)) return d;
      d.code = status["code"].str;
    } else if (key == "row_count") {
      Json n;
      if (!ParseJson(value, &n)) return d;
      d.row_count = static_cast<uint64_t>(n.Num());
    } else if (key == "stats") {
      if (!ParseJson(value, &d.stats)) return d;
    } else if (key == "trace") {
      d.trace = value;
    }
    i = SkipWs(body, end);
    if (i < body.size() && body[i] == ',') ++i;
  }
  d.ok = saw_rows && !d.code.empty();
  return d;
}

}  // namespace perfbench
