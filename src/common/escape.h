// Table-driven byte escaping, the one escaper behind every text format
// the program writes: JSON string contents (traces, metrics dumps,
// server error bodies, query responses) and XML serialization
// (xml/parser.cc), including XML written straight into a JSON string.
//
// An EscapeTable maps each byte either to a short replacement or to
// itself. AppendEscaped copies every maximal run of unreplaced bytes
// with one append, so clean text costs one scan and one copy.

#ifndef ROX_COMMON_ESCAPE_H_
#define ROX_COMMON_ESCAPE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rox {

class EscapeTable {
 public:
  // Longest replacement a table holds ("\u001f", "&quot;").
  static constexpr size_t kMaxReplacement = 6;

  // Every byte maps to itself.
  EscapeTable() = default;

  // Maps byte `b` to `replacement` (1..kMaxReplacement bytes).
  void Set(unsigned char b, std::string_view replacement);

  // True when `b` is copied as is.
  bool Keeps(unsigned char b) const { return len_[b] == 0; }
  std::string_view Replacement(unsigned char b) const {
    return {rep_[b], len_[b]};
  }

 private:
  uint8_t len_[256] = {};
  char rep_[256][kMaxReplacement] = {};
};

// Appends `s` to `*out`, each byte replaced as `table` says.
inline void AppendEscaped(std::string* out, std::string_view s,
                          const EscapeTable& table) {
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p < end) {
    const char* run = p;
    while (p < end && table.Keeps(static_cast<unsigned char>(*p))) ++p;
    out->append(run, static_cast<size_t>(p - run));
    if (p == end) break;
    out->append(table.Replacement(static_cast<unsigned char>(*p++)));
  }
}

// JSON string-literal contents: `"` and `\` backslash-escaped, \n \r \t
// by name, every other byte below 0x20 as \u00xx; all else (UTF-8
// included) verbatim.
const EscapeTable& JsonEscapeTable();

inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  AppendEscaped(out, s, JsonEscapeTable());
}

}  // namespace rox

#endif  // ROX_COMMON_ESCAPE_H_
