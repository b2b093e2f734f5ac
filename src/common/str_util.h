// Small string helpers (the toolchain's std::format is incomplete on
// GCC 12, so we provide the few formatting helpers the library needs).

#ifndef ROX_COMMON_STR_UTIL_H_
#define ROX_COMMON_STR_UTIL_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace rox {

// Concatenates the stream representations of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return oss.str();
}

// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

// Splits `s` on the single character `sep`; keeps empty fields.
std::vector<std::string> StrSplit(std::string_view s, char sep);

// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Full-string numeric parse: the double value of `s`, or NaN when `s`
// is empty or has any non-numeric prefix/suffix. Shared by the string
// pool (which caches the parse per interned string) and the query
// compiler, so "what counts as a number" cannot diverge between index
// build and predicate compilation.
double ParseNumeric(std::string_view s);

// Parses a decimal unsigned integer: one or more ASCII digits and
// nothing else (no sign, whitespace or radix prefix). Returns false on
// any other text and on a value above UINT64_MAX. When `overflow` is
// non-null it is set to whether the text was all digits but too large,
// so a caller can tell an oversized number from junk. Every numeric
// HTTP header, request or response, is parsed with it.
bool ParseDecimalU64(std::string_view s, uint64_t* out,
                     bool* overflow = nullptr);

// Formats a byte count with binary units ("1.1 MB" style, as Table 3).
std::string HumanBytes(uint64_t bytes);

// Formats a count with K/M suffixes ("43.5K" style, as Figure 3).
std::string HumanCount(double count);

}  // namespace rox

#endif  // ROX_COMMON_STR_UTIL_H_
