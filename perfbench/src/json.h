// A small JSON reader for what the server returns: the response
// envelope's stats, spans-level traces, and GET /stats. Plus the
// targeted extraction the load generator runs on every response
// without building a tree over the (large) rows array.

#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> items;                            // kArray
  std::vector<std::pair<std::string, Json>> fields;   // kObject

  // Member lookup; a shared null value when absent or not an object.
  const Json& operator[](std::string_view key) const;
  double Num(double def = 0) const { return type == kNumber ? number : def; }
  bool Bool() const { return type == kBool && boolean; }
};

// Parses one JSON document. False (and *out untouched past the error)
// on malformed input.
bool ParseJson(std::string_view text, Json* out);

// What the load generator keeps of one /query response body.
struct ResponseDigest {
  bool ok = false;          // envelope parsed
  std::string code;         // status.code
  uint64_t row_count = 0;   // full result cardinality
  uint64_t rows_digest = 0; // digest of the returned rows' bytes
  Json stats;               // the "stats" object
  std::string_view trace;   // raw "trace" object, when present
};

// Extracts the status code, row_count, a digest of the "rows" array's
// exact bytes, the stats object and the raw trace object. Strings in
// the rows array are skipped, not decoded.
ResponseDigest DigestResponse(std::string_view body);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
