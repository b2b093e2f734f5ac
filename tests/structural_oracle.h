// Brute-force structural-join reference shared by the operator tests:
// a random document generator and a quadratic pair oracle that tests
// every (context row, document node) pair with NodeMatchesStep. It
// never calls a join kernel or an index, so a kernel's pair order and
// cut-off accounting are checked against an independent enumeration.

#ifndef ROX_TESTS_STRUCTURAL_ORACLE_H_
#define ROX_TESTS_STRUCTURAL_ORACLE_H_

#include <functional>
#include <span>
#include <string>

#include "common/rng.h"
#include "exec/join_result.h"
#include "exec/structural_join.h"
#include "xml/document.h"

namespace rox {

// Random well-formed document with elements from a small alphabet,
// attributes, and numeric-ish text.
inline std::string RandomXml(Rng& rng, int target_elems) {
  const char* names[] = {"a", "b", "c", "d"};
  std::string xml;
  int emitted = 0;
  // Recursive generation with explicit stack.
  std::function<void(int)> gen = [&](int depth) {
    const char* n = names[rng.Below(4)];
    xml += "<";
    xml += n;
    if (rng.Bernoulli(0.4)) {
      xml += " k=\"" + std::to_string(rng.Below(5)) + "\"";
    }
    xml += ">";
    ++emitted;
    int children = depth > 4 ? 0 : static_cast<int>(rng.Below(4));
    for (int i = 0; i < children && emitted < target_elems; ++i) {
      if (rng.Bernoulli(0.3)) {
        xml += std::to_string(rng.Below(100));
      } else {
        gen(depth + 1);
      }
    }
    if (rng.Bernoulli(0.3)) xml += std::to_string(rng.Below(100));
    xml += "</";
    xml += n;
    xml += ">";
  };
  xml += "<root>";
  ++emitted;
  while (emitted < target_elems) gen(1);
  xml += "</root>";
  return xml;
}

// The structural join's candidate sequence in emission order: per
// context row, every node `s` of `doc` with NodeMatchesStep(c, s), in
// document order. Stops once it holds limit + 1 pairs (kNoLimit: all),
// since following:: and preceding:: are quadratic and a cut-off check
// only needs the pair just past the limit. A full enumeration sets
// outer_consumed to the context size; truncated stays false.
inline JoinPairs OraclePairs(const Document& doc,
                             std::span<const Pre> context,
                             const StepSpec& step,
                             uint64_t limit = kNoLimit) {
  JoinPairs out;
  for (size_t i = 0; i < context.size(); ++i) {
    for (Pre s = 0; s < doc.NodeCount(); ++s) {
      if (!NodeMatchesStep(doc, context[i], s, step)) continue;
      out.left_rows.push_back(static_cast<uint32_t>(i));
      out.right_nodes.push_back(s);
      if (limit != kNoLimit && out.size() > limit) return out;
    }
  }
  out.outer_consumed = context.size();
  return out;
}

}  // namespace rox

#endif  // ROX_TESTS_STRUCTURAL_ORACLE_H_
