// Kernel-level cut-off suite (DESIGN.md §14): every pair-producing join
// kernel is compared with a brute-force oracle on the clean run and at
// every limit of a sweep, and driven through a cancellation trip.
//
// The oracle is test-local and uses no kernel, index lookup, NodeValue
// or ThetaRun: nested loops over the Document arrays list F, the
// kernel's candidate pairs in emission order. ROX's τ-samples and
// cut-offs read the pairs in that order, so it is part of the contract:
//  * structural: per row, the nodes passing NodeMatchesStep, in
//    document order (tests/structural_oracle.h);
//  * index-NL equi: the inner text nodes (or attribute nodes passing
//    the probe spec) with an equal string, in document order;
//  * theta, range operators: the inner nodes whose number satisfies
//    `outer op inner`, ordered by (number, pre); `!=`: the inner nodes
//    with a different string, in document order;
//  * hash: the build-side nodes with an equal string, in build order;
//  * merge: over the SortByValueId outputs, per sorted outer row, the
//    equal-valued sorted inner nodes.
// The limit protocol then fixes the whole output: with L = limit, if
// |F| > L the kernel returns F[0, L) with truncated set and
// outer_consumed = F[L].row + 1; otherwise F, not truncated, with every
// outer row consumed.
//
// A cancellation trip may stop anywhere, so it is checked against the
// invariants alone: pairs only reference rows < outer_consumed, rows stay
// grouped, and a truncated uniform-fan-out run keeps whole rows only.
// Regression cases pin the accounting bugs fixed in §14.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "engine/governor.h"
#include "exec/join_result.h"
#include "exec/kernel_batch.h"
#include "exec/structural_join.h"
#include "exec/value_join.h"
#include "index/corpus.h"
#include "tests/structural_oracle.h"

namespace rox {
namespace {

// Outer inputs larger than kCancelCheckRows (and fan-outs producing
// > kCancelCheckRows pairs), so a pre-tripped token is guaranteed to
// stop every kernel mid-run through at least one poll.
constexpr size_t kRows = 5000;
constexpr size_t kMod = 8;   // distinct join values
constexpr size_t kDup = 3;   // inner text nodes per value

std::vector<Pre> NodesOfKind(const Document& doc, NodeKind kind) {
  std::vector<Pre> out;
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    if (doc.Kind(p) == kind) out.push_back(p);
  }
  return out;
}

std::vector<Pre> TextNodes(const Document& doc) {
  return NodesOfKind(doc, NodeKind::kText);
}

std::vector<Pre> ElementsNamed(const Document& doc, std::string_view name) {
  std::vector<Pre> out;
  for (Pre p : NodesOfKind(doc, NodeKind::kElem)) {
    if (doc.NameStr(p) == name) out.push_back(p);
  }
  return out;
}

// Left document: kRows <k>i%kMod</k>. Right document: kDup rounds of
// one <e>v</e> per value, then one <a v="v" w="..."/> per value, with
// the values in a shuffled order — so every outer row equi-matches
// exactly kDup text nodes and exactly 1 `v` attribute, and a range
// join's (value, pre) order differs from document order.
struct ValueFixture {
  Corpus corpus;
  DocId left = 0, right = 0;
  std::vector<Pre> outer;        // left text nodes, one per row
  std::vector<Pre> inner_texts;  // right text nodes
};

const ValueFixture& VF() {
  static const ValueFixture* f = [] {
    auto* v = new ValueFixture;
    std::string lxml = "<l>";
    for (size_t i = 0; i < kRows; ++i) {
      lxml += "<k>" + std::to_string(i % kMod) + "</k>";
    }
    lxml += "</l>";
    auto shuffled = [](size_t j) {
      return std::to_string((j * 5 + 3) % kMod);
    };
    std::string rxml = "<r>";
    for (size_t d = 0; d < kDup; ++d) {
      for (size_t j = 0; j < kMod; ++j) {
        rxml += "<e>" + shuffled(j) + "</e>";
      }
    }
    for (size_t j = 0; j < kMod; ++j) {
      rxml += "<a v=\"" + shuffled(j) + "\" w=\"" + std::to_string(j) +
              "\"/>";
    }
    rxml += "</r>";
    auto l = v->corpus.AddXml(lxml, "left");
    auto r = v->corpus.AddXml(rxml, "right");
    ROX_CHECK(l.ok() && r.ok());
    v->left = *l;
    v->right = *r;
    v->outer = TextNodes(v->corpus.doc(v->left));
    v->inner_texts = TextNodes(v->corpus.doc(v->right));
    ROX_CHECK(v->outer.size() == kRows);
    return v;
  }();
  return *f;
}

// Irregular value joins: seeded random rows, with element-valued outer
// and inner nodes (the single-text-child rule), value-less and
// non-numeric rows between matching ones, and `v` attributes next to
// `w` ones the probe spec must skip.
struct RaggedFixture {
  Corpus corpus;
  DocId left = 0, right = 0;
  std::vector<Pre> outer;  // the left <k> elements
  std::vector<Pre> inner;  // the right <e> elements
};

const RaggedFixture& RF() {
  static const RaggedFixture* f = [] {
    auto* v = new RaggedFixture;
    Rng rng(17);
    auto number = [&] {
      return rng.Bernoulli(0.1) ? std::string("2.5")
                                : std::to_string(rng.Below(12));
    };
    // Outer rows: mostly numbers, plus a non-number, a value-less
    // element and an element with two text children (no value either).
    const char* const kOddRows[] = {"<k>x</k>", "<k/>", "<k>3<b/>4</k>"};
    std::string lxml = "<l>";
    for (size_t i = 0; i < 3000; ++i) {
      uint64_t r = rng.Below(8);
      lxml += r < 3 ? std::string(kOddRows[r]) : "<k>" + number() + "</k>";
    }
    lxml += "</l>";
    std::string rxml = "<r>";
    for (size_t i = 0; i < 240; ++i) {
      uint64_t r = rng.Below(8);
      if (r == 0) {
        rxml += "<e>y</e>";
      } else if (r == 1) {
        rxml += "<e>7<b/>" + number() + "</e>";
      } else if (r == 2) {
        rxml += "<a v=\"" + number() + "\" w=\"" + number() + "\"/>";
      } else {
        rxml += "<e>" + number() + "</e>";
      }
    }
    rxml += "</r>";
    auto l = v->corpus.AddXml(lxml, "ragged_left");
    auto r = v->corpus.AddXml(rxml, "ragged_right");
    ROX_CHECK(l.ok() && r.ok());
    v->left = *l;
    v->right = *r;
    v->outer = ElementsNamed(v->corpus.doc(v->left), "k");
    v->inner = ElementsNamed(v->corpus.doc(v->right), "e");
    return v;
  }();
  return *f;
}

// kRows <p><x/><x/></p> rows: descendant::x / child::x emit exactly 2
// pairs per context row.
struct StructFixture {
  Corpus corpus;
  DocId id = 0;
  std::vector<Pre> context;  // the <p> elements
};

const StructFixture& SF() {
  static const StructFixture* f = [] {
    auto* v = new StructFixture;
    std::string xml = "<s>";
    for (size_t i = 0; i < kRows; ++i) xml += "<p><x/><x/></p>";
    xml += "</s>";
    auto id = v->corpus.AddXml(xml, "struct");
    ROX_CHECK(id.ok());
    v->id = *id;
    v->context = ElementsNamed(v->corpus.doc(v->id), "p");
    ROX_CHECK(v->context.size() == kRows);
    return v;
  }();
  return *f;
}

// --- the value-join oracle --------------------------------------------------

// The string a value join compares for node `p`: a text, attribute,
// comment or PI node's own string; an element's only text child's
// string (none for zero or several text children); none for the
// document node.
std::optional<std::string_view> StringValue(const Document& doc, Pre p) {
  switch (doc.Kind(p)) {
    case NodeKind::kDoc:
      return std::nullopt;
    case NodeKind::kElem: {
      std::optional<std::string_view> found;
      for (Pre q = p + 1; q <= p + doc.Size(p); ++q) {
        if (doc.Parent(q) != p || doc.Kind(q) != NodeKind::kText) continue;
        if (found.has_value()) return std::nullopt;
        found = doc.pool().Get(doc.Value(q));
      }
      return found;
    }
    default:
      return doc.pool().Get(doc.Value(p));
  }
}

// A string's number: a full-string strtod parse that is not NaN.
std::optional<double> NumberOf(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || std::isnan(v)) return std::nullopt;
  return v;
}

bool Satisfies(double outer, CmpOp op, double inner) {
  switch (op) {
    case CmpOp::kLt:
      return outer < inner;
    case CmpOp::kLe:
      return outer <= inner;
    case CmpOp::kGt:
      return outer > inner;
    case CmpOp::kGe:
      return outer >= inner;
    case CmpOp::kEq:
    case CmpOp::kNe:
      break;
  }
  ROX_CHECK(false);
  return false;
}

// A candidate inner node with its string.
struct Valued {
  Pre pre;
  std::string_view str;
};

// The inner nodes an index probe may match, in document order: every
// text node, or every attribute node passing the spec's name and owner
// restrictions.
std::vector<Valued> SpecCandidates(const Document& doc,
                                   const ValueProbeSpec& spec) {
  std::vector<Valued> out;
  for (Pre s = 0; s < doc.NodeCount(); ++s) {
    if (doc.Kind(s) != spec.kind) continue;
    if (spec.kind == NodeKind::kAttr &&
        ((spec.attr_name != kInvalidStringId &&
          doc.Name(s) != spec.attr_name) ||
         (spec.owner_elem != kInvalidStringId &&
          doc.Name(doc.Parent(s)) != spec.owner_elem))) {
      continue;
    }
    out.push_back({s, *StringValue(doc, s)});
  }
  return out;
}

// The nodes of a materialized inner list that carry a value, in list
// order.
std::vector<Valued> ListCandidates(const Document& doc,
                                   std::span<const Pre> nodes) {
  std::vector<Valued> out;
  for (Pre s : nodes) {
    if (auto v = StringValue(doc, s)) out.push_back({s, *v});
  }
  return out;
}

// Per outer row, the nodes it joins, in emission order.
using RowCandidates = std::function<std::vector<Pre>(size_t row)>;

// F: the rows' candidates concatenated.
JoinPairs Enumerate(size_t outer_n, const RowCandidates& candidates) {
  JoinPairs f;
  for (size_t i = 0; i < outer_n; ++i) {
    for (Pre s : candidates(i)) {
      f.left_rows.push_back(static_cast<uint32_t>(i));
      f.right_nodes.push_back(s);
    }
  }
  return f;
}

// Equi joins (index-NL, hash, merge): the candidates with the outer
// row's string, in candidate order.
RowCandidates EqualCandidates(const Document& outer_doc,
                              std::span<const Pre> outer,
                              std::vector<Valued> inner) {
  return [&outer_doc, outer, inner = std::move(inner)](size_t i) {
    std::vector<Pre> out;
    auto v = StringValue(outer_doc, outer[i]);
    if (!v.has_value()) return out;
    for (const Valued& c : inner) {
      if (c.str == *v) out.push_back(c.pre);
    }
    return out;
  };
}

// Theta joins: `!=` keeps the candidates with a different string, in
// candidate order; a range operator keeps those whose number satisfies
// `outer op inner`, ordered by (number, pre).
RowCandidates ThetaCandidates(const Document& outer_doc,
                              std::span<const Pre> outer, CmpOp op,
                              std::vector<Valued> inner) {
  return [&outer_doc, outer, op, inner = std::move(inner)](size_t i) {
    std::vector<Pre> out;
    auto v = StringValue(outer_doc, outer[i]);
    if (!v.has_value()) return out;
    if (op == CmpOp::kNe) {
      for (const Valued& c : inner) {
        if (c.str != *v) out.push_back(c.pre);
      }
      return out;
    }
    auto x = NumberOf(*v);
    if (!x.has_value()) return out;
    std::vector<std::pair<double, Pre>> hits;
    for (const Valued& c : inner) {
      auto y = NumberOf(c.str);
      if (y.has_value() && Satisfies(*x, op, *y)) hits.emplace_back(*y, c.pre);
    }
    std::sort(hits.begin(), hits.end());
    for (const auto& h : hits) out.push_back(h.second);
    return out;
  };
}

// The kernel's exact output under `limit`, from F holding at least
// limit + 1 pairs whenever the full sequence is longer than the limit:
// past the limit, the first `limit` pairs, truncated, with the row of
// the pair just past the limit counted as consumed; otherwise all of F
// with every outer row consumed.
JoinPairs Expected(const JoinPairs& f, uint64_t limit, size_t outer_n) {
  JoinPairs want;
  if (limit != kNoLimit && f.size() > limit) {
    want.left_rows.assign(f.left_rows.begin(), f.left_rows.begin() + limit);
    want.right_nodes.assign(f.right_nodes.begin(),
                            f.right_nodes.begin() + limit);
    want.truncated = true;
    want.outer_consumed = f.left_rows[limit] + 1;
  } else {
    want.left_rows = f.left_rows;
    want.right_nodes = f.right_nodes;
    want.outer_consumed = outer_n;
  }
  return want;
}

// --- checks -----------------------------------------------------------------

void CheckInvariants(const JoinPairs& p, size_t outer_n) {
  ASSERT_EQ(p.left_rows.size(), p.right_nodes.size());
  EXPECT_LE(p.outer_consumed, outer_n);
  if (!p.truncated) {
    EXPECT_EQ(p.outer_consumed, outer_n);
  }
  for (size_t k = 0; k < p.left_rows.size(); ++k) {
    ASSERT_LT(p.left_rows[k], p.outer_consumed) << "pair " << k;
    if (k > 0) {
      ASSERT_LE(p.left_rows[k - 1], p.left_rows[k]) << "pair " << k;
    }
  }
}

void ExpectIdentical(const JoinPairs& got, const JoinPairs& want,
                     const std::string& what) {
  EXPECT_EQ(got.left_rows, want.left_rows) << what;
  EXPECT_EQ(got.right_nodes, want.right_nodes) << what;
  EXPECT_EQ(got.truncated, want.truncated) << what;
  EXPECT_EQ(got.outer_consumed, want.outer_consumed) << what;
}

using Kernel = std::function<JoinPairs(uint64_t limit,
                                       const CancellationToken*)>;

// The full case matrix for one kernel against the oracle's full
// sequence `f`. `has_limit` is false for the full-execution kernels
// that take no cut-off (hash, merge). `pairs_per_row` > 0 asserts the
// sharp cancellation identity size == outer_consumed * pairs_per_row
// for uniform-fanout inputs — which fails if a tripped run keeps a
// partially-emitted row or counts it as consumed. Every kernel polls
// its token within kCancelCheckRows outer rows; `polls_output` kernels
// also poll once per kCancelCheckRows produced pairs (the merge join
// polls per merge step instead).
void RunKernelMatrix(const Kernel& run, const JoinPairs& f, size_t outer_n,
                     size_t pairs_per_row, bool has_limit,
                     const std::string& what, bool polls_output = true) {
  SCOPED_TRACE(what);
  const uint64_t total = f.size();
  if (pairs_per_row > 0) {
    EXPECT_EQ(total, outer_n * pairs_per_row);
  }
  ExpectIdentical(run(kNoLimit, nullptr), Expected(f, kNoLimit, outer_n),
                  "clean");

  if (has_limit) {
    // Limits inside the first row, mid-row, on a row boundary, past a
    // batch and a cancellation-poll interval, and around the total.
    for (uint64_t limit :
         {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{7}, uint64_t{64},
          uint64_t{1000}, uint64_t{kCancelCheckRows + 1}, total - 1, total,
          total + 10}) {
      if (limit == kNoLimit || limit > total + 10) continue;
      JoinPairs got = run(limit, nullptr);
      CheckInvariants(got, outer_n);
      ExpectIdentical(got, Expected(f, limit, outer_n),
                      "limit=" + std::to_string(limit));
    }
  }

  // Cancellation trips: a pre-tripped token stops through the same
  // truncation protocol, at a stop point only the invariants pin.
  CancellationToken tok;
  tok.Cancel();
  JoinPairs c = run(kNoLimit, &tok);
  SCOPED_TRACE("cancel");
  CheckInvariants(c, outer_n);
  if (outer_n > kCancelCheckRows ||
      (polls_output && total > kCancelCheckRows)) {
    EXPECT_TRUE(c.truncated);
  }
  if (c.truncated && pairs_per_row > 0) {
    EXPECT_EQ(c.size(), c.outer_consumed * pairs_per_row);
  }
}

constexpr CmpOp kThetaOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                               CmpOp::kGe, CmpOp::kNe};

// --- structural kernels -----------------------------------------------------

void RunStructuralMatrix(const Document& doc, std::span<const Pre> context,
                         const StepSpec& step, const ElementIndex* idx,
                         size_t pairs_per_row, const std::string& what) {
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        return StructuralJoinPairs(doc, context, step, limit, idx, c);
      },
      OraclePairs(doc, context, step), context.size(), pairs_per_row,
      /*has_limit=*/true, what);
}

TEST(KernelInvariantTest, StructuralDescendantIndexed) {
  const StructFixture& sf = SF();
  RunStructuralMatrix(sf.corpus.doc(sf.id), sf.context,
                      StepSpec::Descendant(sf.corpus.Find("x")),
                      &sf.corpus.element_index(sf.id), 2,
                      "descendant::x (bulk index range)");
}

TEST(KernelInvariantTest, StructuralChildSink) {
  const StructFixture& sf = SF();
  RunStructuralMatrix(sf.corpus.doc(sf.id), sf.context,
                      StepSpec::Child(sf.corpus.Find("x")),
                      &sf.corpus.element_index(sf.id), 2,
                      "child::x (per-match sink)");
}

TEST(KernelInvariantTest, StructuralDescendantOrSelfEmitsSelf) {
  // Context nodes match the name test themselves and contain no other
  // <p>: exactly the self pair per row, through the bulk path's
  // self-emission.
  const StructFixture& sf = SF();
  RunStructuralMatrix(
      sf.corpus.doc(sf.id), sf.context,
      StepSpec{Axis::kDescendantOrSelf, KindTest::kElem, sf.corpus.Find("p")},
      &sf.corpus.element_index(sf.id), 1,
      "descendant-or-self::p (self pairs)");
}

TEST(KernelInvariantTest, StructuralFollowingLimitAndCancel) {
  // following::x explodes quadratically (~2 * kRows pairs from row 0
  // alone): the full matrix runs on the last 300 context rows, and the
  // whole context is checked at limits against an oracle that stops
  // one pair past the limit.
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  StepSpec step{Axis::kFollowing, KindTest::kElem, sf.corpus.Find("x")};
  std::span<const Pre> all(sf.context);
  RunStructuralMatrix(doc, all.last(300), step, idx, 0,
                      "following::x (bulk suffix range, context tail)");
  for (uint64_t limit : {uint64_t{1}, uint64_t{1000}, uint64_t{25000}}) {
    JoinPairs got = StructuralJoinPairs(doc, all, step, limit, idx);
    CheckInvariants(got, all.size());
    EXPECT_TRUE(got.truncated);
    ExpectIdentical(got,
                    Expected(OraclePairs(doc, all, step, limit), limit,
                             all.size()),
                    "following::x, whole context, limit=" +
                        std::to_string(limit));
  }
}

// Every axis × kind test × name test × index on/off, on random
// documents with element and attribute contexts, at every limit up to
// 64, then at geometrically spaced limits, and at one below, at and
// past the full result: pair order, truncated and outer_consumed all
// match the oracle.
TEST(KernelInvariantTest, StructuralAllAxesMatchOracleUnderLimits) {
  Rng rng(4321);
  for (int trial = 0; trial < 8; ++trial) {
    Corpus corpus;
    auto id = corpus.AddXml(RandomXml(rng, 40), "r" + std::to_string(trial));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    const Document& doc = corpus.doc(*id);
    std::vector<Pre> context;
    for (Pre p = 0; p < doc.NodeCount(); ++p) {
      NodeKind k = doc.Kind(p);
      if ((k == NodeKind::kElem || k == NodeKind::kAttr) &&
          rng.Bernoulli(0.4)) {
        context.push_back(p);
      }
    }
    for (Axis axis :
         {Axis::kChild, Axis::kDescendant, Axis::kDescendantOrSelf,
          Axis::kParent, Axis::kAncestor, Axis::kAncestorOrSelf,
          Axis::kFollowing, Axis::kPreceding, Axis::kFollowingSibling,
          Axis::kPrecedingSibling, Axis::kSelf, Axis::kAttribute}) {
      for (KindTest kind : {KindTest::kAnyKind, KindTest::kElem,
                            KindTest::kText, KindTest::kAttr}) {
        for (StringId name :
             {kInvalidStringId, corpus.Find("b"), corpus.Find("k")}) {
          StepSpec step{axis, kind, name};
          JoinPairs f = OraclePairs(doc, context, step);
          std::vector<uint64_t> limits = {kNoLimit};
          for (uint64_t l = 1; l <= f.size() + 1;
               l = l < 64 ? l + 1 : l * 3 / 2) {
            limits.push_back(l);
          }
          if (f.size() > 1) limits.push_back(f.size() - 1);
          if (f.size() > 0) limits.push_back(f.size());
          for (const ElementIndex* idx :
               {static_cast<const ElementIndex*>(nullptr),
                &corpus.element_index(*id)}) {
            for (uint64_t limit : limits) {
              JoinPairs got =
                  StructuralJoinPairs(doc, context, step, limit, idx);
              ExpectIdentical(got, Expected(f, limit, context.size()),
                              std::string(AxisName(axis)) + " kind=" +
                                  std::to_string(static_cast<int>(kind)) +
                                  " name=" + std::to_string(name) +
                                  " index=" + (idx ? "on" : "off") +
                                  " limit=" + std::to_string(limit) +
                                  " trial=" + std::to_string(trial));
              if (::testing::Test::HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

// --- value kernels ----------------------------------------------------------

template <typename Fixture>
void RunIndexEquiMatrix(const Fixture& fx, std::span<const Pre> outer,
                        const ValueProbeSpec& spec, size_t pairs_per_row,
                        const std::string& what) {
  const Document& ldoc = fx.corpus.doc(fx.left);
  const Document& rdoc = fx.corpus.doc(fx.right);
  const ValueIndex& vidx = fx.corpus.value_index(fx.right);
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        JoinPairs out;
        ValueIndexJoinPairsInto(ldoc, outer, rdoc, vidx, spec, limit, out, c);
        return out;
      },
      Enumerate(outer.size(), EqualCandidates(ldoc, outer,
                                              SpecCandidates(rdoc, spec))),
      outer.size(), pairs_per_row, /*has_limit=*/true, what);
}

TEST(KernelInvariantTest, ValueIndexEquiText) {
  const ValueFixture& vf = VF();
  RunIndexEquiMatrix(vf, vf.outer, ValueProbeSpec::Text(), kDup,
                     "index-nl equi, text spec");
  const RaggedFixture& rf = RF();
  RunIndexEquiMatrix(rf, rf.outer, ValueProbeSpec::Text(), 0,
                     "index-nl equi, text spec, ragged");
}

TEST(KernelInvariantTest, ValueIndexEquiAttr) {
  const ValueFixture& vf = VF();
  RunIndexEquiMatrix(vf, vf.outer, ValueProbeSpec::Attr(vf.corpus.Find("v")),
                     1, "index-nl equi, attr spec");
  const RaggedFixture& rf = RF();
  RunIndexEquiMatrix(rf, rf.outer, ValueProbeSpec::Attr(rf.corpus.Find("v")),
                     0, "index-nl equi, attr spec, ragged");
}

template <typename Fixture>
void RunIndexThetaMatrix(const Fixture& fx, std::span<const Pre> outer,
                         const ValueProbeSpec& spec, const std::string& what) {
  const Document& ldoc = fx.corpus.doc(fx.left);
  const Document& rdoc = fx.corpus.doc(fx.right);
  const ValueIndex& vidx = fx.corpus.value_index(fx.right);
  for (CmpOp op : kThetaOps) {
    RunKernelMatrix(
        [&](uint64_t limit, const CancellationToken* c) {
          return ValueIndexThetaJoinPairs(ldoc, outer, rdoc, vidx, spec, op,
                                          limit, c);
        },
        Enumerate(outer.size(), ThetaCandidates(ldoc, outer, op,
                                                SpecCandidates(rdoc, spec))),
        outer.size(), 0, /*has_limit=*/true, what + " op " + CmpOpName(op));
  }
}

TEST(KernelInvariantTest, ValueIndexTheta) {
  const ValueFixture& vf = VF();
  RunIndexThetaMatrix(vf, vf.outer, ValueProbeSpec::Text(),
                      "index theta, text spec");
  const RaggedFixture& rf = RF();
  RunIndexThetaMatrix(rf, rf.outer, ValueProbeSpec::Text(),
                      "index theta, text spec, ragged");
  RunIndexThetaMatrix(rf, rf.outer, ValueProbeSpec::Attr(rf.corpus.Find("v")),
                      "index theta, attr spec, ragged");
}

template <typename Fixture>
void RunThetaRunMatrix(const Fixture& fx, std::span<const Pre> outer,
                       std::span<const Pre> inner, const std::string& what) {
  const Document& ldoc = fx.corpus.doc(fx.left);
  const Document& rdoc = fx.corpus.doc(fx.right);
  for (CmpOp op : kThetaOps) {
    RunKernelMatrix(
        [&](uint64_t limit, const CancellationToken* c) {
          return SortThetaJoinPairs(ldoc, outer, rdoc, inner, op, limit, c);
        },
        Enumerate(outer.size(), ThetaCandidates(ldoc, outer, op,
                                                ListCandidates(rdoc, inner))),
        outer.size(), 0, /*has_limit=*/true, what + " op " + CmpOpName(op));
  }
}

TEST(KernelInvariantTest, SortTheta) {
  const ValueFixture& vf = VF();
  RunThetaRunMatrix(vf, vf.outer, vf.inner_texts, "theta run");
  const RaggedFixture& rf = RF();
  RunThetaRunMatrix(rf, rf.outer, rf.inner, "theta run, ragged");
}

template <typename Fixture>
void RunHashMatrix(const Fixture& fx, std::span<const Pre> outer,
                   std::span<const Pre> inner, size_t pairs_per_row,
                   const std::string& what) {
  const Document& ldoc = fx.corpus.doc(fx.left);
  const Document& rdoc = fx.corpus.doc(fx.right);
  RunKernelMatrix(
      [&](uint64_t, const CancellationToken* c) {
        return HashValueJoinPairs(ldoc, outer, rdoc, inner, c);
      },
      Enumerate(outer.size(),
                EqualCandidates(ldoc, outer, ListCandidates(rdoc, inner))),
      outer.size(), pairs_per_row, /*has_limit=*/false, what);
}

TEST(KernelInvariantTest, HashProbe) {
  const ValueFixture& vf = VF();
  RunHashMatrix(vf, vf.outer, vf.inner_texts, kDup, "hash equi probe");
  // The emission order within a value group is the build-input order.
  std::vector<Pre> reversed(vf.inner_texts.rbegin(), vf.inner_texts.rend());
  RunHashMatrix(vf, vf.outer, reversed, kDup, "hash, reversed build side");
  const RaggedFixture& rf = RF();
  RunHashMatrix(rf, rf.outer, rf.inner, 0, "hash, ragged");
}

template <typename Fixture>
void RunMergeMatrix(const Fixture& fx, std::span<const Pre> outer,
                    std::span<const Pre> inner, size_t pairs_per_row,
                    const std::string& what) {
  const Document& ldoc = fx.corpus.doc(fx.left);
  const Document& rdoc = fx.corpus.doc(fx.right);
  std::vector<Pre> os = SortByValueId(ldoc, outer);
  std::vector<Pre> is = SortByValueId(rdoc, inner);
  RunKernelMatrix(
      [&](uint64_t, const CancellationToken* c) {
        return MergeValueJoinPairs(ldoc, os, rdoc, is, c);
      },
      Enumerate(os.size(), EqualCandidates(ldoc, os, ListCandidates(rdoc, is))),
      os.size(), pairs_per_row, /*has_limit=*/false, what,
      /*polls_output=*/false);
}

TEST(KernelInvariantTest, Merge) {
  const ValueFixture& vf = VF();
  RunMergeMatrix(vf, vf.outer, vf.inner_texts, kDup, "merge equi join");
  const RaggedFixture& rf = RF();
  RunMergeMatrix(rf, rf.outer, rf.inner, 0, "merge, ragged");
}

// --- regression cases for the pre-fix accounting ----------------------------

// A limit trip must count every row up to and including the tripping
// one, even when rows before it matched nothing and none of the
// tripping row's pairs survive the sentinel pop. The former accounting
// derived outer_consumed from left_rows.back() and reported 1 here,
// skewing the reduction factor (and the |r|/f extrapolation) by 6x.
TEST(KernelInvariantTest, EquiLimitCountsMatchlessPrefix) {
  Corpus c;
  auto l = c.AddXml(
      "<l><k>a</k><k>z0</k><k>z1</k><k>z2</k><k>z3</k><k>a</k></l>", "l");
  auto r = c.AddXml("<r><e>a</e><e>a</e><e>a</e></r>", "r");
  ASSERT_TRUE(l.ok() && r.ok());
  const Document& ldoc = c.doc(*l);
  std::vector<Pre> outer = TextNodes(ldoc);
  ASSERT_EQ(outer.size(), 6u);
  JoinPairs out;
  ValueIndexJoinPairsInto(ldoc, outer, c.doc(*r), c.value_index(*r),
                          ValueProbeSpec::Text(), /*limit=*/3, out);
  EXPECT_TRUE(out.truncated);
  EXPECT_EQ(out.size(), 3u);  // all from row 0; row 5's pair was the sentinel
  EXPECT_EQ(out.outer_consumed, 6u);
  CheckInvariants(out, outer.size());
}

// Same shape through the theta probe loop: non-numeric rows between the
// emitting row and the tripping row must still count as consumed.
TEST(KernelInvariantTest, ThetaLimitCountsMatchlessPrefix) {
  Corpus c;
  auto l = c.AddXml("<l><k>5</k><k>x</k><k>x</k><k>x</k><k>x</k><k>5</k></l>",
                    "l");
  auto r = c.AddXml("<r><e>10</e><e>20</e><e>30</e></r>", "r");
  ASSERT_TRUE(l.ok() && r.ok());
  const Document& ldoc = c.doc(*l);
  const Document& rdoc = c.doc(*r);
  std::vector<Pre> outer = TextNodes(ldoc);
  std::vector<Pre> inner = TextNodes(rdoc);
  ASSERT_EQ(outer.size(), 6u);
  JoinPairs idx = ValueIndexThetaJoinPairs(ldoc, outer, rdoc,
                                           c.value_index(*r),
                                           ValueProbeSpec::Text(), CmpOp::kLt,
                                           /*limit=*/3);
  EXPECT_TRUE(idx.truncated);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.outer_consumed, 6u);
  CheckInvariants(idx, outer.size());

  JoinPairs sorted =
      SortThetaJoinPairs(ldoc, outer, rdoc, inner, CmpOp::kLt, /*limit=*/3);
  ExpectIdentical(sorted, idx, "index vs sort theta");
}

// MergeValueJoinPairs formerly returned from its group cross-product
// loop without setting outer_consumed (leaving 0 with thousands of
// pairs emitted), and stamped truncated without adjusting
// outer_consumed on the loop-head trip.
TEST(KernelInvariantTest, MergeCancellationKeepsPairsWithinConsumedPrefix) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  std::vector<Pre> os = SortByValueId(ldoc, vf.outer);
  std::vector<Pre> is = SortByValueId(rdoc, vf.inner_texts);
  CancellationToken tok;
  tok.Cancel();
  JoinPairs p = MergeValueJoinPairs(ldoc, os, rdoc, is, &tok);
  EXPECT_TRUE(p.truncated);
  EXPECT_GT(p.outer_consumed, 0u);
  EXPECT_LT(p.outer_consumed, os.size());
  // Every sorted row matches exactly kDup inner nodes, so a correct
  // stop leaves exactly the consumed prefix's pairs.
  EXPECT_EQ(p.size(), p.outer_consumed * kDup);
  CheckInvariants(p, os.size());
}

// The merge's value-less-tail early exit is a clean finish: value-less
// rows never join, so every outer row counts as consumed.
TEST(KernelInvariantTest, MergeValuelessTailCountsAsConsumed) {
  Corpus c;
  auto l = c.AddXml("<l><k>a</k><k>a</k><k/><k/></l>", "l");
  auto r = c.AddXml("<r><e>a</e></r>", "r");
  ASSERT_TRUE(l.ok() && r.ok());
  const Document& ldoc = c.doc(*l);
  const Document& rdoc = c.doc(*r);
  std::vector<Pre> outer = ElementsNamed(ldoc, "k");
  ASSERT_EQ(outer.size(), 4u);
  std::vector<Pre> os = SortByValueId(ldoc, outer);
  std::vector<Pre> is = SortByValueId(rdoc, TextNodes(rdoc));
  JoinPairs p = MergeValueJoinPairs(ldoc, os, rdoc, is);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_FALSE(p.truncated);
  EXPECT_EQ(p.outer_consumed, 4u);
}

// --- selection-vector entry points ------------------------------------------

// A PreColumn with a selection vector must produce exactly what the
// gathered copy of the same rows produces.
TEST(KernelInvariantTest, PreColumnSelectionMatchesGather) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < kRows; i += 3) sel.push_back(i);
  PreColumn col{vf.outer.data(), sel.data(), sel.size()};
  std::vector<Pre> gathered;
  gathered.reserve(sel.size());
  for (uint32_t s : sel) gathered.push_back(vf.outer[s]);

  ValueHashTable table(rdoc, vf.inner_texts);
  for (uint64_t limit : {kNoLimit, uint64_t{100}}) {
    JoinPairs a, b;
    ValueIndexJoinPairsInto(ldoc, col, rdoc, vidx, ValueProbeSpec::Text(),
                            limit, a);
    ValueIndexJoinPairsInto(ldoc, gathered, rdoc, vidx,
                            ValueProbeSpec::Text(), limit, b);
    ExpectIdentical(a, b, "equi precolumn");
    CheckInvariants(a, sel.size());
  }
  JoinPairs a, b;
  table.ProbeInto(ldoc, col, a);
  table.ProbeInto(ldoc, gathered, b);
  ExpectIdentical(a, b, "hash precolumn");
}

TEST(KernelInvariantTest, StructuralPreColumnMatchesGather) {
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  StepSpec step = StepSpec::Descendant(sf.corpus.Find("x"));
  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < kRows; i += 7) sel.push_back(i);
  PreColumn col{sf.context.data(), sel.data(), sel.size()};
  std::vector<Pre> gathered;
  for (uint32_t s : sel) gathered.push_back(sf.context[s]);
  for (uint64_t limit : {kNoLimit, uint64_t{33}}) {
    JoinPairs a, b;
    StructuralJoinPairsInto(doc, col, step, limit, idx, a);
    StructuralJoinPairsInto(doc, gathered, step, limit, idx, b);
    ExpectIdentical(a, b, "structural precolumn");
    CheckInvariants(a, sel.size());
  }
}

// The *Into variants clear a reused (dirty, previously truncated)
// buffer completely — stale pairs or flags must not leak into the next
// probe.
TEST(KernelInvariantTest, IntoVariantsClearReusedBuffers) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  JoinPairs reused, fresh;
  ValueIndexJoinPairsInto(ldoc, vf.outer, rdoc, vidx, ValueProbeSpec::Text(),
                          /*limit=*/5, reused);
  EXPECT_TRUE(reused.truncated);
  ValueIndexJoinPairsInto(ldoc, vf.outer, rdoc, vidx, ValueProbeSpec::Text(),
                          kNoLimit, reused);
  ValueIndexJoinPairsInto(ldoc, vf.outer, rdoc, vidx, ValueProbeSpec::Text(),
                          kNoLimit, fresh);
  ExpectIdentical(reused, fresh, "buffer reuse");
}

}  // namespace
}  // namespace rox
