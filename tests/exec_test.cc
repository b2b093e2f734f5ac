// Operator tests, centered on a brute-force oracle: every structural
// join result is cross-checked, in emission order, against a quadratic
// scan that evaluates NodeMatchesStep for all (context, node) pairs
// (tests/structural_oracle.h), over randomly generated documents and
// all axes.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "exec/result_table.h"
#include "exec/structural_join.h"
#include "exec/value_join.h"
#include "index/corpus.h"
#include "tests/structural_oracle.h"
#include "xml/parser.h"

namespace rox {
namespace {

// Normalizes pairs into a sorted (row, node) list for comparison.
std::vector<std::pair<uint32_t, Pre>> Norm(const JoinPairs& p) {
  std::vector<std::pair<uint32_t, Pre>> v;
  for (size_t i = 0; i < p.size(); ++i) {
    v.emplace_back(p.left_rows[i], p.right_nodes[i]);
  }
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

// gtest prints GetParam() into each discovered ctest name; without a
// printer it dumps the enum's raw byte. Declared in namespace rox itself,
// not the unnamed one, so argument-dependent lookup on Axis finds it.
void PrintTo(Axis axis, std::ostream* os) { *os << AxisName(axis); }

namespace {

class StructuralJoinAxisTest : public ::testing::TestWithParam<Axis> {};

TEST_P(StructuralJoinAxisTest, MatchesOracleOnRandomDocs) {
  Axis axis = GetParam();
  Rng rng(1234 + static_cast<int>(axis));
  for (int trial = 0; trial < 6; ++trial) {
    Corpus corpus;
    auto id = corpus.AddXml(RandomXml(rng, 40), "r" + std::to_string(trial));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    const Document& doc = corpus.doc(*id);
    const ElementIndex& idx = corpus.element_index(*id);

    // Random contexts: a handful of nodes of any kind valid for the axis.
    std::vector<Pre> context;
    for (Pre p = 0; p < doc.NodeCount(); ++p) {
      if (doc.Kind(p) == NodeKind::kElem && rng.Bernoulli(0.4)) {
        context.push_back(p);
      }
    }
    for (KindTest kind : {KindTest::kAnyKind, KindTest::kElem,
                          KindTest::kText, KindTest::kAttr}) {
      StepSpec step;
      step.axis = axis;
      step.kind = kind;
      // With and without a name test (only meaningful for elem/attr).
      for (StringId name : {kInvalidStringId, corpus.Find("b")}) {
        if (name != kInvalidStringId && kind != KindTest::kElem) continue;
        step.name = name;
        JoinPairs got = StructuralJoinPairs(doc, context, step, kNoLimit,
                                            &idx);
        JoinPairs want = OraclePairs(doc, context, step);
        // Emission order matters: ROX's τ-samples and cut-offs see the
        // pairs in this order, so the lists are compared unsorted.
        EXPECT_EQ(got.left_rows, want.left_rows)
            << "axis=" << AxisName(axis) << " kind=" << static_cast<int>(kind)
            << " trial=" << trial;
        EXPECT_EQ(got.right_nodes, want.right_nodes)
            << "axis=" << AxisName(axis) << " kind=" << static_cast<int>(kind)
            << " trial=" << trial;
        EXPECT_FALSE(got.truncated);
        EXPECT_EQ(got.outer_consumed, context.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAxes, StructuralJoinAxisTest,
    ::testing::Values(Axis::kChild, Axis::kDescendant,
                      Axis::kDescendantOrSelf, Axis::kParent, Axis::kAncestor,
                      Axis::kAncestorOrSelf, Axis::kFollowing,
                      Axis::kPreceding, Axis::kFollowingSibling,
                      Axis::kPrecedingSibling, Axis::kSelf, Axis::kAttribute),
    [](const ::testing::TestParamInfo<Axis>& info) {
      std::string n = AxisName(info.param);
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST(StructuralJoinTest, ResultsInDocumentOrderPerRow) {
  Corpus corpus;
  auto id = corpus.AddXml("<a><b/><c><b/><b/></c><b/></a>", "d");
  ASSERT_TRUE(id.ok());
  const Document& doc = corpus.doc(*id);
  std::vector<Pre> ctx = {1};  // <a>
  JoinPairs p = StructuralJoinPairs(doc, ctx,
                                    StepSpec::Descendant(corpus.Find("b")));
  ASSERT_EQ(p.size(), 4u);
  for (size_t i = 1; i < p.size(); ++i) {
    EXPECT_LT(p.right_nodes[i - 1], p.right_nodes[i]);
  }
}

TEST(StructuralJoinTest, CutoffTruncatesAndExtrapolates) {
  Corpus corpus;
  // 10 context nodes each with exactly 3 <x/> children -> 30 pairs.
  std::string xml = "<r>";
  for (int i = 0; i < 10; ++i) xml += "<p><x/><x/><x/></p>";
  xml += "</r>";
  auto id = corpus.AddXml(xml, "d");
  ASSERT_TRUE(id.ok());
  const Document& doc = corpus.doc(*id);
  const ElementIndex& idx = corpus.element_index(*id);
  auto pspan = idx.Lookup(corpus.Find("p"));
  std::vector<Pre> ctx(pspan.begin(), pspan.end());
  JoinPairs p = StructuralJoinPairs(doc, ctx,
                                    StepSpec::Child(corpus.Find("x")), 9);
  EXPECT_EQ(p.size(), 9u);
  EXPECT_TRUE(p.truncated);
  // The sentinel (10th) pair is row 3's first: the tripping row counts
  // as consumed (outer_consumed = i + 1) even though none of its pairs
  // survive the sentinel pop — see StampTruncationStop.
  EXPECT_EQ(p.outer_consumed, 4u);
  // Extrapolation: 9 pairs from 4 of 10 rows -> 22.5 (the tripping
  // row's cut pairs bias the estimate low by at most one row's worth;
  // the former accounting could over-estimate unboundedly when
  // match-less rows preceded the trip).
  EXPECT_NEAR(p.EstimateFullCardinality(ctx.size()), 22.5, 1e-9);
}

TEST(StructuralJoinTest, CutoffOnLastRowIsExact) {
  Corpus corpus;
  auto id = corpus.AddXml("<r><p><x/></p><p><x/></p></r>", "d");
  ASSERT_TRUE(id.ok());
  const Document& doc = corpus.doc(*id);
  auto pspan = corpus.element_index(*id).Lookup(corpus.Find("p"));
  std::vector<Pre> ctx(pspan.begin(), pspan.end());
  JoinPairs p = StructuralJoinPairs(doc, ctx,
                                    StepSpec::Child(corpus.Find("x")), 2);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_FALSE(p.truncated);  // completed exactly at the end
  EXPECT_EQ(p.EstimateFullCardinality(ctx.size()), 2.0);
}

TEST(StructuralJoinTest, DistinctStaircaseDedupesOverlappingContexts) {
  Corpus corpus;
  auto id = corpus.AddXml("<a><b><b><x/></b><x/></b><x/></a>", "d");
  ASSERT_TRUE(id.ok());
  const Document& doc = corpus.doc(*id);
  // Context: <a> and both <b>s (overlapping subtrees), sorted.
  std::vector<Pre> ctx;
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    if (doc.Kind(p) == NodeKind::kElem && doc.NameStr(p) != "x") {
      ctx.push_back(p);
    }
  }
  auto out = StructuralJoinDistinct(doc, ctx,
                                    StepSpec::Descendant(corpus.Find("x")));
  EXPECT_EQ(out.size(), 3u);  // each <x> once despite 3 covering contexts
  for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1], out[i]);
}

TEST(StructuralJoinTest, DistinctMatchesPairDedupOnRandomDocs) {
  Rng rng(777);
  for (int trial = 0; trial < 8; ++trial) {
    Corpus corpus;
    auto id = corpus.AddXml(RandomXml(rng, 50), "d" + std::to_string(trial));
    ASSERT_TRUE(id.ok());
    const Document& doc = corpus.doc(*id);
    std::vector<Pre> ctx;
    for (Pre p = 0; p < doc.NodeCount(); ++p) {
      if (doc.Kind(p) == NodeKind::kElem && rng.Bernoulli(0.5)) {
        ctx.push_back(p);
      }
    }
    for (Axis axis : {Axis::kDescendant, Axis::kDescendantOrSelf,
                      Axis::kAncestor, Axis::kChild}) {
      StepSpec step;
      step.axis = axis;
      step.kind = KindTest::kElem;
      auto distinct = StructuralJoinDistinct(doc, ctx, step);
      JoinPairs pairs = StructuralJoinPairs(doc, ctx, step);
      std::vector<Pre> want = pairs.right_nodes;
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      EXPECT_EQ(distinct, want) << AxisName(axis) << " trial " << trial;
    }
  }
}

// --- value joins -------------------------------------------------------------

class ValueJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d1 = corpus_.AddXml(
        "<l><v>x</v><v>y</v><v>x</v><v>z</v></l>", "left.xml");
    auto d2 = corpus_.AddXml(
        "<r><w>x</w><w>x</w><w>y</w><w>q</w></r>", "right.xml");
    ASSERT_TRUE(d1.ok() && d2.ok());
    left_ = *d1;
    right_ = *d2;
    // Text nodes of each side.
    for (Pre p = 0; p < corpus_.doc(left_).NodeCount(); ++p) {
      if (corpus_.doc(left_).Kind(p) == NodeKind::kText) {
        ltexts_.push_back(p);
      }
    }
    for (Pre p = 0; p < corpus_.doc(right_).NodeCount(); ++p) {
      if (corpus_.doc(right_).Kind(p) == NodeKind::kText) {
        rtexts_.push_back(p);
      }
    }
  }

  Corpus corpus_;
  DocId left_ = 0, right_ = 0;
  std::vector<Pre> ltexts_, rtexts_;
};

TEST_F(ValueJoinTest, HashJoinCardinality) {
  // x:2*2 + y:1*1 = 5 pairs.
  JoinPairs p = HashValueJoinPairs(corpus_.doc(left_), ltexts_,
                                   corpus_.doc(right_), rtexts_);
  EXPECT_EQ(p.size(), 5u);
}

TEST_F(ValueJoinTest, IndexNlJoinEqualsHashJoin) {
  JoinPairs h = HashValueJoinPairs(corpus_.doc(left_), ltexts_,
                                   corpus_.doc(right_), rtexts_);
  JoinPairs n = ValueIndexJoinPairs(corpus_.doc(left_), ltexts_,
                                    corpus_.doc(right_),
                                    corpus_.value_index(right_),
                                    ValueProbeSpec::Text());
  EXPECT_EQ(Norm(h), Norm(n));
}

TEST_F(ValueJoinTest, MergeJoinEqualsHashJoin) {
  auto ls = SortByValueId(corpus_.doc(left_), ltexts_);
  auto rs = SortByValueId(corpus_.doc(right_), rtexts_);
  JoinPairs m = MergeValueJoinPairs(corpus_.doc(left_), ls,
                                    corpus_.doc(right_), rs);
  JoinPairs h = HashValueJoinPairs(corpus_.doc(left_), ltexts_,
                                   corpus_.doc(right_), rtexts_);
  // Compare by matched node multisets (row indices differ by sort).
  auto nodes = [](const JoinPairs& p) {
    std::vector<Pre> v = p.right_nodes;
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(nodes(m), nodes(h));
  EXPECT_EQ(m.size(), h.size());
}

TEST_F(ValueJoinTest, IndexNlJoinCutoff) {
  JoinPairs p = ValueIndexJoinPairs(corpus_.doc(left_), ltexts_,
                                    corpus_.doc(right_),
                                    corpus_.value_index(right_),
                                    ValueProbeSpec::Text(), 2);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_TRUE(p.truncated);
  // Row 0 produced the 2 surviving matches; the sentinel came from
  // row 1, which therefore counts as consumed (StampTruncationStop).
  EXPECT_EQ(p.outer_consumed, 2u);
  EXPECT_NEAR(p.EstimateFullCardinality(ltexts_.size()), 4.0, 1e-9);
}

TEST_F(ValueJoinTest, AttributeProbe) {
  Corpus c;
  auto d1 = c.AddXml("<l><k>7</k></l>", "l");
  auto d2 = c.AddXml("<r><e id=\"7\"/><e id=\"8\"/><e other=\"7\"/></r>", "r");
  ASSERT_TRUE(d1.ok() && d2.ok());
  std::vector<Pre> probe;  // the text node "7"
  for (Pre p = 0; p < c.doc(*d1).NodeCount(); ++p) {
    if (c.doc(*d1).Kind(p) == NodeKind::kText) probe.push_back(p);
  }
  // Unrestricted attribute probe matches both id=7 and other=7.
  JoinPairs all = ValueIndexJoinPairs(
      c.doc(*d1), probe, c.doc(*d2), c.value_index(*d2),
      {NodeKind::kAttr, kInvalidStringId, kInvalidStringId});
  EXPECT_EQ(all.size(), 2u);
  // Restricted to @id.
  JoinPairs ids = ValueIndexJoinPairs(c.doc(*d1), probe, c.doc(*d2),
                                      c.value_index(*d2),
                                      ValueProbeSpec::Attr(c.Find("id")));
  EXPECT_EQ(ids.size(), 1u);
}

TEST(NodeValueTest, KindsAndElements) {
  Corpus c;
  auto d = c.AddXml("<r a=\"5\"><e>txt</e><m><x/>two</m></r>", "d");
  ASSERT_TRUE(d.ok());
  const Document& doc = c.doc(*d);
  const StringPool& pool = doc.pool();
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    switch (doc.Kind(p)) {
      case NodeKind::kAttr:
        EXPECT_EQ(pool.Get(NodeValue(doc, p)), "5");
        break;
      case NodeKind::kDoc:
        EXPECT_EQ(NodeValue(doc, p), kInvalidStringId);
        break;
      default:
        break;
    }
  }
  // <e> has a single text child.
  StringId e_val = NodeValue(doc, 3);
  EXPECT_EQ(pool.Get(e_val), "txt");
}

TEST(FilterTest, ValueEqualsAndRange) {
  Corpus c;
  auto d = c.AddXml("<r><v>10</v><v>25</v><v>10</v><v>abc</v></r>", "d");
  ASSERT_TRUE(d.ok());
  const Document& doc = c.doc(*d);
  std::vector<Pre> texts;
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    if (doc.Kind(p) == NodeKind::kText) texts.push_back(p);
  }
  EXPECT_EQ(FilterValueEquals(doc, texts, c.Find("10")).size(), 2u);
  EXPECT_EQ(FilterNumericRange(doc, texts, NumericRange::LessThan(20)).size(),
            2u);
  EXPECT_EQ(
      FilterNumericRange(doc, texts, NumericRange::GreaterThan(9)).size(),
      3u);
  // Non-numeric text never matches a range.
  EXPECT_EQ(
      FilterNumericRange(doc, texts, NumericRange::AtLeast(-1e9)).size(), 3u);
}

// --- result table -------------------------------------------------------------

TEST(ResultTableTest, AppendAndProject) {
  ResultTable t(3);
  t.AppendRow(std::vector<Pre>{1, 2, 3});
  t.AppendRow(std::vector<Pre>{4, 5, 6});
  EXPECT_EQ(t.NumRows(), 2u);
  std::vector<size_t> keep = {2, 0};
  ResultTable p = t.Project(keep);
  EXPECT_EQ(p.NumCols(), 2u);
  EXPECT_EQ(p.Col(0)[1], 6u);
  EXPECT_EQ(p.Col(1)[0], 1u);
}

TEST(ResultTableTest, DistinctRows) {
  ResultTable t(2);
  t.AppendRow(std::vector<Pre>{1, 2});
  t.AppendRow(std::vector<Pre>{1, 2});
  t.AppendRow(std::vector<Pre>{2, 1});
  t.AppendRow(std::vector<Pre>{1, 2});
  ResultTable d = t.DistinctRows();
  EXPECT_EQ(d.NumRows(), 2u);
  EXPECT_EQ(d.Col(0)[0], 1u);  // first-occurrence order preserved
  EXPECT_EQ(d.Col(0)[1], 2u);
}

TEST(ResultTableTest, SortRowsLexicographic) {
  ResultTable t(2);
  t.AppendRow(std::vector<Pre>{2, 1});
  t.AppendRow(std::vector<Pre>{1, 9});
  t.AppendRow(std::vector<Pre>{2, 0});
  std::vector<size_t> keys = {0, 1};
  ResultTable s = t.SortRows(keys);
  EXPECT_EQ(s.Col(0)[0], 1u);
  EXPECT_EQ(s.Col(1)[1], 0u);  // (2,0) before (2,1)
  EXPECT_EQ(s.Col(1)[2], 1u);
}

TEST(ResultTableTest, DistinctColumn) {
  ResultTable t(1);
  t.AppendRow(std::vector<Pre>{5});
  t.AppendRow(std::vector<Pre>{3});
  t.AppendRow(std::vector<Pre>{5});
  auto d = t.DistinctColumn(0);
  EXPECT_EQ(d, (std::vector<Pre>{3, 5}));
}

TEST(ResultTableTest, JoinTablesWithPairs) {
  // outer: rows over col X; inner: rows over cols (Y, Z).
  ResultTable outer = ResultTable::FromColumn({10, 20});
  ResultTable inner(2);
  inner.AppendRow(std::vector<Pre>{7, 100});
  inner.AppendRow(std::vector<Pre>{8, 200});
  inner.AppendRow(std::vector<Pre>{7, 300});
  JoinPairs pairs;
  pairs.left_rows = {0, 1};
  pairs.right_nodes = {7, 8};  // match on inner col 0
  ResultTable out = JoinTablesWithPairs(outer, pairs, inner, 0);
  // Row (10,7,100), (10,7,300), (20,8,200).
  EXPECT_EQ(out.NumRows(), 3u);
  EXPECT_EQ(out.NumCols(), 3u);
  EXPECT_EQ(out.Col(2)[1], 300u);
}

TEST(ResultTableTest, ExtendTableWithPairs) {
  ResultTable outer = ResultTable::FromColumn({10, 20, 30});
  JoinPairs pairs;
  pairs.left_rows = {0, 0, 2};
  pairs.right_nodes = {1, 2, 3};
  ResultTable out = ExtendTableWithPairs(outer, pairs);
  EXPECT_EQ(out.NumRows(), 3u);
  EXPECT_EQ(out.Col(0)[1], 10u);
  EXPECT_EQ(out.Col(1)[2], 3u);
}

// Regression: EmitMatches used a fixed 512-entry stack buffer for the
// ancestor axes and silently dropped ancestors beyond depth 512, even
// though the parser admits documents up to depth 65533. Deep chains
// must spill into the growable overflow and still emit every ancestor
// in document order.
TEST(StructuralJoinTest, AncestorAxisBeyondStackBufferDepth) {
  constexpr int kDepth = 1500;
  std::string xml;
  for (int i = 0; i < kDepth; ++i) xml += "<a>";
  xml += "<leaf/>";
  for (int i = 0; i < kDepth; ++i) xml += "</a>";
  Corpus corpus;
  auto id = corpus.AddXml(xml, "deep.xml");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const Document& doc = corpus.doc(*id);

  Pre leaf = kInvalidPre;
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    if (doc.Kind(p) == NodeKind::kElem && doc.Name(p) == corpus.Find("leaf")) {
      leaf = p;
    }
  }
  ASSERT_NE(leaf, kInvalidPre);

  StepSpec step;
  step.axis = Axis::kAncestor;
  step.kind = KindTest::kElem;
  step.name = corpus.Find("a");
  std::vector<Pre> context = {leaf};
  JoinPairs pairs = StructuralJoinPairs(doc, context, step);
  ASSERT_EQ(pairs.size(), static_cast<uint64_t>(kDepth));
  // Document order: top-most ancestor first, strictly increasing pre.
  for (size_t i = 1; i < pairs.right_nodes.size(); ++i) {
    EXPECT_LT(pairs.right_nodes[i - 1], pairs.right_nodes[i]);
  }

  // ancestor-or-self on the deepest <a> also crosses the buffer size.
  step.axis = Axis::kAncestorOrSelf;
  std::vector<Pre> ctx2 = {doc.Parent(leaf)};
  JoinPairs pairs2 = StructuralJoinPairs(doc, ctx2, step);
  EXPECT_EQ(pairs2.size(), static_cast<uint64_t>(kDepth));

  // The cut-off protocol must keep working across the overflow path.
  JoinPairs limited = StructuralJoinPairs(doc, context, step, 100);
  EXPECT_TRUE(limited.truncated);
  EXPECT_EQ(limited.size(), 100u);
}

}  // namespace
}  // namespace rox
