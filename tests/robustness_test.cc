// Robustness and edge-case tests: the XML parser must reject arbitrary
// garbage gracefully (Status, never a crash), round-trip random
// documents, and the exec-layer combinators must handle degenerate
// inputs.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "exec/result_table.h"
#include "exec/structural_join.h"
#include "exec/value_join.h"
#include "index/corpus.h"
#include "xml/parser.h"

namespace rox {
namespace {

// --- parser fuzz ----------------------------------------------------------------

TEST(ParserRobustnessTest, RandomGarbageNeverCrashes) {
  Rng rng(0xfadedcafe);
  const char alphabet[] = "<>/=\"'abc &;#x![]-?";
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    size_t len = rng.Below(120);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng.Below(sizeof(alphabet) - 1)]);
    }
    // Must return, never crash; most inputs fail to parse.
    auto r = ParseXml(input, "fuzz.xml");
    if (r.ok()) {
      // If it parsed, it must serialize and re-parse consistently.
      std::string out = SerializeXml(**r);
      auto r2 = ParseXml(out, "fuzz2.xml");
      EXPECT_TRUE(r2.ok()) << "round-trip failed for: " << out;
    }
  }
}

TEST(ParserRobustnessTest, MutatedValidDocuments) {
  // Take a valid document and flip random bytes: the parser must
  // either parse or fail cleanly.
  std::string base =
      "<site><person id=\"p1\"><name>Ann &amp; Bob</name>"
      "<age>42</age></person><empty/></site>";
  Rng rng(4321);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = base;
    int flips = 1 + static_cast<int>(rng.Below(3));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Below(mutated.size());
      mutated[pos] = static_cast<char>(32 + rng.Below(95));
    }
    auto r = ParseXml(mutated, "mut.xml");
    (void)r;  // either outcome is fine; the test is "no crash/UB"
  }
}

TEST(ParserRobustnessTest, DeeplyNestedDocument) {
  // Nesting depth is attacker-controlled input; the element parser is
  // iterative (explicit open-tag stack), so depths far beyond any
  // thread stack budget must parse. 50000 also stays under the uint16
  // level column's ceiling.
  std::string xml;
  const int depth = 50000;
  for (int i = 0; i < depth; ++i) xml += "<d>";
  xml += "x";
  for (int i = 0; i < depth; ++i) xml += "</d>";
  auto r = ParseXml(xml, "deep.xml");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->NodeCount(), static_cast<Pre>(depth + 2));
  EXPECT_EQ((*r)->Level(depth), depth);
}

TEST(ParserRobustnessTest, NestingBeyondLevelColumnIsRejected) {
  // Depths that would wrap the uint16 level column must fail cleanly
  // instead of parsing into a silently corrupted document.
  std::string xml;
  const int depth = 70000;
  for (int i = 0; i < depth; ++i) xml += "<d>";
  xml += "x";
  for (int i = 0; i < depth; ++i) xml += "</d>";
  auto r = ParseXml(xml, "too_deep.xml");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("nesting too deep"),
            std::string::npos);
}

// --- parser robustness caps (DESIGN.md §13) --------------------------------------

TEST(ParserRobustnessTest, OversizedInputIsRejected) {
  XmlParseOptions opts;
  opts.max_input_bytes = 64;
  std::string xml = "<a>" + std::string(200, 'x') + "</a>";
  auto r = ParseXml(xml, "big.xml", nullptr, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().ToString().find("max_input_bytes"),
            std::string::npos);
  // The same document parses with the cap off.
  opts.max_input_bytes = 0;
  EXPECT_TRUE(ParseXml(xml, "big.xml", nullptr, opts).ok());
}

TEST(ParserRobustnessTest, AttributeFloodIsRejected) {
  XmlParseOptions opts;
  opts.max_attributes_per_element = 8;
  std::string xml = "<a";
  for (int i = 0; i < 9; ++i) {
    xml += " a" + std::to_string(i) + "=\"v\"";
  }
  xml += "/>";
  auto r = ParseXml(xml, "attrs.xml", nullptr, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().ToString().find("max_attributes_per_element"),
            std::string::npos);
  // Exactly at the cap is fine.
  std::string ok_xml = "<a";
  for (int i = 0; i < 8; ++i) {
    ok_xml += " a" + std::to_string(i) + "=\"v\"";
  }
  ok_xml += "/>";
  EXPECT_TRUE(ParseXml(ok_xml, "attrs_ok.xml", nullptr, opts).ok());
}

TEST(ParserRobustnessTest, EntityExpansionFloodIsRejected) {
  // A reference flood: the cap meters *expanded output bytes* across
  // the whole document, so many small expansions trip it even though
  // each one is tiny.
  XmlParseOptions opts;
  opts.max_entity_expansion_bytes = 100;
  std::string xml = "<a>";
  for (int i = 0; i < 200; ++i) xml += "&amp;";
  xml += "</a>";
  auto r = ParseXml(xml, "ents.xml", nullptr, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().ToString().find("max_entity_expansion_bytes"),
            std::string::npos);
  // Under the cap the same shape parses.
  std::string small = "<a>&amp;&lt;&gt;</a>";
  EXPECT_TRUE(ParseXml(small, "ents_ok.xml", nullptr, opts).ok());
}

TEST(ParserRobustnessTest, CharRefFloodCountsExpandedBytes) {
  // Numeric character references expand through the same meter.
  XmlParseOptions opts;
  opts.max_entity_expansion_bytes = 16;
  std::string xml = "<a>";
  for (int i = 0; i < 40; ++i) xml += "&#65;";
  xml += "</a>";
  auto r = ParseXml(xml, "refs.xml", nullptr, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParserRobustnessTest, RandomDocumentRoundTrip) {
  Rng rng(31337);
  for (int trial = 0; trial < 30; ++trial) {
    // Random tree built through the builder, serialized, re-parsed.
    DocumentBuilder b("rt.xml", nullptr);
    int open = 0;
    b.StartElement("root");
    ++open;
    // Avoid emitting adjacent text nodes: XML serialization merges
    // them, so they cannot round-trip as separate nodes.
    bool last_was_text = false;
    for (int ops = 0; ops < 200; ++ops) {
      switch (rng.Below(4)) {
        case 0:
          b.StartElement("n" + std::to_string(rng.Below(5)));
          if (rng.Bernoulli(0.5)) {
            b.Attribute("a", std::to_string(rng.Below(100)));
          }
          ++open;
          last_was_text = false;
          break;
        case 1:
          if (open > 1) {
            b.EndElement();
            --open;
            last_was_text = false;
          }
          break;
        default:
          if (!last_was_text) {
            b.Text("t" + std::to_string(rng.Below(50)));
            last_was_text = true;
          }
      }
    }
    while (open-- > 0) b.EndElement();
    auto doc = std::move(b).Finish();
    ASSERT_TRUE(doc.ok());
    std::string xml = SerializeXml(**doc);
    auto reparsed = ParseXml(xml, "rt2.xml");
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(SerializeXml(**reparsed), xml);
    EXPECT_EQ((*reparsed)->NodeCount(), (*doc)->NodeCount());
  }
}

// --- exec edge cases -------------------------------------------------------------

TEST(ExecEdgeCaseTest, EmptyContextInputs) {
  Corpus corpus;
  auto id = corpus.AddXml("<a><b>x</b></a>", "d");
  ASSERT_TRUE(id.ok());
  const Document& doc = corpus.doc(*id);
  std::vector<Pre> empty;
  JoinPairs p = StructuralJoinPairs(doc, empty, StepSpec::ChildText());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_FALSE(p.truncated);
  EXPECT_EQ(p.EstimateFullCardinality(0), 0.0);
  JoinPairs v = HashValueJoinPairs(doc, empty, doc, empty);
  EXPECT_EQ(v.size(), 0u);
  auto d = StructuralJoinDistinct(doc, empty, StepSpec::Descendant(0));
  EXPECT_TRUE(d.empty());
}

TEST(ExecEdgeCaseTest, CartesianProduct) {
  ResultTable a = ResultTable::FromColumn({1, 2});
  ResultTable b(2);
  b.AppendRow(std::vector<Pre>{10, 20});
  b.AppendRow(std::vector<Pre>{30, 40});
  b.AppendRow(std::vector<Pre>{50, 60});
  ResultTable p = CartesianProduct(a, b);
  EXPECT_EQ(p.NumRows(), 6u);
  EXPECT_EQ(p.NumCols(), 3u);
  // Row 4 = (2, 30, 40).
  EXPECT_EQ(p.Col(0)[4], 2u);
  EXPECT_EQ(p.Col(1)[4], 30u);
  EXPECT_EQ(p.Col(2)[4], 40u);
  // Empty side yields empty product.
  ResultTable empty(1);
  EXPECT_EQ(CartesianProduct(a, empty).NumRows(), 0u);
}

TEST(ExecEdgeCaseTest, SelfLoopFreeMergeJoin) {
  // Merge join where one side has no comparable values at all.
  Corpus corpus;
  auto id = corpus.AddXml("<a><b/><c/></a>", "d");  // elements, no text
  ASSERT_TRUE(id.ok());
  const Document& doc = corpus.doc(*id);
  std::vector<Pre> elems = {1, 2, 3};
  auto sorted = SortByValueId(doc, elems);
  JoinPairs p = MergeValueJoinPairs(doc, sorted, doc, sorted);
  EXPECT_EQ(p.size(), 0u);  // no values -> no matches
}

TEST(ExecEdgeCaseTest, DistinctRowsOnEmptyAndSingle) {
  ResultTable t(2);
  EXPECT_EQ(t.DistinctRows().NumRows(), 0u);
  t.AppendRow(std::vector<Pre>{1, 2});
  EXPECT_EQ(t.DistinctRows().NumRows(), 1u);
}

TEST(ExecEdgeCaseTest, NumericRangeBoundaries) {
  NumericRange lt = NumericRange::LessThan(5);
  EXPECT_TRUE(lt.Contains(4.999));
  EXPECT_FALSE(lt.Contains(5.0));
  NumericRange le = NumericRange::AtMost(5);
  EXPECT_TRUE(le.Contains(5.0));
  EXPECT_FALSE(le.Contains(5.0001));
  NumericRange gt = NumericRange::GreaterThan(5);
  EXPECT_FALSE(gt.Contains(5.0));
  EXPECT_TRUE(gt.Contains(5.0001));
  NumericRange eq = NumericRange::Exactly(5);
  EXPECT_TRUE(eq.Contains(5.0));
  EXPECT_FALSE(eq.Contains(4.999));
}

}  // namespace
}  // namespace rox
