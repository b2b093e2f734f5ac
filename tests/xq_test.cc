#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "workload/xmark.h"
#include "xq/compile.h"
#include "xq/parser.h"

namespace rox::xq {
namespace {

// --- parser -------------------------------------------------------------------

TEST(XqParserTest, PaperQueryQ) {
  // The example query Q of §2.1 (Figure 1).
  auto q = ParseXQuery(R"(
    let $r := doc("auction.xml")
    for $a in $r//open_auction[./reserve]/bidder//personref,
        $b in $r//person[.//education]
    where $a/@person = $b/@id
    return $a
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->lets.size(), 1u);
  EXPECT_EQ(q->lets[0].variable, "r");
  EXPECT_EQ(q->lets[0].value.doc_url, "auction.xml");
  ASSERT_EQ(q->fors.size(), 2u);
  EXPECT_EQ(q->fors[0].variable, "a");
  ASSERT_EQ(q->fors[0].domain.steps.size(), 3u);
  EXPECT_EQ(q->fors[0].domain.steps[0].step.axis, Axis::kDescendant);
  EXPECT_EQ(q->fors[0].domain.steps[0].step.name, "open_auction");
  ASSERT_EQ(q->fors[0].domain.steps[0].predicate_groups.size(), 1u);
  EXPECT_FALSE(q->fors[0]
                   .domain.steps[0]
                   .predicate_groups[0]
                   .alternatives[0][0]
                   .op.has_value());
  EXPECT_EQ(q->fors[0].domain.steps[1].step.axis, Axis::kChild);
  ASSERT_EQ(q->where.size(), 1u);
  EXPECT_EQ(q->where[0].lhs.variable, "a");
  ASSERT_EQ(q->where[0].lhs.steps.size(), 1u);
  EXPECT_EQ(q->where[0].lhs.steps[0].step.test, AstStep::Test::kAttribute);
  EXPECT_EQ(q->return_variable, "a");
}

TEST(XqParserTest, ValuePredicates) {
  auto q = ParseXQuery(R"(
    for $o in doc("x.xml")//open_auction[.//current/text() < 145],
        $i in doc("x.xml")//item[./quantity = 1]
    where $o/@x = $i/@y
    return $o
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const AstPredicate& p0 =
      q->fors[0].domain.steps[0].predicate_groups[0].alternatives[0][0];
  ASSERT_TRUE(p0.op.has_value());
  EXPECT_EQ(*p0.op, CmpOp::kLt);
  EXPECT_EQ(p0.literal, "145");
  EXPECT_TRUE(p0.literal_is_number);
  ASSERT_EQ(p0.path.size(), 2u);
  EXPECT_EQ(p0.path[1].test, AstStep::Test::kText);
  const AstPredicate& p1 =
      q->fors[1].domain.steps[0].predicate_groups[0].alternatives[0][0];
  EXPECT_EQ(*p1.op, CmpOp::kEq);
}

TEST(XqParserTest, CommentsAndStrings) {
  auto q = ParseXQuery(R"(
    (: find things :)
    for $a in doc("d.xml")//thing[./name = "blue"]
    return $a
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const AstPredicate& p =
      q->fors[0].domain.steps[0].predicate_groups[0].alternatives[0][0];
  EXPECT_EQ(p.literal, "blue");
  EXPECT_FALSE(p.literal_is_number);
}

TEST(XqParserTest, Errors) {
  EXPECT_FALSE(ParseXQuery("return $a").ok());           // no for
  EXPECT_FALSE(ParseXQuery("for $a in //x return $a").ok());  // no source
  EXPECT_FALSE(ParseXQuery("for $a in doc('d')//x").ok());    // no return
  EXPECT_FALSE(
      ParseXQuery("for $a in doc('d')//x return $a extra").ok());
  EXPECT_FALSE(ParseXQuery("for $a in doc('d')//x[./y !] return $a").ok());
}

TEST(XqParserTest, ThetaWhereComparisons) {
  // All six operators parse and record their CmpOp; `<` between bound
  // variables used to be rejected with "must be equalities".
  struct Case {
    const char* op;
    CmpOp expect;
  };
  for (const Case& c : {Case{"=", CmpOp::kEq}, Case{"!=", CmpOp::kNe},
                        Case{"<", CmpOp::kLt}, Case{"<=", CmpOp::kLe},
                        Case{">", CmpOp::kGt}, Case{">=", CmpOp::kGe}}) {
    std::string text =
        std::string("for $a in doc('d')//x, $b in doc('d')//y "
                    "where $a/@k ") +
        c.op + " $b/@k return $a";
    auto q = ParseXQuery(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_EQ(q->where.size(), 1u);
    EXPECT_EQ(q->where[0].op, c.expect);
  }
}

TEST(XqParserTest, WhereErrorsArePreciseAndPositioned) {
  // Literal operand: diagnosed as such, with the literal's position.
  auto lit = ParseXQuery(
      "for $a in doc('d')//x where $a/@k = 145 return $a");
  ASSERT_FALSE(lit.ok());
  EXPECT_NE(lit.status().message().find("literal '145'"),
            std::string::npos)
      << lit.status().ToString();
  EXPECT_NE(lit.status().message().find("1:37"), std::string::npos)
      << lit.status().ToString();

  auto lit2 = ParseXQuery(
      "for $a in doc('d')//x where \"cat\" = $a/@k return $a");
  ASSERT_FALSE(lit2.ok());
  EXPECT_NE(lit2.status().message().find("literal 'cat'"),
            std::string::npos);

  // Unbound variable: named, with its position.
  auto unbound = ParseXQuery(
      "for $a in doc('d')//x where $a/@k = $nope/@k return $a");
  ASSERT_FALSE(unbound.ok());
  EXPECT_NE(unbound.status().message().find("unbound variable $nope"),
            std::string::npos)
      << unbound.status().ToString();
  EXPECT_NE(unbound.status().message().find("1:37"), std::string::npos)
      << unbound.status().ToString();

  // doc() operand: not a join path.
  auto docside = ParseXQuery(
      "for $a in doc('d')//x where doc('d')//y = $a/@k return $a");
  ASSERT_FALSE(docside.ok());
  EXPECT_NE(docside.status().message().find("bound variables"),
            std::string::npos);
}

TEST(XqParserTest, DisjunctivePredicateGroups) {
  auto q = ParseXQuery(R"(
    for $i in doc("d.xml")//item[./quantity = 1 or ./quantity >= 4]
    return $i
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& groups = q->fors[0].domain.steps[0].predicate_groups;
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].alternatives.size(), 2u);
  ASSERT_EQ(groups[0].alternatives[0].size(), 1u);
  EXPECT_EQ(*groups[0].alternatives[0][0].op, CmpOp::kEq);
  EXPECT_EQ(*groups[0].alternatives[1][0].op, CmpOp::kGe);

  // Standard XQuery precedence: `and` binds tighter than `or`, so
  // `[a and b or c]` is (a AND b) OR c — one group with two branches,
  // the first a two-predicate conjunction.
  auto q2 = ParseXQuery(R"(
    for $o in doc("d.xml")//a[./x = 1 and ./y = 2 or ./y != 3]
    return $o
  )");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  const auto& groups2 = q2->fors[0].domain.steps[0].predicate_groups;
  ASSERT_EQ(groups2.size(), 1u);
  ASSERT_EQ(groups2[0].alternatives.size(), 2u);
  ASSERT_EQ(groups2[0].alternatives[0].size(), 2u);
  EXPECT_EQ(*groups2[0].alternatives[0][1].op, CmpOp::kEq);
  ASSERT_EQ(groups2[0].alternatives[1].size(), 1u);
  EXPECT_EQ(*groups2[0].alternatives[1][0].op, CmpOp::kNe);

  // `[a and b]` is a single-branch conjunction, equivalent to [a][b].
  auto q3 = ParseXQuery(R"(
    for $o in doc("d.xml")//a[./x = 1 and ./y < 2] return $o
  )");
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  const auto& groups3 = q3->fors[0].domain.steps[0].predicate_groups;
  ASSERT_EQ(groups3.size(), 1u);
  ASSERT_EQ(groups3[0].alternatives.size(), 1u);
  EXPECT_EQ(groups3[0].alternatives[0].size(), 2u);
}

// `@name` at the head of a predicate abbreviates the relative attribute
// step `./@name`: both spellings parse to the same AST.
TEST(XqParserTest, AbbreviatedAttributePredicate) {
  auto groups_of = [](const std::string& pred) {
    auto q = ParseXQuery("for $p in doc(\"d.xml\")//person" + pred +
                         " return $p");
    EXPECT_TRUE(q.ok()) << pred << ": " << q.status().ToString();
    return q.ok() ? q->fors[0].domain.steps[0].predicate_groups
                  : std::vector<AstPredicateGroup>{};
  };
  auto same = [](const std::vector<AstPredicateGroup>& a,
                 const std::vector<AstPredicateGroup>& b) {
    if (a.size() != b.size()) return false;
    for (size_t g = 0; g < a.size(); ++g) {
      const auto& x = a[g].alternatives;
      const auto& y = b[g].alternatives;
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].size() != y[i].size()) return false;
        for (size_t k = 0; k < x[i].size(); ++k) {
          const AstPredicate& u = x[i][k];
          const AstPredicate& v = y[i][k];
          if (u.op != v.op || u.literal != v.literal ||
              u.literal_is_number != v.literal_is_number ||
              u.path.size() != v.path.size()) {
            return false;
          }
          for (size_t s = 0; s < u.path.size(); ++s) {
            if (u.path[s].axis != v.path[s].axis ||
                u.path[s].test != v.path[s].test ||
                u.path[s].name != v.path[s].name) {
              return false;
            }
          }
        }
      }
    }
    return true;
  };
  auto abbreviated =
      groups_of(R"([@id = "person0" or @id = "person1"][@income > 5][@x])");
  auto spelled = groups_of(
      R"([./@id = "person0" or ./@id = "person1"][./@income > 5][./@x])");
  ASSERT_EQ(abbreviated.size(), 3u);
  EXPECT_TRUE(same(abbreviated, spelled));
  const AstStep& step = abbreviated[0].alternatives[1][0].path[0];
  EXPECT_EQ(step.axis, Axis::kAttribute);
  EXPECT_EQ(step.test, AstStep::Test::kAttribute);
  EXPECT_EQ(step.name, "id");

  EXPECT_FALSE(
      ParseXQuery(R"(for $p in doc("d.xml")//person[@ = "a"] return $p)")
          .ok());
}

TEST(XqParserTest, ExplicitAxes) {
  auto q = ParseXQuery(R"(
    for $a in doc("d.xml")//x/parent::venue/ancestor-or-self::site,
        $b in doc("d.xml")//y/following-sibling::z
    where $a/@k = $b/@k
    return $a
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& steps = q->fors[0].domain.steps;
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[1].step.axis, Axis::kParent);
  EXPECT_EQ(steps[1].step.name, "venue");
  EXPECT_EQ(steps[2].step.axis, Axis::kAncestorOrSelf);
  EXPECT_EQ(q->fors[1].domain.steps[1].step.axis, Axis::kFollowingSibling);
}

TEST(XqParserTest, ExplicitAxisErrors) {
  EXPECT_FALSE(ParseXQuery(
      "for $a in doc(\"d\")//sideways::x return $a").ok());
  EXPECT_FALSE(ParseXQuery(
      "for $a in doc(\"d\")//x//parent::y return $a").ok());  // '//'+axis
}

TEST(XqParserTest, AxisWildcardAndText) {
  auto q = ParseXQuery(R"(
    for $a in doc("d.xml")//x/ancestor::*/self::y/child::text()
    return $a
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& steps = q->fors[0].domain.steps;
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[1].step.axis, Axis::kAncestor);
  EXPECT_EQ(steps[1].step.test, AstStep::Test::kAnyElement);
  EXPECT_EQ(steps[2].step.axis, Axis::kSelf);
  EXPECT_EQ(steps[3].step.axis, Axis::kChild);
  EXPECT_EQ(steps[3].step.test, AstStep::Test::kText);
}

// --- compiler -----------------------------------------------------------------

class XqCompileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XmarkGenOptions gen;
    gen.items = 60;
    gen.persons = 80;
    gen.open_auctions = 70;
    auto doc = GenerateXmarkDocument(corpus_, gen, "xmark.xml");
    ASSERT_TRUE(doc.ok());
    doc_ = *doc;
  }
  Corpus corpus_;
  DocId doc_ = 0;
};

TEST_F(XqCompileTest, CompilesQ1ToExpectedShape) {
  auto compiled = CompileXQuery(corpus_, R"(
    let $d := doc("xmark.xml")
    for $o in $d//open_auction[.//current/text() < 145],
        $p in $d//person[.//province],
        $i in $d//item[./quantity = 1]
    where $o//bidder//personref/@person = $p/@id and
          $o//itemref/@item = $i/@id
    return $o
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  // Same shape as the hand-built Figure 3.1 graph: 16 vertices, 14
  // edges after pruning the 3 root descendant steps (BuildXmarkQ1Graph
  // in workload/ builds the identical graph).
  EXPECT_EQ(compiled->graph.VertexCount(), 16u);
  EXPECT_EQ(compiled->graph.EdgeCount(), 14u);
  EXPECT_TRUE(compiled->graph.IsConnected());
  EXPECT_EQ(compiled->for_vertices.size(), 3u);
  EXPECT_EQ(compiled->return_vertex, compiled->variables.at("o"));
}

TEST_F(XqCompileTest, CompiledQ1MatchesHandBuiltGraphResults) {
  auto compiled = CompileXQuery(corpus_, R"(
    let $d := doc("xmark.xml")
    for $o in $d//open_auction[.//current/text() < 145],
        $p in $d//person[.//province],
        $i in $d//item[./quantity = 1]
    where $o//bidder//personref/@person = $p/@id and
          $o//itemref/@item = $i/@id
    return $o
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  RoxOptions opt;
  opt.tau = 20;
  RoxOptimizer via_xq(corpus_, compiled->graph, opt);
  auto r1 = via_xq.Run();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  XmarkQ1Graph hand = BuildXmarkQ1Graph(corpus_, doc_, 145.0, true);
  RoxOptimizer via_hand(corpus_, hand.graph, opt);
  auto r2 = via_hand.Run();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->table.NumRows(), r2->table.NumRows());
  EXPECT_GT(r1->table.NumRows(), 0u);
}

TEST_F(XqCompileTest, RunAppliesTail) {
  // Every returned node must be a distinct open_auction element in
  // document order... per XQuery semantics duplicates may remain when
  // ($p, $i) vary; distinct is applied on the full for-binding tuple.
  auto compiled = CompileXQuery(corpus_, R"(
    let $d := doc("xmark.xml")
    for $o in $d//open_auction[.//current/text() < 145],
        $p in $d//person[.//province]
    where $o//bidder//personref/@person = $p/@id
    return $o
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  RoxOptions opt;
  opt.tau = 20;
  auto seq = RunXQuery(corpus_, *compiled, opt);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_FALSE(seq->empty());
  const Document& doc = corpus_.doc(doc_);
  StringId oa = corpus_.Find("open_auction");
  for (Pre p : *seq) {
    EXPECT_EQ(doc.Name(p), oa);
  }
  // Sorted by ($o, $p) document order => $o keys non-decreasing.
  for (size_t i = 1; i < seq->size(); ++i) {
    EXPECT_LE((*seq)[i - 1], (*seq)[i]);
  }
}



TEST_F(XqCompileTest, AbbreviatedAttributePredicateMatchesSpelledForm) {
  RoxOptions opt;
  opt.tau = 20;
  auto run = [&](const std::string& pred) {
    auto compiled = CompileXQuery(
        corpus_, "for $p in doc(\"xmark.xml\")//person" + pred +
                     " return $p");
    EXPECT_TRUE(compiled.ok()) << pred << ": "
                               << compiled.status().ToString();
    if (!compiled.ok()) return std::vector<Pre>{};
    auto seq = RunXQuery(corpus_, *compiled, opt);
    EXPECT_TRUE(seq.ok()) << pred << ": " << seq.status().ToString();
    return seq.ok() ? *seq : std::vector<Pre>{};
  };
  std::vector<Pre> abbreviated =
      run(R"([@id = "person0" or @id = "person1"])");
  EXPECT_EQ(abbreviated.size(), 2u);
  EXPECT_EQ(abbreviated, run(R"([./@id = "person0" or ./@id = "person1"])"));
}

TEST_F(XqCompileTest, PaperFigureOneQueryQ) {
  // The paper's running example Q (§2.1, Figure 1): personrefs of
  // auctions with a reserve, joined to persons with an education entry.
  auto compiled = CompileXQuery(corpus_, R"(
    let $r := doc("xmark.xml")
    for $a in $r//open_auction[./reserve]/bidder//personref,
        $b in $r//person[.//education]
    where $a/@person = $b/@id
    return $a
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(compiled->graph.IsConnected());
  RoxOptions opt;
  opt.tau = 20;
  auto seq = RunXQuery(corpus_, *compiled, opt);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  // Brute-force oracle by direct tree walks.
  const Document& doc = corpus_.doc(doc_);
  const StringPool& pool = corpus_.string_pool();
  StringId s_oa = pool.Find("open_auction");
  StringId s_reserve = pool.Find("reserve");
  StringId s_bidder = pool.Find("bidder");
  StringId s_personref = pool.Find("personref");
  StringId s_person_attr = pool.Find("person");
  StringId s_person = pool.Find("person");
  StringId s_education = pool.Find("education");
  StringId s_id = pool.Find("id");
  // Persons with education, by @id value.
  std::map<StringId, uint64_t> edu_persons;
  for (Pre p : corpus_.element_index(doc_).Lookup(s_person)) {
    bool has_edu = false;
    for (Pre q = p + 1; q <= p + doc.Size(p); ++q) {
      if (doc.Kind(q) == NodeKind::kElem && doc.Name(q) == s_education) {
        has_edu = true;
        break;
      }
    }
    if (has_edu) ++edu_persons[doc.AttributeValue(p, s_id)];
  }
  // Distinct ($a, $b) pairs -> count per XQuery tail semantics: the
  // result keeps one $a per distinct binding pair.
  uint64_t expected = 0;
  for (Pre oa : corpus_.element_index(doc_).Lookup(s_oa)) {
    bool has_reserve = false;
    for (Pre q = oa + 1; q <= oa + doc.Size(oa); ++q) {
      if (doc.Kind(q) == NodeKind::kElem && doc.Name(q) == s_reserve &&
          doc.Parent(q) == oa) {
        has_reserve = true;
        break;
      }
    }
    if (!has_reserve) continue;
    for (Pre b = oa + 1; b <= oa + doc.Size(oa); ++b) {
      if (doc.Kind(b) != NodeKind::kElem || doc.Name(b) != s_bidder ||
          doc.Parent(b) != oa) {
        continue;
      }
      for (Pre pr = b + 1; pr <= b + doc.Size(b); ++pr) {
        if (doc.Kind(pr) != NodeKind::kElem || doc.Name(pr) != s_personref) {
          continue;
        }
        auto it = edu_persons.find(doc.AttributeValue(pr, s_person_attr));
        if (it != edu_persons.end()) expected += it->second;
      }
    }
  }
  EXPECT_EQ(seq->size(), expected);
  EXPECT_GT(expected, 0u);
}

TEST_F(XqCompileTest, DisconnectedForVariablesCrossProduct) {
  // Two for-variables with no join: independent components combined as
  // a cross product (XQuery nested-for semantics).
  auto compiled = CompileXQuery(corpus_, R"(
    let $d := doc("xmark.xml")
    for $p in $d//person[.//province],
        $i in $d//item[./quantity = 1]
    return $p
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_FALSE(compiled->graph.IsConnected());
  RoxOptions opt;
  opt.tau = 20;
  auto seq = RunXQuery(corpus_, *compiled, opt);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  // |persons with province| x |items with quantity 1| bindings, but the
  // tail projects+distincts on ($p, $i) pairs, so the returned sequence
  // has one $p per ($p,$i) pair.
  const Document& doc = corpus_.doc(doc_);
  StringId province = corpus_.Find("province");
  StringId person = corpus_.Find("person");
  uint64_t persons_with_province = 0;
  for (Pre p : corpus_.element_index(doc_).Lookup(person)) {
    for (Pre q = p + 1; q <= p + doc.Size(p); ++q) {
      if (doc.Kind(q) == NodeKind::kElem && doc.Name(q) == province) {
        ++persons_with_province;
        break;
      }
    }
  }
  ASSERT_GT(persons_with_province, 0u);
  EXPECT_EQ(seq->size() % persons_with_province, 0u);
  EXPECT_GT(seq->size(), persons_with_province);
}

TEST_F(XqCompileTest, UnknownDocumentFails) {
  auto compiled =
      CompileXQuery(corpus_, "for $a in doc(\"nope.xml\")//x return $a");
  EXPECT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kNotFound);
}

TEST_F(XqCompileTest, UnboundVariableFails) {
  auto c1 = CompileXQuery(corpus_,
                          "for $a in $zzz//x return $a");
  EXPECT_FALSE(c1.ok());
  auto c2 = CompileXQuery(
      corpus_, "for $a in doc(\"xmark.xml\")//item return $b");
  EXPECT_FALSE(c2.ok());
}

TEST_F(XqCompileTest, UnsupportedConstructsReportUnimplemented) {
  auto c1 = CompileXQuery(
      corpus_, "for $a in doc(\"xmark.xml\")//* return $a");
  EXPECT_FALSE(c1.ok());
  EXPECT_EQ(c1.status().code(), StatusCode::kUnimplemented);
  auto c2 = CompileXQuery(
      corpus_,
      "let $d := doc(\"xmark.xml\")//item for $a in $d//x return $a");
  EXPECT_FALSE(c2.ok());
}

TEST_F(XqCompileTest, ThetaWhereCompilesToThetaEdge) {
  auto compiled = CompileXQuery(corpus_, R"(
    let $d := doc("xmark.xml")
    for $i in $d//item, $b in $d//bidder
    where $i/quantity < $b/increase
    return $i
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  int theta_edges = 0;
  for (EdgeId e = 0; e < compiled->graph.EdgeCount(); ++e) {
    const Edge& edge = compiled->graph.edge(e);
    if (edge.type != EdgeType::kValueJoin) continue;
    EXPECT_EQ(edge.cmp, CmpOp::kLt);
    // Element-final operands are lowered to their text() children.
    EXPECT_EQ(compiled->graph.vertex(edge.v1).type, VertexType::kText);
    EXPECT_EQ(compiled->graph.vertex(edge.v2).type, VertexType::kText);
    ++theta_edges;
  }
  EXPECT_EQ(theta_edges, 1);
  auto seq = RunXQuery(corpus_, *compiled, RoxOptions{});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_FALSE(seq->empty());
}

TEST_F(XqCompileTest, NotEqualsPredicateCompiles) {
  auto ne = CompileXQuery(corpus_, R"(
    for $i in doc("xmark.xml")//item[./quantity != 1] return $i
  )");
  ASSERT_TRUE(ne.ok()) << ne.status().ToString();
  auto eq = CompileXQuery(corpus_, R"(
    for $i in doc("xmark.xml")//item[./quantity = 1] return $i
  )");
  ASSERT_TRUE(eq.ok());
  RoxOptions opt;
  opt.tau = 20;
  auto ne_seq = RunXQuery(corpus_, *ne, opt);
  auto eq_seq = RunXQuery(corpus_, *eq, opt);
  ASSERT_TRUE(ne_seq.ok()) << ne_seq.status().ToString();
  ASSERT_TRUE(eq_seq.ok());
  // != and = partition the items (every item has one quantity).
  StringId item = corpus_.Find("item");
  uint64_t total = corpus_.element_index(doc_).Count(item);
  EXPECT_EQ(ne_seq->size() + eq_seq->size(), total);
  EXPECT_FALSE(ne_seq->empty());
}

TEST_F(XqCompileTest, DisjunctiveGroupLowersToAnyOfVertex) {
  auto compiled = CompileXQuery(corpus_, R"(
    for $i in doc("xmark.xml")//item[./quantity = 1 or ./quantity >= 4]
    return $i
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  int any_of = 0;
  for (VertexId v = 0; v < compiled->graph.VertexCount(); ++v) {
    const Vertex& vx = compiled->graph.vertex(v);
    if (vx.pred.kind != ValuePredicate::Kind::kAnyOf) continue;
    EXPECT_EQ(vx.pred.any_of.size(), 2u);
    EXPECT_EQ(vx.pred.any_of[0].kind, ValuePredicate::Kind::kEquals);
    EXPECT_EQ(vx.pred.any_of[1].kind, ValuePredicate::Kind::kRange);
    ++any_of;
  }
  EXPECT_EQ(any_of, 1);
}

TEST_F(XqCompileTest, UnsupportedDisjunctionsReportUnimplemented) {
  // Alternatives over different relative paths.
  auto mixed = CompileXQuery(corpus_, R"(
    for $i in doc("xmark.xml")//item[./quantity = 1 or ./name = "thing 2"]
    return $i
  )");
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kUnimplemented);
  // Existence alternative inside a disjunction.
  auto exist = CompileXQuery(corpus_, R"(
    for $p in doc("xmark.xml")//person[.//province or .//education]
    return $p
  )");
  ASSERT_FALSE(exist.ok());
  EXPECT_EQ(exist.status().code(), StatusCode::kUnimplemented);
  // An `or` branch that is itself a conjunction ((a AND b) OR c under
  // standard precedence) has no single-vertex lowering.
  auto conj = CompileXQuery(corpus_, R"(
    for $i in doc("xmark.xml")//item[./quantity = 1 and ./quantity = 2
                                     or ./quantity = 3]
    return $i
  )");
  ASSERT_FALSE(conj.ok());
  EXPECT_EQ(conj.status().code(), StatusCode::kUnimplemented);
}

TEST_F(XqCompileTest, AndInsideBracketEqualsStackedBrackets) {
  auto both = [&](const char* text) {
    auto c = CompileXQuery(corpus_, text);
    ROX_CHECK_OK(c.status());
    RoxOptions opt;
    opt.tau = 20;
    auto seq = RunXQuery(corpus_, *c, opt);
    ROX_CHECK_OK(seq.status());
    return *seq;
  };
  auto a = both(R"(
    for $o in doc("xmark.xml")//open_auction[./reserve and ./bidder]
    return $o)");
  auto b = both(R"(
    for $o in doc("xmark.xml")//open_auction[./reserve][./bidder]
    return $o)");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST_F(XqCompileTest, RootWhereOperandRejected) {
  auto compiled = CompileXQuery(corpus_, R"(
    let $d := doc("xmark.xml")
    for $i in $d//item
    where $d = $i/@id
    return $i
  )");
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(XqCompileTest, GreaterThanPredicate) {
  auto compiled = CompileXQuery(corpus_, R"(
    let $d := doc("xmark.xml")
    for $o in $d//open_auction[.//current/text() > 145],
        $i in $d//item[./quantity = 1]
    where $o//itemref/@item = $i/@id
    return $o
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  RoxOptions opt;
  opt.tau = 20;
  auto r = RoxOptimizer(corpus_, compiled->graph, opt).Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->table.NumRows(), 0u);
}

}  // namespace
}  // namespace rox::xq
