// End-to-end tests of the ROX run-time optimizer against independent
// brute-force oracles.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "classical/rox_order.h"
#include "rox/optimizer.h"
#include "workload/dblp.h"
#include "workload/xmark.h"

namespace rox {
namespace {

// Builds a small corpus of "author list" documents with known values.
Corpus TinyCorpus() {
  Corpus corpus;
  auto add = [&](const char* name, std::vector<const char*> authors) {
    std::string xml = "<venue>";
    for (const char* a : authors) {
      xml += "<article><author>";
      xml += a;
      xml += "</author></article>";
    }
    xml += "</venue>";
    auto r = corpus.AddXml(xml, name);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  };
  add("d0", {"ann", "bob", "cid", "ann"});
  add("d1", {"ann", "bob", "dee"});
  add("d2", {"bob", "ann", "ann", "eve"});
  add("d3", {"ann", "fay", "bob", "bob"});
  return corpus;
}

// Oracle: Σ_v Π_i f_i(v) over author text values.
uint64_t OracleJoinCount(const Corpus& corpus, const std::vector<DocId>& docs) {
  std::map<StringId, std::vector<uint64_t>> freq;
  for (size_t i = 0; i < docs.size(); ++i) {
    for (auto [v, n] : AuthorValueHistogram(corpus, docs[i])) {
      auto& f = freq[v];
      f.resize(docs.size(), 0);
      f[i] = n;
    }
  }
  uint64_t total = 0;
  for (auto& [v, f] : freq) {
    f.resize(docs.size(), 0);
    uint64_t prod = 1;
    for (uint64_t n : f) prod *= n;
    total += prod;
  }
  return total;
}

TEST(RoxOptimizerTest, DblpGraphMatchesOracle) {
  Corpus corpus = TinyCorpus();
  std::vector<DocId> docs = {0, 1, 2, 3};
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, docs);
  RoxOptions opt;
  opt.tau = 4;
  RoxOptimizer rox(corpus, q.graph, opt);
  auto result = rox.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // ann: 2*1*2*1=4, bob: 1*1*1*2=2 -> 6 rows.
  EXPECT_EQ(OracleJoinCount(corpus, docs), 6u);
  EXPECT_EQ(result->table.NumRows(), 6u);
}

TEST(RoxOptimizerTest, MatchesOracleWithoutClosure) {
  Corpus corpus = TinyCorpus();
  std::vector<DocId> docs = {0, 1, 2, 3};
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, docs,
                                        /*add_equivalence_closure=*/false);
  RoxOptimizer rox(corpus, q.graph, {.tau = 4});
  auto result = rox.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 6u);
}

TEST(RoxOptimizerTest, TwoDocJoin) {
  Corpus corpus = TinyCorpus();
  std::vector<DocId> docs = {0, 2};
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, docs);
  RoxOptimizer rox(corpus, q.graph, {.tau = 2});
  auto result = rox.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // ann 2*2 + bob 1*1 = 5.
  EXPECT_EQ(result->table.NumRows(), 5u);
}

TEST(RoxOptimizerTest, EmptyResult) {
  Corpus corpus;
  ASSERT_TRUE(corpus.AddXml("<v><article><author>aa</author></article></v>",
                            "d0")
                  .ok());
  ASSERT_TRUE(corpus.AddXml("<v><article><author>zz</author></article></v>",
                            "d1")
                  .ok());
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, {0, 1});
  RoxOptimizer rox(corpus, q.graph, {.tau = 8});
  auto result = rox.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 0u);
}

TEST(RoxOptimizerTest, DeterministicWithSeed) {
  Corpus corpus = TinyCorpus();
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, {0, 1, 2, 3});
  RoxOptions opt;
  opt.tau = 3;
  opt.seed = 99;
  auto r1 = RoxOptimizer(corpus, q.graph, opt).Run();
  auto r2 = RoxOptimizer(corpus, q.graph, opt).Run();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->stats.execution_order, r2->stats.execution_order);
  EXPECT_EQ(r1->table.NumRows(), r2->table.NumRows());
}

struct AblationCase {
  const char* name;
  RoxOptions options;
};

// GetParam() is part of the discovered ctest name. Without a printer gtest
// dumps the object's bytes, which include the address-randomized `name`
// pointer and padding, so the test name changed from build to build.
void PrintTo(const AblationCase& c, std::ostream* os) { *os << c.name; }

class RoxAblationTest : public ::testing::TestWithParam<AblationCase> {};

TEST_P(RoxAblationTest, ResultInvariantUnderAblations) {
  // All ablations change *how fast* a plan is found, never the result.
  Corpus corpus = TinyCorpus();
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, {0, 1, 2, 3});
  RoxOptions opt = GetParam().options;
  opt.tau = 3;
  RoxOptimizer rox(corpus, q.graph, opt);
  auto result = rox.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 6u);
}

INSTANTIATE_TEST_SUITE_P(
    Ablations, RoxAblationTest,
    ::testing::Values(
        AblationCase{"baseline", {}},
        AblationCase{"no_chain", {.enable_chain_sampling = false}},
        AblationCase{"no_resample", {.resample_after_execute = false}},
        AblationCase{"no_grow", {.grow_cutoff = false}},
        AblationCase{"no_index", {.use_index_acceleration = false}},
        AblationCase{"all_off",
                     {.enable_chain_sampling = false,
                      .resample_after_execute = false,
                      .grow_cutoff = false,
                      .use_index_acceleration = false}}),
    [](const ::testing::TestParamInfo<AblationCase>& info) {
      return info.param.name;
    });

class RoxTauTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoxTauTest, ResultInvariantUnderSampleSize) {
  Corpus corpus = TinyCorpus();
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, {0, 1, 2, 3});
  RoxOptions opt;
  opt.tau = GetParam();
  auto result = RoxOptimizer(corpus, q.graph, opt).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 6u);
}

INSTANTIATE_TEST_SUITE_P(Taus, RoxTauTest,
                         ::testing::Values(1, 2, 5, 25, 100, 400));

TEST(RoxOptimizerTest, StatsPopulated) {
  Corpus corpus = TinyCorpus();
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, {0, 1, 2, 3});
  RoxOptimizer rox(corpus, q.graph, {.tau = 4});
  auto result = rox.Run();
  ASSERT_TRUE(result.ok());
  const RoxStats& s = result->stats;
  EXPECT_EQ(s.edges_executed, q.graph.EdgeCount());
  EXPECT_EQ(s.execution_order.size(), q.graph.EdgeCount());
  EXPECT_GT(s.cumulative_intermediate_rows, 0u);
  EXPECT_GE(s.peak_intermediate_rows, 6u);
  EXPECT_GE(s.sampling_time.TotalNanos(), 0);
  EXPECT_GT(s.execution_time.TotalNanos(), 0);
}

TEST(RoxResultTest, ColumnOfUsesSortedIndex) {
  // Regression: ColumnOf was a linear scan; it is now backed by a
  // sorted (vertex, column) index built by IndexColumns(). Vertex ids
  // are deliberately unsorted and non-dense.
  RoxResult result;
  result.columns = {42, 7, 99, 0, 13};
  // Without IndexColumns() the linear fallback must still be correct.
  EXPECT_EQ(result.ColumnOf(99), 2u);
  result.IndexColumns();
  EXPECT_EQ(result.ColumnOf(42), 0u);
  EXPECT_EQ(result.ColumnOf(7), 1u);
  EXPECT_EQ(result.ColumnOf(99), 2u);
  EXPECT_EQ(result.ColumnOf(0), 3u);
  EXPECT_EQ(result.ColumnOf(13), 4u);
  EXPECT_EQ(result.ColumnOf(1), RoxResult::npos);
  EXPECT_EQ(result.ColumnOf(100), RoxResult::npos);
  // Mutating columns and re-indexing keeps lookups in sync.
  result.columns.push_back(55);
  result.IndexColumns();
  EXPECT_EQ(result.ColumnOf(55), 5u);
  // Same-size in-place mutation without re-indexing must still be
  // correct (the stale index entry fails its mapped-back check and the
  // lookup falls through to the scan).
  result.columns[2] = 77;
  EXPECT_EQ(result.ColumnOf(77), 2u);
  EXPECT_EQ(result.ColumnOf(99), RoxResult::npos);
}

TEST(RoxOptimizerTest, FinalEdgeWeightsWarmStartSecondRun) {
  Corpus corpus = TinyCorpus();
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, {0, 1, 2, 3});
  auto cold = RoxOptimizer(corpus, q.graph, {.tau = 4}).Run();
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->final_edge_weights.size(), q.graph.EdgeCount());
  EXPECT_EQ(cold->stats.warm_started_weights, 0u);

  RoxOptions warm_options{.tau = 4};
  warm_options.warm_edge_weights = &cold->final_edge_weights;
  auto warm = RoxOptimizer(corpus, q.graph, warm_options).Run();
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->stats.warm_started_weights, 0u);
  // Warm starting changes only the sampling work, never the result.
  EXPECT_EQ(warm->table.NumRows(), cold->table.NumRows());

  // The ablation flag restores cold behavior.
  warm_options.use_warm_start = false;
  auto ablated = RoxOptimizer(corpus, q.graph, warm_options).Run();
  ASSERT_TRUE(ablated.ok());
  EXPECT_EQ(ablated->stats.warm_started_weights, 0u);
}

TEST(RoxOptimizerTest, WarmStartIgnoresInteriorEdgeWeights) {
  // Regression: the learned weight of an *interior* edge (neither
  // endpoint index-selectable — here the text()=text() equi-joins) is a
  // post-reduction cardinality. Adopting it would make MinWeightEdge
  // schedule that edge before either endpoint can be materialized
  // ("neither endpoint is materializable"). Warm weights of zero on
  // every edge are the adversarial case: interior edges tie for the
  // minimum.
  Corpus corpus = TinyCorpus();
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, {0, 1, 2, 3});
  auto cold = RoxOptimizer(corpus, q.graph, {.tau = 4}).Run();
  ASSERT_TRUE(cold.ok());

  std::vector<double> adversarial(q.graph.EdgeCount(), 0.0);
  RoxOptions warm_options{.tau = 4};
  warm_options.warm_edge_weights = &adversarial;
  auto warm = RoxOptimizer(corpus, q.graph, warm_options).Run();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->table.NumRows(), cold->table.NumRows());
}

TEST(RoxOptimizerTest, ColumnsCoverJoinedVertices) {
  Corpus corpus = TinyCorpus();
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, {0, 1, 2, 3});
  auto result = RoxOptimizer(corpus, q.graph, {.tau = 4}).Run();
  ASSERT_TRUE(result.ok());
  // 4 author + 4 text vertices joined (roots pruned away).
  EXPECT_EQ(result->columns.size(), 8u);
  for (VertexId v : q.authors) {
    EXPECT_NE(result->ColumnOf(v), RoxResult::npos);
  }
  // Every row's text values must all be equal.
  const ResultTable& t = result->table;
  std::vector<size_t> text_cols;
  for (VertexId v : q.texts) text_cols.push_back(result->ColumnOf(v));
  for (uint64_t r = 0; r < t.NumRows(); ++r) {
    StringId v0 = corpus.doc(0).Value(t.Col(text_cols[0])[r]);
    for (size_t i = 1; i < text_cols.size(); ++i) {
      EXPECT_EQ(corpus.doc(static_cast<DocId>(i))
                    .Value(t.Col(text_cols[i])[r]),
                v0);
    }
  }
}

TEST(RoxOptimizerTest, DisconnectedGraphRejected) {
  Corpus corpus = TinyCorpus();
  JoinGraph g;
  StringId author = corpus.Find("author");
  VertexId a = g.AddElement(0, author, "a");
  VertexId t = g.AddText(0);
  VertexId b = g.AddElement(1, author, "b");
  VertexId u = g.AddText(1);
  g.AddStep(a, Axis::kChild, t);
  g.AddStep(b, Axis::kChild, u);
  auto result = RoxOptimizer(corpus, g).Run();
  EXPECT_FALSE(result.ok());
}

// --- XMark Q1 oracle ----------------------------------------------------------

// Brute-force row count of the Q1 join graph over the generated
// document, computed by direct tree walks (independent of the engine's
// join machinery).
uint64_t OracleXmarkQ1Rows(const Corpus& corpus, DocId doc_id,
                           double threshold, bool less_than) {
  const Document& doc = corpus.doc(doc_id);
  const StringPool& pool = corpus.string_pool();
  StringId s_oa = pool.Find("open_auction");
  StringId s_current = pool.Find("current");
  StringId s_bidder = pool.Find("bidder");
  StringId s_personref = pool.Find("personref");
  StringId s_person_attr = pool.Find("person");
  StringId s_itemref = pool.Find("itemref");
  StringId s_item_attr = pool.Find("item");
  StringId s_person = pool.Find("person");
  StringId s_province = pool.Find("province");
  StringId s_id = pool.Find("id");
  StringId s_item = pool.Find("item");
  StringId s_quantity = pool.Find("quantity");
  StringId s_one = pool.Find("1");

  // person @id value -> Σ over persons with that id of (#province × #id-attr).
  std::map<StringId, uint64_t> person_weight;
  std::map<StringId, uint64_t> item_weight;
  auto desc_count = [&](Pre e, StringId name) {
    uint64_t n = 0;
    for (Pre q = e + 1; q <= e + doc.Size(e); ++q) {
      if (doc.Kind(q) == NodeKind::kElem && doc.Name(q) == name) ++n;
    }
    return n;
  };
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    if (doc.Kind(p) != NodeKind::kElem) continue;
    if (doc.Name(p) == s_person) {
      StringId id = doc.AttributeValue(p, s_id);
      if (id == kInvalidStringId) continue;
      person_weight[id] += desc_count(p, s_province);
    } else if (doc.Name(p) == s_item) {
      StringId id = doc.AttributeValue(p, s_id);
      if (id == kInvalidStringId) continue;
      // quantity child with single text child "1" (three vertices:
      // quantity, its text, the item @id — one row per such chain).
      uint64_t q1 = 0;
      for (Pre q = p + 1; q <= p + doc.Size(p); ++q) {
        if (doc.Kind(q) == NodeKind::kElem && doc.Name(q) == s_quantity &&
            doc.Parent(q) == p && doc.SingleTextChildValue(q) == s_one) {
          ++q1;
        }
      }
      item_weight[id] += q1;
    }
  }

  uint64_t rows = 0;
  for (Pre oa = 0; oa < doc.NodeCount(); ++oa) {
    if (doc.Kind(oa) != NodeKind::kElem || doc.Name(oa) != s_oa) continue;
    Pre end = oa + doc.Size(oa);
    // (current, text) pairs passing the predicate.
    uint64_t a = 0;
    // bidder branch weight.
    uint64_t b = 0;
    // itemref branch weight.
    uint64_t c = 0;
    for (Pre q = oa + 1; q <= end; ++q) {
      if (doc.Kind(q) != NodeKind::kElem) continue;
      if (doc.Name(q) == s_current) {
        for (Pre t = q + 1; t <= q + doc.Size(q); ++t) {
          if (doc.Kind(t) == NodeKind::kText && doc.Parent(t) == q) {
            auto num = pool.NumericValue(doc.Value(t));
            if (!num) continue;
            if ((less_than && *num < threshold) ||
                (!less_than && *num > threshold)) {
              ++a;
            }
          }
        }
      } else if (doc.Name(q) == s_bidder) {
        for (Pre pr = q + 1; pr <= q + doc.Size(q); ++pr) {
          if (doc.Kind(pr) == NodeKind::kElem && doc.Name(pr) == s_personref) {
            StringId pv = doc.AttributeValue(pr, s_person_attr);
            if (pv == kInvalidStringId) continue;
            auto it = person_weight.find(pv);
            if (it != person_weight.end()) b += it->second;
          }
        }
      } else if (doc.Name(q) == s_itemref) {
        StringId iv = doc.AttributeValue(q, s_item_attr);
        if (iv == kInvalidStringId) continue;
        auto it = item_weight.find(iv);
        if (it != item_weight.end()) c += it->second;
      }
    }
    rows += a * b * c;
  }
  return rows;
}

TEST(RoxOptimizerTest, XmarkQ1MatchesOracle) {
  Corpus corpus;
  XmarkGenOptions gen;
  gen.items = 60;
  gen.persons = 80;
  gen.open_auctions = 70;
  auto doc = GenerateXmarkDocument(corpus, gen);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  for (bool less_than : {true, false}) {
    XmarkQ1Graph q = BuildXmarkQ1Graph(corpus, *doc, 145.0, less_than);
    ASSERT_TRUE(q.graph.Validate().ok());
    RoxOptions opt;
    opt.tau = 20;
    auto result = RoxOptimizer(corpus, q.graph, opt).Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    uint64_t expect = OracleXmarkQ1Rows(corpus, *doc, 145.0, less_than);
    EXPECT_EQ(result->table.NumRows(), expect)
        << (less_than ? "Q1" : "Qm1");
    EXPECT_GT(expect, 0u);
  }
}


// Property sweep: ROX must compute the exact Q1/Qm1 result for every
// threshold and predicate direction.
struct ThresholdCase {
  double threshold;
  bool less_than;
};

class RoxThresholdSweep : public ::testing::TestWithParam<ThresholdCase> {};

TEST_P(RoxThresholdSweep, MatchesOracle) {
  Corpus corpus;
  XmarkGenOptions gen;
  gen.items = 80;
  gen.persons = 90;
  gen.open_auctions = 80;
  auto doc = GenerateXmarkDocument(corpus, gen);
  ASSERT_TRUE(doc.ok());
  ThresholdCase c = GetParam();
  XmarkQ1Graph q = BuildXmarkQ1Graph(corpus, *doc, c.threshold, c.less_than);
  RoxOptions opt;
  opt.tau = 15;
  auto result = RoxOptimizer(corpus, q.graph, opt).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(),
            OracleXmarkQ1Rows(corpus, *doc, c.threshold, c.less_than));
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, RoxThresholdSweep,
    ::testing::Values(ThresholdCase{30, true}, ThresholdCase{30, false},
                      ThresholdCase{100, true}, ThresholdCase{100, false},
                      ThresholdCase{145, true}, ThresholdCase{145, false},
                      ThresholdCase{220, true}, ThresholdCase{220, false},
                      ThresholdCase{400, true},   // everything / nothing
                      ThresholdCase{-1, false}),
    [](const ::testing::TestParamInfo<ThresholdCase>& info) {
      std::string n = info.param.less_than ? "lt_" : "gt_";
      double t = info.param.threshold;
      n += t < 0 ? "neg1" : std::to_string(static_cast<int>(t));
      return n;
    });

TEST(RoxOptimizerTest, RoxJoinOrderExtraction) {
  Corpus corpus = TinyCorpus();
  std::vector<DocId> docs = {0, 1, 2, 3};
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, docs);
  auto result = RoxOptimizer(corpus, q.graph, {.tau = 4}).Run();
  ASSERT_TRUE(result.ok());
  auto order = RoxJoinOrderFromRun(q, *result);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  // Sanity: the order covers all four documents exactly once.
  std::vector<int> seq = order->DocSequence();
  std::sort(seq.begin(), seq.end());
  EXPECT_EQ(seq, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace rox
