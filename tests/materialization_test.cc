// Late materialization correctness (DESIGN.md §8): the view-layer
// operators must match test-local nested-loop references, and whole
// query runs — including cut-off/approximate execution and sharded
// fan-out — must return the brute-force query oracle's answer
// (tests/query_oracle.h).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "exec/column_arena.h"
#include "exec/result_table.h"
#include "exec/result_view.h"
#include "index/sharded_corpus.h"
#include "tests/query_oracle.h"
#include "workload/dblp.h"
#include "workload/xmark.h"
#include "xq/compile.h"
#include "xq/parser.h"

namespace rox {
namespace {

// --- view-layer property tests ---------------------------------------------

ResultTable RandomTable(Rng& rng, size_t cols, uint64_t rows,
                        uint32_t domain) {
  ResultTable t(cols);
  for (size_t c = 0; c < cols; ++c) {
    t.MutableCol(c).reserve(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      t.MutableCol(c).push_back(static_cast<Pre>(rng.Below(domain)));
    }
  }
  return t;
}

bool TablesEqual(const ResultTable& a, const ResultTable& b) {
  if (a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows()) return false;
  for (size_t c = 0; c < a.NumCols(); ++c) {
    if (a.Col(c) != b.Col(c)) return false;
  }
  return true;
}

TEST(ResultViewTest, SelectRowsMatchesEager) {
  Rng rng(1);
  for (int round = 0; round < 20; ++round) {
    ResultTable t = RandomTable(rng, 1 + rng.Below(4), rng.Below(200), 50);
    std::vector<uint32_t> rows;
    for (uint64_t i = 0; i < t.NumRows(); ++i) {
      if (rng.Below(3) == 0) rows.push_back(static_cast<uint32_t>(i));
      if (rng.Below(7) == 0) rows.push_back(static_cast<uint32_t>(i));
    }
    ColumnArena arena;
    ResultView v = ResultView::FromTable(t);
    // Stack two selections so composed (indexed) columns get exercised.
    ResultView first = SelectRowsView(v, rows, arena);
    std::vector<uint32_t> rows2;
    for (uint64_t i = 0; i < first.NumRows(); i += 2) {
      rows2.push_back(static_cast<uint32_t>(i));
    }
    ResultView second = SelectRowsView(first, rows2, arena);
    ResultTable want = t.SelectRows(rows).SelectRows(rows2);
    EXPECT_TRUE(TablesEqual(second.Gather(nullptr), want));
  }
}

// Pairs grouped by left row, as all pair-producing joins emit them.
JoinPairs RandomPairs(Rng& rng, uint64_t outer_rows, uint32_t domain) {
  JoinPairs p;
  for (uint64_t r = 0; r < outer_rows; ++r) {
    uint64_t n = rng.Below(4);
    for (uint64_t k = 0; k < n; ++k) {
      p.left_rows.push_back(static_cast<uint32_t>(r));
      p.right_nodes.push_back(static_cast<Pre>(rng.Below(domain)));
    }
  }
  p.outer_consumed = outer_rows;
  return p;
}

// Reference for ExtendViewWithPairs: one row per pair, the outer row
// followed by the matched node.
ResultTable ExtendByNestedLoop(const ResultTable& outer,
                               const JoinPairs& pairs) {
  ResultTable out(outer.NumCols() + 1);
  std::vector<Pre> row(outer.NumCols() + 1);
  for (uint64_t k = 0; k < pairs.size(); ++k) {
    for (size_t c = 0; c < outer.NumCols(); ++c) {
      row[c] = outer.Col(c)[pairs.left_rows[k]];
    }
    row.back() = pairs.right_nodes[k];
    out.AppendRow(row);
  }
  return out;
}

// Reference for JoinViewsWithPairs: for every pair in order, every
// inner row whose `inner_col` node matches, in row order.
ResultTable JoinByNestedLoop(const ResultTable& outer, const JoinPairs& pairs,
                             const ResultTable& inner, size_t inner_col) {
  ResultTable out(outer.NumCols() + inner.NumCols());
  std::vector<Pre> row(out.NumCols());
  for (uint64_t k = 0; k < pairs.size(); ++k) {
    for (uint64_t r = 0; r < inner.NumRows(); ++r) {
      if (inner.Col(inner_col)[r] != pairs.right_nodes[k]) continue;
      for (size_t c = 0; c < outer.NumCols(); ++c) {
        row[c] = outer.Col(c)[pairs.left_rows[k]];
      }
      for (size_t c = 0; c < inner.NumCols(); ++c) {
        row[outer.NumCols() + c] = inner.Col(c)[r];
      }
      out.AppendRow(row);
    }
  }
  return out;
}

TEST(ResultViewTest, ExtendMatchesEager) {
  Rng rng(2);
  for (int round = 0; round < 20; ++round) {
    ResultTable t = RandomTable(rng, 1 + rng.Below(4), rng.Below(100), 40);
    JoinPairs pairs = RandomPairs(rng, t.NumRows(), 40);
    ResultTable want = ExtendByNestedLoop(t, pairs);
    ColumnArena arena;
    ResultView v = ResultView::FromTable(t);
    ResultView out = ExtendViewWithPairs(v, std::move(pairs), arena);
    EXPECT_TRUE(TablesEqual(out.Gather(nullptr), want));
  }
}

TEST(ResultViewTest, JoinMatchesEager) {
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    ResultTable outer = RandomTable(rng, 1 + rng.Below(3), rng.Below(80), 30);
    ResultTable inner = RandomTable(rng, 1 + rng.Below(3), rng.Below(80), 30);
    size_t inner_col = rng.Below(inner.NumCols());
    JoinPairs pairs = RandomPairs(rng, outer.NumRows(), 30);
    ResultTable want = JoinByNestedLoop(outer, pairs, inner, inner_col);
    ColumnArena arena;
    ResultView out =
        JoinViewsWithPairs(ResultView::FromTable(outer), pairs,
                           ResultView::FromTable(inner), inner_col, arena);
    EXPECT_TRUE(TablesEqual(out.Gather(nullptr), want));
  }
}

TEST(ResultViewTest, DistinctColumnMatchesEager) {
  Rng rng(4);
  ResultTable t = RandomTable(rng, 2, 300, 25);
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < t.NumRows(); i += 3) rows.push_back(i);
  ColumnArena arena;
  ResultView v = SelectRowsView(ResultView::FromTable(t), rows, arena);
  for (size_t c = 0; c < 2; ++c) {
    std::set<Pre> distinct;
    for (uint32_t r : rows) distinct.insert(t.Col(c)[r]);
    EXPECT_EQ(v.DistinctColumn(c),
              std::vector<Pre>(distinct.begin(), distinct.end()));
  }
}

TEST(ResultViewTest, DeadColumnsAreElidedButLiveOnesSurvive) {
  Rng rng(5);
  ResultTable t = RandomTable(rng, 3, 100, 20);
  std::vector<uint32_t> rows = {5, 1, 7, 7, 30};
  std::vector<bool> live = {true, false, true};
  ColumnArena arena;
  ResultView v =
      SelectRowsView(ResultView::FromTable(t), rows, arena, &live);
  EXPECT_FALSE(v.Dead(0));
  EXPECT_TRUE(v.Dead(1));
  EXPECT_FALSE(v.Dead(2));
  ResultTable want = t.SelectRows(rows);
  std::vector<Pre> col;
  v.GatherColumnInto(0, col, nullptr);
  EXPECT_EQ(col, want.Col(0));
  v.GatherColumnInto(2, col, nullptr);
  EXPECT_EQ(col, want.Col(2));
}

TEST(ColumnArenaTest, AdoptKeepsDataStableWithoutCopy) {
  ColumnArena arena;
  std::vector<uint32_t> v = {1, 2, 3};
  const uint32_t* data = v.data();
  std::span<const uint32_t> s = arena.Adopt(std::move(v));
  EXPECT_EQ(s.data(), data);  // zero-copy: same heap buffer
  // Later allocations must not disturb adopted storage.
  for (int i = 0; i < 100; ++i) arena.Alloc(1000);
  EXPECT_EQ(s[0], 1u);
  EXPECT_EQ(s[2], 3u);
}

// --- end-to-end differential tests -----------------------------------------

Corpus TestCorpus() {
  Corpus corpus;
  XmarkGenOptions gen;
  gen.items = 400;
  gen.persons = 450;
  gen.open_auctions = 250;
  EXPECT_TRUE(GenerateXmarkDocument(corpus, gen).ok());
  DblpGenOptions dblp;
  dblp.tag_scale = 0.05;
  EXPECT_TRUE(AddDblpDocuments(corpus, dblp, {18, 19, 20}).ok());
  // A deep chain document for multi-step chain queries.
  std::string xml = "<root>";
  for (int c = 0; c < 30; ++c) {
    xml += "<a><b><a><b><a><b><t/></b></a></b></a></b></a>";
  }
  xml += "</root>";
  EXPECT_TRUE(corpus.AddXml(xml, "chain.xml").ok());
  return corpus;
}

// Q1-shaped query with a randomized price threshold and direction.
std::string XmarkQuery(uint32_t threshold, bool less_than) {
  std::string q = R"(let $d := doc("xmark.xml")
      for $o in $d//open_auction[.//current/text() )";
  q += less_than ? "<" : ">";
  q += " " + std::to_string(threshold) + R"(],
          $p in $d//person[.//province],
          $i in $d//item[./quantity = 1]
      where $o//bidder//personref/@person = $p/@id and
            $o//itemref/@item = $i/@id
      return $o)";
  return q;
}

std::vector<std::string> DifferentialQueries() {
  std::vector<std::string> queries;
  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        XmarkQuery(40 + static_cast<uint32_t>(rng.Below(180)), i % 2 == 0));
  }
  // Deep chain: only the last step's column survives to the tail.
  queries.push_back(
      R"(let $d := doc("chain.xml")
         for $x in $d//a//b//a//b//t return $x)");
  // DBLP equi-joins (2-way and 3-way author joins).
  queries.push_back(
      R"(for $a in doc("SIGMOD")//author, $b in doc("EDBT")//author
         where $a/text() = $b/text() return $a)");
  queries.push_back(
      R"(for $a in doc("SIGMOD")//author, $b in doc("EDBT")//author,
             $c in doc("ADBIS")//author
         where $a/text() = $b/text() and $a/text() = $c/text()
         return $b)");
  // Disconnected join graph: components combine via cross product.
  queries.push_back(
      R"(for $p in doc("xmark.xml")//person[.//province],
             $i in doc("xmark.xml")//item[./quantity = 1]
         return $p)");
  return queries;
}

std::vector<Pre> RunQuery(const Corpus& corpus, const std::string& q,
                          const RoxOptions& rox) {
  auto compiled = xq::CompileXQuery(corpus, q);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return {};
  auto items = xq::RunXQuery(corpus, *compiled, rox);
  EXPECT_TRUE(items.ok()) << items.status().ToString();
  return items.ok() ? *items : std::vector<Pre>{};
}

std::vector<Pre> Oracle(const Corpus& corpus, const std::string& q) {
  auto ast = xq::ParseXQuery(q);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  if (!ast.ok()) return {};
  auto items = OracleQuery(corpus, *ast);
  EXPECT_TRUE(items.ok()) << items.status().ToString();
  return items.ok() ? *items : std::vector<Pre>{};
}

// True iff `sub` is `seq` with zero or more items left out.
bool IsSubsequence(const std::vector<Pre>& sub, const std::vector<Pre>& seq) {
  size_t j = 0;
  for (Pre p : seq) {
    if (j < sub.size() && sub[j] == p) ++j;
  }
  return j == sub.size();
}

TEST(MaterializationDifferentialTest, MatchesOracleOnAllQueries) {
  Corpus corpus = TestCorpus();
  RoxOptions rox;
  rox.seed = 99;
  size_t i = 0;
  size_t nonempty = 0;
  for (const std::string& q : DifferentialQueries()) {
    std::vector<Pre> want = Oracle(corpus, q);
    nonempty += !want.empty();
    EXPECT_EQ(RunQuery(corpus, q, rox), want) << "query #" << i;
    ++i;
  }
  EXPECT_GT(nonempty, i / 2);
}

TEST(MaterializationDifferentialTest, CutOffAndApproximateRunsMatchOracle) {
  Corpus corpus = TestCorpus();
  // Tiny tau forces truncated (cut-off) sampled executions everywhere;
  // the exact answer must not depend on it. approximate_fraction then
  // materializes sampled subsets of every index-selected vertex table:
  // the answer keeps a subset of the exact tuples, so it is a
  // subsequence of the exact answer, and the same seed repeats it.
  RoxOptions rox;
  rox.seed = 1234;
  rox.tau = 15;
  RoxOptions approx = rox;
  approx.approximate_fraction = 0.5;
  for (const std::string& q : DifferentialQueries()) {
    std::vector<Pre> exact = Oracle(corpus, q);
    EXPECT_EQ(RunQuery(corpus, q, rox), exact) << q;
    std::vector<Pre> sampled = RunQuery(corpus, q, approx);
    EXPECT_TRUE(IsSubsequence(sampled, exact)) << q;
    EXPECT_EQ(RunQuery(corpus, q, approx), sampled) << q;
  }
}

TEST(MaterializationDifferentialTest, ShardedRunsMatchOracle) {
  Corpus corpus = TestCorpus();
  RoxOptions rox;
  rox.seed = 4321;
  std::vector<std::vector<Pre>> want;
  for (const std::string& q : DifferentialQueries()) {
    want.push_back(Oracle(corpus, q));
  }
  for (size_t shards : {1u, 4u}) {
    ThreadPool pool(shards);
    ShardedCorpus sc(corpus, shards, &pool);
    ShardedExec ex;
    ex.shards = &sc;
    ex.pool = &pool;
    RoxOptions sharded_rox = rox;
    sharded_rox.sharded = &ex;
    size_t i = 0;
    for (const std::string& q : DifferentialQueries()) {
      EXPECT_EQ(RunQuery(corpus, q, sharded_rox), want[i++])
          << shards << " shards: " << q;
    }
  }
}

TEST(MaterializationDifferentialTest, EngineRunMatchesOracle) {
  engine::EngineOptions opts;
  opts.num_threads = 2;
  opts.cache_results = false;
  engine::Engine engine(TestCorpus(), opts);
  const std::string q = XmarkQuery(145, true);
  auto r = engine.Run(q);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(*r.items, Oracle(*r.snapshot, q));
  EXPECT_FALSE(r.items->empty());
  EXPECT_GT(r.rox_stats.gather.gather_count, 0u);
  EXPECT_GT(engine.Stats().gather_count, 0u);
}

}  // namespace
}  // namespace rox
