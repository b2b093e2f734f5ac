// Randomized differential harness for the epoch-versioned live corpus
// (DESIGN.md §10), a generated-query differential against the
// brute-force query oracle, and the TSan-targeted publish/read race
// test.
//
// The live-corpus suite interleaves AddDocuments/RemoveDocument with
// concurrent RunBatch over generated XMark-/DBLP-flavored queries;
// every result, status code included, must match the query oracle
// (tests/query_oracle.h) evaluated on that query's pinned snapshot.
// The oracle shares no join graph, ROX state, index, kernel or plan
// tail with the engine, so one comparison covers live-vs-fresh, cache
// replay, sharding and the whole execution stack at once.
//
// GeneratedQueriesMatchOracle builds random xq::AstQuery values over
// random documents and renders them to text: the engine parses the
// text, the oracle evaluates the AST, so the two share no parser.
//
// Environment knobs (the CI sanitizer legs raise the iteration count):
//   ROX_FUZZ_ITERS      iterations per test or configuration
//                       (default 40)
//   ROX_FUZZ_SEED       base seed (default below)
//   ROX_FUZZ_SEED_FILE  where to record the seed on failure
//                       (default snapshot_fuzz_seed.txt), so CI can
//                       upload it and a failure reproduces exactly.
//   ROX_FUZZ_TRACE_FILE where to dump the failing query's execution
//                       trace JSON (default snapshot_fuzz_trace.json);
//                       uploaded next to the seed file, it shows the
//                       join order / kernels / cardinalities the live
//                       engine actually took. The live engine runs at
//                       trace_level=spans throughout, which doubles as
//                       a check that tracing never perturbs results.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/escape.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "index/corpus.h"
#include "index/sharded_corpus.h"
#include "obs/trace.h"
#include "tests/query_oracle.h"
#include "tests/structural_oracle.h"
#include "xq/compile.h"
#include "xq/parser.h"

namespace rox {
namespace {

constexpr uint64_t kDefaultSeed = 0x5eedc0ffee123ULL;

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

// Appends the failing seed/config so a CI artifact reproduces the run:
//   ROX_FUZZ_SEED=<seed> ./rox_tests --gtest_filter='SnapshotFuzz*'
void DumpSeed(uint64_t seed, const std::string& context) {
  const char* path = std::getenv("ROX_FUZZ_SEED_FILE");
  std::ofstream out(path != nullptr ? path : "snapshot_fuzz_seed.txt",
                    std::ios::app);
  out << "ROX_FUZZ_SEED=" << seed << "  # " << context << "\n";
}

// Dumps the failing query's flight-recorder JSON next to the seed file
// (one JSON object per line, same append discipline), so the CI
// artifact shows the exact span tree / join order / kernels of the
// mismatching execution, not just how to re-run it.
void DumpTrace(const engine::QueryResult& r, const std::string& context) {
  const char* path = std::getenv("ROX_FUZZ_TRACE_FILE");
  std::ofstream out(path != nullptr ? path : "snapshot_fuzz_trace.json",
                    std::ios::app);
  std::string ctx;
  AppendJsonEscaped(&ctx, context);  // query text contains quotes
  out << "{\"context\": \"" << ctx << "\", \"trace\": " << r.trace_json()
      << "}\n";
}

// --- generated documents ----------------------------------------------------
//
// Person/author identifiers come from a small shared vocabulary, so
// joins across independently generated documents actually match.

std::string XmarkFlavorXml(Rng& rng) {
  int persons = 1 + static_cast<int>(rng.Below(6));
  int auctions = 1 + static_cast<int>(rng.Below(6));
  std::string xml = "<site><people>";
  for (int i = 0; i < persons; ++i) {
    xml += "<person id=\"p" + std::to_string(rng.Below(8)) + "\"><name>n" +
           std::to_string(rng.Below(4)) + "</name>";
    if (rng.Bernoulli(0.4)) xml += "<province>v</province>";
    xml += "</person>";
  }
  xml += "</people><open_auctions>";
  for (int i = 0; i < auctions; ++i) {
    xml += "<open_auction><current>" + std::to_string(rng.Below(100)) +
           "</current>";
    int bidders = static_cast<int>(rng.Below(3));
    for (int b = 0; b < bidders; ++b) {
      xml += "<bidder><personref person=\"p" + std::to_string(rng.Below(8)) +
             "\"/></bidder>";
    }
    xml += "</open_auction>";
  }
  xml += "</open_auctions></site>";
  return xml;
}

std::string DblpFlavorXml(Rng& rng) {
  int articles = 1 + static_cast<int>(rng.Below(8));
  std::string xml = "<dblp>";
  for (int i = 0; i < articles; ++i) {
    xml += "<article><author>a" + std::to_string(rng.Below(6)) +
           "</author><year>" + std::to_string(2000 + rng.Below(6)) +
           "</year></article>";
  }
  xml += "</dblp>";
  return xml;
}

// Duplicate names are impossible: every generated document gets a
// fresh serial. Prefix x/d records the flavor.
struct NameBook {
  std::vector<std::string> live;     // resolvable at the current epoch
  std::vector<std::string> removed;  // stale names (compile NotFound)
  int next_serial = 0;

  std::string Fresh(bool xmark) {
    return (xmark ? "x" : "d") + std::to_string(next_serial++) + ".xml";
  }
  const std::string& AnyLive(Rng& rng) const {
    return live[rng.Below(live.size())];
  }
  // Mostly live names; occasionally a removed one, to exercise the
  // per-epoch NotFound path differentially.
  const std::string& Pick(Rng& rng) const {
    if (!removed.empty() && rng.Bernoulli(0.1)) {
      return removed[rng.Below(removed.size())];
    }
    return AnyLive(rng);
  }
};

std::string MakeQuery(Rng& rng, const NameBook& names) {
  const std::string n1 = names.Pick(rng);
  const std::string n2 = names.Pick(rng);
  // Non-equality operators for the theta-join cases (DESIGN.md §11).
  static const char* kThetaOps[] = {"<", "<=", ">", ">=", "!="};
  const char* theta_op = kThetaOps[rng.Below(5)];
  switch (rng.Below(9)) {
    case 0:
      return "for $p in doc(\"" + n1 + "\")//person return $p";
    case 1:
      return "for $o in doc(\"" + n1 + "\")//open_auction[.//current/text() " +
             (rng.Bernoulli(0.5) ? "<" : ">") + " " +
             std::to_string(rng.Below(100)) + "] return $o";
    case 2:
      return "for $b in doc(\"" + n1 + "\")//bidder//personref, $p in doc(\"" +
             n1 + "\")//person where $b/@person = $p/@id return $p";
    case 3:
      return "for $a in doc(\"" + n1 + "\")//author, $b in doc(\"" + n2 +
             "\")//author where $a/text() = $b/text() return $a";
    case 4:
      return "for $x in doc(\"" + n1 + "\")//article[./year = \"" +
             std::to_string(2000 + rng.Below(6)) + "\"] return $x";
    case 5:
      // Cross-document attribute join: personrefs of one document
      // against persons of another (the shared p-vocabulary matches).
      return "for $b in doc(\"" + n1 + "\")//personref, $p in doc(\"" + n2 +
             "\")//person where $b/@person = $p/@id return $b";
    case 6:
      // Theta join on article years, bounded by author equality.
      return "for $a in doc(\"" + n1 + "\")//article, $b in doc(\"" + n2 +
             "\")//article where $a/author = $b/author and $a/year " +
             theta_op + " $b/year return $a";
    case 7:
      // Pure inequality join on attribute values (near-cross-product
      // on these tiny documents; exercises the != kernels).
      return "for $b in doc(\"" + n1 + "\")//personref, $p in doc(\"" + n2 +
             "\")//person where $b/@person " + theta_op +
             " $p/@id return $b";
    default:
      // Disjunctive step predicate over the numeric current values.
      return "for $o in doc(\"" + n1 + "\")//open_auction[./current < " +
             std::to_string(rng.Below(40)) + " or ./current >= " +
             std::to_string(40 + rng.Below(60)) + "] return $o";
  }
}

// --- the differential harness ----------------------------------------------

// The oracle's answer for `query` on `corpus`; a query that does not
// parse expects the parser's status.
Result<std::vector<Pre>> Expected(const Corpus& corpus,
                                  const std::string& query) {
  Result<xq::AstQuery> ast = xq::ParseXQuery(query);
  if (!ast.ok()) return ast.status();
  return OracleQuery(corpus, *ast);
}

std::string Describe(size_t shards, uint64_t iter, const std::string& query) {
  return "shards=" + std::to_string(shards) +
         " iter=" + std::to_string(iter) + " query=[" + query + "]";
}

std::string Outcome(const Result<std::vector<Pre>>& r) {
  return r.ok() ? std::to_string(r->size()) + " items" : r.status().ToString();
}

void RunDifferentialFuzz(size_t shards) {
  const uint64_t seed = EnvU64("ROX_FUZZ_SEED", kDefaultSeed);
  const uint64_t iters = EnvU64("ROX_FUZZ_ITERS", 40);
  Rng rng(seed ^ (shards * 0x9e3779b97f4a7c15ULL));

  engine::EngineOptions live_opts;
  live_opts.num_threads = 4;
  live_opts.num_shards = shards;
  live_opts.rox.tau = 20;
  live_opts.rox.seed = seed;
  // Record spans on every live query: any mismatch dumps the trace,
  // and the oracle comparison proves tracing changes no results.
  live_opts.trace_level = obs::TraceLevel::kSpans;

  NameBook names;
  Corpus corpus;
  for (int i = 0; i < 2; ++i) {
    std::string nx = names.Fresh(/*xmark=*/true);
    std::string nd = names.Fresh(/*xmark=*/false);
    ASSERT_TRUE(corpus.AddXml(XmarkFlavorXml(rng), nx).ok());
    ASSERT_TRUE(corpus.AddXml(DblpFlavorXml(rng), nd).ok());
    names.live.push_back(nx);
    names.live.push_back(nd);
  }
  engine::Engine live(std::move(corpus), live_opts);

  uint64_t expected_publishes = 0;
  uint64_t expected_added = 0;
  uint64_t expected_removed = 0;
  // Coverage guards: the harness must not degenerate into all-error
  // or all-empty batches (both of which would "match" trivially).
  uint64_t ok_results = 0;
  uint64_t nonempty_results = 0;

  for (uint64_t iter = 0; iter < iters; ++iter) {
    const size_t batch_size = 4 + rng.Below(4);
    std::vector<std::string> queries;
    queries.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      queries.push_back(MakeQuery(rng, names));
    }

    // The batch runs on the engine pool while this thread publishes
    // new epochs underneath it.
    auto batch = std::async(std::launch::async, [&live, &queries]() {
      return live.RunBatch(queries, 4);
    });

    const int mutations = 1 + static_cast<int>(rng.Below(2));
    for (int m = 0; m < mutations; ++m) {
      if (names.live.size() > 2 && rng.Bernoulli(0.35)) {
        size_t victim = rng.Below(names.live.size());
        std::string name = names.live[victim];
        ASSERT_TRUE(live.RemoveDocument(name).ok()) << name;
        names.live.erase(names.live.begin() + victim);
        names.removed.push_back(std::move(name));
        ++expected_publishes;
        ++expected_removed;
      } else {
        bool xmark = rng.Bernoulli(0.5);
        std::string name = names.Fresh(xmark);
        std::string xml = xmark ? XmarkFlavorXml(rng) : DblpFlavorXml(rng);
        ASSERT_TRUE(
            live.AddDocuments({{name, std::move(xml)}}).ok()) << name;
        names.live.push_back(std::move(name));
        ++expected_publishes;
        ++expected_added;
      }
    }

    std::vector<engine::QueryResult> results = batch.get();
    ASSERT_EQ(results.size(), queries.size());

    // Every result, status code included, must be the oracle's answer
    // on the query's pinned snapshot.
    for (size_t i = 0; i < results.size(); ++i) {
      const engine::QueryResult& r = results[i];
      ASSERT_NE(r.snapshot, nullptr);
      ASSERT_EQ(r.snapshot->epoch(), r.epoch);
      if (r.ok()) {
        ++ok_results;
        if (!r.items->empty()) ++nonempty_results;
      }
      Result<std::vector<Pre>> want = Expected(*r.snapshot, queries[i]);
      if (r.ok() != want.ok() || (r.ok() && *r.items != *want) ||
          (!r.ok() && r.status.code() != want.status().code())) {
        DumpSeed(seed, Describe(shards, iter, queries[i]));
        DumpTrace(r, Describe(shards, iter, queries[i]));
        FAIL() << "oracle mismatch at " << Describe(shards, iter, queries[i])
               << "\n  live:   "
               << (r.ok() ? std::to_string(r.items->size()) + " items"
                          : r.status.ToString())
               << " (epoch " << r.epoch << ")\n  oracle: " << Outcome(want);
      }
    }
  }

  EXPECT_GT(ok_results, iters);        // most queries compile and run
  EXPECT_GT(nonempty_results, iters / 4);  // and plenty return items

  engine::EngineStats stats = live.Stats();
  EXPECT_EQ(stats.stale_cache_hits, 0u);
  EXPECT_EQ(stats.publishes, expected_publishes);
  EXPECT_EQ(stats.docs_added, expected_added);
  EXPECT_EQ(stats.docs_removed, expected_removed);
  EXPECT_EQ(live.CurrentEpoch(), expected_publishes);
}

TEST(SnapshotFuzzTest, DifferentialShards1) { RunDifferentialFuzz(1); }

TEST(SnapshotFuzzTest, DifferentialShards4) { RunDifferentialFuzz(4); }

// --- governed differential fuzz (DESIGN.md §13) ------------------------------
//
// The same live-corpus setting with query limits thrown in: every query
// randomly draws a tight deadline, a tiny memory budget, both, or
// neither, while this thread publishes new documents underneath the
// batch and occasionally fires KillAll. The properties under test:
//
//   1. A governed query that completes OK returns the query oracle's
//      answer on its pinned snapshot — limits that don't trip must be
//      invisible.
//   2. A query stopped by governance reports exactly one of
//      kCancelled / kDeadlineExceeded / kResourceExhausted.
//   3. The engine survives: later ungoverned queries still work, and
//      the governance counters add up.
//
// Only adds are published (no removals), so compile-time NotFound is
// impossible and every non-OK result must be a governance stop.

TEST(SnapshotFuzzTest, GovernedQueriesUnderConcurrentPublishes) {
  const uint64_t seed = EnvU64("ROX_FUZZ_SEED", kDefaultSeed);
  const uint64_t iters = EnvU64("ROX_FUZZ_ITERS", 40);
  Rng rng(seed ^ 0x60f3e12ULL);

  engine::EngineOptions live_opts;
  live_opts.num_threads = 4;
  live_opts.rox.tau = 20;
  live_opts.rox.seed = seed;

  NameBook names;
  Corpus corpus;
  for (int i = 0; i < 2; ++i) {
    std::string nx = names.Fresh(/*xmark=*/true);
    std::string nd = names.Fresh(/*xmark=*/false);
    ASSERT_TRUE(corpus.AddXml(XmarkFlavorXml(rng), nx).ok());
    ASSERT_TRUE(corpus.AddXml(DblpFlavorXml(rng), nd).ok());
    names.live.push_back(nx);
    names.live.push_back(nd);
  }
  engine::Engine live(std::move(corpus), live_opts);

  uint64_t ok_results = 0;
  uint64_t deadline_stops = 0;
  uint64_t budget_stops = 0;
  uint64_t cancel_stops = 0;

  for (uint64_t iter = 0; iter < iters; ++iter) {
    const size_t batch_size = 4 + rng.Below(4);
    std::vector<std::string> queries;
    std::vector<QueryLimits> limits;
    std::vector<std::future<engine::QueryResult>> futures;
    for (size_t i = 0; i < batch_size; ++i) {
      queries.push_back(MakeQuery(rng, names));
      QueryLimits lim;
      switch (rng.Below(4)) {
        case 0:  // ungoverned
          break;
        case 1:  // effectively-instant deadline: trips at the first poll
          lim.deadline_ms = 0.01;
          break;
        case 2:  // one-byte budget: latches on the first arena block
          lim.memory_budget_bytes = 1;
          break;
        default:  // generous limits: must be invisible
          lim.deadline_ms = 60000;
          lim.memory_budget_bytes = uint64_t{1} << 30;
          break;
      }
      limits.push_back(lim);
      futures.push_back(live.Submit(queries.back(), lim));
    }

    // Publish new epochs underneath the in-flight batch, and
    // occasionally kill whatever happens to be running.
    const int mutations = 1 + static_cast<int>(rng.Below(2));
    for (int m = 0; m < mutations; ++m) {
      bool xmark = rng.Bernoulli(0.5);
      std::string name = names.Fresh(xmark);
      std::string xml = xmark ? XmarkFlavorXml(rng) : DblpFlavorXml(rng);
      ASSERT_TRUE(live.AddDocuments({{name, std::move(xml)}}).ok()) << name;
      names.live.push_back(std::move(name));
    }
    if (rng.Bernoulli(0.25)) live.KillAll();

    for (size_t i = 0; i < batch_size; ++i) {
      engine::QueryResult r = futures[i].get();
      const std::string context =
          "governed iter=" + std::to_string(iter) + " query=[" + queries[i] +
          "] deadline_ms=" + std::to_string(limits[i].deadline_ms) +
          " budget=" + std::to_string(limits[i].memory_budget_bytes);
      if (r.ok()) {
        ++ok_results;
        ASSERT_NE(r.snapshot, nullptr);
        Result<std::vector<Pre>> want = Expected(*r.snapshot, queries[i]);
        if (!want.ok() || *r.items != *want) {
          DumpSeed(seed, context);
          FAIL() << "governed OK result diverges from oracle at " << context
                 << "\n  live:   " << r.items->size() << " items"
                 << "\n  oracle: " << Outcome(want);
        }
      } else {
        switch (r.status.code()) {
          case StatusCode::kDeadlineExceeded:
            ++deadline_stops;
            break;
          case StatusCode::kResourceExhausted:
            ++budget_stops;
            break;
          case StatusCode::kCancelled:
            ++cancel_stops;
            break;
          default:
            DumpSeed(seed, context);
            FAIL() << "non-governance failure " << r.status.ToString()
                   << " at " << context;
        }
      }
    }
  }

  // Coverage guards: the run must actually exercise both completion and
  // both deterministic stop kinds (KillAll stops are timing-dependent,
  // so they are reported but not required).
  EXPECT_GT(ok_results, iters);
  EXPECT_GT(deadline_stops, 0u);
  EXPECT_GT(budget_stops, 0u);

  // The engine is intact afterward, and the stats agree with what the
  // futures reported (every cancel was also counted by the engine).
  engine::QueryResult after =
      live.Run("for $p in doc(\"" + names.live[0] + "\")//person return $p");
  ASSERT_TRUE(after.ok()) << after.status.ToString();
  engine::EngineStats stats = live.Stats();
  EXPECT_EQ(stats.queries_deadline_exceeded, deadline_stops);
  EXPECT_EQ(stats.queries_budget_exceeded, budget_stops);
  EXPECT_EQ(stats.queries_cancelled, cancel_stops);
  EXPECT_EQ(stats.stale_cache_hits, 0u);
}

// --- generated queries against the oracle -----------------------------------
//
// A seeded generator builds xq::AstQuery values over structural_oracle.h's
// RandomXml documents (elements a/b/c/d under <root>, `k` attributes
// 0-4, numeric text 0-99) and renders each one to query text. Every
// query runs on 1 and 4 shards at tau 5 and tau 100; each run must
// return the oracle's answer for the AST, status code included.
// Unsupported shapes are emitted on purpose and must come back
// Unimplemented, never as an answer.

constexpr Axis kElementAxes[] = {
    Axis::kChild,          Axis::kDescendant,       Axis::kDescendantOrSelf,
    Axis::kParent,         Axis::kAncestor,         Axis::kAncestorOrSelf,
    Axis::kFollowing,      Axis::kPreceding,        Axis::kFollowingSibling,
    Axis::kPrecedingSibling, Axis::kSelf};

constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                          CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

// The query syntax's spelling of each axis and operator, written out
// here so rendering shares no table with the parser.
const char* AxisSyntax(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kParent:
      return "parent";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kFollowing:
      return "following";
    case Axis::kPreceding:
      return "preceding";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kSelf:
      return "self";
    case Axis::kAttribute:
      return "attribute";
  }
  return "?";
}

const char* OpSyntax(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

std::string RenderStep(const xq::AstStep& s) {
  using Test = xq::AstStep::Test;
  if (s.test == Test::kAttribute) return "/@" + s.name;
  std::string test = s.test == Test::kText        ? "text()"
                     : s.test == Test::kAnyElement ? "*"
                                                   : s.name;
  if (s.axis == Axis::kChild) return "/" + test;
  if (s.axis == Axis::kDescendant) return "//" + test;
  return "/" + std::string(AxisSyntax(s.axis)) + "::" + test;
}

std::string RenderPredicate(const xq::AstPredicate& p) {
  std::string out = ".";
  for (const xq::AstStep& s : p.path) out += RenderStep(s);
  if (p.op.has_value()) {
    out += " " + std::string(OpSyntax(*p.op)) + " ";
    out += p.literal_is_number ? p.literal : "\"" + p.literal + "\"";
  }
  return out;
}

std::string RenderPath(const xq::AstPathExpr& p) {
  std::string out =
      p.doc_url.empty() ? "$" + p.variable : "doc(\"" + p.doc_url + "\")";
  for (const auto& ps : p.steps) {
    out += RenderStep(ps.step);
    for (const xq::AstPredicateGroup& g : ps.predicate_groups) {
      out += "[";
      for (size_t a = 0; a < g.alternatives.size(); ++a) {
        if (a > 0) out += " or ";
        for (size_t k = 0; k < g.alternatives[a].size(); ++k) {
          if (k > 0) out += " and ";
          out += RenderPredicate(g.alternatives[a][k]);
        }
      }
      out += "]";
    }
  }
  return out;
}

std::string RenderQuery(const xq::AstQuery& q) {
  std::string out;
  for (const xq::AstLet& let : q.lets) {
    out += "let $" + let.variable + " := " + RenderPath(let.value) + "\n";
  }
  for (size_t i = 0; i < q.fors.size(); ++i) {
    out += (i == 0 ? "for $" : ",\n    $") + q.fors[i].variable + " in " +
           RenderPath(q.fors[i].domain);
  }
  for (size_t i = 0; i < q.where.size(); ++i) {
    out += (i == 0 ? "\nwhere " : " and ") + RenderPath(q.where[i].lhs) +
           " " + OpSyntax(q.where[i].op) + " " + RenderPath(q.where[i].rhs);
  }
  return out + "\nreturn $" + q.return_variable;
}

class QueryGenerator {
 public:
  QueryGenerator(Rng& rng, std::vector<std::string> docs)
      : rng_(rng), docs_(std::move(docs)) {}

  // A random query; `*unsupported` is set when it holds a shape the
  // engine must reject as Unimplemented.
  xq::AstQuery Next(bool* unsupported) {
    unsupported_ = false;
    xq::AstQuery q;
    // Documents through let variables or direct doc() calls; rarely a
    // name the corpus does not hold (NotFound).
    bool use_lets = rng_.Bernoulli(0.5);
    bool missing = rng_.Bernoulli(0.03);
    if (use_lets) {
      for (size_t d = 0; d < docs_.size(); ++d) {
        xq::AstLet let;
        let.variable = "d" + std::to_string(d);
        let.value.doc_url = missing && d == 0 ? "missing.xml" : docs_[d];
        q.lets.push_back(std::move(let));
      }
    }
    std::vector<bool> value_var;  // text/attribute-valued for-variables
    const size_t nvars = 1 + rng_.Below(3);
    for (size_t i = 0; i < nvars; ++i) {
      xq::AstFor f;
      f.variable = "v" + std::to_string(i);
      std::vector<size_t> element_vars;
      for (size_t j = 0; j < i; ++j) {
        if (!value_var[j]) element_vars.push_back(j);
      }
      if (!element_vars.empty() && rng_.Bernoulli(0.4)) {
        // From an earlier (element) variable, any element axis.
        f.domain.variable =
            "v" + std::to_string(element_vars[rng_.Below(element_vars.size())]);
        f.domain.steps.push_back(Predicated(ElementStep(AnyAxis())));
      } else {
        size_t d = rng_.Below(docs_.size());
        if (use_lets) {
          f.domain.variable = "d" + std::to_string(d);
        } else {
          f.domain.doc_url = missing && d == 0 ? "missing.xml" : docs_[d];
        }
        f.domain.steps.push_back(Predicated(FirstStep()));
      }
      if (rng_.Bernoulli(0.4)) {
        f.domain.steps.push_back(Predicated(ElementStep(AnyAxis())));
      }
      bool value = rng_.Bernoulli(0.2);
      if (value) f.domain.steps.push_back({ValueStep(), {}});
      value_var.push_back(value);
      q.fors.push_back(std::move(f));
    }
    const size_t ncmp = rng_.Below(3);
    for (size_t c = 0; c < ncmp; ++c) {
      size_t l = rng_.Below(nvars), r = rng_.Below(nvars);
      if (l == r && nvars > 1) r = (l + 1) % nvars;
      xq::AstComparison cmp;
      cmp.lhs = Operand(l, value_var[l], /*need_step=*/false);
      // One variable against itself needs a step on one side, or both
      // operands lower to the same vertex.
      cmp.rhs = Operand(r, value_var[r], /*need_step=*/l == r);
      if (l == r && cmp.rhs.steps.empty()) continue;
      cmp.op = kOps[rng_.Below(6)];
      q.where.push_back(std::move(cmp));
    }
    q.return_variable = "v" + std::to_string(rng_.Below(nvars));
    *unsupported = unsupported_ && !missing;
    return q;
  }

 private:
  Axis AnyAxis() { return kElementAxes[rng_.Below(11)]; }

  std::string ElementName() {
    static const char* kNames[] = {"a", "b", "c", "d"};
    return rng_.Bernoulli(0.04) ? "e" : kNames[rng_.Below(4)];
  }

  xq::AstStep ElementStep(Axis axis) {
    xq::AstStep s;
    s.axis = axis;
    s.test = xq::AstStep::Test::kElement;
    s.name = ElementName();
    if (rng_.Bernoulli(0.01)) {
      s.test = xq::AstStep::Test::kAnyElement;
      s.name.clear();
      unsupported_ = true;
    }
    return s;
  }

  // The first step out of a document node.
  xq::AstStep FirstStep() {
    uint64_t pick = rng_.Below(10);
    if (pick < 7) return ElementStep(Axis::kDescendant);
    if (pick < 8) return ElementStep(Axis::kDescendantOrSelf);
    xq::AstStep s = ElementStep(Axis::kChild);
    if (s.test == xq::AstStep::Test::kElement && rng_.Bernoulli(0.8)) {
      s.name = "root";
    }
    return s;
  }

  // A path-final text() or attribute step; values are never stepped
  // out of, so the generated paths end here.
  xq::AstStep ValueStep() {
    xq::AstStep s;
    if (rng_.Bernoulli(0.5)) {
      s.axis = Axis::kAttribute;
      s.test = xq::AstStep::Test::kAttribute;
      s.name = rng_.Bernoulli(0.05) ? "j" : "k";
    } else {
      s.axis = rng_.Bernoulli(0.7) ? Axis::kChild : AnyAxis();
      s.test = xq::AstStep::Test::kText;
    }
    return s;
  }

  xq::AstPathExpr::PredicatedStep Predicated(xq::AstStep step) {
    xq::AstPathExpr::PredicatedStep ps{std::move(step), {}};
    if (ps.step.test == xq::AstStep::Test::kElement &&
        rng_.Bernoulli(0.3)) {
      ps.predicate_groups.push_back(Group());
      if (rng_.Bernoulli(0.2)) ps.predicate_groups.push_back(Group());
    }
    return ps;
  }

  std::vector<xq::AstStep> RelativePath() {
    std::vector<xq::AstStep> path = {ElementStep(AnyAxis())};
    if (rng_.Bernoulli(0.3)) path.push_back(ElementStep(AnyAxis()));
    if (rng_.Bernoulli(0.4)) path.push_back(ValueStep());
    return path;
  }

  void Compare(xq::AstPredicate& p) {
    p.op = kOps[rng_.Below(6)];
    p.literal = std::to_string(rng_.Below(p.path.back().test ==
                                                  xq::AstStep::Test::kAttribute
                                              ? 6
                                              : 100));
    p.literal_is_number = true;
    if (rng_.Bernoulli(0.1)) {
      // Quoted: a string under = and !=, Unimplemented under a range.
      p.literal_is_number = false;
      if (rng_.Bernoulli(0.3)) p.literal = "x";
      if (p.op != CmpOp::kEq && p.op != CmpOp::kNe) unsupported_ = true;
    }
  }

  xq::AstPredicate Predicate() {
    xq::AstPredicate p;
    p.path = RelativePath();
    if (rng_.Bernoulli(0.6)) Compare(p);
    return p;
  }

  xq::AstPredicateGroup Group() {
    xq::AstPredicateGroup g;
    if (rng_.Bernoulli(0.7)) {
      g.alternatives.push_back({Predicate()});
      if (rng_.Bernoulli(0.3)) g.alternatives[0].push_back(Predicate());
      return g;
    }
    // An `or` of comparisons on one relative path (lowerable), or on
    // purpose one of the shapes that is not.
    xq::AstPredicate first;
    first.path = RelativePath();
    Compare(first);
    xq::AstPredicate second = first;
    Compare(second);
    switch (rng_.Below(8)) {
      case 0:  // different paths
        second.path = RelativePath();
        unsupported_ |= !SamePath(first.path, second.path);
        break;
      case 1:  // an existence branch
        second.op.reset();
        unsupported_ = true;
        break;
      case 2:  // a conjunction inside a branch
        g.alternatives.push_back({first, Predicate()});
        g.alternatives.push_back({second});
        unsupported_ = true;
        return g;
      default:
        break;
    }
    g.alternatives.push_back({first});
    g.alternatives.push_back({second});
    return g;
  }

  static bool SamePath(const std::vector<xq::AstStep>& a,
                       const std::vector<xq::AstStep>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].axis != b[i].axis || a[i].test != b[i].test ||
          a[i].name != b[i].name) {
        return false;
      }
    }
    return true;
  }

  // A where operand from for-variable `v`: element variables take an
  // optional element step and value step; value variables stand alone.
  xq::AstPathExpr Operand(size_t v, bool value, bool need_step) {
    xq::AstPathExpr p;
    p.variable = "v" + std::to_string(v);
    if (value) return p;
    if (need_step || rng_.Bernoulli(0.6)) {
      p.steps.push_back({ElementStep(AnyAxis()), {}});
    }
    if (rng_.Bernoulli(0.3)) p.steps.push_back({ValueStep(), {}});
    return p;
  }

  Rng& rng_;
  std::vector<std::string> docs_;
  bool unsupported_ = false;
};

TEST(SnapshotFuzzTest, GeneratedQueriesMatchOracle) {
  const uint64_t seed = EnvU64("ROX_FUZZ_SEED", kDefaultSeed);
  const uint64_t iters = EnvU64("ROX_FUZZ_ITERS", 40);
  constexpr size_t kQueriesPerIter = 8;
  Rng rng(seed ^ 0x0c1a55e5ULL);
  ThreadPool pool(4);

  uint64_t runs = 0, nonempty = 0, unimplemented = 0, not_found = 0;
  for (uint64_t iter = 0; iter < iters; ++iter) {
    Corpus corpus;
    std::vector<std::string> docs;
    const size_t ndocs = 1 + rng.Below(2);
    for (size_t d = 0; d < ndocs; ++d) {
      docs.push_back("g" + std::to_string(d) + ".xml");
      int elems = 20 + static_cast<int>(rng.Below(30));
      ASSERT_TRUE(corpus.AddXml(RandomXml(rng, elems), docs.back()).ok());
    }
    ShardedCorpus sc(corpus, 4, &pool);
    ShardedExec ex;
    ex.shards = &sc;
    ex.pool = &pool;
    QueryGenerator gen(rng, docs);
    for (size_t qi = 0; qi < kQueriesPerIter; ++qi) {
      bool unsupported = false;
      xq::AstQuery ast = gen.Next(&unsupported);
      const std::string text = RenderQuery(ast);
      Result<std::vector<Pre>> want = OracleQuery(corpus, ast);
      if (unsupported) {
        EXPECT_EQ(want.status().code(), StatusCode::kUnimplemented)
            << text;
      }
      for (const ShardedExec* sharded : {(const ShardedExec*)nullptr,
                                         (const ShardedExec*)&ex}) {
        for (uint64_t tau : {uint64_t{5}, uint64_t{100}}) {
          RoxOptions rox;
          rox.tau = tau;
          rox.seed = seed + iter * 131 + qi;
          rox.sharded = sharded;
          Result<std::vector<Pre>> got = [&]() -> Result<std::vector<Pre>> {
            ROX_ASSIGN_OR_RETURN(xq::CompiledQuery compiled,
                                 xq::CompileXQuery(corpus, text));
            return xq::RunXQuery(corpus, compiled, rox);
          }();
          ++runs;
          if (got.ok()) {
            nonempty += !got->empty();
          } else if (got.status().code() == StatusCode::kUnimplemented) {
            ++unimplemented;
          } else if (got.status().code() == StatusCode::kNotFound) {
            ++not_found;
          }
          if (got.ok() != want.ok() || (got.ok() && *got != *want) ||
              (!got.ok() && got.status().code() != want.status().code())) {
            const std::string context =
                "generated iter=" + std::to_string(iter) + " shards=" +
                (sharded != nullptr ? "4" : "1") +
                " tau=" + std::to_string(tau) + " query=[" + text + "]";
            DumpSeed(seed, context);
            FAIL() << "oracle mismatch at " << context
                   << "\n  engine: " << Outcome(got)
                   << "\n  oracle: " << Outcome(want);
          }
        }
      }
    }
  }
  // Coverage guards: answers, rejections and unknown documents all
  // occur, and the answers are not all empty.
  EXPECT_GT(nonempty, runs / 40);
  EXPECT_GT(unimplemented, 0u);
  EXPECT_GT(not_found, 0u);
}

// --- TSan-targeted publish/read race ----------------------------------------
//
// N writer threads race M reader threads through epoch publishes. The
// readers' queries touch only documents no writer ever changes, so
// every epoch must return the identical result — any torn snapshot,
// stale cache entry or mutated pinned state shows up as a mismatch
// (and as a TSan report under -fsanitize=thread).

TEST(SnapshotRaceTest, WritersRacingReadersPreservePinnedEpochs) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kPublishesPerWriter = 6;
  constexpr int kQueriesPerReader = 12;

  Rng seed_rng(0xace0fbace);
  Corpus corpus;
  ASSERT_TRUE(corpus.AddXml(XmarkFlavorXml(seed_rng), "stable.xml").ok());
  ASSERT_TRUE(corpus.AddXml(DblpFlavorXml(seed_rng), "authors.xml").ok());

  engine::EngineOptions opts;
  opts.num_threads = 4;
  opts.rox.tau = 10;
  engine::Engine eng(std::move(corpus), opts);

  // The numeric predicate forces StringPool::NumericValue reads on the
  // read side while writers intern new strings into the same pool.
  const std::string query =
      "for $o in doc(\"stable.xml\")//open_auction[.//current/text() < 50] "
      "return $o";

  // Pin the initial epoch and record everything a mutation would show.
  std::shared_ptr<const Corpus> pinned = eng.CurrentSnapshot();
  const uint64_t pinned_epoch = pinned->epoch();
  const size_t pinned_slots = pinned->DocCount();
  const uint32_t pinned_nodes = pinned->doc(0).NodeCount();
  engine::QueryResult baseline = eng.Run(query);
  ASSERT_TRUE(baseline.ok()) << baseline.status.ToString();

  std::atomic<uint64_t> adds{0};
  std::atomic<uint64_t> removes{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w]() {
      Rng rng(0xbadc0de + w);
      std::string prev;
      for (int i = 0; i < kPublishesPerWriter; ++i) {
        // Writers use disjoint name spaces, so every publish succeeds.
        std::string name =
            "w" + std::to_string(w) + "_" + std::to_string(i) + ".xml";
        auto ids = eng.AddDocuments({{name, XmarkFlavorXml(rng)}});
        if (!ids.ok()) {
          failed.store(true);
          return;
        }
        adds.fetch_add(1);
        if (!prev.empty() && rng.Bernoulli(0.5)) {
          if (!eng.RemoveDocument(prev).ok()) {
            failed.store(true);
            return;
          }
          removes.fetch_add(1);
          prev.clear();
        } else {
          prev = std::move(name);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kQueriesPerReader; ++i) {
        engine::QueryResult res = eng.Run(query);
        if (!res.ok() || res.snapshot == nullptr ||
            res.snapshot->epoch() != res.epoch ||
            *res.items != *baseline.items) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  // The pinned snapshot was never mutated by any publish.
  EXPECT_EQ(pinned->epoch(), pinned_epoch);
  EXPECT_EQ(pinned->DocCount(), pinned_slots);
  EXPECT_EQ(pinned->doc(0).NodeCount(), pinned_nodes);
  engine::Engine ref(pinned);
  engine::QueryResult replay = ref.Run(query);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay.items, *baseline.items);

  // Epoch counters are consistent: every successful publish advanced
  // the epoch by exactly one, starting from the pinned epoch.
  engine::EngineStats stats = eng.Stats();
  const uint64_t publishes = adds.load() + removes.load();
  EXPECT_EQ(stats.publishes, publishes);
  EXPECT_EQ(stats.docs_added, adds.load());
  EXPECT_EQ(stats.docs_removed, removes.load());
  EXPECT_EQ(eng.CurrentEpoch(), pinned_epoch + publishes);
  EXPECT_EQ(stats.stale_cache_hits, 0u);
  EXPECT_EQ(stats.epoch, eng.CurrentEpoch());
}

}  // namespace
}  // namespace rox
