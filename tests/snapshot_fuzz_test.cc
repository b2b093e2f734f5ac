// Randomized differential harness for the epoch-versioned live corpus
// (DESIGN.md §10), plus the TSan-targeted publish/read race test.
//
// The differential suite interleaves AddDocuments/RemoveDocument with
// concurrent RunBatch over generated XMark-/DBLP-flavored queries;
// every result must byte-match a fresh single-epoch Engine built from
// that query's pinned snapshot. The reference engine deliberately runs
// the *other* materialization mode, a single shard, no cache, and a
// different optimizer seed, so one comparison covers live-vs-fresh,
// lazy-vs-eager, sharded-vs-unsharded and seed independence at once.
//
// Environment knobs (the CI sanitizer legs raise the iteration count):
//   ROX_FUZZ_ITERS      iterations per configuration (default 40)
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
//                       a differential check that tracing never
//                       perturbs results.

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
#include "engine/engine.h"
#include "index/corpus.h"
#include "obs/trace.h"

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

struct FuzzConfig {
  size_t shards;
  bool lazy;
};

std::string Describe(const FuzzConfig& cfg, uint64_t iter,
                     const std::string& query) {
  return "shards=" + std::to_string(cfg.shards) +
         " lazy=" + std::to_string(cfg.lazy) +
         " iter=" + std::to_string(iter) + " query=[" + query + "]";
}

void RunDifferentialFuzz(const FuzzConfig& cfg) {
  const uint64_t seed = EnvU64("ROX_FUZZ_SEED", kDefaultSeed);
  const uint64_t iters = EnvU64("ROX_FUZZ_ITERS", 40);
  Rng rng(seed ^ (cfg.shards * 0x9e3779b97f4a7c15ULL) ^
          (cfg.lazy ? 0x1337 : 0));

  engine::EngineOptions live_opts;
  live_opts.num_threads = 4;
  live_opts.num_shards = cfg.shards;
  live_opts.lazy_materialization = cfg.lazy;
  live_opts.rox.tau = 20;
  live_opts.rox.seed = seed;
  // Record spans on every live query: any mismatch dumps the trace,
  // and running traced against an untraced reference differentially
  // proves tracing changes no results.
  live_opts.trace_level = obs::TraceLevel::kSpans;

  // The reference runs everything the live engine does NOT: other
  // materialization mode, one shard, no cache, fresh seed.
  engine::EngineOptions ref_opts;
  ref_opts.num_threads = 1;
  ref_opts.num_shards = 1;
  ref_opts.enable_cache = false;
  ref_opts.lazy_materialization = !cfg.lazy;
  ref_opts.rox.lazy_materialization = !cfg.lazy;
  ref_opts.rox.tau = 20;

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
  uint64_t error_results = 0;

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

    // Differential check: a fresh single-epoch engine per distinct
    // pinned snapshot must reproduce each result byte-identically.
    std::map<uint64_t, std::unique_ptr<engine::Engine>> refs;
    for (size_t i = 0; i < results.size(); ++i) {
      const engine::QueryResult& r = results[i];
      ASSERT_NE(r.snapshot, nullptr);
      ASSERT_EQ(r.snapshot->epoch(), r.epoch);
      std::unique_ptr<engine::Engine>& ref = refs[r.epoch];
      if (ref == nullptr) {
        engine::EngineOptions opts = ref_opts;
        opts.rox.seed = seed * 7919 + iter * 131 + r.epoch;
        ref = std::make_unique<engine::Engine>(r.snapshot, opts);
      }
      if (r.ok()) {
        ++ok_results;
        if (!r.items->empty()) ++nonempty_results;
      } else {
        ++error_results;
      }
      engine::QueryResult rr = ref->Run(queries[i]);
      if (r.ok() != rr.ok() ||
          (r.ok() && *r.items != *rr.items) ||
          (!r.ok() && r.status.code() != rr.status.code())) {
        DumpSeed(seed, Describe(cfg, iter, queries[i]));
        DumpTrace(r, Describe(cfg, iter, queries[i]));
        FAIL() << "differential mismatch at " << Describe(cfg, iter, queries[i])
               << "\n  live: "
               << (r.ok() ? std::to_string(r.items->size()) + " items"
                          : r.status.ToString())
               << " (epoch " << r.epoch << ")\n  ref:  "
               << (rr.ok() ? std::to_string(rr.items->size()) + " items"
                           : rr.status.ToString());
      }
    }
  }

  EXPECT_GT(ok_results, iters);        // most queries compile and run
  EXPECT_GT(nonempty_results, iters / 4);  // and plenty return items
  (void)error_results;  // stale-name NotFounds are expected, any count

  engine::EngineStats stats = live.Stats();
  EXPECT_EQ(stats.stale_cache_hits, 0u);
  EXPECT_EQ(stats.publishes, expected_publishes);
  EXPECT_EQ(stats.docs_added, expected_added);
  EXPECT_EQ(stats.docs_removed, expected_removed);
  EXPECT_EQ(live.CurrentEpoch(), expected_publishes);
}

TEST(SnapshotFuzzTest, DifferentialShards1LazyOn) {
  RunDifferentialFuzz({.shards = 1, .lazy = true});
}

TEST(SnapshotFuzzTest, DifferentialShards1LazyOff) {
  RunDifferentialFuzz({.shards = 1, .lazy = false});
}

TEST(SnapshotFuzzTest, DifferentialShards4LazyOn) {
  RunDifferentialFuzz({.shards = 4, .lazy = true});
}

TEST(SnapshotFuzzTest, DifferentialShards4LazyOff) {
  RunDifferentialFuzz({.shards = 4, .lazy = false});
}

// --- governed differential fuzz (DESIGN.md §13) ------------------------------
//
// The same live-corpus setting with query limits thrown in: every query
// randomly draws a tight deadline, a tiny memory budget, both, or
// neither, while this thread publishes new documents underneath the
// batch and occasionally fires KillAll. The properties under test:
//
//   1. A governed query that completes OK is byte-identical to an
//      ungoverned reference run against its pinned snapshot — limits
//      that don't trip must be invisible.
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

  engine::EngineOptions ref_opts;
  ref_opts.num_threads = 1;
  ref_opts.enable_cache = false;
  ref_opts.rox.tau = 20;

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
        engine::EngineOptions opts = ref_opts;
        opts.rox.seed = seed * 7919 + iter * 131 + i;
        engine::Engine ref(r.snapshot, opts);
        engine::QueryResult rr = ref.Run(queries[i]);
        if (!rr.ok() || *r.items != *rr.items) {
          DumpSeed(seed, context);
          FAIL() << "governed OK result diverges from oracle at " << context;
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
