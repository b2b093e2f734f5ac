// Late materialization (DESIGN.md §8): runs XMark Q1/Qm1 and a deep
// descendant-chain query through the full ROX pipeline (selection-
// vector views, one gather at the plan tail) and reports per query the
// best total and edge-execution wall times, the gather and arena
// volume, and the peak intermediate size. Repeats of one query must
// return identical items; the process exits 1 when they do not.
//
//   $ ./bench_materialization [--xmark_scale=1.0] [--chains=120]
//        [--chain_depth=20] [--repeat=5] [--tau=100] [--seed=42]
//        [--smoke] [--json=BENCH_materialization.json]
//
// --smoke shrinks the corpus and repeat count for CI.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "index/corpus.h"
#include "rox/options.h"
#include "workload/xmark.h"
#include "xq/compile.h"

namespace rox::bench {
namespace {

struct BenchQuery {
  std::string name;
  std::string text;
};

std::vector<BenchQuery> Queries(int chain_depth) {
  std::vector<BenchQuery> out;
  out.push_back({"xmark_q1",
                 R"(let $d := doc("xmark.xml")
        for $o in $d//open_auction[.//current/text() < 145],
            $p in $d//person[.//province],
            $i in $d//item[./quantity = 1]
        where $o//bidder//personref/@person = $p/@id and
              $o//itemref/@item = $i/@id
        return $o)"});
  out.push_back({"xmark_qm1",
                 R"(let $d := doc("xmark.xml")
        for $o in $d//open_auction[.//current/text() > 145],
            $p in $d//person[.//province],
            $i in $d//item[./quantity = 1]
        where $o//bidder//personref/@person = $p/@id and
              $o//itemref/@item = $i/@id
        return $o)"});
  // Deep chain over the synthetic alternating a/b document: every //a
  // and //b step multiplies the intermediate combinations, and only
  // the final $x column survives to the plan tail — the best case for
  // dead-column elision.
  std::string chain = R"(let $d := doc("chain.xml") for $x in $d)";
  for (int i = 0; i < chain_depth / 4; ++i) chain += "//a//b";
  chain += "//t return $x";
  out.push_back({"deep_chain", std::move(chain)});
  return out;
}

// M independent chains of depth D alternating <a>/<b>, each ending in
// a single <t/> leaf.
std::string ChainDocumentXml(int chains, int depth) {
  std::string xml = "<root>";
  for (int c = 0; c < chains; ++c) {
    for (int l = 0; l < depth; ++l) xml += (l % 2 == 0) ? "<a>" : "<b>";
    xml += "<t/>";
    for (int l = depth - 1; l >= 0; --l) {
      xml += (l % 2 == 0) ? "</a>" : "</b>";
    }
  }
  xml += "</root>";
  return xml;
}

struct Run {
  double best_total_ms = 0;
  double best_exec_ms = 0;  // edge executions + final assembly
  std::vector<Pre> items;
  RoxStats stats;
};

Result<Run> RunQuery(const Corpus& corpus, const xq::CompiledQuery& compiled,
                     const RoxOptions& rox, int repeat) {
  Run out;
  for (int r = 0; r < repeat; ++r) {
    RoxStats stats;
    StopWatch watch;
    auto items = xq::RunXQuery(corpus, compiled, rox, &stats);
    double ms = watch.ElapsedMillis();
    ROX_RETURN_IF_ERROR(items.status());
    if (r == 0 || ms < out.best_total_ms) {
      out.best_total_ms = ms;
      out.best_exec_ms = stats.execution_time.TotalMillis();
      out.stats = stats;
    }
    if (r == 0) {
      out.items = std::move(*items);
    } else if (*items != out.items) {
      return Status::Internal("result items differ between repeats");
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const double xmark_scale =
      flags.GetDouble("xmark_scale", smoke ? 0.2 : 1.0);
  const int chains =
      static_cast<int>(flags.GetInt("chains", smoke ? 40 : 120));
  const int chain_depth = static_cast<int>(flags.GetInt("chain_depth", 20));
  const int repeat = static_cast<int>(flags.GetInt("repeat", smoke ? 2 : 5));
  const uint64_t tau = static_cast<uint64_t>(flags.GetInt("tau", 100));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path =
      flags.GetString("json", "BENCH_materialization.json");
  if (chain_depth < 4 || chain_depth > 64 || chain_depth % 4 != 0) {
    std::fprintf(stderr,
                 "bad value for --chain_depth: %d (want a multiple of 4 in "
                 "[4, 64])\n",
                 chain_depth);
    return 2;
  }
  if (chains < 1 || chains > 1000000) {
    std::fprintf(stderr, "bad value for --chains: %d\n", chains);
    return 2;
  }
  flags.FailOnUnused();

  Corpus corpus;
  XmarkGenOptions gen;
  gen.items = static_cast<uint32_t>(4350 * xmark_scale);
  gen.persons = static_cast<uint32_t>(5100 * xmark_scale);
  gen.open_auctions = static_cast<uint32_t>(2400 * xmark_scale);
  auto xdoc = GenerateXmarkDocument(corpus, gen);
  if (!xdoc.ok()) {
    std::fprintf(stderr, "corpus: %s\n", xdoc.status().ToString().c_str());
    return 1;
  }
  auto cdoc =
      corpus.AddXml(ChainDocumentXml(chains, chain_depth), "chain.xml");
  if (!cdoc.ok()) {
    std::fprintf(stderr, "chain doc: %s\n",
                 cdoc.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "XMark scale %.2f (%u nodes) + %d chains of depth %d (%u nodes); "
      "%d repeats\n\n",
      xmark_scale, corpus.doc(*xdoc).NodeCount(), chains, chain_depth,
      corpus.doc(*cdoc).NodeCount(), repeat);

  RoxOptions rox;
  rox.tau = tau;
  rox.seed = seed;

  struct Row {
    std::string name;
    uint64_t items = 0;
    Run run;
  };
  std::vector<Row> rows;

  std::printf("query       | ms (exec)        | gathers | MB gathered\n");
  for (const BenchQuery& q : Queries(chain_depth)) {
    auto compiled = xq::CompileXQuery(corpus, q.text);
    if (!compiled.ok()) {
      std::fprintf(stderr, "compile %s: %s\n", q.name.c_str(),
                   compiled.status().ToString().c_str());
      return 1;
    }
    auto run = RunQuery(corpus, *compiled, rox, repeat);
    if (!run.ok()) {
      std::fprintf(stderr, "%s: %s\n", q.name.c_str(),
                   run.status().ToString().c_str());
      return 1;
    }
    Row row;
    row.name = q.name;
    row.run = std::move(*run);
    row.items = row.run.items.size();
    std::printf(
        "%-11s | %8.1f (%5.1f) | %7llu | %11.2f\n", row.name.c_str(),
        row.run.best_total_ms, row.run.best_exec_ms,
        static_cast<unsigned long long>(row.run.stats.gather.gather_count),
        static_cast<double>(row.run.stats.gather.bytes_gathered) /
            (1024.0 * 1024.0));
    rows.push_back(std::move(row));
  }

  // JSON report (uploaded as a CI artifact so the perf trajectory is
  // tracked per PR).
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"materialization\",\n"
                 "  \"xmark_scale\": %.3f,\n  \"chains\": %d,\n"
                 "  \"chain_depth\": %d,\n  \"repeat\": %d,\n"
                 "  \"tau\": %llu,\n  \"seed\": %llu,\n  \"queries\": [\n",
                 xmark_scale, chains, chain_depth, repeat,
                 static_cast<unsigned long long>(tau),
                 static_cast<unsigned long long>(seed));
    // The "lazy_" keys name the view path; they keep their names so the
    // perf trend compares against earlier reports.
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"result_items\": %llu,\n"
          "     \"lazy_total_ms\": %.3f, \"lazy_exec_ms\": %.3f,\n"
          "     \"lazy_gathers\": %llu, \"lazy_bytes_gathered\": %llu,\n"
          "     \"lazy_arena_bytes\": %llu, "
          "\"peak_intermediate_rows\": %llu}%s\n",
          r.name.c_str(), static_cast<unsigned long long>(r.items),
          r.run.best_total_ms, r.run.best_exec_ms,
          static_cast<unsigned long long>(r.run.stats.gather.gather_count),
          static_cast<unsigned long long>(
              r.run.stats.gather.bytes_gathered),
          static_cast<unsigned long long>(r.run.stats.arena_bytes),
          static_cast<unsigned long long>(
              r.run.stats.peak_intermediate_rows),
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rox::bench

int main(int argc, char** argv) { return rox::bench::Main(argc, argv); }
