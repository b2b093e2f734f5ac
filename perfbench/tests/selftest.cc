// Self-tests of the benchmark's own machinery: seeded inputs, the
// response digest, and the order statistics and span folding every
// per-layer metric rests on. Build and run with
//
//   python3 perfbench/run.py --selftest
//
// Exits 0 when every check passes; prints each failed check.

#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "index/corpus.h"
#include "inputs.h"
#include "json.h"
#include "layers.h"
#include "xq/compile.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::string Concat(const std::vector<Request>& rs) {
  std::string out;
  for (const Request& r : rs) out += r.text + '\x1f' + FamilyName(r.family);
  return out;
}

std::string Concat(const std::vector<Doc>& ds) {
  std::string out;
  for (const Doc& d : ds) out += d.name + '\x1f' + d.xml;
  return out;
}

void TestSeededInputs() {
  Expect(Concat(AdhocRequests(7, 600)) == Concat(AdhocRequests(7, 600)),
         "same seed, same adhoc_join requests");
  Expect(Concat(AdhocRequests(7, 600)) != Concat(AdhocRequests(8, 600)),
         "different seed, different adhoc_join requests");
  Expect(Concat(HotSet(7)) == Concat(HotSet(7)), "same seed, same hot set");
  Expect(Concat(HotSet(7)) != Concat(HotSet(8)),
         "different seed, different hot set");
  Expect(ZipfSchedule(7, 5000, 50, 1.0) == ZipfSchedule(7, 5000, 50, 1.0),
         "same seed, same schedule");
  Expect(ZipfSchedule(7, 5000, 50, 1.0) != ZipfSchedule(8, 5000, 50, 1.0),
         "different seed, different schedule");
  Expect(Concat(IngestDocs(7, 3)) == Concat(IngestDocs(7, 3)),
         "same seed, same ingest documents");
  Expect(Concat(IngestDocs(7, 3)) != Concat(IngestDocs(8, 3)),
         "different seed, different ingest documents");
  Expect(Concat(CorpusDocs(7)) == Concat(CorpusDocs(7)),
         "same seed, same corpus");
  Expect(Concat(CorpusDocs(7)) != Concat(CorpusDocs(8)),
         "different seed, different corpus");

  // The family mix is stratified per block of 100.
  std::vector<Request> adhoc = AdhocRequests(3, 1000);
  std::vector<int> count(kNumFamilies, 0);
  for (size_t i = 0; i < 100; ++i) ++count[static_cast<size_t>(adhoc[i].family)];
  for (size_t i = 900; i < 1000; ++i) {
    --count[static_cast<size_t>(adhoc[i].family)];
  }
  bool same = true;
  for (int c : count) same = same && c == 0;
  Expect(same, "every block of 100 adhoc requests has the same family mix");

  // Zipf ranks: rank 0 is drawn most, every index is in range.
  std::vector<uint32_t> z = ZipfSchedule(1, 20000, 50, 1.0);
  std::vector<int> hist(50, 0);
  bool in_range = true;
  for (uint32_t v : z) {
    in_range = in_range && v < 50;
    if (v < 50) ++hist[v];
  }
  Expect(in_range, "Zipf indices in range");
  Expect(hist[0] > hist[1] && hist[1] > hist[10] && hist[10] > hist[49],
         "Zipf frequencies fall with rank");
}

void TestAdhocDistinctAndCompiles() {
  const uint64_t seed = 11;
  rox::Corpus corpus;
  for (const Doc& d : CorpusDocs(seed)) {
    Expect(corpus.AddXml(d.xml, d.name).ok(), "corpus doc parses: " + d.name);
  }
  std::vector<Request> adhoc = AdhocRequests(seed, 3000);
  std::unordered_set<std::string> seen;
  size_t compiled = 0;
  for (const Request& r : adhoc) {
    Expect(seen.insert(NormalizeQuery(r.text)).second,
           "distinct adhoc text: " + r.text);
    auto q = rox::xq::CompileXQuery(corpus, r.text);
    if (q.ok()) {
      ++compiled;
    } else {
      Expect(false, "compiles: " + r.text + " -> " + q.status().ToString());
    }
  }
  Expect(compiled == adhoc.size(), "every adhoc_join text compiles");
  for (const Request& r : HotSet(seed)) {
    Expect(rox::xq::CompileXQuery(corpus, r.text).ok(),
           "hot text compiles: " + r.text);
  }
}

void TestQuantiles() {
  Expect(Near(Quantile({}, 0.5), 0), "quantile of nothing is 0");
  Expect(Near(Quantile({5}, 0.99), 5), "quantile of one value");
  Expect(Near(Median({3, 1, 2}), 2), "odd median");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "even median interpolates");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  Expect(Near(Quantile(v, 0.99), 100), "p99 of 1..101");
  Expect(Near(Quantile(v, 0.9), 91), "p90 of 1..101");
  Expect(Near(Quantile({10, 20}, 0.25), 12.5), "interpolated quartile");
}

void TestSpanFolding() {
  // query(0..10) > cache_lookup(0..1), parse(1..2), compile(2..3),
  // execute(3..9) > rox(3..7) > phase1(3..4), edge(4..6);
  //                 plan_tail(7..8)
  std::vector<Span> spans = {
      {"query", -1, 0, 10},  {"cache_lookup", 0, 0, 1},
      {"parse", 0, 1, 2},    {"compile", 0, 2, 3},
      {"execute", 0, 3, 9},  {"rox", 4, 3, 7},
      {"phase1", 5, 3, 4},   {"edge", 5, 4, 6},
      {"plan_tail", 4, 7, 8},
  };
  std::vector<double> self = SelfTimes(spans);
  const double want[] = {1, 1, 1, 1, 1, 1, 1, 2, 1};
  bool ok = self.size() == 9;
  double sum = 0;
  for (size_t i = 0; ok && i < 9; ++i) {
    ok = Near(self[i], want[i]);
    sum += self[i];
  }
  Expect(ok, "self times of the hand-built tree");
  Expect(Near(sum, 10), "self times sum to the root's duration");

  TraceFold fold;
  fold.spans = spans;
  fold.edges.push_back({"hash", 2, 500});
  LayerTotals t;
  t.Add(fold);
  t.Add(fold);
  Expect(t.requests == 2, "two folded requests");
  Expect(Near(t.layer_self_ms["engine"], 4), "engine self = query + cache");
  Expect(Near(t.layer_self_ms["xq"], 6), "xq self = parse+compile+execute");
  Expect(Near(t.layer_self_ms["rox"], 4), "rox self = rox + phase1");
  Expect(Near(t.layer_self_ms["exec"], 6), "exec self = edge + plan_tail");
  Expect(Near(t.covered_ms, 20), "covered = both roots");
  Expect(Near(t.kernel_ms["hash"], 4) && Near(t.kernel_rows["hash"], 1000),
         "per-kernel sums");
  Expect(std::string(LayerOfSpan("http_write")) == "other",
         "unknown spans fold into other");

  // The engine's trace JSON shape, as FoldTrace reads it.
  const char* trace =
      R"({"level":"spans","spans":[)"
      R"({"name":"query","parent":-1,"start_ns":0,"dur_ns":4000000,"tid":"1"},)"
      R"({"name":"execute","parent":0,"start_ns":1000000,"dur_ns":2500000,"tid":"1"},)"
      R"({"name":"edge","detail":"a=b","parent":1,"start_ns":1500000,"dur_ns":1000000,"tid":"1"}],)"
      R"("edges":[{"edge":0,"span":2,"label":"a=b","kernel":"merge","est":10,"obs":40,)"
      R"("card_v1":1,"card_v2":1,"fanout_lanes":0,"lane_rows":[],"sample_calls":0,"resamples":0}],)"
      R"("total_sample_calls":0})";
  Json j;
  Expect(ParseJson(trace, &j), "trace JSON parses");
  TraceFold f2;
  Expect(FoldTrace(j, &f2), "trace folds");
  Expect(f2.spans.size() == 3 && Near(f2.spans[1].duration_ms(), 2.5),
         "span durations in ms");
  Expect(f2.edges.size() == 1 && f2.edges[0].kernel == "merge" &&
             Near(f2.edges[0].ms, 1) && Near(f2.edges[0].rows, 40),
         "edge payload joined to its span");
}

void TestResponseDigest() {
  const std::string body =
      "{\n  \"status\": {\"code\": \"OK\", \"message\": \"\"},\n"
      "  \"mode\": \"execute\",\n  \"row_count\": 3,\n"
      "  \"rows\": [\n    \"<a x=\\\"]\\\">[</a>\",\n    \"<b/>\"\n  ],\n"
      "  \"rows_truncated\": true,\n"
      "  \"stats\": {\"plan_cache_hit\": true, \"wall_ms\": 1.250},\n"
      "  \"trace\": {\"spans\": []}\n}\n";
  ResponseDigest d = DigestResponse(body);
  Expect(d.ok && d.code == "OK" && d.row_count == 3, "envelope fields");
  Expect(d.stats["plan_cache_hit"].Bool() && Near(d.stats["wall_ms"].Num(), 1.25),
         "stats object");
  Expect(d.trace == "{\"spans\": []}", "raw trace object");
  std::string other = body;
  other.replace(other.find("<b/>"), 4, "<c/>");
  Expect(DigestResponse(other).rows_digest != d.rows_digest,
         "digest sees a changed row");
  Expect(!DigestResponse("{\"rows\": [\"unterminated]}").ok,
         "malformed body is rejected");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestSeededInputs();
  perfbench::TestAdhocDistinctAndCompiles();
  perfbench::TestQuantiles();
  perfbench::TestSpanFolding();
  perfbench::TestResponseDigest();
  if (perfbench::failures > 0) {
    std::printf("%d self-test check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
