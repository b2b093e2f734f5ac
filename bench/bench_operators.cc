// Table 1 — micro-benchmarks of the physical operator inventory.
//
// Validates the cost claims of the paper's Table 1 on the engine's
// operators: staircase joins are linear in context/result, value index
// lookups are O(log + result), hash join pays |C|+|S|+|R|, and cut-off
// sampled execution is bounded by the sample size (the zero-investment
// property: doubling the document must not slow a fixed-size sampled
// probe).

#include <benchmark/benchmark.h>

#include "exec/structural_join.h"
#include "exec/value_join.h"
#include "index/corpus.h"
#include "workload/xmark.h"

namespace {

using namespace rox;

// Corpus cache keyed by auction count so setup isn't re-paid per run.
const Corpus& XmarkCorpus(int auctions) {
  static std::map<int, Corpus>* cache = new std::map<int, Corpus>();
  auto it = cache->find(auctions);
  if (it == cache->end()) {
    Corpus corpus;
    XmarkGenOptions opt;
    opt.open_auctions = auctions;
    opt.items = auctions;
    opt.persons = auctions;
    auto doc = GenerateXmarkDocument(corpus, opt);
    if (!doc.ok()) std::abort();
    it = cache->emplace(auctions, std::move(corpus)).first;
  }
  return it->second;
}

std::vector<Pre> Elems(const Corpus& c, const char* name) {
  auto span = c.element_index(0).Lookup(c.string_pool().Find(name));
  return std::vector<Pre>(span.begin(), span.end());
}

void BM_StaircaseChild(benchmark::State& state) {
  const Corpus& c = XmarkCorpus(static_cast<int>(state.range(0)));
  std::vector<Pre> ctx = Elems(c, "open_auction");
  StepSpec spec = StepSpec::Child(c.string_pool().Find("bidder"));
  for (auto _ : state) {
    auto r = StructuralJoinPairs(c.doc(0), ctx, spec);
    benchmark::DoNotOptimize(r.size());
  }
  state.SetItemsProcessed(state.iterations() * ctx.size());
}
BENCHMARK(BM_StaircaseChild)->Arg(1000)->Arg(4000)->Arg(16000);

// The batched kernels of DESIGN.md §14 report items/sec (context
// rows/sec), so a per-kernel speedup or regression is tracked directly.
void BM_StaircaseDescendantIndexed(benchmark::State& state) {
  const Corpus& c = XmarkCorpus(static_cast<int>(state.range(0)));
  std::vector<Pre> ctx = Elems(c, "open_auction");
  StepSpec spec = StepSpec::Descendant(c.string_pool().Find("personref"));
  const ElementIndex& idx = c.element_index(0);
  for (auto _ : state) {
    auto r = StructuralJoinPairs(c.doc(0), ctx, spec, kNoLimit, &idx);
    benchmark::DoNotOptimize(r.size());
  }
  state.SetItemsProcessed(state.iterations() * ctx.size());
}
BENCHMARK(BM_StaircaseDescendantIndexed)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_StaircaseDescendantScan(benchmark::State& state) {
  const Corpus& c = XmarkCorpus(static_cast<int>(state.range(0)));
  std::vector<Pre> ctx = Elems(c, "open_auction");
  StepSpec spec = StepSpec::Descendant(c.string_pool().Find("personref"));
  for (auto _ : state) {
    auto r = StructuralJoinPairs(c.doc(0), ctx, spec);
    benchmark::DoNotOptimize(r.size());
  }
  state.SetItemsProcessed(state.iterations() * ctx.size());
}
BENCHMARK(BM_StaircaseDescendantScan)->Arg(1000)->Arg(4000);

void BM_StaircaseAncestor(benchmark::State& state) {
  const Corpus& c = XmarkCorpus(static_cast<int>(state.range(0)));
  std::vector<Pre> ctx = Elems(c, "personref");
  StepSpec spec;
  spec.axis = Axis::kAncestor;
  spec.kind = KindTest::kElem;
  spec.name = c.string_pool().Find("open_auction");
  for (auto _ : state) {
    auto r = StructuralJoinPairs(c.doc(0), ctx, spec);
    benchmark::DoNotOptimize(r.size());
  }
  state.SetItemsProcessed(state.iterations() * ctx.size());
}
BENCHMARK(BM_StaircaseAncestor)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_ValueIndexNlJoin(benchmark::State& state) {
  const Corpus& c = XmarkCorpus(static_cast<int>(state.range(0)));
  // @person attributes probed against @id via the value index.
  auto probe_span =
      c.element_index(0).LookupAttr(c.string_pool().Find("person"));
  std::vector<Pre> probe(probe_span.begin(), probe_span.end());
  ValueProbeSpec spec = ValueProbeSpec::Attr(c.string_pool().Find("id"));
  for (auto _ : state) {
    auto r = ValueIndexJoinPairs(c.doc(0), probe, c.doc(0), c.value_index(0),
                                 spec);
    benchmark::DoNotOptimize(r.size());
  }
  state.SetItemsProcessed(state.iterations() * probe.size());
}
BENCHMARK(BM_ValueIndexNlJoin)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_HashValueJoin(benchmark::State& state) {
  const Corpus& c = XmarkCorpus(static_cast<int>(state.range(0)));
  auto probe_span =
      c.element_index(0).LookupAttr(c.string_pool().Find("person"));
  std::vector<Pre> probe(probe_span.begin(), probe_span.end());
  auto id_span = c.element_index(0).LookupAttr(c.string_pool().Find("id"));
  std::vector<Pre> inner(id_span.begin(), id_span.end());
  for (auto _ : state) {
    auto r = HashValueJoinPairs(c.doc(0), probe, c.doc(0), inner);
    benchmark::DoNotOptimize(r.size());
  }
  state.SetItemsProcessed(state.iterations() * probe.size());
}
BENCHMARK(BM_HashValueJoin)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_MergeValueJoin(benchmark::State& state) {
  const Corpus& c = XmarkCorpus(static_cast<int>(state.range(0)));
  auto probe_span =
      c.element_index(0).LookupAttr(c.string_pool().Find("person"));
  std::vector<Pre> probe(probe_span.begin(), probe_span.end());
  auto id_span = c.element_index(0).LookupAttr(c.string_pool().Find("id"));
  std::vector<Pre> inner(id_span.begin(), id_span.end());
  auto ps = SortByValueId(c.doc(0), probe);
  auto is = SortByValueId(c.doc(0), inner);
  for (auto _ : state) {
    auto r = MergeValueJoinPairs(c.doc(0), ps, c.doc(0), is);
    benchmark::DoNotOptimize(r.size());
  }
  state.SetItemsProcessed(state.iterations() * probe.size());
}
BENCHMARK(BM_MergeValueJoin)->Arg(1000)->Arg(4000)->Arg(16000);

// Range theta join: numeric <increase> probes against the sorted
// <quantity> run (values are small integers, so the match set per row
// is a large contiguous suffix — the bulk-append case).
void BM_SortThetaJoin(benchmark::State& state) {
  const Corpus& c = XmarkCorpus(static_cast<int>(state.range(0)));
  std::vector<Pre> probe = Elems(c, "increase");
  std::vector<Pre> inner = Elems(c, "quantity");
  for (auto _ : state) {
    auto r = SortThetaJoinPairs(c.doc(0), probe, c.doc(0), inner, CmpOp::kGe);
    benchmark::DoNotOptimize(r.size());
  }
  state.SetItemsProcessed(state.iterations() * probe.size());
}
BENCHMARK(BM_SortThetaJoin)->Arg(1000);

// Zero-investment check: a τ-limited sampled probe must cost the same
// on a 1k-auction and a 16k-auction document (its cost depends on the
// sampled input only). Compare the two Arg timings in the report.
void BM_CutoffSampledStep(benchmark::State& state) {
  const Corpus& c = XmarkCorpus(static_cast<int>(state.range(0)));
  std::vector<Pre> ctx = Elems(c, "open_auction");
  ctx.resize(std::min<size_t>(ctx.size(), 100));  // the τ-sample
  StepSpec spec = StepSpec::Descendant(c.string_pool().Find("bidder"));
  const ElementIndex& idx = c.element_index(0);
  for (auto _ : state) {
    auto r = StructuralJoinPairs(c.doc(0), ctx, spec, /*limit=*/100, &idx);
    benchmark::DoNotOptimize(r.size());
  }
  // items/sec here is sampled context tuples/sec: the per-kernel rate
  // the perf-trend job tracks for every operator bench (it must stay
  // flat across the two Arg sizes — that is the zero-investment claim).
  state.SetItemsProcessed(state.iterations() * ctx.size());
}
BENCHMARK(BM_CutoffSampledStep)->Arg(1000)->Arg(16000);

}  // namespace

BENCHMARK_MAIN();
