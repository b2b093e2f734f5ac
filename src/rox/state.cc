#include "rox/state.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "exec/value_join.h"

namespace rox {

RoxState::RoxState(CorpusSnapshot snapshot, const JoinGraph& graph,
                   const RoxOptions& options)
    : snapshot_(std::move(snapshot)),
      corpus_(*snapshot_),
      graph_(graph),
      options_(options),
      rng_(options.seed),
      vertices_(graph.VertexCount()),
      edges_(graph.EdgeCount()) {
  // Arena reservations (lazy views, assembly intermediates) count
  // against the query's budget; the latch surfaces at the next token
  // checkpoint (DESIGN.md §13).
  arena_.set_budget(options_.budget);
}

// --- index access -----------------------------------------------------------

namespace {

// One vertex's index lookup against a given pair of indexes (the full
// per-document ones, or one shard's).
Result<std::vector<Pre>> LookupVertex(const Vertex& vx, const Document& doc,
                                      const ElementIndex& eidx,
                                      const ValueIndex& vidx) {
  switch (vx.type) {
    case VertexType::kRoot:
      return std::vector<Pre>{0};
    case VertexType::kElement: {
      auto span = eidx.Lookup(vx.name);
      return std::vector<Pre>(span.begin(), span.end());
    }
    case VertexType::kText:
      switch (vx.pred.kind) {
        case ValuePredicate::Kind::kEquals: {
          auto span = vidx.TextLookup(vx.pred.equals);
          return std::vector<Pre>(span.begin(), span.end());
        }
        case ValuePredicate::Kind::kRange:
          return vidx.TextRangeLookup(vx.pred.range);
        case ValuePredicate::Kind::kNotEquals:
        case ValuePredicate::Kind::kAnyOf:
          // Scan the index's document-ordered all-text list; disjuncts
          // and negations do not map onto a single hash/range lookup.
          return FilterByPredicate(doc, vidx.AllTextNodes(), vx.pred);
        case ValuePredicate::Kind::kNone:
          return Status::FailedPrecondition(
              "unrestricted text vertex is not index-selectable");
      }
      break;
    case VertexType::kAttribute: {
      auto span = eidx.LookupAttr(vx.name);
      if (vx.pred.kind == ValuePredicate::Kind::kNone) {
        return std::vector<Pre>(span.begin(), span.end());
      }
      return FilterByPredicate(doc, span, vx.pred);
    }
  }
  return Status::Internal("unhandled vertex type in IndexLookup");
}

}  // namespace

Result<std::vector<Pre>> RoxState::IndexLookup(VertexId v) const {
  const Vertex& vx = graph_.vertex(v);
  const Document& doc = corpus_.doc(vx.doc);
  const ShardedExec* ex = Sharded();
  if (ex == nullptr || vx.type == VertexType::kRoot) {
    return LookupVertex(vx, doc, corpus_.element_index(vx.doc),
                        corpus_.value_index(vx.doc));
  }
  // Per-shard lookups concatenate to exactly the full lookup: shard
  // ranges are contiguous and each per-shard list is sorted.
  const ShardedCorpus& sc = *ex->shards;
  size_t k = sc.num_shards();
  std::vector<std::vector<Pre>> parts(k);
  std::vector<Status> statuses(k, Status::Ok());
  ParallelFor(ex->pool, k, [&](size_t s) {
    auto part = LookupVertex(vx, doc, sc.element_index(vx.doc, s),
                             sc.value_index(vx.doc, s));
    if (part.ok()) {
      parts[s] = std::move(*part);
    } else {
      statuses[s] = part.status();
    }
  });
  std::vector<Pre> out;
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out.reserve(total);
  for (size_t s = 0; s < k; ++s) {
    ROX_RETURN_IF_ERROR(statuses[s]);
    out.insert(out.end(), parts[s].begin(), parts[s].end());
  }
  return out;
}

const ElementIndex& RoxState::SamplingElementIndex(DocId doc) const {
  const ShardedExec* ex = Sharded();
  if (ex == nullptr || ex->sample_shard < 0 ||
      static_cast<size_t>(ex->sample_shard) >= ex->shards->num_shards()) {
    return corpus_.element_index(doc);
  }
  return ex->shards->element_index(doc,
                                   static_cast<size_t>(ex->sample_shard));
}

const ValueIndex& RoxState::SamplingValueIndex(DocId doc) const {
  const ShardedExec* ex = Sharded();
  if (ex == nullptr || ex->sample_shard < 0 ||
      static_cast<size_t>(ex->sample_shard) >= ex->shards->num_shards()) {
    return corpus_.value_index(doc);
  }
  return ex->shards->value_index(doc, static_cast<size_t>(ex->sample_shard));
}

double RoxState::IndexCount(VertexId v) const {
  const Vertex& vx = graph_.vertex(v);
  const ElementIndex& eidx = corpus_.element_index(vx.doc);
  const ValueIndex& vidx = corpus_.value_index(vx.doc);
  switch (vx.type) {
    case VertexType::kRoot:
      return 1.0;
    case VertexType::kElement:
      return static_cast<double>(eidx.Count(vx.name));
    case VertexType::kText:
      switch (vx.pred.kind) {
        case ValuePredicate::Kind::kEquals:
          return static_cast<double>(vidx.TextLookup(vx.pred.equals).size());
        case ValuePredicate::Kind::kNotEquals:
          return static_cast<double>(vidx.text_node_count() -
                                     vidx.TextLookup(vx.pred.equals).size());
        case ValuePredicate::Kind::kRange:
          return static_cast<double>(vidx.TextRangeCount(vx.pred.range));
        case ValuePredicate::Kind::kAnyOf: {
          auto r = IndexLookup(v);
          return r.ok() ? static_cast<double>(r.value().size()) : -1.0;
        }
        case ValuePredicate::Kind::kNone:
          return static_cast<double>(vidx.text_node_count());
      }
      break;
    case VertexType::kAttribute: {
      if (vx.pred.kind == ValuePredicate::Kind::kNone) {
        return static_cast<double>(eidx.CountAttr(vx.name));
      }
      auto r = IndexLookup(v);
      return r.ok() ? static_cast<double>(r.value().size()) : -1.0;
    }
  }
  return -1.0;
}

Status RoxState::EnsureTable(VertexId v) {
  VertexState& vs = vertices_[v];
  if (vs.table.has_value()) return Status::Ok();
  if (options_.cancel != nullptr) {
    ROX_RETURN_IF_ERROR(options_.cancel->Check());
  }
  const Vertex& vx = graph_.vertex(v);
  if (!vx.IndexSelectable()) {
    return Status::FailedPrecondition(
        StrCat("vertex ", v, " (", vx.label, ") is not index-selectable"));
  }
  ROX_ASSIGN_OR_RETURN(std::vector<Pre> nodes, IndexLookup(v));
  // Approximate execution (§6): materialize only a uniform fraction of
  // the lookup. Samples stay uniform because SampleWithoutReplacement
  // returns sorted positions (document order preserved).
  if (options_.approximate_fraction > 0 && options_.approximate_fraction < 1) {
    uint64_t k = std::max<uint64_t>(
        options_.tau, static_cast<uint64_t>(
                          nodes.size() * options_.approximate_fraction));
    if (k < nodes.size()) {
      std::vector<uint64_t> keep =
          rng_.SampleWithoutReplacement(nodes.size(), k);
      std::vector<Pre> sampled;
      sampled.reserve(keep.size());
      for (uint64_t i : keep) sampled.push_back(nodes[i]);
      nodes = std::move(sampled);
    }
  }
  vs.card = static_cast<double>(nodes.size());
  vs.table = std::move(nodes);
  std::vector<uint64_t> idx =
      rng_.SampleWithoutReplacement(vs.table->size(), options_.tau);
  vs.sample.clear();
  for (uint64_t i : idx) vs.sample.push_back((*vs.table)[i]);
  return Status::Ok();
}

// --- phase 1 ----------------------------------------------------------------

void RoxState::InitializeSamplesAndWeights() {
  obs::ScopedSpan span(options_.query_trace, "phase1");
  ScopedTimer timer(stats_.sampling_time);
  for (VertexId v = 0; v < graph_.VertexCount(); ++v) {
    // Phase 1 returns void, so a governance trip just stops the loops
    // early; RoxOptimizer::Prepare re-checks the token right after and
    // reports the trip before any weight is trusted.
    if (StopRequested(options_.cancel)) return;
    const Vertex& vx = graph_.vertex(v);
    if (!vx.IndexSelectable()) continue;
    VertexState& vs = vertices_[v];
    // Sample draws go to the designated sample shard (the full indexes
    // by default); cardinalities always come from the full indexes so
    // the w(e) extrapolation card(v) * |sample result| / |S(v)| stays
    // exact. When a contiguous sample shard holds no node of a kind
    // that clusters elsewhere in the document, fall back to a full-
    // index draw rather than leaving the vertex unsampled.
    const ElementIndex& seidx = SamplingElementIndex(vx.doc);
    const ValueIndex& svidx = SamplingValueIndex(vx.doc);
    const ElementIndex& eidx = corpus_.element_index(vx.doc);
    const ValueIndex& vidx = corpus_.value_index(vx.doc);
    switch (vx.type) {
      case VertexType::kRoot:
        vs.sample = {0};
        vs.card = 1.0;
        break;
      case VertexType::kElement:
        vs.sample = seidx.Sample(vx.name, options_.tau, rng_);
        vs.card = static_cast<double>(eidx.Count(vx.name));
        if (vs.sample.empty() && vs.card > 0) {
          vs.sample = eidx.Sample(vx.name, options_.tau, rng_);
        }
        break;
      case VertexType::kText:
        if (vx.pred.kind == ValuePredicate::Kind::kEquals) {
          vs.sample = svidx.SampleText(vx.pred.equals, options_.tau, rng_);
          vs.card =
              static_cast<double>(vidx.TextLookup(vx.pred.equals).size());
          if (vs.sample.empty() && vs.card > 0) {
            vs.sample = vidx.SampleText(vx.pred.equals, options_.tau, rng_);
          }
        } else {
          // Range-/inequality-/disjunction-restricted text vertex: the
          // index materializes the lookup anyway; keep it as T(v). A
          // failure here is a governance trip (EnsureTable checks the
          // token): stop sampling, Prepare reports it.
          if (!EnsureTable(v).ok()) return;
        }
        break;
      case VertexType::kAttribute:
        if (vx.pred.kind == ValuePredicate::Kind::kNone) {
          vs.sample = seidx.SampleAttr(vx.name, options_.tau, rng_);
          vs.card = static_cast<double>(eidx.CountAttr(vx.name));
          if (vs.sample.empty() && vs.card > 0) {
            vs.sample = eidx.SampleAttr(vx.name, options_.tau, rng_);
          }
        } else {
          if (!EnsureTable(v).ok()) return;
        }
        break;
    }
  }
  const std::vector<double>* warm =
      options_.use_warm_start ? options_.warm_edge_weights : nullptr;
  if (warm != nullptr && warm->size() != graph_.EdgeCount()) warm = nullptr;
  for (EdgeId e = 0; e < graph_.EdgeCount(); ++e) {
    if (StopRequested(options_.cancel)) return;
    // Adopt a cached weight only where a cold Phase 1 would have
    // estimated one: edges with at least one index-selectable (sampled)
    // endpoint. Interior edges carry *final* weights from the prior run
    // — post-reduction cardinalities so small that MinWeightEdge would
    // schedule them before either endpoint can be materialized.
    const Edge& edge = graph_.edge(e);
    bool phase1_weightable = graph_.vertex(edge.v1).IndexSelectable() ||
                             graph_.vertex(edge.v2).IndexSelectable();
    if (warm != nullptr && (*warm)[e] >= 0 && phase1_weightable) {
      edges_[e].weight = (*warm)[e];
      ++stats_.warm_started_weights;
    } else {
      edges_[e].weight = EstimateCardinalityLocked(e);
    }
  }
  if (span.armed()) {
    span.AttrNum("edges", static_cast<double>(graph_.EdgeCount()));
    span.AttrNum("warm_weights",
                 static_cast<double>(stats_.warm_started_weights));
    span.AttrNum("sampled_tuples", static_cast<double>(stats_.sampled_tuples));
  }
}

// --- sampled execution --------------------------------------------------------

StepSpec RoxState::StepSpecFrom(EdgeId e, VertexId from) const {
  const Edge& edge = graph_.edge(e);
  ROX_DCHECK(edge.type == EdgeType::kStep);
  VertexId target = edge.Other(from);
  Axis axis = (from == edge.v1) ? edge.axis : ReverseAxis(edge.axis);
  const Vertex& tx = graph_.vertex(target);
  StepSpec spec;
  spec.axis = axis;
  switch (tx.type) {
    case VertexType::kRoot:
      spec.kind = KindTest::kDoc;
      break;
    case VertexType::kElement:
      spec.kind = KindTest::kElem;
      spec.name = tx.name;
      break;
    case VertexType::kText:
      spec.kind = KindTest::kText;
      break;
    case VertexType::kAttribute:
      spec.kind = KindTest::kAttr;
      spec.name = tx.name;
      // Traversing toward an attribute is the attribute axis when the
      // stored axis was child-like.
      if (axis == Axis::kChild) spec.axis = Axis::kAttribute;
      break;
  }
  return spec;
}

bool RoxState::NodeSatisfiesVertex(VertexId v, Pre node) const {
  const Vertex& vx = graph_.vertex(v);
  const Document& doc = corpus_.doc(vx.doc);
  switch (vx.type) {
    case VertexType::kRoot:
      return node == 0;
    case VertexType::kElement:
      return doc.Kind(node) == NodeKind::kElem && doc.Name(node) == vx.name;
    case VertexType::kText:
      if (doc.Kind(node) != NodeKind::kText) return false;
      break;
    case VertexType::kAttribute:
      if (doc.Kind(node) != NodeKind::kAttr || doc.Name(node) != vx.name) {
        return false;
      }
      break;
  }
  return vx.pred.Matches(doc, node);
}

void RoxState::FilterPairsForVertex(VertexId v, JoinPairs& pairs) const {
  const VertexState& vs = vertices_[v];
  const Vertex& vx = graph_.vertex(v);
  bool check_pred = vx.pred.kind != ValuePredicate::Kind::kNone;
  bool check_table = vs.table.has_value();
  if (!check_pred && !check_table) return;
  size_t w = 0;
  for (size_t i = 0; i < pairs.right_nodes.size(); ++i) {
    Pre s = pairs.right_nodes[i];
    if (check_pred && !NodeSatisfiesVertex(v, s)) continue;
    if (check_table &&
        !std::binary_search(vs.table->begin(), vs.table->end(), s)) {
      continue;
    }
    pairs.right_nodes[w] = s;
    pairs.left_rows[w] = pairs.left_rows[i];
    ++w;
  }
  pairs.right_nodes.resize(w);
  pairs.left_rows.resize(w);
}

EdgeSample RoxState::SampleEdgeFrom(EdgeId e, VertexId from,
                                    std::span<const Pre> input,
                                    uint64_t limit) {
  if (options_.query_trace != nullptr &&
      options_.query_trace->full_enabled()) {
    // Cut-off sampled execution: counted, never spanned — Phase 1 and
    // chain sampling issue thousands of these per query.
    options_.query_trace->CountSampleCall(e);
  }
  const Edge& edge = graph_.edge(e);
  VertexId target = edge.Other(from);
  const Vertex& tx = graph_.vertex(target);
  const Document& target_doc = corpus_.doc(tx.doc);
  // The sampled-execution loops (Phase 1, chain sampling, re-weighing)
  // call this thousands of times per query; the Into kernels refill one
  // state-owned scratch buffer instead of allocating per probe.
  JoinPairs& pairs = sample_scratch_;
  if (edge.type == EdgeType::kStep) {
    const ElementIndex* idx = options_.use_index_acceleration
                                  ? &corpus_.element_index(tx.doc)
                                  : nullptr;
    StructuralJoinPairsInto(target_doc, input, StepSpecFrom(e, from), limit,
                            idx, pairs, options_.cancel);
  } else {
    const Vertex& fx = graph_.vertex(from);
    const Document& from_doc = corpus_.doc(fx.doc);
    ValueProbeSpec spec = tx.type == VertexType::kAttribute
                              ? ValueProbeSpec::Attr(tx.name)
                              : ValueProbeSpec::Text();
    CmpOp cmp = edge.CmpFrom(from);
    if (cmp == CmpOp::kEq) {
      ValueIndexJoinPairsInto(from_doc, input, target_doc,
                              corpus_.value_index(tx.doc), spec, limit,
                              pairs, options_.cancel);
    } else {
      // Theta edges sample through the index's sorted runs — still
      // zero-investment w.r.t. the input side (DESIGN.md §11).
      ValueIndexThetaJoinPairsInto(from_doc, input, target_doc,
                                   corpus_.value_index(tx.doc), spec, cmp,
                                   limit, pairs, options_.cancel);
    }
  }
  FilterPairsForVertex(target, pairs);
  EdgeSample out;
  out.est = pairs.EstimateFullCardinality(input.size());
  out.out_nodes.assign(pairs.right_nodes.begin(), pairs.right_nodes.end());
  stats_.sampled_tuples += out.out_nodes.size();
  return out;
}

double RoxState::EstimateCardinality(EdgeId e) {
  ScopedTimer timer(stats_.sampling_time);
  return EstimateCardinalityLocked(e);
}

double RoxState::EstimateCardinalityLocked(EdgeId e) {
  const Edge& edge = graph_.edge(e);
  // Prefer the endpoint with the smaller cardinality among those that
  // have a sample (§3: "We choose to use the smallest vertex as input
  // for sampling").
  VertexId from = kInvalidVertexId;
  double best_card = -1.0;
  for (VertexId v : {edge.v1, edge.v2}) {
    const VertexState& vs = vertices_[v];
    if (vs.card < 0) continue;  // never sampled
    if (from == kInvalidVertexId || vs.card < best_card) {
      from = v;
      best_card = vs.card;
    }
  }
  if (from == kInvalidVertexId) return -1.0;
  const VertexState& vs = vertices_[from];
  if (vs.card == 0 || vs.sample.empty()) return 0.0;
  EdgeSample s = SampleEdgeFrom(e, from, vs.sample, options_.tau);
  return s.est * vs.card / static_cast<double>(vs.sample.size());
}

// --- full execution -----------------------------------------------------------

Status RoxState::ExecuteEdge(EdgeId e) {
  ROX_CHECK(!edges_[e].executed);
  obs::QueryTrace* qt = options_.query_trace;
  obs::EdgeTrace* et = nullptr;
  if (qt != nullptr && qt->spans_enabled()) {
    et = qt->BeginEdge(e, graph_.EdgeLabel(e));
    // w(e) as last sampled before the decision to execute — the
    // "estimated cardinality" half of the drift payload.
    et->estimated = edges_[e].weight;
    stats_.sharded.ResetLastFanout();
  }
  last_kernel_ = "";
  Status executed = Status::Ok();
  {
    ScopedTimer timer(stats_.execution_time);
    executed = ExecuteEdgeInternal(e);
  }
  if (!executed.ok()) {
    if (et != nullptr) qt->EndEdge();
    return executed;
  }
  edges_[e].executed = true;
  ++stats_.edges_executed;
  stats_.execution_order.push_back(e);
  if (et != nullptr) {
    et->kernel = last_kernel_;
    et->observed = static_cast<double>(edges_[e].ResultRows());
    et->fanout_lanes = stats_.sharded.last_lanes;
    et->lane_rows = stats_.sharded.last_lane_rows;
  }
  UpdateAfterExecution(e);
  if (et != nullptr) {
    const Edge& edge = graph_.edge(e);
    et->card_v1 = vertices_[edge.v1].card;
    et->card_v2 = vertices_[edge.v2].card;
    qt->EndEdge();
  }
  return Status::Ok();
}

Status RoxState::ExecuteEdgeInternal(EdgeId e) {
  const Edge& edge = graph_.edge(e);
  VertexId v1 = edge.v1, v2 = edge.v2;
  if (options_.cancel != nullptr) {
    ROX_RETURN_IF_ERROR(options_.cancel->Check());
  }

  // An equi-join already implied by executed equi-joins (transitivity
  // within the equivalence class) contributes no new constraint. Theta
  // edges are never implied: a<b and b<c constrain a<c but do not
  // equal it, so every theta edge executes.
  if (edge.IsEquiJoin() && EquiJoinImplied(v1, v2)) {
    last_kernel_ = "implied-skip";
    return Status::Ok();
  }

  // Materialize index-selectable loose sides (Algorithm 1, lines 8-12).
  for (VertexId v : {v1, v2}) {
    if (!vertices_[v].table.has_value() &&
        graph_.vertex(v).IndexSelectable()) {
      ROX_RETURN_IF_ERROR(EnsureTable(v));
    }
  }
  if (!vertices_[v1].table.has_value() && !vertices_[v2].table.has_value()) {
    return Status::FailedPrecondition(
        StrCat("edge ", e, ": neither endpoint is materializable"));
  }

  // Context = the materialized side with fewer nodes (overridable by
  // the timed operator selection below).
  VertexId ctx = v1, tgt = v2;
  auto size_of = [&](VertexId v) -> uint64_t {
    return vertices_[v].table.has_value() ? vertices_[v].table->size()
                                          : UINT64_MAX;
  };
  if (!vertices_[v1].table.has_value() ||
      (vertices_[v2].table.has_value() && size_of(v2) < size_of(v1))) {
    ctx = v2;
    tgt = v1;
  }
  if (edge.type == EdgeType::kStep && options_.timed_operator_selection) {
    ctx = ChooseStepDirection(e, ctx);
    tgt = edge.Other(ctx);
  }
  const std::vector<Pre>& ctx_nodes = *vertices_[ctx].table;
  const Vertex& tx = graph_.vertex(tgt);
  const Document& target_doc = corpus_.doc(tx.doc);
  const Document& ctx_doc = corpus_.doc(graph_.vertex(ctx).doc);
  const bool lazy = options_.lazy_materialization;
  const size_t ctx_col = (ctx == v1) ? 0 : 1;

  // Shared tail of both representations. Lazy: filter each lane, adopt
  // the context table as an arena base column (zero-copy; the vertex
  // table is about to be replaced by the semi-join reduction anyway)
  // and flatten the lanes into a view. Eager: merge the lanes (the
  // pre-view code path, byte- and cost-identical) and row-copy R_e.
  auto finish = [&](ShardedJoinParts&& parts) -> Status {
    if (lazy) {
      for (JoinPairs& p : parts.parts) FilterPairsForVertex(tgt, p);
      std::span<const Pre> ctx_base =
          arena_.Adopt(std::move(*vertices_[ctx].table));
      vertices_[ctx].table.reset();
      StoreLazyResult(e, ctx_base, ctx_col, std::move(parts));
    } else {
      JoinPairs pairs = std::move(parts).Merged();
      FilterPairsForVertex(tgt, pairs);
      // Materialize R_e with columns oriented (v1, v2).
      ResultTable r(2);
      std::vector<Pre>& ccol = r.MutableCol(ctx_col);
      ccol.resize(pairs.size());
      for (size_t k = 0; k < pairs.size(); ++k) {
        ccol[k] = ctx_nodes[pairs.left_rows[k]];
      }
      r.MutableCol(1 - ctx_col) = std::move(pairs.right_nodes);
      edges_[e].result = std::move(r);
      if (options_.budget != nullptr) {
        options_.budget->Charge(edges_[e].ResultRows() * 2 * sizeof(Pre));
      }
    }
    RecordIntermediate(edges_[e].ResultRows());
    // A kernel that tripped mid-emission stored a partial R_e through
    // the truncation protocol: report the trip here so the edge is
    // never marked executed with partial pairs.
    if (options_.cancel != nullptr) {
      ROX_RETURN_IF_ERROR(options_.cancel->Check());
    }
    return Status::Ok();
  };

  if (edge.type == EdgeType::kStep) {
    last_kernel_ = "structural";
    const ElementIndex* idx = options_.use_index_acceleration
                                  ? &corpus_.element_index(tx.doc)
                                  : nullptr;
    return finish(ShardedStructuralJoinParts(
        Sharded(), graph_.vertex(ctx).doc, target_doc, ctx_nodes,
        StepSpecFrom(e, ctx), idx, &stats_.sharded, options_.cancel));
  }
  const CmpOp cmp = edge.CmpFrom(ctx);
  if (cmp != CmpOp::kEq) {
    // Theta edge: probe the target's sorted run per context row. A
    // materialized (semi-join-reduced) target table builds a private
    // run, usually far smaller than the full index projection; an
    // unmaterialized target probes the index's pre-sorted run and the
    // FilterPairsForVertex call inside finish() applies its predicate.
    // Both sources emit identical per-row sequences (value_join.h), so
    // all execution modes agree byte-for-byte.
    if (vertices_[tgt].table.has_value()) {
      last_kernel_ = "theta-run";
      return finish(ShardedSortThetaJoinParts(
          Sharded(), ctx_doc, ctx_nodes, target_doc, *vertices_[tgt].table,
          cmp, &stats_.sharded, options_.cancel));
    }
    last_kernel_ = "theta-index";
    ValueProbeSpec spec = tx.type == VertexType::kAttribute
                              ? ValueProbeSpec::Attr(tx.name)
                              : ValueProbeSpec::Text();
    return finish(ShardedValueIndexThetaJoinParts(
        Sharded(), ctx_doc, ctx_nodes, target_doc,
        corpus_.value_index(tx.doc), spec, cmp, &stats_.sharded,
        options_.cancel));
  }
  if (vertices_[tgt].table.has_value()) {
    // Both ends materialized: pick among the applicable algorithms
    // (hash by default; §6: the prototype times the candidates on a
    // sample and takes the fastest).
    EquiAlgo algo = options_.timed_operator_selection
                        ? ChooseEquiAlgorithm(e, ctx)
                        : EquiAlgo::kHash;
    switch (algo) {
      case EquiAlgo::kHash:
        last_kernel_ = "hash";
        return finish(ShardedHashValueJoinParts(
            Sharded(), ctx_doc, ctx_nodes, target_doc,
            *vertices_[tgt].table, &stats_.sharded, options_.cancel));
      case EquiAlgo::kMerge: {
        last_kernel_ = "merge";
        std::vector<Pre> outer_sorted = SortByValueId(ctx_doc, ctx_nodes);
        std::vector<Pre> inner_sorted =
            SortByValueId(target_doc, *vertices_[tgt].table);
        JoinPairs pairs = MergeValueJoinPairs(ctx_doc, outer_sorted,
                                              target_doc, inner_sorted,
                                              options_.cancel);
        // Re-mapping outer rows back to ctx_nodes positions is
        // unnecessary: R_e only needs the matched *nodes* on both
        // sides, so R_e is built against outer_sorted directly.
        pairs.truncated = false;
        pairs.outer_consumed = outer_sorted.size();
        FilterPairsForVertex(tgt, pairs);
        if (lazy) {
          std::span<const Pre> base = arena_.Adopt(std::move(outer_sorted));
          ResultView v(2, pairs.size());
          v.col(ctx_col) = {
              base.data(), arena_.Adopt(std::move(pairs.left_rows)).data()};
          v.col(1 - ctx_col) = {
              arena_.Adopt(std::move(pairs.right_nodes)).data(), nullptr};
          edges_[e].view = std::move(v);
        } else {
          ResultTable r(2);
          std::vector<Pre>& ccol = r.MutableCol(ctx_col);
          ccol.resize(pairs.size());
          for (size_t k = 0; k < pairs.size(); ++k) {
            ccol[k] = outer_sorted[pairs.left_rows[k]];
          }
          r.MutableCol(1 - ctx_col) = std::move(pairs.right_nodes);
          edges_[e].result = std::move(r);
          if (options_.budget != nullptr) {
            options_.budget->Charge(edges_[e].ResultRows() * 2 * sizeof(Pre));
          }
        }
        RecordIntermediate(edges_[e].ResultRows());
        if (options_.cancel != nullptr) {
          ROX_RETURN_IF_ERROR(options_.cancel->Check());
        }
        return Status::Ok();
      }
      case EquiAlgo::kIndexNl:
        last_kernel_ = "index-nl";
        return finish(ShardedValueIndexJoinParts(
            Sharded(), ctx_doc, ctx_nodes, target_doc,
            corpus_.value_index(tx.doc),
            tx.type == VertexType::kAttribute ? ValueProbeSpec::Attr(tx.name)
                                              : ValueProbeSpec::Text(),
            &stats_.sharded, options_.cancel));
    }
    return Status::Internal("unhandled equi-join algorithm");
  }
  last_kernel_ = "index-nl";
  ValueProbeSpec spec = tx.type == VertexType::kAttribute
                            ? ValueProbeSpec::Attr(tx.name)
                            : ValueProbeSpec::Text();
  return finish(ShardedValueIndexJoinParts(Sharded(), ctx_doc, ctx_nodes,
                                           target_doc,
                                           corpus_.value_index(tx.doc), spec,
                                           &stats_.sharded, options_.cancel));
}

void RoxState::StoreLazyResult(EdgeId e, std::span<const Pre> ctx_base,
                               size_t ctx_col, ShardedJoinParts&& parts) {
  uint64_t total = parts.size();
  ResultView v(2, total);
  size_t tgt_col = 1 - ctx_col;
  if (parts.parts.size() == 1 && parts.offsets[0] == 0) {
    // Single lane: the pair arrays ARE the view — adopt, zero copies.
    JoinPairs& p = parts.parts[0];
    v.col(ctx_col) = {ctx_base.data(),
                      arena_.Adopt(std::move(p.left_rows)).data()};
    v.col(tgt_col) = {arena_.Adopt(std::move(p.right_nodes)).data(),
                      nullptr};
  } else {
    // Multi-lane fan-out: flatten once into arena columns, applying the
    // lane offsets on the fly (the "offset-adjusted view" merge; the
    // eager path instead merges into a JoinPairs and then row-copies).
    std::span<uint32_t> sel = arena_.Alloc(total);
    std::span<uint32_t> base = arena_.Alloc(total);
    uint64_t w = 0;
    for (size_t s = 0; s < parts.parts.size(); ++s) {
      const JoinPairs& p = parts.parts[s];
      uint32_t off = parts.offsets[s];
      for (size_t i = 0; i < p.left_rows.size(); ++i) {
        sel[w + i] = p.left_rows[i] + off;
      }
      if (!p.right_nodes.empty()) {
        std::memcpy(base.data() + w, p.right_nodes.data(),
                    p.right_nodes.size() * sizeof(Pre));
      }
      w += p.size();
    }
    v.col(ctx_col) = {ctx_base.data(), sel.data()};
    v.col(tgt_col) = {base.data(), nullptr};
  }
  edges_[e].view = std::move(v);
}

void RoxState::UpdateAfterExecution(EdgeId e) {
  const Edge& edge = graph_.edge(e);

  // Remember old cardinalities for the no-resample ablation.
  double old_cards[2] = {vertices_[edge.v1].card, vertices_[edge.v2].card};

  // Semi-join-reduce the endpoint tables to the surviving nodes and
  // refresh card/sample (Algorithm 1, lines 14-17). DistinctColumn
  // hashes either representation without a row gather.
  if (edges_[e].HasResult()) {
    VertexId vs[2] = {edge.v1, edge.v2};
    for (int side = 0; side < 2; ++side) {
      VertexState& v = vertices_[vs[side]];
      v.table = edges_[e].view.has_value()
                    ? edges_[e].view->DistinctColumn(side)
                    : edges_[e].result->DistinctColumn(side);
      v.card = static_cast<double>(v.table->size());
      std::vector<uint64_t> idx =
          rng_.SampleWithoutReplacement(v.table->size(), options_.tau);
      v.sample.clear();
      for (uint64_t i : idx) v.sample.push_back((*v.table)[i]);
    }
  }

  // Re-weigh un-executed edges incident to the executed edge's
  // endpoints (Algorithm 1, lines 18-19). Re-sampling — rather than
  // scaling by the hit ratio — is what detects correlations.
  obs::QueryTrace* qt = options_.query_trace;
  bool trace_full = qt != nullptr && qt->full_enabled();
  int side = 0;
  for (VertexId v : {edge.v1, edge.v2}) {
    for (EdgeId inc : graph_.IncidentEdges(v)) {
      if (edges_[inc].executed) continue;
      // A tripped query skips the re-weighing: stale weights are
      // harmless because the optimizer's next checkpoint unwinds.
      if (StopRequested(options_.cancel)) return;
      if (options_.resample_after_execute) {
        double old_w = edges_[inc].weight;
        edges_[inc].weight = EstimateCardinality(inc);
        if (trace_full) {
          // Re-sampling event, recorded as a child of the executed
          // edge's span (the execution caused the re-weigh).
          char buf[64];
          std::snprintf(buf, sizeof(buf), "w %.0f -> %.0f", old_w,
                        edges_[inc].weight);
          qt->Event("resample", graph_.EdgeLabel(inc) + ": " + buf);
          if (qt->open_edge() != nullptr) ++qt->open_edge()->resamples;
        }
      } else if (edges_[inc].weight >= 0 && old_cards[side] > 0 &&
                 vertices_[v].card >= 0) {
        edges_[inc].weight *= vertices_[v].card / old_cards[side];
      }
    }
    ++side;
  }

  if (options_.trace) {
    std::fprintf(
        stderr, "[rox] executed edge %u (%s): |R_e|=%llu |T(v1)|=%.0f "
        "|T(v2)|=%.0f\n",
        e, graph_.EdgeLabel(e).c_str(),
        static_cast<unsigned long long>(edges_[e].ResultRows()),
        vertices_[edge.v1].card, vertices_[edge.v2].card);
  }
}

// --- timed operator selection (§6 extension) -------------------------------------

VertexId RoxState::ChooseStepDirection(EdgeId e, VertexId def) {
  const Edge& edge = graph_.edge(e);
  VertexId other = edge.Other(def);
  // Comparing directions needs a materialized table and a sample on
  // both sides.
  if (!vertices_[def].table.has_value() ||
      !vertices_[other].table.has_value() ||
      vertices_[def].sample.empty() || vertices_[other].sample.empty()) {
    return def;
  }
  ScopedTimer timer(stats_.sampling_time);
  ++stats_.operator_selections;
  // Extrapolated full cost: per-sampled-row time x table size. Both
  // candidate operators are zero-investment w.r.t. the sampled side, so
  // the extrapolation is sound.
  auto cost_of = [&](VertexId from) {
    const VertexState& vs = vertices_[from];
    StopWatch w;
    SampleEdgeFrom(e, from, vs.sample, options_.tau);
    double per_row =
        static_cast<double>(w.ElapsedNanos()) / vs.sample.size();
    return per_row * static_cast<double>(vs.table->size());
  };
  double cost_def = cost_of(def);
  double cost_other = cost_of(other);
  if (cost_other < cost_def) {
    ++stats_.operator_overrides;
    return other;
  }
  return def;
}

RoxState::EquiAlgo RoxState::ChooseEquiAlgorithm(EdgeId e, VertexId ctx) {
  const Edge& edge = graph_.edge(e);
  VertexId tgt = edge.Other(ctx);
  const VertexState& cs = vertices_[ctx];
  const VertexState& ts = vertices_[tgt];
  if (cs.sample.empty() || ts.sample.empty() || !cs.table.has_value() ||
      !ts.table.has_value()) {
    return EquiAlgo::kHash;
  }
  ScopedTimer timer(stats_.sampling_time);
  ++stats_.operator_selections;
  const Document& cdoc = corpus_.doc(graph_.vertex(ctx).doc);
  const Document& tdoc = corpus_.doc(graph_.vertex(tgt).doc);
  double n_outer = static_cast<double>(cs.table->size());
  double n_inner = static_cast<double>(ts.table->size());

  // Index nested loop: per-probe time on the sampled outer x |outer|.
  double cost_nl;
  {
    const Vertex& tx = graph_.vertex(tgt);
    ValueProbeSpec spec = tx.type == VertexType::kAttribute
                              ? ValueProbeSpec::Attr(tx.name)
                              : ValueProbeSpec::Text();
    StopWatch w;
    ValueIndexJoinPairsInto(cdoc, cs.sample, tdoc,
                            corpus_.value_index(tx.doc), spec, options_.tau,
                            sample_scratch_, nullptr);
    cost_nl = w.ElapsedNanos() / static_cast<double>(cs.sample.size()) *
              n_outer;
  }
  // Hash join: build on sampled inner + probe with sampled outer, both
  // extrapolated linearly.
  double cost_hash;
  {
    StopWatch w;
    HashValueJoinPairs(cdoc, cs.sample, tdoc, ts.sample, nullptr);
    double per =
        w.ElapsedNanos() /
        static_cast<double>(cs.sample.size() + ts.sample.size());
    cost_hash = per * (n_outer + n_inner);
  }
  // Merge join: sort both sides then scan; n log n extrapolation.
  double cost_merge;
  {
    StopWatch w;
    auto so = SortByValueId(cdoc, cs.sample);
    auto si = SortByValueId(tdoc, ts.sample);
    MergeValueJoinPairs(cdoc, so, tdoc, si, nullptr);
    double sample_n =
        static_cast<double>(cs.sample.size() + ts.sample.size());
    double per = w.ElapsedNanos() / (sample_n * std::log2(sample_n + 2));
    double full_n = n_outer + n_inner;
    cost_merge = per * full_n * std::log2(full_n + 2);
  }
  EquiAlgo best = EquiAlgo::kHash;
  double best_cost = cost_hash;
  if (cost_merge < best_cost) {
    best = EquiAlgo::kMerge;
    best_cost = cost_merge;
  }
  if (cost_nl < best_cost) {
    best = EquiAlgo::kIndexNl;
    best_cost = cost_nl;
  }
  if (best != EquiAlgo::kHash) ++stats_.operator_overrides;
  return best;
}

// --- final assembly -------------------------------------------------------------

Result<ResultTable> RoxState::AssembleFinal(std::vector<VertexId>* columns) {
  if (options_.lazy_materialization) {
    // Assemble as views, then gather every column once — the single
    // terminal materialization. With all vertices marked as output,
    // no column is elided, so the gathered table is byte-identical to
    // the eager assembly's.
    std::vector<VertexId> all(graph_.VertexCount());
    std::iota(all.begin(), all.end(), 0);
    ROX_ASSIGN_OR_RETURN(ResultView view, AssembleFinalView(columns, all));
    ScopedTimer timer(stats_.execution_time);
    ScopedTimer assembly_timer(stats_.assembly_time);
    return view.Gather(&stats_.gather);
  }
  ScopedTimer timer(stats_.execution_time);
  ScopedTimer assembly_timer(stats_.assembly_time);

  // Edges with materialized pair results, cheapest first.
  std::vector<EdgeId> order;
  for (EdgeId e = 0; e < graph_.EdgeCount(); ++e) {
    if (edges_[e].result.has_value()) order.push_back(e);
  }
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return edges_[a].result->NumRows() < edges_[b].result->NumRows();
  });

  struct Comp {
    std::vector<VertexId> members;
    ResultTable table;
    bool active = true;
  };
  std::vector<Comp> comps;
  // vertex -> (component, column) or (-1, 0).
  std::vector<std::pair<int, size_t>> where(graph_.VertexCount(), {-1, 0});

  // Deferred edges that closed cycles before both sides were assembled
  // never happen: an edge merges or filters immediately.
  for (EdgeId e : order) {
    if (options_.cancel != nullptr) {
      ROX_RETURN_IF_ERROR(options_.cancel->Check());
    }
    const Edge& edge = graph_.edge(e);
    const ResultTable& r = *edges_[e].result;
    auto [c1, col1] = where[edge.v1];
    auto [c2, col2] = where[edge.v2];

    // Pair lookup keyed by v1 node -> run of v2 nodes (CSR).
    auto build_runs = [&](size_t key_col) {
      const std::vector<Pre>& kcol = r.Col(key_col);
      return BuildValueRuns(kcol.size(),
                            [&](uint32_t i) { return kcol[i]; });
    };

    if (c1 < 0 && c2 < 0) {
      Comp c;
      c.members = {edge.v1, edge.v2};
      c.table = r;
      where[edge.v1] = {static_cast<int>(comps.size()), 0};
      where[edge.v2] = {static_cast<int>(comps.size()), 1};
      comps.push_back(std::move(c));
      continue;
    }

    if (c1 >= 0 && c2 >= 0 && c1 == c2) {
      // Cycle edge: keep rows whose (v1, v2) pair is in R_e.
      std::unordered_set<uint64_t> pairs;
      pairs.reserve(r.NumRows());
      for (uint64_t i = 0; i < r.NumRows(); ++i) {
        pairs.insert((static_cast<uint64_t>(r.Col(0)[i]) << 32) |
                     r.Col(1)[i]);
      }
      Comp& c = comps[c1];
      const std::vector<Pre>& a = c.table.Col(col1);
      const std::vector<Pre>& b = c.table.Col(col2);
      std::vector<uint32_t> keep;
      for (uint32_t i = 0; i < a.size(); ++i) {
        if (pairs.contains((static_cast<uint64_t>(a[i]) << 32) | b[i])) {
          keep.push_back(i);
        }
      }
      c.table = c.table.SelectRows(keep);
      RecordIntermediate(c.table.NumRows());
      continue;
    }

    // Anchor on the side already assembled (prefer v1's component).
    VertexId anchor = edge.v1, far = edge.v2;
    size_t anchor_key = 0, far_key = 1;
    if (c1 < 0) {
      anchor = edge.v2;
      far = edge.v1;
      anchor_key = 1;
      far_key = 0;
    }
    auto [ca, cola] = where[anchor];
    auto [runs, ids] = build_runs(anchor_key);
    Comp& a = comps[ca];
    JoinPairs jp;
    {
      const std::vector<Pre>& acol = a.table.Col(cola);
      const std::vector<Pre>& fcol = r.Col(far_key);
      for (uint32_t row = 0; row < acol.size(); ++row) {
        const auto* run = runs.Find(acol[row]);
        if (run == nullptr) continue;
        for (uint32_t j = 0; j < run->b; ++j) {
          jp.left_rows.push_back(row);
          jp.right_nodes.push_back(fcol[ids[run->a + j]]);
        }
      }
    }

    auto [cf, colf] = where[far];
    Comp merged;
    if (cf < 0) {
      merged.table = ExtendTableWithPairs(a.table, jp);
      merged.members = a.members;
      merged.members.push_back(far);
      a.active = false;
    } else {
      Comp& b = comps[cf];
      merged.table = JoinTablesWithPairs(a.table, jp, b.table, colf);
      merged.members = a.members;
      merged.members.insert(merged.members.end(), b.members.begin(),
                            b.members.end());
      a.active = false;
      b.active = false;
    }
    int id = static_cast<int>(comps.size());
    for (size_t c = 0; c < merged.members.size(); ++c) {
      where[merged.members[c]] = {id, c};
    }
    RecordIntermediate(merged.table.NumRows());
    comps.push_back(std::move(merged));
  }

  int active = -1;
  for (size_t i = 0; i < comps.size(); ++i) {
    if (!comps[i].active) continue;
    if (active >= 0) {
      return Status::FailedPrecondition(
          "assembly left multiple components (disconnected join graph)");
    }
    active = static_cast<int>(i);
  }
  if (active < 0) {
    return Status::FailedPrecondition("nothing to assemble");
  }
  if (columns != nullptr) *columns = comps[active].members;
  return std::move(comps[active].table);
}

Result<ResultView> RoxState::AssembleFinalView(
    std::vector<VertexId>* columns,
    std::span<const VertexId> output_vertices) {
  ROX_CHECK(options_.lazy_materialization);
  ScopedTimer timer(stats_.execution_time);
  ScopedTimer assembly_timer(stats_.assembly_time);

  // Edges with pair-result views, cheapest first (the same order the
  // eager assembly picks, so the emitted row expansions are identical).
  std::vector<EdgeId> order;
  for (EdgeId e = 0; e < graph_.EdgeCount(); ++e) {
    if (edges_[e].view.has_value()) order.push_back(e);
  }
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return edges_[a].view->NumRows() < edges_[b].view->NumRows();
  });

  // Column liveness: a vertex's column is read by every assembly step
  // of an incident edge and by the caller if it is an output vertex.
  // Past its last read, the column is dead — composition skips it and
  // it never costs another write. This is what makes late
  // materialization profitable on wide graphs: of Q1's ~15 columns
  // only the 3 for-variables survive to the plan tail.
  std::vector<size_t> last_read(graph_.VertexCount(), 0);
  for (size_t i = 0; i < order.size(); ++i) {
    const Edge& edge = graph_.edge(order[i]);
    last_read[edge.v1] = i;
    last_read[edge.v2] = i;
  }
  std::vector<bool> output(graph_.VertexCount(), false);
  for (VertexId v : output_vertices) output[v] = true;
  auto live_after = [&](VertexId v, size_t pos) {
    return output[v] || last_read[v] > pos;
  };
  auto live_flags = [&](const std::vector<VertexId>& members, size_t pos) {
    std::vector<bool> flags(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      flags[i] = live_after(members[i], pos);
    }
    return flags;
  };

  struct Comp {
    std::vector<VertexId> members;
    ResultView view;
    bool active = true;
  };
  std::vector<Comp> comps;
  // vertex -> (component, column) or (-1, 0).
  std::vector<std::pair<int, size_t>> where(graph_.VertexCount(), {-1, 0});

  for (size_t pos = 0; pos < order.size(); ++pos) {
    if (options_.cancel != nullptr) {
      ROX_RETURN_IF_ERROR(options_.cancel->Check());
    }
    EdgeId e = order[pos];
    const Edge& edge = graph_.edge(e);
    const ResultView& r = *edges_[e].view;
    auto [c1, col1] = where[edge.v1];
    auto [c2, col2] = where[edge.v2];

    // Pair lookup keyed by key-column node -> run of pair indexes (CSR;
    // same construction as the eager assembly).
    auto build_runs = [&](size_t key_col) {
      return BuildValueRuns(r.NumRows(),
                            [&](uint32_t i) { return r.At(key_col, i); });
    };

    if (c1 < 0 && c2 < 0) {
      Comp c;
      c.members = {edge.v1, edge.v2};
      c.view = r;
      if (!live_after(edge.v1, pos)) c.view.col(0).dead = true;
      if (!live_after(edge.v2, pos)) c.view.col(1).dead = true;
      where[edge.v1] = {static_cast<int>(comps.size()), 0};
      where[edge.v2] = {static_cast<int>(comps.size()), 1};
      comps.push_back(std::move(c));
      continue;
    }

    if (c1 >= 0 && c2 >= 0 && c1 == c2) {
      // Cycle edge: keep rows whose (v1, v2) pair is in R_e.
      std::unordered_set<uint64_t> pairs;
      pairs.reserve(r.NumRows());
      for (uint64_t i = 0; i < r.NumRows(); ++i) {
        pairs.insert((static_cast<uint64_t>(r.At(0, i)) << 32) | r.At(1, i));
      }
      Comp& c = comps[c1];
      std::vector<uint32_t> keep;
      for (uint32_t i = 0; i < c.view.NumRows(); ++i) {
        if (pairs.contains((static_cast<uint64_t>(c.view.At(col1, i)) << 32) |
                           c.view.At(col2, i))) {
          keep.push_back(i);
        }
      }
      std::vector<bool> live = live_flags(c.members, pos);
      c.view = SelectRowsView(c.view, keep, arena_, &live);
      RecordIntermediate(c.view.NumRows());
      continue;
    }

    // Anchor on the side already assembled (prefer v1's component).
    VertexId anchor = edge.v1, far = edge.v2;
    size_t anchor_key = 0, far_key = 1;
    if (c1 < 0) {
      anchor = edge.v2;
      far = edge.v1;
      anchor_key = 1;
      far_key = 0;
    }
    auto [ca, cola] = where[anchor];
    auto [runs, ids] = build_runs(anchor_key);
    Comp& a = comps[ca];
    JoinPairs jp;
    {
      uint64_t n_anchor = a.view.NumRows();
      jp.Reserve(n_anchor);
      for (uint32_t row = 0; row < n_anchor; ++row) {
        const auto* run = runs.Find(a.view.At(cola, row));
        if (run == nullptr) continue;
        for (uint32_t j = 0; j < run->b; ++j) {
          jp.left_rows.push_back(row);
          jp.right_nodes.push_back(r.At(far_key, ids[run->a + j]));
        }
      }
    }

    auto [cf, colf] = where[far];
    Comp merged;
    std::vector<bool> live_a = live_flags(a.members, pos);
    if (cf < 0) {
      std::span<const uint32_t> rows =
          arena_.Adopt(std::move(jp.left_rows));
      merged.view = ComposeRows(a.view, rows, arena_, &live_a);
      if (live_after(far, pos)) {
        merged.view.AddColumn(
            {arena_.Adopt(std::move(jp.right_nodes)).data(), nullptr});
      } else {
        merged.view.AddColumn({nullptr, nullptr, /*dead=*/true});
      }
      merged.members = a.members;
      merged.members.push_back(far);
      a.active = false;
    } else {
      Comp& b = comps[cf];
      std::vector<bool> live_b = live_flags(b.members, pos);
      merged.view = JoinViewsWithPairs(a.view, jp, b.view, colf, arena_,
                                       &live_a, &live_b);
      merged.members = a.members;
      merged.members.insert(merged.members.end(), b.members.begin(),
                            b.members.end());
      a.active = false;
      b.active = false;
    }
    int id = static_cast<int>(comps.size());
    for (size_t c = 0; c < merged.members.size(); ++c) {
      where[merged.members[c]] = {id, c};
    }
    RecordIntermediate(merged.view.NumRows());
    comps.push_back(std::move(merged));
  }

  int active = -1;
  for (size_t i = 0; i < comps.size(); ++i) {
    if (!comps[i].active) continue;
    if (active >= 0) {
      return Status::FailedPrecondition(
          "assembly left multiple components (disconnected join graph)");
    }
    active = static_cast<int>(i);
  }
  if (active < 0) {
    return Status::FailedPrecondition("nothing to assemble");
  }
  if (columns != nullptr) *columns = comps[active].members;
  stats_.arena_bytes = arena_.bytes_reserved();
  return std::move(comps[active].view);
}

bool RoxState::EquiJoinImplied(VertexId a, VertexId b) const {
  if (a == b) return true;
  std::vector<VertexId> stack = {a};
  std::vector<bool> seen(graph_.VertexCount(), false);
  seen[a] = true;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    for (EdgeId e : graph_.IncidentEdges(v)) {
      const Edge& ed = graph_.edge(e);
      if (!ed.IsEquiJoin() || !edges_[e].executed) continue;
      VertexId o = ed.Other(v);
      if (o == b) return true;
      if (!seen[o]) {
        seen[o] = true;
        stack.push_back(o);
      }
    }
  }
  return false;
}

void RoxState::RecordIntermediate(uint64_t rows) {
  stats_.cumulative_intermediate_rows += rows;
  stats_.peak_intermediate_rows =
      std::max(stats_.peak_intermediate_rows, rows);
}

// --- queries -------------------------------------------------------------------

int RoxState::RemainingEdges() const {
  int n = 0;
  for (const EdgeState& es : edges_) {
    if (!es.executed) ++n;
  }
  return n;
}

EdgeId RoxState::MinWeightEdge() const {
  EdgeId best = kInvalidEdgeId;
  double best_w = 0;
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    if (edges_[e].executed || edges_[e].weight < 0) continue;
    if (best == kInvalidEdgeId || edges_[e].weight < best_w) {
      best = e;
      best_w = edges_[e].weight;
    }
  }
  return best;
}

std::vector<EdgeId> RoxState::UnexecutedEdges(VertexId v) const {
  std::vector<EdgeId> out;
  for (EdgeId e : graph_.IncidentEdges(v)) {
    if (!edges_[e].executed) out.push_back(e);
  }
  return out;
}

}  // namespace rox
