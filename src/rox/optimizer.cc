#include "rox/optimizer.h"

#include <algorithm>
#include <cstdio>

#include "common/str_util.h"
#include "engine/governor.h"
#include "obs/trace.h"

namespace rox {

RoxOptimizer::RoxOptimizer(CorpusSnapshot snapshot, const JoinGraph& graph,
                           RoxOptions options)
    : snapshot_(std::move(snapshot)),
      corpus_(*snapshot_),
      graph_(graph),
      options_(options) {}

Status RoxOptimizer::ExecutePath(const std::vector<EdgeId>& path) {
  // §3.1: the winning path segment "is treated as a separate Join
  // Graph" and executed in its best order. We realize that by
  // re-estimating the pending segment edges before every pick — the
  // weights computed during chain sampling go stale as executions
  // shrink the vertex tables.
  std::vector<EdgeId> pending = path;
  while (!pending.empty()) {
    auto has_materialized_end = [&](EdgeId e) {
      const Edge& edge = graph_.edge(e);
      for (VertexId v : {edge.v1, edge.v2}) {
        if (state_->vstate(v).table.has_value() ||
            graph_.vertex(v).IndexSelectable()) {
          return true;
        }
      }
      return false;
    };
    size_t best = pending.size();
    double best_w = -1;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (state_->Executed(pending[i])) continue;
      if (!has_materialized_end(pending[i])) continue;
      double w = state_->EstimateCardinality(pending[i]);
      if (options_.trace) {
        std::fprintf(stderr, "[rox]   path candidate %s w=%.0f\n",
                     graph_.EdgeLabel(pending[i]).c_str(), w);
      }
      if (best == pending.size() || (w >= 0 && (best_w < 0 || w < best_w))) {
        best = i;
        best_w = w;
      }
    }
    if (best == pending.size()) {
      // Only already-executed (shared-prefix) edges remain.
      bool all_done = true;
      for (EdgeId e : pending) all_done &= state_->Executed(e);
      if (all_done) return Status::Ok();
      best = 0;
    }
    EdgeId e = pending[best];
    pending.erase(pending.begin() + best);
    if (state_->Executed(e)) continue;
    if (options_.cancel != nullptr) {
      ROX_RETURN_IF_ERROR(options_.cancel->Check());
    }
    ROX_RETURN_IF_ERROR(state_->ExecuteEdge(e));
  }
  return Status::Ok();
}

Status RoxOptimizer::Prepare() {
  ROX_RETURN_IF_ERROR(graph_.Validate());
  if (!graph_.IsConnected()) {
    return Status::InvalidArgument(
        "join graph must be connected (split disconnected graphs into "
        "separate ROX runs, as the paper's plans do)");
  }
  state_ = std::make_unique<RoxState>(snapshot_, graph_, options_);
  // Phase 1 (lines 1-4). A governance trip makes the sampling loops
  // stop early; the token check below reports it.
  state_->InitializeSamplesAndWeights();
  if (options_.cancel != nullptr) {
    ROX_RETURN_IF_ERROR(options_.cancel->Check());
  }
  return Status::Ok();
}

Status RoxOptimizer::RunLoop() {
  // An EXPLAIN-style caller may have Prepare()d already; reuse its
  // Phase 1 state instead of re-sampling.
  if (state_ == nullptr) ROX_RETURN_IF_ERROR(Prepare());
  obs::QueryTrace* qt = options_.query_trace;

  // Phase 2 (lines 5-19).
  ChainSampler sampler(*state_);
  while (state_->RemainingEdges() > 0) {
    // Governance checkpoint: one deadline/budget/cancel poll per chain
    // round bounds the undetected work between rounds to one path
    // segment (the kernels poll inside edge executions too).
    if (options_.cancel != nullptr) {
      ROX_RETURN_IF_ERROR(options_.cancel->Check());
    }
    if (options_.trace) {
      std::fprintf(stderr, "[rox] weights:");
      for (EdgeId e = 0; e < graph_.EdgeCount(); ++e) {
        if (state_->Executed(e)) continue;
        std::fprintf(stderr, "  %s=%.0f", graph_.EdgeLabel(e).c_str(),
                     state_->estate(e).weight);
      }
      std::fprintf(stderr, "\n");
    }
    std::vector<EdgeId> path;
    if (options_.enable_chain_sampling) {
      if (trace_log_ != nullptr) {
        trace_log_->emplace_back();
        path = sampler.Run(&trace_log_->back());
      } else {
        path = sampler.Run();
      }
    } else {
      EdgeId e = state_->MinWeightEdge();
      if (e != kInvalidEdgeId) path = {e};
    }
    if (path.empty()) {
      // No weighted edge: pick any un-executed edge with a
      // materializable endpoint (degenerate graphs).
      for (EdgeId e = 0; e < graph_.EdgeCount(); ++e) {
        if (!state_->Executed(e)) {
          path = {e};
          break;
        }
      }
      if (path.empty()) break;
    }
    if (qt != nullptr && qt->full_enabled()) {
      std::string detail;
      for (EdgeId e : path) {
        if (!detail.empty()) detail += " -> ";
        detail += graph_.EdgeLabel(e);
      }
      qt->Event("chain_round", std::move(detail));
    }
    ROX_RETURN_IF_ERROR(ExecutePath(path));
  }
  return Status::Ok();
}

std::vector<double> RoxOptimizer::FinalEdgeWeights() const {
  std::vector<double> out;
  out.reserve(graph_.EdgeCount());
  for (EdgeId e = 0; e < graph_.EdgeCount(); ++e) {
    out.push_back(state_->estate(e).weight);
  }
  return out;
}

Result<RoxResult> RoxOptimizer::Run() {
  ROX_RETURN_IF_ERROR(RunLoop());
  RoxResult out;
  {
    obs::ScopedSpan span(options_.query_trace, "assembly");
    ROX_ASSIGN_OR_RETURN(out.table, state_->AssembleFinal(&out.columns));
  }
  out.IndexColumns();
  out.stats = state_->stats();
  out.final_edge_weights = FinalEdgeWeights();
  return out;
}

Result<RoxViewResult> RoxOptimizer::RunView(
    std::span<const VertexId> output_vertices) {
  ROX_RETURN_IF_ERROR(RunLoop());
  RoxViewResult out;
  {
    obs::ScopedSpan span(options_.query_trace, "assembly");
    ROX_ASSIGN_OR_RETURN(out.view,
                         state_->AssembleFinalView(&out.columns,
                                                   output_vertices));
  }
  out.stats = state_->stats();
  out.final_edge_weights = FinalEdgeWeights();
  return out;
}

}  // namespace rox
