#include "interact/informative_reference.h"

#include <map>
#include <tuple>
#include <vector>

#include "util/logging.h"

namespace rpqlearn {
namespace {

/// Memoized DP over (node, coverage state, remaining depth). The memo is
/// keyed by the exact triple, so it is correct for any k and any number of
/// coverage states.
class UncoveredPathCounterReference {
 public:
  UncoveredPathCounterReference(const Graph& graph,
                                const SubsetCoverage& coverage)
      : graph_(graph), coverage_(coverage) {}

  uint64_t Count(NodeId v) {
    return CountFrom(v, coverage_.initial(), coverage_.k());
  }

 private:
  uint64_t CountFrom(NodeId v, StateId cov, uint32_t remaining) {
    uint64_t base = coverage_.IsEmptySubset(cov) ? 1 : 0;  // the path so far
    if (remaining == 0) return base;
    auto key = std::make_tuple(v, cov, remaining);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    uint64_t total = base;
    for (const LabeledEdge& e : graph_.OutEdges(v)) {
      StateId next_cov = coverage_.Next(cov, e.label);
      uint64_t sub = CountFrom(e.node, next_cov, remaining - 1);
      total = (total + sub < total) ? UINT64_MAX : total + sub;
    }
    memo_.emplace(key, total);
    return total;
  }

  const Graph& graph_;
  const SubsetCoverage& coverage_;
  std::map<std::tuple<NodeId, StateId, uint32_t>, uint64_t> memo_;
};

}  // namespace

BitVector ComputeKInformativeReference(const Graph& graph,
                                       const SubsetCoverage& coverage) {
  const uint32_t nv = graph.num_nodes();
  const uint32_t nc = coverage.num_states();
  const uint32_t k = coverage.k();

  // reached[(v, s)] = from product state (v, s) some (·, ∅) is reachable
  // within the remaining budget. Layered backward BFS: layer 0 = all pairs
  // with the empty coverage subset.
  BitVector reached(static_cast<size_t>(nv) * nc);
  std::vector<std::pair<NodeId, StateId>> frontier;
  {
    StateId empty = coverage.empty_state();
    for (NodeId v = 0; v < nv; ++v) {
      reached.Set(static_cast<size_t>(v) * nc + empty);
      frontier.emplace_back(v, empty);
    }
  }

  // Reverse coverage transitions, restricted to states with materialized
  // rows (depth < k).
  std::vector<std::vector<std::vector<StateId>>> rev(
      graph.num_symbols(), std::vector<std::vector<StateId>>(nc));
  for (StateId s = 0; s < nc; ++s) {
    if (coverage.DepthOf(s) >= k && !coverage.IsEmptySubset(s)) continue;
    for (Symbol a = 0; a < coverage.num_symbols(); ++a) {
      rev[a][coverage.Next(s, a)].push_back(s);
    }
  }

  for (uint32_t step = 0; step < k && !frontier.empty(); ++step) {
    std::vector<std::pair<NodeId, StateId>> next;
    for (auto [v, s] : frontier) {
      for (const LabeledEdge& e : graph.InEdges(v)) {
        for (StateId p : rev[e.label][s]) {
          size_t idx = static_cast<size_t>(e.node) * nc + p;
          if (!reached.Test(idx)) {
            reached.Set(idx);
            next.emplace_back(e.node, p);
          }
        }
      }
    }
    frontier = std::move(next);
  }

  BitVector informative(nv);
  const StateId init = coverage.initial();
  for (NodeId v = 0; v < nv; ++v) {
    if (reached.Test(static_cast<size_t>(v) * nc + init)) informative.Set(v);
  }
  return informative;
}

std::optional<NodeId> PickNextNodeReference(const Graph& graph,
                                            const Sample& sample,
                                            const SubsetCoverage& coverage,
                                            const BitVector& informative,
                                            StrategyKind kind, Rng* rng) {
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (informative.Test(v) && !sample.IsLabeled(v)) candidates.push_back(v);
  }
  if (candidates.empty()) return std::nullopt;

  switch (kind) {
    case StrategyKind::kRandom:
      return candidates[rng->NextBelow(candidates.size())];
    case StrategyKind::kSmallestPaths: {
      UncoveredPathCounterReference counter(graph, coverage);
      NodeId best = candidates[0];
      uint64_t best_count = counter.Count(best);
      for (size_t i = 1; i < candidates.size(); ++i) {
        uint64_t count = counter.Count(candidates[i]);
        if (count < best_count) {
          best_count = count;
          best = candidates[i];
        }
      }
      return best;
    }
  }
  RPQ_CHECK(false) << "unknown strategy";
  __builtin_unreachable();
}

}  // namespace rpqlearn
