#include "interact/strategy.h"

#include <vector>

#include "util/logging.h"

namespace rpqlearn {

std::optional<NodeId> PickNextNode(const Graph& graph, const Sample& sample,
                                   const SubsetCoverage& coverage,
                                   const BitVector& informative,
                                   StrategyKind kind, Rng* rng) {
  BitVector open = informative;
  {
    BitVector labeled(graph.num_nodes());
    for (NodeId v : sample.positive) labeled.Set(v);
    for (NodeId v : sample.negative) labeled.Set(v);
    open.SubtractWith(labeled);
  }
  const std::vector<NodeId> candidates = open.ToIndices();
  if (candidates.empty()) return std::nullopt;

  switch (kind) {
    case StrategyKind::kRandom:
      return candidates[rng->NextBelow(candidates.size())];
    case StrategyKind::kSmallestPaths: {
      UncoveredPathCounter counter(graph, coverage);
      NodeId best = candidates[0];
      uint64_t best_count = counter.Count(best);
      // Only a strictly smaller count replaces the best (the first minimum
      // wins), so each later count may stop once it reaches best_count.
      for (size_t i = 1; i < candidates.size() && best_count > 0; ++i) {
        uint64_t count = counter.CountBelow(candidates[i], best_count);
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
