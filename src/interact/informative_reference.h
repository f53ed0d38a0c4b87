#ifndef RPQLEARN_INTERACT_INFORMATIVE_REFERENCE_H_
#define RPQLEARN_INTERACT_INFORMATIVE_REFERENCE_H_

#include <optional>

#include "graph/graph.h"
#include "interact/strategy.h"
#include "learn/coverage.h"
#include "learn/sample.h"
#include "util/bit_vector.h"
#include "util/random.h"

namespace rpqlearn {

/// Reference (original) implementations of the interactive loop's node
/// selection, kept as the correctness oracles for informative.cc and
/// strategy.cc — the differential tests assert identical informative sets
/// and picks — and as the baseline bench_hotpath measures speedups against.
/// Not for production use: every call allocates a |V|·|states| bitmap and
/// every kS count runs to completion.

/// Backward layered BFS over graph × coverage automaton from all pairs with
/// the empty coverage subset; a node is k-informative iff (v, initial) is
/// reached within k layers.
BitVector ComputeKInformativeReference(const Graph& graph,
                                       const SubsetCoverage& coverage);

/// PickNextNode with the unbounded kS argmin: every candidate's non-covered
/// k-path count is computed in full by a memoized DP (node, coverage state,
/// remaining depth), and the first candidate with the least count wins. kR
/// draws exactly as PickNextNode does.
std::optional<NodeId> PickNextNodeReference(const Graph& graph,
                                            const Sample& sample,
                                            const SubsetCoverage& coverage,
                                            const BitVector& informative,
                                            StrategyKind kind, Rng* rng);

}  // namespace rpqlearn

#endif  // RPQLEARN_INTERACT_INFORMATIVE_REFERENCE_H_
