#ifndef RPQLEARN_INTERACT_INFORMATIVE_H_
#define RPQLEARN_INTERACT_INFORMATIVE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "learn/coverage.h"
#include "util/bit_vector.h"

namespace rpqlearn {

/// Computes the k-informative nodes (Sec. 4.2): a node is k-informative iff
/// it has at least one path of length ≤ k not covered by a negative example.
/// (k-informative ⇒ informative; deciding full informativeness is
/// PSPACE-complete, Lemma 4.2.)
///
/// Implemented as a forward, early-exit depth-first search over the product
/// of the graph with the negative-coverage subset automaton: from each
/// (v, initial coverage state) with budget k, stopping at the first edge
/// that drives the coverage subset to ∅. Proven-alive / proven-dead product
/// states are memoized sparsely (below the top level) and shared across
/// the nodes of one call. `coverage` must be built from the graph NFA with
/// initial set S− (all states accepting) at the same k.
BitVector ComputeKInformative(const Graph& graph,
                              const SubsetCoverage& coverage);

/// Open-addressing hash map from exact (node, coverage state, budget) keys to
/// 64-bit values: the sparse memo of the product searches above. Touches
/// only the product states a search visits, unlike a |V|·|states| array.
class ProductMemo {
 public:
  struct Key {
    NodeId node;
    StateId state;
    uint32_t budget;
    friend bool operator==(const Key&, const Key&) = default;
  };

  /// The value stored under `key`, or null.
  const uint64_t* Find(const Key& key) const;

  /// The value stored under `key`, inserted as `initial` when absent. The
  /// reference is invalidated by the next insertion.
  uint64_t& FindOrInsert(const Key& key, uint64_t initial);

 private:
  struct Slot {
    Key key;
    bool used = false;
    uint64_t value = 0;
  };

  size_t SlotOf(const Key& key) const;
  void Grow();

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// Counts, per node, the non-covered k-paths — the quantity minimized by
/// strategy kS: the number of paths p from ν with |p| ≤ k whose word is not
/// in paths_G(S−). Lazy memoized DP over (node, coverage state, remaining
/// depth), shared across queries; rebuild after the sample changes. Counts
/// from the empty coverage state (every path uncovered) come from one
/// coverage-independent all-paths table.
class UncoveredPathCounter {
 public:
  UncoveredPathCounter(const Graph& graph, const SubsetCoverage& coverage)
      : graph_(graph), coverage_(coverage) {}

  /// Number of non-covered paths of length ≤ k from `v` (saturating at
  /// uint64 max; exact for any realistic graph).
  uint64_t Count(NodeId v) { return CountBelow(v, UINT64_MAX); }

  /// Count(v) when it is below `limit`; otherwise some value ≥ `limit`
  /// (the count stops as soon as its partial sum reaches `limit`).
  uint64_t CountBelow(NodeId v, uint64_t limit);

 private:
  uint64_t CountFrom(NodeId v, StateId cov, uint32_t remaining,
                     uint64_t limit);
  /// Number of paths of length ≤ `remaining` from `v`, all uncovered.
  uint64_t AllPaths(NodeId v, uint32_t remaining);

  const Graph& graph_;
  const SubsetCoverage& coverage_;
  ProductMemo memo_;
  /// all_paths_[r · |V| + v] = AllPaths(v, r) for the first
  /// `all_paths_rows_` rows, filled on demand.
  std::vector<uint64_t> all_paths_;
  uint32_t all_paths_rows_ = 0;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_INTERACT_INFORMATIVE_H_
