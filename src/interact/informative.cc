#include "interact/informative.h"

#include <algorithm>
#include <span>

#include "util/logging.h"

namespace rpqlearn {
namespace {

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return a + b < a ? UINT64_MAX : a + b;
}

/// ComputeKInformative's memo value for a product state (v, s): the low 32
/// bits are `dead_below` (no ∅ within any budget < it), the high 32 bits
/// `alive_from` (∅ within every budget ≥ it; kUnproven when not yet shown).
/// Only states below the top level are memoized, whose budgets are < k, so
/// both bounds fit exactly for any k.
constexpr uint32_t kUnproven = UINT32_MAX;
constexpr uint64_t kNothingProven = uint64_t{kUnproven} << 32;

uint32_t DeadBelow(uint64_t value) { return static_cast<uint32_t>(value); }
uint32_t AliveFrom(uint64_t value) {
  return static_cast<uint32_t>(value >> 32);
}
uint64_t Bounds(uint32_t dead_below, uint32_t alive_from) {
  return uint64_t{alive_from} << 32 | dead_below;
}

}  // namespace

BitVector ComputeKInformative(const Graph& graph,
                              const SubsetCoverage& coverage) {
  const uint32_t nv = graph.num_nodes();
  const StateId empty = coverage.empty_state();
  BitVector informative(nv);
  if (coverage.initial() == empty) {
    // No negatives: every node's empty path is uncovered.
    for (NodeId v = 0; v < nv; ++v) informative.Set(v);
    return informative;
  }
  if (coverage.k() == 0) return informative;

  // Some out-edge of v drives coverage state s to ∅. Callers only pass
  // states of depth < k, whose transitions are materialized: a state
  // reached after j steps has depth ≤ j, and a frame with budget b ≥ 1 sits
  // j = k − b steps from the initial state.
  // Out-edges are sorted by label, so each label is looked up once.
  auto edge_to_empty = [&](NodeId v, StateId s) {
    const std::span<const LabeledEdge> edges = graph.OutEdges(v);
    for (size_t i = 0; i < edges.size(); ++i) {
      if (i > 0 && edges[i].label == edges[i - 1].label) continue;
      if (coverage.Next(s, edges[i].label) == empty) return true;
    }
    return false;
  };

  // Depth-first search for a path of length ≤ budget from (node, state) to
  // (·, ∅). Budgets strictly decrease along the stack, so the search runs
  // over a DAG and needs no on-stack marks.
  struct Frame {
    NodeId node;
    StateId state;
    uint32_t budget;  // ≥ 1
    uint32_t next_edge;
  };
  std::vector<Frame> stack;
  ProductMemo memo;
  auto memo_key = [](NodeId v, StateId s) { return ProductMemo::Key{v, s, 0}; };

  for (NodeId root = 0; root < nv; ++root) {
    bool alive = edge_to_empty(root, coverage.initial());
    if (!alive) stack.push_back({root, coverage.initial(), coverage.k(), 0});
    while (!alive && !stack.empty()) {
      Frame& frame = stack.back();
      const std::span<const LabeledEdge> edges = graph.OutEdges(frame.node);
      if (frame.budget == 1 || frame.next_edge == edges.size()) {
        // Every successor is dead at budget − 1: so is this state.
        if (stack.size() > 1) {
          uint64_t& bounds =
              memo.FindOrInsert(memo_key(frame.node, frame.state),
                                kNothingProven);
          bounds = Bounds(std::max(DeadBelow(bounds), frame.budget + 1),
                          AliveFrom(bounds));
        }
        stack.pop_back();
        continue;
      }
      const LabeledEdge& e = edges[frame.next_edge++];
      const uint32_t budget = frame.budget - 1;
      const StateId next = coverage.Next(frame.state, e.label);
      // At budget 1 the scan below decides alone, cheaper than the memo.
      const uint64_t* bounds =
          budget > 1 ? memo.Find(memo_key(e.node, next)) : nullptr;
      if (bounds != nullptr && DeadBelow(*bounds) > budget) continue;
      if ((bounds != nullptr && AliveFrom(*bounds) <= budget) ||
          edge_to_empty(e.node, next)) {
        alive = true;
        break;
      }
      if (budget > 1) stack.push_back({e.node, next, budget, 0});
    }
    if (!alive) continue;
    informative.Set(root);
    // Every state on the stack lies on the witness path.
    for (size_t i = 1; i < stack.size(); ++i) {
      uint64_t& bounds = memo.FindOrInsert(
          memo_key(stack[i].node, stack[i].state), kNothingProven);
      bounds = Bounds(DeadBelow(bounds),
                      std::min(AliveFrom(bounds), stack[i].budget));
    }
    stack.clear();
  }
  return informative;
}

size_t ProductMemo::SlotOf(const Key& key) const {
  // splitmix64's finalizer over the packed key.
  uint64_t h = (uint64_t{key.node} << 32 | key.state) ^
               (uint64_t{key.budget} * 0x9e3779b97f4a7c15ULL);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  const size_t mask = slots_.size() - 1;
  size_t i = h & mask;
  while (slots_[i].used && !(slots_[i].key == key)) i = (i + 1) & mask;
  return i;
}

const uint64_t* ProductMemo::Find(const Key& key) const {
  if (slots_.empty()) return nullptr;
  const Slot& slot = slots_[SlotOf(key)];
  return slot.used ? &slot.value : nullptr;
}

uint64_t& ProductMemo::FindOrInsert(const Key& key, uint64_t initial) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  Slot& slot = slots_[SlotOf(key)];
  if (!slot.used) {
    slot = Slot{key, true, initial};
    ++size_;
  }
  return slot.value;
}

void ProductMemo::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(64, 2 * old.size()), Slot{});
  for (const Slot& slot : old) {
    if (slot.used) slots_[SlotOf(slot.key)] = slot;
  }
}

uint64_t UncoveredPathCounter::CountBelow(NodeId v, uint64_t limit) {
  return CountFrom(v, coverage_.initial(), coverage_.k(), limit);
}

uint64_t UncoveredPathCounter::CountFrom(NodeId v, StateId cov,
                                         uint32_t remaining, uint64_t limit) {
  if (coverage_.IsEmptySubset(cov)) return AllPaths(v, remaining);
  if (remaining == 0) return 0;  // the path so far is covered
  if (remaining == 1) {
    // One step left: one uncovered path per edge into ∅; cheaper than the
    // memo.
    uint64_t total = 0;
    for (const LabeledEdge& e : graph_.OutEdges(v)) {
      total += coverage_.IsEmptySubset(coverage_.Next(cov, e.label));
    }
    return total;
  }
  const ProductMemo::Key key{v, cov, remaining};
  if (const uint64_t* known = memo_.Find(key)) return *known;
  uint64_t total = 0;
  for (const LabeledEdge& e : graph_.OutEdges(v)) {
    total = SaturatingAdd(
        total, CountFrom(e.node, coverage_.Next(cov, e.label), remaining - 1,
                         limit - total));
    // A partial sum at the bound already decides the caller's comparison;
    // being partial, it stays out of the memo.
    if (total >= limit) return total;
  }
  memo_.FindOrInsert(key, total);
  return total;
}

uint64_t UncoveredPathCounter::AllPaths(NodeId v, uint32_t remaining) {
  const size_t nv = graph_.num_nodes();
  for (; all_paths_rows_ <= remaining; ++all_paths_rows_) {
    const size_t previous = all_paths_.size() - nv;  // unused for row 0
    for (NodeId u = 0; u < nv; ++u) {
      uint64_t total = 1;  // the empty path
      if (all_paths_rows_ > 0) {
        for (const LabeledEdge& e : graph_.OutEdges(u)) {
          total = SaturatingAdd(total, all_paths_[previous + e.node]);
        }
      }
      all_paths_.push_back(total);
    }
  }
  return all_paths_[static_cast<size_t>(remaining) * nv + v];
}

}  // namespace rpqlearn
