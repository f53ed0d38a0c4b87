#include "learn/coverage.h"

#include <algorithm>
#include <span>

#include "util/logging.h"

namespace rpqlearn {
namespace {

uint64_t HashSubset(std::span<const StateId> subset) {
  uint64_t h = subset.size();
  for (StateId s : subset) {
    h = (h ^ s) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

StatusOr<SubsetCoverage> SubsetCoverage::Build(const Nfa& nfa,
                                               const Options& options) {
  RPQ_CHECK(!nfa.has_epsilon_transitions())
      << "SubsetCoverage requires an ε-free NFA";
  SubsetCoverage cov;
  cov.k_ = options.k;
  cov.num_symbols_ = nfa.num_symbols();

  // The subsets, back to back: state s holds members[offsets[s],
  // offsets[s + 1]).
  std::vector<StateId> members;
  std::vector<size_t> offsets = {0};
  std::vector<uint64_t> hashes;
  auto subset_of = [&](StateId s) {
    return std::span<const StateId>(members).subspan(
        offsets[s], offsets[s + 1] - offsets[s]);
  };
  // Interning table: open addressing over the ids of the non-empty subsets.
  // Ids are assigned in BFS discovery order, so the table's layout never
  // shows in the result.
  std::vector<StateId> slots(64, kNoState);
  auto slot_of = [&](std::span<const StateId> subset, uint64_t hash) {
    const size_t mask = slots.size() - 1;
    size_t i = hash & mask;
    while (slots[i] != kNoState &&
           !(hashes[slots[i]] == hash &&
             std::ranges::equal(subset_of(slots[i]), subset))) {
      i = (i + 1) & mask;
    }
    return i;
  };
  auto add_state = [&](std::span<const StateId> subset, uint64_t hash,
                       uint32_t depth) -> StateId {
    const StateId id = static_cast<StateId>(hashes.size());
    cov.covering_.push_back(std::ranges::any_of(
        subset, [&](StateId s) { return nfa.IsAccepting(s); }));
    cov.depth_.push_back(depth);
    cov.table_.insert(cov.table_.end(), cov.num_symbols_, kNoState);
    members.insert(members.end(), subset.begin(), subset.end());
    offsets.push_back(members.size());
    hashes.push_back(hash);
    if (id == 0) return id;  // the empty subset is never looked up
    if (2 * hashes.size() > slots.size()) {
      slots.assign(2 * slots.size(), kNoState);
      for (StateId s = 1; s < hashes.size(); ++s) {
        slots[slot_of(subset_of(s), hashes[s])] = s;
      }
    } else {
      slots[slot_of(subset, hash)] = id;
    }
    return id;
  };

  // State 0: the empty subset, self-looping on every symbol.
  add_state({}, 0, 0);
  for (Symbol a = 0; a < cov.num_symbols_; ++a) {
    cov.table_[a] = 0;
  }

  std::vector<StateId> start = nfa.initial_states();
  std::sort(start.begin(), start.end());
  start.erase(std::unique(start.begin(), start.end()), start.end());
  cov.initial_ = start.empty() ? 0 : add_state(start, HashSubset(start), 0);

  // Breadth-first: states are numbered in discovery order, so visiting them
  // by id is the BFS queue.
  std::vector<std::vector<StateId>> buckets(cov.num_symbols_);
  for (StateId current = 1; current < hashes.size(); ++current) {
    if (cov.depth_[current] >= cov.k_) continue;  // no transitions needed
    for (auto& bucket : buckets) bucket.clear();
    for (StateId member : subset_of(current)) {
      for (const auto& [a, t] : nfa.TransitionsFrom(member)) {
        buckets[a].push_back(t);
      }
    }
    for (Symbol a = 0; a < cov.num_symbols_; ++a) {
      std::vector<StateId>& next = buckets[a];
      StateId target = 0;
      if (!next.empty()) {
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        const uint64_t hash = HashSubset(next);
        target = slots[slot_of(next, hash)];
        if (target == kNoState) {
          if (hashes.size() >= options.max_states) {
            return Status::ResourceExhausted(
                "subset coverage exceeded state cap");
          }
          target = add_state(next, hash, cov.depth_[current] + 1);
        }
      }
      cov.table_[static_cast<size_t>(current) * cov.num_symbols_ + a] =
          target;
    }
  }
  return cov;
}

}  // namespace rpqlearn
