// Differential oracles for the interactive loop's node selection and the
// learner's negative-side automata: the forward k-informative search and
// the bounded kS argmin against their reference implementations, the
// in-place negative NFA against a fresh GraphToNfa, and the hashed coverage
// build against a map-interned reference build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "automata/random_automata.h"
#include "graph/generators.h"
#include "graph/graph_nfa.h"
#include "interact/informative.h"
#include "interact/informative_reference.h"
#include "interact/oracle.h"
#include "interact/session.h"
#include "interact/strategy.h"
#include "learn/incremental.h"
#include "util/random.h"
#include "workloads/workloads.h"

namespace rpqlearn {
namespace {

std::optional<SubsetCoverage> CoverageOf(const Graph& g,
                                         const std::vector<NodeId>& negatives,
                                         uint32_t k) {
  SubsetCoverage::Options options;
  options.k = k;
  StatusOr<SubsetCoverage> cov =
      SubsetCoverage::Build(GraphToNfa(g, negatives), options);
  if (!cov.ok()) return std::nullopt;
  return std::move(cov).value();
}

/// Asserts that the new informative set and both strategies' picks match
/// the references. Returns the number of mismatches (0 on success).
int DiffAgainstReference(const Graph& g, const Sample& sample,
                         const SubsetCoverage& cov, uint64_t seed) {
  int mismatches = 0;
  const BitVector informative = ComputeKInformative(g, cov);
  if (!(informative == ComputeKInformativeReference(g, cov))) {
    ADD_FAILURE() << "informative sets differ at k=" << cov.k();
    ++mismatches;
  }
  for (StrategyKind kind :
       {StrategyKind::kRandom, StrategyKind::kSmallestPaths}) {
    Rng rng(seed);
    Rng reference_rng(seed);
    const std::optional<NodeId> pick =
        PickNextNode(g, sample, cov, informative, kind, &rng);
    const std::optional<NodeId> expected = PickNextNodeReference(
        g, sample, cov, informative, kind, &reference_rng);
    if (pick != expected) {
      ADD_FAILURE() << "strategy " << static_cast<int>(kind)
                    << " picks differ at k=" << cov.k();
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(InformativeOracleTest, RandomGraphsMatchReference) {
  Rng rng(2024);
  int mismatches = 0;
  for (int trial = 0; trial < 60; ++trial) {
    ErdosRenyiOptions options;
    options.num_nodes = static_cast<uint32_t>(rng.NextInRange(5, 60));
    options.num_edges = options.num_nodes * rng.NextInRange(1, 4);
    options.num_labels = static_cast<uint32_t>(rng.NextInRange(1, 4));
    options.seed = rng.Next();
    const Graph g = GenerateErdosRenyi(options);
    Sample sample;
    const int num_negatives = static_cast<int>(rng.NextInRange(0, 4));
    for (int i = 0; i < num_negatives; ++i) {
      sample.AddNegative(static_cast<NodeId>(rng.NextBelow(g.num_nodes())));
    }
    sample.AddPositive(static_cast<NodeId>(rng.NextBelow(g.num_nodes())));
    for (uint32_t k = 1; k <= 5; ++k) {
      std::optional<SubsetCoverage> cov = CoverageOf(g, sample.negative, k);
      ASSERT_TRUE(cov.has_value());
      mismatches += DiffAgainstReference(g, sample, *cov, rng.Next());
      // CountBelow's contract: exact below the limit, at least it above.
      UncoveredPathCounter counter(g, *cov);
      UncoveredPathCounter bounded(g, *cov);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const uint64_t exact = counter.Count(v);
        const uint64_t limit = rng.NextBelow(exact + 3);
        const uint64_t below = bounded.CountBelow(v, limit);
        if (exact < limit) {
          EXPECT_EQ(below, exact) << "v=" << v << " limit=" << limit;
        } else {
          EXPECT_GE(below, limit) << "v=" << v;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

/// The Table-2 sessions: bio1–bio6 on the AliBaba-like graph and syn1–syn3
/// on syn1500, each under kR and kS.
struct Table2 {
  Dataset bio = BuildAlibabaDataset();
  Dataset syn = BuildSyntheticDataset(1500);
};

const Table2& Datasets() {
  static const Table2* datasets = new Table2();
  return *datasets;
}

class Table2StreamTest : public ::testing::TestWithParam<int> {};

TEST_P(Table2StreamTest, EveryStepMatchesReference) {
  // Replays the session's label stream (first 60 interactions) and diffs
  // node selection at k = 2..4 against the references along it.
  const int session = GetParam();
  const int goal = session / 2;
  const bool bio = goal < 6;
  const Dataset& dataset = bio ? Datasets().bio : Datasets().syn;
  const Graph& g = dataset.graph;
  const Oracle oracle =
      Oracle::FromQuery(g, dataset.queries[bio ? goal : goal - 6].query);
  SessionOptions options;
  options.strategy = session % 2 == 0 ? StrategyKind::kRandom
                                      : StrategyKind::kSmallestPaths;
  options.max_interactions = 60;
  options.seed = static_cast<uint64_t>(session) + 1;
  const SessionResult result = RunInteractiveSession(g, oracle, options);
  ASSERT_TRUE(result.status.ok());

  // k = 2 and 3 are diffed after every label. At k = 4 the reference BFS
  // allocates a |V|·|states| bitmap of ~10^8 bits per call on the
  // AliBaba-like graph, so k = 4 is diffed after every 10th label.
  constexpr uint32_t kMin = 2;
  constexpr uint32_t kMax = 4;
  constexpr size_t kMaxStride = 10;
  std::vector<std::optional<SubsetCoverage>> coverage(kMax + 1);
  std::vector<size_t> built_for(kMax + 1, SIZE_MAX);  // negatives covered
  Sample sample;
  int mismatches = 0;
  for (size_t step = 0; step <= result.interactions.size(); ++step) {
    for (uint32_t k = kMin; k <= kMax; ++k) {
      if (k == kMax && step % kMaxStride != 0) continue;
      if (built_for[k] != sample.negative.size()) {
        coverage[k] = CoverageOf(g, sample.negative, k);
        built_for[k] = sample.negative.size();
      }
      if (!coverage[k].has_value()) continue;  // state cap: nothing to diff
      mismatches += DiffAgainstReference(g, sample, *coverage[k], step + 1);
    }
    if (step == result.interactions.size()) break;
    const InteractionRecord& record = result.interactions[step];
    if (record.positive) {
      sample.AddPositive(record.node);
    } else {
      sample.AddNegative(record.node);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(AllSessions, Table2StreamTest,
                         ::testing::Range(0, 18));

void ExpectSameNfa(const Nfa& a, const Nfa& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  ASSERT_EQ(a.num_symbols(), b.num_symbols());
  EXPECT_EQ(a.has_epsilon_transitions(), b.has_epsilon_transitions());
  EXPECT_EQ(a.initial_states(), b.initial_states());
  for (StateId s = 0; s < a.num_states(); ++s) {
    EXPECT_EQ(a.IsAccepting(s), b.IsAccepting(s));
    EXPECT_EQ(a.TransitionsFrom(s), b.TransitionsFrom(s));
    EXPECT_EQ(a.EpsilonTransitionsFrom(s), b.EpsilonTransitionsFrom(s));
  }
}

TEST(NegativeNfaTest, InPlaceInsertEqualsGraphToNfa) {
  ScaleFreeOptions options;
  options.num_nodes = 200;
  options.num_edges = 600;
  options.num_labels = 6;
  const Graph g = GenerateScaleFree(options);
  IncrementalLearner learner(g, LearnerOptions{});
  ExpectSameNfa(learner.negative_nfa(), GraphToNfa(g, {}));
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    // Repeats included: GraphToNfa deduplicates the initial set.
    learner.AddNegative(static_cast<NodeId>(rng.NextBelow(g.num_nodes())));
    ExpectSameNfa(learner.negative_nfa(),
                  GraphToNfa(g, learner.sample().negative));
  }
}

/// The truncated subset automaton as the original Build computed it:
/// subsets interned in an ordered map, states numbered in BFS order.
struct ReferenceCoverage {
  StateId initial = 0;
  std::vector<bool> covering;
  std::vector<uint32_t> depth;
  std::vector<StateId> table;
};

ReferenceCoverage BuildReferenceCoverage(const Nfa& nfa, uint32_t k) {
  ReferenceCoverage cov;
  const uint32_t num_symbols = nfa.num_symbols();
  std::map<std::vector<StateId>, StateId> ids;
  std::vector<std::vector<StateId>> subsets;
  auto add_state = [&](std::vector<StateId> subset, uint32_t depth) {
    StateId id = static_cast<StateId>(subsets.size());
    cov.covering.push_back(nfa.ContainsAccepting(subset));
    cov.depth.push_back(depth);
    cov.table.insert(cov.table.end(), num_symbols, kNoState);
    ids.emplace(subset, id);
    subsets.push_back(std::move(subset));
    return id;
  };
  add_state({}, 0);
  for (Symbol a = 0; a < num_symbols; ++a) cov.table[a] = 0;
  std::vector<StateId> start = nfa.initial_states();
  std::sort(start.begin(), start.end());
  start.erase(std::unique(start.begin(), start.end()), start.end());
  std::deque<StateId> queue;
  if (!start.empty()) {
    cov.initial = add_state(std::move(start), 0);
    queue.push_back(cov.initial);
  }
  while (!queue.empty()) {
    const StateId current = queue.front();
    queue.pop_front();
    if (cov.depth[current] >= k) continue;
    for (Symbol a = 0; a < num_symbols; ++a) {
      std::vector<StateId> next;
      for (StateId member : subsets[current]) {
        for (const auto& [symbol, t] : nfa.TransitionsFrom(member)) {
          if (symbol == a) next.push_back(t);
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      StateId target = 0;
      if (!next.empty()) {
        auto it = ids.find(next);
        if (it != ids.end()) {
          target = it->second;
        } else {
          target = add_state(next, cov.depth[current] + 1);
          queue.push_back(target);
        }
      }
      cov.table[static_cast<size_t>(current) * num_symbols + a] = target;
    }
  }
  return cov;
}

TEST(CoverageOracleTest, HashedBuildMatchesReference) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    RandomAutomatonOptions options;
    options.num_states = static_cast<uint32_t>(rng.NextInRange(1, 12));
    options.num_symbols = static_cast<uint32_t>(rng.NextInRange(1, 4));
    options.transition_density = 0.6;
    options.accepting_probability = 0.4;
    Nfa nfa = RandomNfa(&rng, options);
    ASSERT_FALSE(nfa.has_epsilon_transitions());
    const int extra_initial = static_cast<int>(rng.NextInRange(0, 2));
    for (int i = 0; i < extra_initial; ++i) {
      nfa.AddInitial(static_cast<StateId>(rng.NextBelow(nfa.num_states())));
    }
    nfa.Finalize();
    const uint32_t k = static_cast<uint32_t>(rng.NextInRange(1, 4));
    SubsetCoverage::Options cov_options;
    cov_options.k = k;
    StatusOr<SubsetCoverage> cov = SubsetCoverage::Build(nfa, cov_options);
    ASSERT_TRUE(cov.ok());
    const ReferenceCoverage expected = BuildReferenceCoverage(nfa, k);
    ASSERT_EQ(cov->num_states(), expected.depth.size()) << "trial " << trial;
    EXPECT_EQ(cov->initial(), expected.initial);
    for (StateId s = 0; s < cov->num_states(); ++s) {
      EXPECT_EQ(cov->DepthOf(s), expected.depth[s]);
      EXPECT_EQ(cov->IsCovering(s), expected.covering[s]);
      if (s != 0 && expected.depth[s] >= k) continue;  // row not built
      for (Symbol a = 0; a < nfa.num_symbols(); ++a) {
        EXPECT_EQ(cov->Next(s, a),
                  expected.table[static_cast<size_t>(s) * nfa.num_symbols() +
                                 a]);
      }
    }
  }
}

TEST(UncoveredPathCounterTest, ExactAtBudgetsBeyondAByte) {
  // Every node has O(k) paths of length ≤ k, so brute force stays cheap at
  // k ≥ 257, where a memo key packing the budget into 8 bits aliases: the
  // self-loop revisits (0, initial state) at every budget, so an aliased
  // key answers a repeated query from a smaller budget's entry.
  //   0 -a-> 0, 0 -c-> 1        (candidates; 1 is a sink)
  //   5 -a-> 6 -b-> 5, 6 -c-> 1
  //   2 -a-> 2                  (negatives 2 and 3)
  //   3 -a-> 4 -b-> 3
  GraphBuilder builder;
  builder.AddNodes(7);
  const Symbol a = builder.InternLabel("a");
  const Symbol b = builder.InternLabel("b");
  const Symbol c = builder.InternLabel("c");
  builder.AddEdge(0, a, 0);
  builder.AddEdge(0, c, 1);
  builder.AddEdge(5, a, 6);
  builder.AddEdge(6, b, 5);
  builder.AddEdge(6, c, 1);
  builder.AddEdge(2, a, 2);
  builder.AddEdge(3, a, 4);
  builder.AddEdge(4, b, 3);
  const Graph g = builder.Build();
  const std::vector<NodeId> negatives = {2, 3};

  struct BruteForce {
    const Graph& g;
    const std::vector<NodeId>& negatives;
    uint64_t uncovered = 0;
    void Walk(NodeId node, Word& word, uint32_t remaining) {
      const bool covered =
          std::any_of(negatives.begin(), negatives.end(),
                      [&](NodeId n) { return g.HasPathFrom(n, word); });
      if (!covered) ++uncovered;
      if (remaining == 0) return;
      for (const LabeledEdge& e : g.OutEdges(node)) {
        word.push_back(e.label);
        Walk(e.node, word, remaining - 1);
        word.pop_back();
      }
    }
  };
  for (uint32_t k : {257u, 300u, 520u}) {
    std::optional<SubsetCoverage> cov = CoverageOf(g, negatives, k);
    ASSERT_TRUE(cov.has_value());
    UncoveredPathCounter counter(g, *cov);
    // Two passes: the memo is shared across queries, as in PickNextNode.
    for (int pass = 0; pass < 2; ++pass) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        BruteForce brute{g, negatives};
        Word word;
        brute.Walk(v, word, k);
        EXPECT_EQ(counter.Count(v), brute.uncovered)
            << "k=" << k << " v=" << v << " pass=" << pass;
      }
    }
  }
}

}  // namespace
}  // namespace rpqlearn
