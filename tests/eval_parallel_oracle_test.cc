#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "automata/random_automata.h"
#include "graph/generators.h"
#include "query/eval.h"
#include "query/eval_reference.h"
#include "util/random.h"

namespace rpqlearn {
namespace {

// Differential and property tests for the thread-pool evaluation layer:
// the monadic sweep must match the retained seed references, every thread
// count must produce binary results byte-identical to the single-threaded
// path and the references, and binary evaluation must be invariant under
// source-set permutation and call splitting (the properties that break
// when lane partitioning miscounts).

// Thread counts to sweep: 1 (sequential path), small counts, and 8, which
// exceeds the batch count of the configurations below (so the worker count
// is clamped to the batches).
constexpr uint32_t kThreadSweep[] = {1, 2, 3, 8};

/// Default options with the worker count pinned.
EvalOptions ParallelOptions(uint32_t threads) {
  EvalOptions options;
  options.threads = threads;
  return options;
}

Graph RandomGraph(Rng* rng, uint32_t max_nodes, uint32_t num_labels) {
  ErdosRenyiOptions options;
  options.num_nodes = 2 + static_cast<uint32_t>(rng->NextBelow(max_nodes - 1));
  options.num_edges =
      options.num_nodes +
      rng->NextBelow(3 * static_cast<size_t>(options.num_nodes));
  options.num_labels = num_labels;
  options.seed = rng->Next();
  return GenerateErdosRenyi(options);
}

Dfa RandomQuery(Rng* rng, uint32_t num_symbols) {
  RandomAutomatonOptions options;
  options.num_states = 1 + static_cast<uint32_t>(rng->NextBelow(6));
  options.num_symbols = num_symbols;
  options.transition_density = 0.3 + 0.6 * rng->NextDouble();
  options.accepting_probability = 0.4;
  return RandomDfa(rng, options);
}

std::vector<NodeId> RandomSources(Rng* rng, uint32_t num_nodes,
                                  size_t count) {
  std::vector<NodeId> sources;
  for (size_t i = 0; i < count; ++i) {
    sources.push_back(static_cast<NodeId>(rng->NextBelow(num_nodes)));
  }
  return sources;
}

/// Oracle for EvalBinaryFromSources: one reference single-source BFS per
/// entry, groups in input order, destinations ascending.
std::vector<std::pair<NodeId, NodeId>> BinaryFromSourcesReference(
    const Graph& graph, const Dfa& query, const std::vector<NodeId>& sources) {
  std::vector<std::pair<NodeId, NodeId>> expected;
  for (NodeId src : sources) {
    BitVector targets = EvalBinaryFromReference(graph, query, src);
    for (uint32_t dst : targets.ToIndices()) {
      expected.emplace_back(src, dst);
    }
  }
  return expected;
}

TEST(EvalParallelOracleTest, MonadicMatchesSequentialAndReference) {
  Rng rng(21);
  for (int iteration = 0; iteration < 40; ++iteration) {
    const uint32_t num_labels = 2 + static_cast<uint32_t>(rng.NextBelow(3));
    Graph g = RandomGraph(&rng, 60, num_labels);
    Dfa q = RandomQuery(
        &rng, 1 + static_cast<uint32_t>(rng.NextBelow(num_labels)));
    const BitVector reference = EvalMonadicReference(g, q);
    EXPECT_TRUE(EvalMonadic(g, q) == reference) << "iteration " << iteration;
    StatusOr<BitVector> with_options = EvalMonadic(g, q, EvalOptions{});
    ASSERT_TRUE(with_options.ok()) << with_options.status().ToString();
    EXPECT_TRUE(*with_options == reference) << "iteration " << iteration;
  }
}

TEST(EvalParallelOracleTest, MonadicBoundedMatchesSequentialAndReference) {
  Rng rng(22);
  for (int iteration = 0; iteration < 40; ++iteration) {
    Graph g = RandomGraph(&rng, 60, 3);
    Dfa q = RandomQuery(&rng, 3);
    const uint32_t bound = static_cast<uint32_t>(rng.NextBelow(7));
    const BitVector reference = EvalMonadicBoundedReference(g, q, bound);
    EXPECT_TRUE(EvalMonadicBounded(g, q, bound) == reference)
        << "iteration " << iteration << ", bound " << bound;
    StatusOr<BitVector> with_options =
        EvalMonadicBounded(g, q, bound, EvalOptions{});
    ASSERT_TRUE(with_options.ok()) << with_options.status().ToString();
    EXPECT_TRUE(*with_options == reference)
        << "iteration " << iteration << ", bound " << bound;
  }
}

TEST(EvalParallelOracleTest, BinaryMatchesSequentialAndReference) {
  Rng rng(23);
  for (int iteration = 0; iteration < 30; ++iteration) {
    Graph g = RandomGraph(&rng, 60, 3);
    Dfa q = RandomQuery(&rng, 3);
    const auto reference = EvalBinaryReference(g, q);
    const auto sequential = EvalBinary(g, q);
    EXPECT_EQ(sequential, reference) << "iteration " << iteration;
    for (uint32_t threads : kThreadSweep) {
      auto parallel = EvalBinary(g, q, ParallelOptions(threads));
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(*parallel, sequential)
          << "iteration " << iteration << ", threads " << threads;
    }
  }
}

TEST(EvalParallelOracleTest, BinaryCrossesLaneBoundariesEveryThreadCount) {
  // Graphs larger than one 64-source batch: several batches per call, and
  // thread counts both below and above the batch count.
  Rng rng(24);
  for (int iteration = 0; iteration < 6; ++iteration) {
    ErdosRenyiOptions options;
    options.num_nodes = 65 + static_cast<uint32_t>(rng.NextBelow(200));
    options.num_edges = 4 * static_cast<size_t>(options.num_nodes);
    options.num_labels = 3;
    options.seed = rng.Next();
    Graph g = GenerateErdosRenyi(options);
    Dfa q = RandomQuery(&rng, 3);
    const auto sequential = EvalBinary(g, q);
    EXPECT_EQ(sequential, EvalBinaryReference(g, q))
        << "iteration " << iteration;
    for (uint32_t threads : kThreadSweep) {
      auto parallel = EvalBinary(g, q, ParallelOptions(threads));
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(*parallel, sequential)
          << "iteration " << iteration << ", threads " << threads;
    }
  }
}

TEST(EvalParallelOracleTest, BinaryFromSourcesMatchesPerSourceReference) {
  Rng rng(25);
  for (int iteration = 0; iteration < 30; ++iteration) {
    Graph g = RandomGraph(&rng, 80, 3);
    Dfa q = RandomQuery(&rng, 3);
    // Random size crossing the 64-lane boundary now and then, with
    // duplicate sources (each occurrence must be answered).
    std::vector<NodeId> sources =
        RandomSources(&rng, g.num_nodes(), 1 + rng.NextBelow(150));
    const auto expected = BinaryFromSourcesReference(g, q, sources);
    for (uint32_t threads : kThreadSweep) {
      auto actual =
          EvalBinaryFromSources(g, q, sources, ParallelOptions(threads));
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(*actual, expected)
          << "iteration " << iteration << ", threads " << threads;
    }
  }
}

TEST(EvalParallelPropertyTest, BinaryInvariantUnderSourcePermutation) {
  // Permuting the source set permutes the per-source groups and nothing
  // else — a lane-bookkeeping bug (masks leaking between lanes or batches)
  // shows up as a different pair multiset.
  Rng rng(26);
  for (int iteration = 0; iteration < 20; ++iteration) {
    Graph g = RandomGraph(&rng, 90, 3);
    Dfa q = RandomQuery(&rng, 3);
    std::vector<NodeId> sources =
        RandomSources(&rng, g.num_nodes(), 10 + rng.NextBelow(140));
    std::vector<NodeId> permuted = sources;
    rng.Shuffle(&permuted);
    for (uint32_t threads : kThreadSweep) {
      auto original =
          EvalBinaryFromSources(g, q, sources, ParallelOptions(threads));
      auto shuffled =
          EvalBinaryFromSources(g, q, permuted, ParallelOptions(threads));
      ASSERT_TRUE(original.ok() && shuffled.ok());
      std::vector<std::pair<NodeId, NodeId>> a = *original;
      std::vector<std::pair<NodeId, NodeId>> b = *shuffled;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "iteration " << iteration << ", threads " << threads;
    }
  }
}

TEST(EvalParallelPropertyTest, BinarySplitCallsUnionToWholeCall) {
  // Splitting one call into several smaller-batch calls whose concatenated
  // source lists match the original must concatenate to the original
  // result — catches per-call range/offset bookkeeping bugs.
  Rng rng(27);
  for (int iteration = 0; iteration < 20; ++iteration) {
    Graph g = RandomGraph(&rng, 90, 3);
    Dfa q = RandomQuery(&rng, 3);
    std::vector<NodeId> sources =
        RandomSources(&rng, g.num_nodes(), 20 + rng.NextBelow(130));
    for (uint32_t threads : kThreadSweep) {
      auto whole =
          EvalBinaryFromSources(g, q, sources, ParallelOptions(threads));
      ASSERT_TRUE(whole.ok());
      // Split into 2–5 contiguous chunks at random boundaries.
      const size_t num_chunks = 2 + rng.NextBelow(4);
      std::vector<std::pair<NodeId, NodeId>> stitched;
      size_t begin = 0;
      for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
        size_t end = chunk + 1 == num_chunks
                         ? sources.size()
                         : begin + rng.NextBelow(sources.size() - begin + 1);
        auto part = EvalBinaryFromSources(
            g, q,
            std::span<const NodeId>(sources.data() + begin, end - begin),
            ParallelOptions(threads));
        ASSERT_TRUE(part.ok());
        stitched.insert(stitched.end(), part->begin(), part->end());
        begin = end;
      }
      EXPECT_EQ(stitched, *whole)
          << "iteration " << iteration << ", threads " << threads;
    }
  }
}

TEST(EvalParallelOracleTest, ZeroThreadsIsInvalidArgumentEverywhere) {
  Rng rng(29);
  Graph g = RandomGraph(&rng, 20, 2);
  Dfa q = RandomQuery(&rng, 2);
  EvalOptions zero;
  zero.threads = 0;

  StatusOr<BitVector> monadic = EvalMonadic(g, q, zero);
  ASSERT_FALSE(monadic.ok());
  EXPECT_EQ(monadic.status().code(), StatusCode::kInvalidArgument);

  StatusOr<BitVector> bounded = EvalMonadicBounded(g, q, 3, zero);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kInvalidArgument);

  auto binary = EvalBinary(g, q, zero);
  ASSERT_FALSE(binary.ok());
  EXPECT_EQ(binary.status().code(), StatusCode::kInvalidArgument);

  const std::vector<NodeId> sources{0};
  auto from_sources = EvalBinaryFromSources(g, q, sources, zero);
  ASSERT_FALSE(from_sources.ok());
  EXPECT_EQ(from_sources.status().code(), StatusCode::kInvalidArgument);

  // The shared validator reports the same error and clamps large counts.
  StatusOr<EvalOptions> invalid = ValidateEvalOptions(zero);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  EvalOptions huge;
  huge.threads = kMaxEvalThreads + 1000;
  StatusOr<EvalOptions> clamped = ValidateEvalOptions(huge);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->threads, kMaxEvalThreads);
}

TEST(EvalParallelOracleTest, OutOfRangeSourceIsInvalidArgument) {
  Rng rng(30);
  Graph g = RandomGraph(&rng, 20, 2);
  Dfa q = RandomQuery(&rng, 2);
  const std::vector<NodeId> sources{0, g.num_nodes()};
  auto result = EvalBinaryFromSources(g, q, sources);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalParallelOracleTest, DefaultOptionsMatchSequentialOnLargerGraph) {
  // Default-constructed EvalOptions (hardware threads) must agree with the
  // sequential engine — this is the configuration every legacy call site
  // runs.
  Rng rng(31);
  ErdosRenyiOptions options;
  options.num_nodes = 300;
  options.num_edges = 1500;
  options.num_labels = 3;
  options.seed = 99;
  Graph g = GenerateErdosRenyi(options);
  Dfa q = RandomQuery(&rng, 3);
  EvalOptions one_thread;
  one_thread.threads = 1;
  StatusOr<BitVector> sequential = EvalMonadic(g, q, one_thread);
  ASSERT_TRUE(sequential.ok());
  StatusOr<BitVector> defaulted = EvalMonadic(g, q, EvalOptions{});
  ASSERT_TRUE(defaulted.ok());
  EXPECT_TRUE(*defaulted == *sequential);
  auto binary_sequential = EvalBinary(g, q, one_thread);
  auto binary_defaulted = EvalBinary(g, q, EvalOptions{});
  ASSERT_TRUE(binary_sequential.ok() && binary_defaulted.ok());
  EXPECT_EQ(*binary_defaulted, *binary_sequential);
}

}  // namespace
}  // namespace rpqlearn
