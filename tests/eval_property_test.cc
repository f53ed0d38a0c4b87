#include <gtest/gtest.h>

#include "automata/word.h"
#include "graph/generators.h"
#include "query/eval.h"
#include "regex/random_regex.h"
#include "regex/to_nfa.h"
#include "util/random.h"

namespace rpqlearn {
namespace {

/// Brute-force monadic evaluation: enumerate all words of L(q) up to a
/// length that covers every possible product-state pair, and test each with
/// the subset path-matcher. Sound on these sizes because a witness path, if
/// one exists, can be pumped down below |V|·|Q| steps.
BitVector EvalByEnumeration(const Graph& graph, const Dfa& query,
                            uint32_t max_length) {
  BitVector result(graph.num_nodes());
  for (const Word& w : AllWordsUpTo(query.num_symbols(), max_length)) {
    if (!query.Accepts(w)) continue;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (!result.Test(v) && graph.HasPathFrom(v, w)) result.Set(v);
    }
  }
  return result;
}

class EvalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvalPropertyTest, ProductEngineMatchesEnumeration) {
  Rng rng(GetParam());
  ErdosRenyiOptions graph_options;
  graph_options.num_nodes = 12;
  graph_options.num_edges = 30;
  graph_options.num_labels = 2;
  graph_options.seed = GetParam() * 31 + 7;
  Graph graph = GenerateErdosRenyi(graph_options);

  RandomRegexOptions regex_options;
  regex_options.num_symbols = 2;
  regex_options.max_depth = 3;
  for (int iteration = 0; iteration < 10; ++iteration) {
    RegexPtr regex = RandomRegex(&rng, regex_options);
    Dfa query = RegexToCanonicalDfa(regex, 2);
    // |V|·|Q| bounds the product, so words longer than that are pumpable;
    // keep the bound small enough to enumerate.
    uint32_t bound = std::min<uint32_t>(
        10, graph.num_nodes() * std::max(1u, query.num_states()));
    BitVector fast = EvalMonadic(graph, query);
    BitVector slow = EvalByEnumeration(graph, query, bound);
    // Enumeration may under-approximate if the bound truncates; it must
    // always be a subset, and equal when the bound was not the limiter.
    EXPECT_TRUE(slow.IsSubsetOf(fast)) << "iteration " << iteration;
    if (bound == graph.num_nodes() * query.num_states()) {
      EXPECT_TRUE(fast == slow) << "iteration " << iteration;
    }
  }
}

TEST_P(EvalPropertyTest, BoundedEvalIsMonotoneInLength) {
  Rng rng(GetParam() + 1000);
  ErdosRenyiOptions graph_options;
  graph_options.num_nodes = 20;
  graph_options.num_edges = 60;
  graph_options.num_labels = 3;
  graph_options.seed = GetParam();
  Graph graph = GenerateErdosRenyi(graph_options);

  RandomRegexOptions regex_options;
  regex_options.num_symbols = 3;
  regex_options.max_depth = 3;
  RegexPtr regex = RandomRegex(&rng, regex_options);
  Dfa query = RegexToCanonicalDfa(regex, 3);

  BitVector previous(graph.num_nodes());
  for (uint32_t len = 0; len <= 8; ++len) {
    BitVector current = EvalMonadicBounded(graph, query, len);
    EXPECT_TRUE(previous.IsSubsetOf(current)) << "length " << len;
    previous = current;
  }
  // The unbounded result dominates every bounded one.
  BitVector full = EvalMonadic(graph, query);
  EXPECT_TRUE(previous.IsSubsetOf(full));
}

TEST_P(EvalPropertyTest, BinaryDiagonalConsistency) {
  // If (v, v) is selected under binary semantics with an ε-containing
  // query, then v is selected under monadic semantics too.
  Rng rng(GetParam() + 2000);
  ErdosRenyiOptions graph_options;
  graph_options.num_nodes = 15;
  graph_options.num_edges = 40;
  graph_options.num_labels = 2;
  graph_options.seed = GetParam() * 3;
  Graph graph = GenerateErdosRenyi(graph_options);

  RandomRegexOptions regex_options;
  regex_options.num_symbols = 2;
  regex_options.max_depth = 3;
  RegexPtr regex = RandomRegex(&rng, regex_options);
  Dfa query = RegexToCanonicalDfa(regex, 2);

  BitVector monadic = EvalMonadic(graph, query);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const NodeId sources[] = {v};
    auto from_v = EvalBinaryFromSources(graph, query, sources);
    ASSERT_TRUE(from_v.ok()) << from_v.status().ToString();
    // Monadic selection of v ⟺ some binary target from v exists.
    EXPECT_EQ(monadic.Test(v), !from_v->empty()) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace rpqlearn
