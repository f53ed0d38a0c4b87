#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "automata/ops.h"
#include "graph/fixtures.h"
#include "graph/graph_nfa.h"
#include "query/eval.h"
#include "query/path_query.h"
#include "regex/parser.h"
#include "regex/to_nfa.h"

namespace rpqlearn {
namespace {

Dfa QueryOn(const Graph& graph, const std::string& regex) {
  Alphabet alphabet = graph.alphabet();
  auto q = PathQuery::Parse(regex, &alphabet, graph.num_symbols());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q->dfa();
}

TEST(EvalTest, Figure1GeoQuerySelectsPaperNodes) {
  // Sec. 1: (tram+bus)*·cinema selects N1, N2, N4, N6 and not N5.
  Graph g = Figure1Geographic();
  Dfa q = QueryOn(g, "(tram+bus)*.cinema");
  BitVector result = EvalMonadic(g, q);
  auto expect = [&](const char* name, bool selected) {
    EXPECT_EQ(result.Test(g.FindNodeByName(name)), selected) << name;
  };
  expect("N1", true);
  expect("N2", true);
  expect("N4", true);
  expect("N6", true);
  expect("N3", false);
  expect("N5", false);
  expect("C1", false);
  expect("C2", false);
  EXPECT_EQ(result.Count(), 4u);
}

TEST(EvalTest, Figure3QueriesFromSection2) {
  Graph g = Figure3G0();
  // "the query a selects all nodes except ν4".
  BitVector a_result = EvalMonadic(g, QueryOn(g, "a"));
  EXPECT_EQ(a_result.Count(), 6u);
  EXPECT_FALSE(a_result.Test(3));
  // "the query (a·b)*·c selects the nodes ν1 and ν3".
  BitVector abc_result = EvalMonadic(g, QueryOn(g, "(a.b)*.c"));
  EXPECT_EQ(abc_result.ToIndices(), (std::vector<uint32_t>{0, 2}));
  // "the query b·b·c·c selects no node".
  BitVector bbcc_result = EvalMonadic(g, QueryOn(g, "b.b.c.c"));
  EXPECT_TRUE(bbcc_result.None());
}

TEST(EvalTest, EpsilonQuerySelectsEverything) {
  Graph g = Figure3G0();
  BitVector result = EvalMonadic(g, QueryOn(g, "eps"));
  EXPECT_EQ(result.Count(), g.num_nodes());
}

TEST(EvalTest, EmptyLanguageSelectsNothing) {
  Graph g = Figure3G0();
  Dfa empty(g.num_symbols());
  empty.AddState(false);
  EXPECT_TRUE(EvalMonadic(g, empty).None());
}

TEST(EvalTest, AgreesWithGenericAutomataPath) {
  // Cross-check the dense product engine against the generic
  // intersection-emptiness formulation: ν ∈ q(G) iff
  // L(q) ∩ paths_G(ν) ≠ ∅.
  Graph g = Figure3G0();
  Alphabet alphabet = g.alphabet();
  for (const char* regex : {"a.b", "(a+b)*.c", "c.c", "a*"}) {
    auto ast = ParseRegex(regex, &alphabet);
    ASSERT_TRUE(ast.ok());
    Dfa q = RegexToCanonicalDfa(ast.value(), g.num_symbols());
    BitVector bulk = EvalMonadic(g, q);
    Nfa query_nfa = q.ToNfa();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      Nfa paths = GraphToNfa(g, {v});
      bool generic = !IntersectionIsEmpty(query_nfa, paths);
      EXPECT_EQ(bulk.Test(v), generic) << regex << " node " << v;
    }
  }
}

TEST(EvalBoundedTest, RespectsLengthBound) {
  Graph g = Figure3G0();
  Dfa q = QueryOn(g, "(a.b)*.c");
  // ν3 has witness c (length 1); ν1 needs abc (length 3).
  BitVector len1 = EvalMonadicBounded(g, q, 1);
  EXPECT_TRUE(len1.Test(2));
  EXPECT_FALSE(len1.Test(0));
  BitVector len3 = EvalMonadicBounded(g, q, 3);
  EXPECT_TRUE(len3.Test(0));
  // Unbounded-equivalent when the bound is generous.
  BitVector full = EvalMonadic(g, q);
  BitVector wide = EvalMonadicBounded(g, q, 32);
  EXPECT_TRUE(full == wide);
}

TEST(EvalBinaryTest, PairsOnFigure3) {
  Graph g = Figure3G0();
  Dfa q = QueryOn(g, "(a.b)*.c");
  // (ν1, ν4) via abc; (ν3, ν4) via c; no (ν4, ν4) since ε ∉ L.
  const std::vector<std::pair<NodeId, NodeId>> expected{{0, 3}, {2, 3}};
  EXPECT_EQ(EvalBinary(g, q), expected);
}

TEST(EvalBinaryTest, EpsilonSelectsDiagonal) {
  Graph g = Figure3G0();
  Dfa q = QueryOn(g, "eps");
  auto pairs = EvalBinary(g, q);
  EXPECT_EQ(pairs.size(), g.num_nodes());
  for (const auto& [s, t] : pairs) EXPECT_EQ(s, t);
}

TEST(EvalBinaryTest, FromNodeReachability) {
  Graph g = Figure1Geographic();
  Dfa q = QueryOn(g, "(tram+bus)*.cinema");
  const NodeId n2 = g.FindNodeByName("N2");
  const NodeId sources[] = {n2};
  auto from_n2 = EvalBinaryFromSources(g, q, sources);
  ASSERT_TRUE(from_n2.ok()) << from_n2.status().ToString();
  auto selects = [&](const char* name) {
    return std::find(from_n2->begin(), from_n2->end(),
                     std::make_pair(n2, g.FindNodeByName(name))) !=
           from_n2->end();
  };
  EXPECT_TRUE(selects("C1"));
  EXPECT_FALSE(selects("C2"));
}

}  // namespace
}  // namespace rpqlearn
