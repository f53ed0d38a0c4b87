#include <gtest/gtest.h>

#include "automata/equivalence.h"
#include "automata/prefix_free.h"
#include "graph/fixtures.h"
#include "learn/learner.h"
#include "query/eval.h"
#include "query/path_query.h"
#include "regex/printer.h"
#include "regex/from_dfa.h"

namespace rpqlearn {
namespace {

Sample ToSample(const FixtureSample& fs) {
  Sample s;
  s.positive = fs.positive;
  s.negative = fs.negative;
  return s;
}

Dfa QueryOn(const Graph& graph, const std::string& regex) {
  Alphabet alphabet = graph.alphabet();
  auto q = PathQuery::Parse(regex, &alphabet, graph.num_symbols());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q->dfa();
}

TEST(LearnerTest, PaperWalkthroughFig3LearnsAbStarC) {
  // Sec. 3.2: on G0 with S+ = {ν1, ν3}, S− = {ν2, ν7} and k = 3 the
  // learner returns (a·b)*·c.
  Graph g = Figure3G0();
  Sample sample = ToSample(Figure3Sample());
  LearnerOptions options;
  options.k = 3;
  options.auto_k = false;
  LearnOutcome outcome = LearnPathQuery(g, sample, options);
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(AreEquivalent(outcome.query, QueryOn(g, "(a.b)*.c")));
  EXPECT_EQ(outcome.stats.num_scps, 2u);
  EXPECT_EQ(outcome.stats.pta_states, 5u);  // Fig. 6(a)
  EXPECT_EQ(outcome.query.num_states(), 3u);  // Fig. 6(b) / Fig. 4
}

TEST(LearnerTest, DynamicKReachesFig3Result) {
  // With auto-k starting at 2 (the experimental setting of Sec. 5.1), k is
  // raised until all positives are selected.
  Graph g = Figure3G0();
  Sample sample = ToSample(Figure3Sample());
  LearnerOptions options;  // defaults: k = 2, auto_k = true
  LearnOutcome outcome = LearnPathQuery(g, sample, options);
  ASSERT_FALSE(outcome.is_null);
  EXPECT_EQ(outcome.stats.k_used, 3u);
  EXPECT_TRUE(AreEquivalent(outcome.query, QueryOn(g, "(a.b)*.c")));
}

TEST(LearnerTest, LearnedRegexPrintsAsPaper) {
  Graph g = Figure3G0();
  Sample sample = ToSample(Figure3Sample());
  LearnOutcome outcome = LearnPathQuery(g, sample, {});
  ASSERT_FALSE(outcome.is_null);
  std::string rendered =
      RegexToString(DfaToRegex(outcome.query), g.alphabet());
  EXPECT_EQ(rendered, "(a.b)*.c");
}

TEST(LearnerTest, AbstainsOnInconsistentFig5) {
  Graph g = Figure5Inconsistent();
  Sample sample = ToSample(Figure5Sample());
  LearnOutcome outcome = LearnPathQuery(g, sample, {});
  EXPECT_TRUE(outcome.is_null);
}

TEST(LearnerTest, AbstainsWhenKTooSmallWithoutAutoK) {
  Graph g = Figure3G0();
  Sample sample = ToSample(Figure3Sample());
  LearnerOptions options;
  options.k = 2;
  options.auto_k = false;
  LearnOutcome outcome = LearnPathQuery(g, sample, options);
  EXPECT_TRUE(outcome.is_null);
}

TEST(LearnerTest, Figure8LearnsEquivalentQueryA) {
  // Sec. 3.3: on Fig. 8 the learner cannot identify (a·b)*·c but returns
  // the indistinguishable query `a`.
  Graph g = Figure8EquivalentOnly();
  Sample sample = ToSample(Figure8Sample());
  LearnOutcome outcome = LearnPathQuery(g, sample, {});
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(AreEquivalent(outcome.query, QueryOn(g, "a")));
  // Same node set as the goal (a·b)*·c on this graph.
  BitVector learned_set = EvalMonadic(g, outcome.query);
  BitVector goal_set = EvalMonadic(g, QueryOn(g, "(a.b)*.c"));
  EXPECT_TRUE(learned_set == goal_set);
}

TEST(LearnerTest, ResultIsConsistentWithSample) {
  Graph g = Figure3G0();
  Sample sample = ToSample(Figure3Sample());
  LearnOutcome outcome = LearnPathQuery(g, sample, {});
  ASSERT_FALSE(outcome.is_null);
  BitVector selected = EvalMonadic(g, outcome.query);
  for (NodeId v : sample.positive) EXPECT_TRUE(selected.Test(v));
  for (NodeId v : sample.negative) EXPECT_FALSE(selected.Test(v));
}

TEST(LearnerTest, ResultIsPrefixFree) {
  Graph g = Figure3G0();
  LearnOutcome outcome = LearnPathQuery(g, ToSample(Figure3Sample()), {});
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(IsPrefixFree(outcome.query));
}

TEST(LearnerTest, NoNegativesLearnsEpsilon) {
  // With only positive examples, every node's SCP is ε and the learned
  // query is ε (selects everything) — trivially consistent.
  Graph g = Figure3G0();
  Sample sample;
  sample.positive = {0, 2, 4};
  LearnOutcome outcome = LearnPathQuery(g, sample, {});
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(outcome.query.Accepts({}));
  EXPECT_EQ(EvalMonadic(g, outcome.query).Count(), g.num_nodes());
}

TEST(LearnerTest, EmptySampleLearnsEmptyQuery) {
  Graph g = Figure3G0();
  LearnOutcome outcome = LearnPathQuery(g, Sample{}, {});
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(outcome.query.IsEmptyLanguage());
}

TEST(LearnerTest, OnlyNegativesLearnsEmptyQuery) {
  Graph g = Figure3G0();
  Sample sample;
  sample.negative = {1, 6};
  LearnOutcome outcome = LearnPathQuery(g, sample, {});
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(outcome.query.IsEmptyLanguage());
}

TEST(LearnerTest, GeneralizationOffReturnsScpDisjunction) {
  // The Sec. 5.2 ablation: without generalization the learner returns the
  // plain disjunction c + a·b·c.
  Graph g = Figure3G0();
  Sample sample = ToSample(Figure3Sample());
  LearnerOptions options;
  options.k = 3;
  options.auto_k = false;
  options.generalize = false;
  LearnOutcome outcome = LearnPathQuery(g, sample, options);
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(AreEquivalent(outcome.query, QueryOn(g, "c+(a.b.c)")));
  EXPECT_FALSE(outcome.query.Accepts({0, 1, 0, 1, 2}));  // no Kleene star
}

TEST(LearnerTest, Figure10LearnsB) {
  Graph g = Figure10Certain();
  Sample sample = ToSample(Figure10Sample());
  LearnOutcome outcome = LearnPathQuery(g, sample, {});
  ASSERT_FALSE(outcome.is_null);
  EXPECT_TRUE(AreEquivalent(outcome.query, QueryOn(g, "b")));
  // The certain node (id 2) is selected by the learned query.
  EXPECT_TRUE(EvalMonadic(g, outcome.query).Test(2));
}

TEST(LearnerTest, GeoExampleFromIntroduction) {
  // Sec. 1: positives {N2, N6}, negative {N5} — a consistent query must
  // select N2 and N6 but not N5; the goal (tram+bus)*·cinema is one.
  Graph g = Figure1Geographic();
  Sample sample;
  sample.positive = {g.FindNodeByName("N2"), g.FindNodeByName("N6")};
  sample.negative = {g.FindNodeByName("N5")};
  LearnOutcome outcome = LearnPathQuery(g, sample, {});
  ASSERT_FALSE(outcome.is_null);
  BitVector selected = EvalMonadic(g, outcome.query);
  EXPECT_TRUE(selected.Test(g.FindNodeByName("N2")));
  EXPECT_TRUE(selected.Test(g.FindNodeByName("N6")));
  EXPECT_FALSE(selected.Test(g.FindNodeByName("N5")));
}

TEST(LearnerTest, StatsArepopulated) {
  Graph g = Figure3G0();
  LearnOutcome outcome = LearnPathQuery(g, ToSample(Figure3Sample()), {});
  ASSERT_FALSE(outcome.is_null);
  EXPECT_EQ(outcome.stats.positives_with_scp, 2u);
  EXPECT_GT(outcome.stats.merges_attempted, 0u);
  EXPECT_GT(outcome.stats.merges_accepted, 0u);
}

}  // namespace
}  // namespace rpqlearn
