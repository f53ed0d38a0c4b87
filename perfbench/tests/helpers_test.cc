// Tests of the benchmark's own helpers: the tail-percentile rule, least
// times over passes, self-time subtraction, seeded inputs, a short run of
// every workload that must pass all of its output checks, and the agreement
// of the per-layer metric list in BENCHMARK.json with the workloads and
// predictions.json.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "loadgen.h"
#include "query/eval.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SupportedPercentile(19, 99.0), 0.0);
  EXPECT_EQ(SupportedPercentile(20, 99.0), 50.0);
  EXPECT_EQ(SupportedPercentile(99, 99.0), 50.0);
  EXPECT_EQ(SupportedPercentile(100, 99.0), 90.0);
  EXPECT_EQ(SupportedPercentile(999, 99.0), 90.0);
  EXPECT_EQ(SupportedPercentile(1000, 99.0), 99.0);
  EXPECT_EQ(SupportedPercentile(100000, 99.0), 99.0);
  EXPECT_EQ(SupportedPercentile(100000, 99.9), 99.9);
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90.0), 9u);
}

TEST(TailRule, TailFallsBackToTheSupportedPercentile) {
  std::vector<double> samples;
  for (int i = 1; i <= 200; ++i) samples.push_back(i);
  const Tail tail = TailOf(samples, 99.0);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.value, 180.0);  // nearest rank: ceil(0.9 * 200)
  EXPECT_EQ(tail.samples, 200u);
  EXPECT_EQ(Percentile(samples, 50.0), 100.0);
}

TEST(Passes, EachOperationKeepsItsLeastTime) {
  const std::vector<double> least =
      PerOperationMin({{3.0, 1.0, 5.0}, {2.0, 4.0, 6.0, 9.0}, {4.0, 2.0, 0.5}});
  EXPECT_EQ(least, (std::vector<double>{2.0, 1.0, 0.5}));
  EXPECT_EQ(PassCount(40.0, 13.0), 3);
  EXPECT_EQ(PassCount(40.0, 20.0), 2);
  EXPECT_EQ(PassCount(1.0, 13.0), 1);
  EXPECT_DOUBLE_EQ(PerSecond({1.0, 3.0}), 500.0);  // 2 ops in 4 ms
}

TEST(Passes, OnCpuTimeIsWallTimeLessWaiting) {
  const Elapsed waited{2.0, 1.5};
  EXPECT_EQ(waited.OnCpuSeconds(), 1.5);
  EXPECT_EQ(waited.RunningShare(), 0.75);
  const Elapsed parallel{2.0, 3.0};
  EXPECT_EQ(parallel.OnCpuSeconds(), 2.0);
  EXPECT_EQ(parallel.RunningShare(), 1.0);
}

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
  Tracer tracer;
  const uint32_t root = tracer.Begin("root", 0);
  const uint32_t a = tracer.Begin("a", 10);
  const uint32_t b = tracer.Begin("b", 12);
  tracer.End(b, 15);
  tracer.End(a, 30);
  const uint32_t a2 = tracer.Begin("a", 40);
  tracer.End(a2, 45);
  tracer.End(root, 100);

  const auto self = tracer.SelfSeconds();
  EXPECT_DOUBLE_EQ(self.at("root"), 75e-9);  // 100 - (20 + 5)
  EXPECT_DOUBLE_EQ(self.at("a"), 22e-9);     // (20 - 3) + 5
  EXPECT_DOUBLE_EQ(self.at("b"), 3e-9);
  EXPECT_DOUBLE_EQ(tracer.TotalSeconds("a"), 25e-9);
  EXPECT_EQ(tracer.spans()[b].parent, a);
  EXPECT_EQ(tracer.spans()[root].parent, Tracer::kNoParent);
}

TEST(Tracer, RejectsOutOfOrderEnd) {
  Tracer tracer;
  const uint32_t outer = tracer.Begin("outer", 0);
  tracer.Begin("inner", 1);
  EXPECT_THROW(tracer.End(outer, 2), std::logic_error);
}

bool SameSchedule(const std::vector<ScheduledRequest>& a,
                  const std::vector<ScheduledRequest>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].send_at != b[i].send_at || a[i].conn != b[i].conn ||
        a[i].kind != b[i].kind || a[i].regex != b[i].regex ||
        a[i].sources != b[i].sources || a[i].edge != b[i].edge) {
      return false;
    }
  }
  return true;
}

TEST(Seeds, SameSeedSameSchedule) {
  ScheduleSpec spec;
  spec.rate = 500.0;
  spec.seconds = 2.0;
  const auto first = MakeSchedule(spec, 7);
  EXPECT_TRUE(SameSchedule(first, MakeSchedule(spec, 7)));
  EXPECT_FALSE(SameSchedule(first, MakeSchedule(spec, 8)));
  // About rate * seconds requests, in send order, with the stated mix.
  EXPECT_NEAR(static_cast<double>(first.size()), 1000.0, 100.0);
  size_t binary = 0;
  for (size_t i = 0; i < first.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(first[i - 1].send_at, first[i].send_at);
    }
    EXPECT_LT(first[i].conn, kConnections);
    EXPECT_LT(first[i].regex, kRegexes);
    if (first[i].kind == RequestKind::kBinary) ++binary;
  }
  EXPECT_NEAR(static_cast<double>(binary) / first.size(), 0.8, 0.05);
}

TEST(Seeds, SameSeedSameSamples) {
  const rpqlearn::Dataset dataset = rpqlearn::BuildSyntheticDataset(2000);
  const rpqlearn::BitVector goal =
      rpqlearn::EvalMonadic(dataset.graph, dataset.queries[1].query);
  const std::vector<double> fractions = {0.01, 0.1};
  const auto first = StaticSamples(dataset.graph, goal, fractions, 2, 3);
  const auto again = StaticSamples(dataset.graph, goal, fractions, 2, 3);
  const auto other = StaticSamples(dataset.graph, goal, fractions, 2, 4);
  ASSERT_EQ(first.size(), 4u);
  bool differs = false;
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].positive, again[i].positive);
    EXPECT_EQ(first[i].negative, again[i].negative);
    differs = differs || first[i].positive != other[i].positive;
    for (rpqlearn::NodeId v : first[i].positive) EXPECT_TRUE(goal.Test(v));
    for (rpqlearn::NodeId v : first[i].negative) EXPECT_FALSE(goal.Test(v));
  }
  EXPECT_TRUE(differs);
  // Stratified: 10% of each side, rounded.
  const size_t selected = goal.Count();
  EXPECT_EQ(first[2].positive.size(),
            static_cast<size_t>(0.1 * selected + 0.5));
  EXPECT_EQ(first[2].negative.size(),
            static_cast<size_t>(0.1 * (dataset.graph.num_nodes() - selected) +
                                0.5));
}

const std::string kRepoRoot = PERFBENCH_REPO_ROOT;

class ShortRun : public ::testing::TestWithParam<bool> {};

void ExpectClean(const Report& report) {
  EXPECT_TRUE(report.correct());
  EXPECT_GT(report.attempted(), 0u);
  EXPECT_EQ(report.failed(), 0u);
}

RunConfig ShortConfig(bool trace) {
  RunConfig config;
  config.seed = 2;
  config.seconds = 1.0;
  config.trace = trace;
  config.out_dir = ::testing::TempDir();
  config.scale = QuickScale();
  config.per_layer = LoadPerLayerMetrics(kRepoRoot + "/BENCHMARK.json");
  return config;
}

TEST_P(ShortRun, InteractivePassesEveryCheck) {
  Report report;
  RunInteractive(ShortConfig(GetParam()), &report);
  ExpectClean(report);
}

TEST_P(ShortRun, StaticLearnPassesEveryCheck) {
  Report report;
  RunStaticLearn(ShortConfig(GetParam()), &report);
  ExpectClean(report);
}

TEST_P(ShortRun, ServePassesEveryCheck) {
  Report report;
  RunServe(ShortConfig(GetParam()), &report);
  ExpectClean(report);
}

INSTANTIATE_TEST_SUITE_P(Traced, ShortRun, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Traced" : "Untraced";
                         });

std::set<std::string> ListedNames() {
  std::set<std::string> names;
  for (const LayerMetric& metric :
       LoadPerLayerMetrics(kRepoRoot + "/BENCHMARK.json")) {
    EXPECT_TRUE(names.insert(metric.name).second) << metric.name;
  }
  return names;
}

TEST(LayerList, EveryListedMetricComesFromSomeWorkload) {
  // A metric idle on every workload is listed but measured nowhere.
  std::set<std::string> idle_everywhere = ListedNames();
  for (auto run : {RunInteractive, RunStaticLearn, RunServe}) {
    Report report;
    run(ShortConfig(/*trace=*/true), &report);
    ExpectClean(report);
    const std::vector<std::string> idle = report.idle_metrics();
    std::erase_if(idle_everywhere, [&](const std::string& name) {
      return std::find(idle.begin(), idle.end(), name) == idle.end();
    });
  }
  for (const std::string& name : idle_everywhere) ADD_FAILURE() << name;
}

TEST(LayerList, PredictionsCoverEveryListedMetric) {
  std::ifstream in(kRepoRoot + "/perfbench/predictions.json");
  ASSERT_TRUE(in);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // Every metric name in predictions.json sits in a "metrics" or
  // "validity_checks" array of strings.
  static const std::regex kArray(
      R"re("(metrics|validity_checks)"\s*:\s*\[([^\]]*)\])re");
  static const std::regex kString(R"re("([^"]+)")re");
  std::set<std::string> predicted;
  for (std::sregex_iterator it(text.begin(), text.end(), kArray), end;
       it != end; ++it) {
    const std::string items = (*it)[2];
    for (std::sregex_iterator item(items.begin(), items.end(), kString);
         item != end; ++item) {
      predicted.insert((*item)[1]);
    }
  }
  EXPECT_EQ(predicted, ListedNames());
}

}  // namespace
}  // namespace perfbench
