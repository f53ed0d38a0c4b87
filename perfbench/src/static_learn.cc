// Workload `static_learn`: the paper's Fig. 12 protocol. Stratified random
// samples at 0.5%-20% labeled on a synthetic graph (3k nodes, see
// Scale::static_graph_nodes; goals syn1-syn3), one LearnPathQuery call per
// sample.
//
// Untraced runs time LearnPathQuery itself. Traced runs time a replica of
// it assembled from the library's public calls, with a span around each
// (the RPNI consistency oracle is wrapped so every trial is one span), and
// check that the replica's DFA equals the library's.

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "automata/minimize.h"
#include "automata/prefix_free.h"
#include "automata/pta.h"
#include "graph/graph_nfa.h"
#include "learn/coverage.h"
#include "learn/learner.h"
#include "learn/rpni.h"
#include "learn/scp.h"
#include "query/eval.h"
#include "query/metrics.h"
#include "util/timer.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace rpqlearn;

struct Task {
  const Graph* graph;
  const BitVector* goal;
  std::string name;  // e.g. "syn2@30000 10% #0"
  Sample sample;
};

struct Inputs {
  std::vector<Dataset> datasets;
  std::vector<std::vector<BitVector>> goals;  // per dataset, per query
};

/// Dataset generation and goal-set evaluation: the workload's set-up.
Inputs BuildInputs(const Scale& scale) {
  Inputs inputs;
  for (uint32_t nodes : scale.static_graph_nodes) {
    inputs.datasets.push_back(BuildSyntheticDataset(nodes));
    inputs.goals.emplace_back();
    for (const Workload& w : inputs.datasets.back().queries) {
      inputs.goals.back().push_back(
          EvalMonadic(inputs.datasets.back().graph, w.query));
    }
  }
  return inputs;
}

/// The paper's static protocol (Sec. 5.2): `fraction` of the goal's nodes
/// as positives (at least one) and `fraction` of the others as negatives.
Sample StratifiedSample(const Graph& graph, const BitVector& goal,
                        double fraction, uint64_t seed) {
  std::vector<NodeId> selected;
  std::vector<NodeId> rejected;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    (goal.Test(v) ? selected : rejected).push_back(v);
  }
  InputRng rng(seed);
  rng.Shuffle(&selected);
  rng.Shuffle(&rejected);
  size_t positives = static_cast<size_t>(fraction * selected.size() + 0.5);
  positives = std::clamp<size_t>(positives, 1, selected.size());
  const size_t negatives = std::min(
      static_cast<size_t>(fraction * rejected.size() + 0.5), rejected.size());
  Sample sample;
  sample.positive.assign(selected.begin(), selected.begin() + positives);
  sample.negative.assign(rejected.begin(), rejected.begin() + negatives);
  return sample;
}

}  // namespace

std::vector<Sample> StaticSamples(const Graph& graph, const BitVector& goal,
                                  const std::vector<double>& fractions,
                                  int trials, uint64_t seed) {
  std::vector<Sample> samples;
  for (size_t f = 0; f < fractions.size(); ++f) {
    for (int trial = 0; trial < trials; ++trial) {
      samples.push_back(StratifiedSample(
          graph, goal, fractions[f],
          DeriveSeed(seed, f * 1000 + static_cast<uint64_t>(trial))));
    }
  }
  return samples;
}

namespace {

/// The samples come from a fixed seed, not the run's: on syn30000 a sample
/// that needs k = 4 cost 20-50 times one that does not, and between one
/// and three of a pass's samples did depending on the draw, which swung
/// every whole-pass figure by up to 3x from seed to seed. The run seed
/// orders the tasks.
constexpr uint64_t kSampleSeed = 1;

/// Seconds one pass over every sample takes (PassCount).
constexpr double kPassSeconds = 0.9;

std::vector<Task> MakeTasks(const Inputs& inputs, const RunConfig& config) {
  std::vector<Task> tasks;
  for (size_t d = 0; d < inputs.datasets.size(); ++d) {
    const Dataset& dataset = inputs.datasets[d];
    const int trials = config.scale.static_trials[d];
    for (size_t q = 0; q < dataset.queries.size(); ++q) {
      std::vector<Sample> samples =
          StaticSamples(dataset.graph, inputs.goals[d][q],
                        config.scale.fractions, trials,
                        DeriveSeed(kSampleSeed, 100 * d + q));
      for (size_t i = 0; i < samples.size(); ++i) {
        tasks.push_back({&dataset.graph, &inputs.goals[d][q],
                         dataset.queries[q].name + "@" + dataset.name + " " +
                             std::to_string(config.scale.fractions[i / trials] *
                                            100) +
                             "% #" + std::to_string(i % trials),
                         std::move(samples[i])});
      }
    }
  }
  InputRng order(config.seed);
  order.Shuffle(&tasks);
  return tasks;
}

LearnerOptions StaticLearnerOptions() {
  LearnerOptions options;
  // Sec. 5.1: k <= 4 suffices on the paper's workloads; deeper passes only
  // inflate the coverage automata of large negative sets.
  options.max_k = 4;
  return options;
}

/// One fixed-k pass of Algorithm 1, mirroring the library's own.
LearnOutcome ReplicaFixedK(const Graph& graph, const Sample& sample,
                           const LearnerOptions& options, uint32_t k,
                           const Nfa& graph_nfa, const Nfa& negative_nfa,
                           Tracer* tracer) {
  LearnOutcome outcome;
  outcome.stats.k_used = k;
  tracer->Count("learn.k_passes");

  SubsetCoverage::Options cov_options;
  cov_options.k = k;
  cov_options.max_states = options.coverage_state_cap;
  std::optional<StatusOr<SubsetCoverage>> coverage;
  {
    ScopedSpan span(tracer, "learn.coverage");
    coverage.emplace(SubsetCoverage::Build(negative_nfa, cov_options));
  }
  if (!coverage->ok()) return outcome;
  tracer->Count("learn.coverage_states", (*coverage)->num_states());

  std::set<Word, CanonicalWordLess> scp_words;
  for (NodeId v : sample.positive) {
    std::optional<StatusOr<ScpResult>> scp;
    {
      ScopedSpan span(tracer, "learn.scp");
      scp.emplace(SmallestConsistentPath(graph_nfa, {v}, coverage->value(),
                                         options.scp_expansion_cap));
    }
    tracer->Count("learn.scp_calls");
    if (!scp->ok()) return outcome;
    if ((*scp)->path.has_value()) scp_words.insert(*(*scp)->path);
  }

  const std::vector<Word> words(scp_words.begin(), scp_words.end());
  std::optional<Dfa> pta;
  {
    ScopedSpan span(tracer, "automata.pta");
    pta.emplace(BuildPta(words, graph.num_symbols()));
  }
  tracer->Count("automata.pta_states", pta->num_states());

  Dfa hypothesis = *pta;
  if (options.generalize && !words.empty()) {
    RpniStats stats;
    NfaDisjointnessOracle disjoint(&negative_nfa);
    auto oracle = [&](const MergePartition& view) {
      ScopedSpan span(tracer, "learn.rpni.oracle");
      return disjoint(view);
    };
    {
      ScopedSpan span(tracer, "learn.rpni");
      hypothesis = RpniGeneralizeOnPartition(*pta, oracle, &stats);
    }
    tracer->Count("learn.rpni.oracle_calls", stats.merges_attempted);
    tracer->Count("learn.rpni.merges_attempted", stats.merges_attempted);
    tracer->Count("learn.rpni.merges_accepted", stats.merges_accepted);
  }

  std::optional<BitVector> selected;
  {
    ScopedSpan span(tracer, "query.eval");
    selected.emplace(*EvalMonadic(graph, hypothesis, EvalOptions{}));
  }
  for (NodeId v : sample.positive) {
    if (!selected->Test(v)) return outcome;
  }
  for (NodeId v : sample.negative) {
    if (selected->Test(v)) return outcome;
  }
  outcome.is_null = false;
  ScopedSpan span(tracer, "automata.canonicalize");
  outcome.query = MakePrefixFree(Canonicalize(hypothesis));
  return outcome;
}

/// LearnPathQuery rebuilt from the library's public calls.
LearnOutcome ReplicaLearn(const Graph& graph, const Sample& sample,
                          const LearnerOptions& options, Tracer* tracer) {
  ScopedSpan root(tracer, "learn");
  std::optional<Nfa> graph_nfa;
  std::optional<Nfa> negative_nfa;
  {
    ScopedSpan span(tracer, "graph.to_nfa");
    graph_nfa.emplace(GraphToNfa(graph, {}));
    negative_nfa.emplace(GraphToNfa(graph, sample.negative));
  }
  const uint32_t final_k = std::max(options.max_k, options.k);
  LearnOutcome last;
  for (uint32_t k = options.k; k <= final_k; ++k) {
    last = ReplicaFixedK(graph, sample, options, k, *graph_nfa,
                         *negative_nfa, tracer);
    if (!last.is_null) break;
  }
  return last;
}

/// Checks one learn's output against its sample; empty when it holds.
/// Sets *f1 to the learned query's F1 against the goal (0 on abstain).
std::string CheckLearn(const Task& task, const LearnOutcome& outcome,
                       double* f1) {
  *f1 = 0.0;
  if (!outcome.status.ok()) return "status " + outcome.status.ToString();
  if (outcome.is_null) return "";
  const BitVector selected = EvalMonadic(*task.graph, outcome.query);
  for (NodeId v : task.sample.positive) {
    if (!selected.Test(v)) return "learned query misses a positive";
  }
  for (NodeId v : task.sample.negative) {
    if (selected.Test(v)) return "learned query selects a negative";
  }
  *f1 = ComputeMetrics(selected, *task.goal).f1;
  return "";
}

bool SameOutcome(const LearnOutcome& a, const LearnOutcome& b) {
  return a.is_null == b.is_null && (a.is_null || a.query == b.query);
}

void TracedRun(const std::vector<Task>& tasks, const RunConfig& config,
               Report* report) {
  const LearnerOptions options = StaticLearnerOptions();
  Tracer tracer;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  for (size_t i = 0; i < tasks.size(); ++i) {
    tracer.SetOperation(i);
    WallTimer replica_timer;
    const LearnOutcome replica =
        ReplicaLearn(*tasks[i].graph, tasks[i].sample, options, &tracer);
    traced_ms.push_back(replica_timer.ElapsedMillis());
    WallTimer library_timer;
    const LearnOutcome library =
        LearnPathQuery(*tasks[i].graph, tasks[i].sample, options);
    untraced_ms.push_back(library_timer.ElapsedMillis());
    double f1 = 0.0;
    std::string error = CheckLearn(tasks[i], library, &f1);
    if (error.empty() && !SameOutcome(replica, library)) {
      error = "replica learned a different query";
    }
    if (!error.empty()) report->Fail(tasks[i].name + ": " + error);
    report->Attempt(error.empty());
  }
  tracer.WriteTsv(config.out_dir + "/trace-static_learn.tsv");

  std::vector<std::pair<std::string, double>> values;
  AddLayerTimes(tracer,
                {"graph.to_nfa", "learn.coverage", "learn.scp", "automata.pta",
                 "learn.rpni", "learn.rpni.oracle", "query.eval",
                 "automata.canonicalize"},
                tracer.TotalSeconds("learn"), &values);
  const double learns = static_cast<double>(tasks.size());
  const double passes = tracer.Counter("learn.k_passes");
  values.emplace_back("learn.coverage_states",
                      Ratio(tracer.Counter("learn.coverage_states"), passes));
  values.emplace_back("learn.scp_calls", tracer.Counter("learn.scp_calls"));
  values.emplace_back("automata.pta_states",
                      Ratio(tracer.Counter("automata.pta_states"), passes));
  values.emplace_back("learn.rpni.oracle_calls",
                      tracer.Counter("learn.rpni.oracle_calls"));
  values.emplace_back(
      "learn.rpni.merge_accept_frac",
      Ratio(tracer.Counter("learn.rpni.merges_accepted"),
            tracer.Counter("learn.rpni.merges_attempted")));
  values.emplace_back("learn.k_passes", Ratio(passes, learns));
  AddTraceOverhead(traced_ms, untraced_ms, 90.0, &values);
  ReportLayers(values, config.per_layer, report);
}

}  // namespace

void RunStaticLearn(const RunConfig& config, Report* report) {
  std::vector<double> setup_seconds;
  std::optional<Inputs> inputs;
  for (int i = 0; i < config.scale.setup_repeats; ++i) {
    inputs.reset();
    const OnCpuTimer timer;
    inputs.emplace(BuildInputs(config.scale));
    setup_seconds.push_back(timer.Stop().OnCpuSeconds());
  }
  const std::vector<Task> tasks = MakeTasks(*inputs, config);
  if (config.trace) {
    TracedRun(tasks, config, report);
    return;
  }

  // Whole passes over every task, as many as fit the budget; later passes
  // must reproduce pass 0's queries exactly. Each learn is timed by the
  // time the process ran (Elapsed).
  const LearnerOptions options = StaticLearnerOptions();
  std::vector<LearnOutcome> first_pass;
  std::vector<std::vector<double>> learn_ms;  // per pass
  double f1_sum = 0.0;
  const int passes = PassCount(config.seconds, kPassSeconds);
  for (int pass = 0; pass < passes; ++pass) {
    learn_ms.emplace_back();
    for (size_t i = 0; i < tasks.size(); ++i) {
      const OnCpuTimer timer;
      LearnOutcome outcome =
          LearnPathQuery(*tasks[i].graph, tasks[i].sample, options);
      learn_ms.back().push_back(timer.Stop().OnCpuSeconds() * 1e3);
      std::string error;
      if (pass == 0) {
        double f1 = 0.0;
        error = CheckLearn(tasks[i], outcome, &f1);
        f1_sum += f1;
        first_pass.push_back(std::move(outcome));
      } else if (!SameOutcome(outcome, first_pass[i])) {
        error = "not deterministic";
      }
      if (!error.empty()) report->Fail(tasks[i].name + ": " + error);
      report->Attempt(error.empty());
    }
  }

  // quality: the mean F1 of the learned queries, an abstain counting 0.
  const std::vector<double> least_ms = PerOperationMin(learn_ms);
  ReportEndToEnd({Median(setup_seconds), least_ms, 90.0, PerSecond(least_ms),
                  f1_sum / tasks.size()},
                 report);
}

}  // namespace perfbench
