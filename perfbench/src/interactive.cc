// Workload `interactive`: the paper's Table 2 loop. All 18 sessions (bio1-6
// on the AliBaba-like graph and syn1-3 on syn1500, each under kR and kS)
// with default SessionOptions and a fixed interaction cap.
//
// Untraced runs time RunInteractiveSession itself. Traced runs time a
// replica of it assembled from the library's public calls, with a span
// around each call, and check that the replica reproduces the library's
// node sequence and final query exactly.

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "interact/informative.h"
#include "interact/oracle.h"
#include "interact/session.h"
#include "interact/strategy.h"
#include "learn/incremental.h"
#include "query/engine.h"
#include "query/eval.h"
#include "query/metrics.h"
#include "util/timer.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace rpqlearn;

struct Session {
  const Graph* graph;
  const Oracle* oracle;
  std::string name;  // e.g. "bio5/kR"
  SessionOptions options;
};

struct Inputs {
  Dataset bio;
  Dataset syn;
  std::vector<Oracle> oracles;
};

/// Dataset generation and goal-set evaluation: the workload's set-up.
Inputs BuildInputs() {
  Inputs inputs{BuildAlibabaDataset(), BuildSyntheticDataset(1500), {}};
  for (const Dataset* dataset : {&inputs.bio, &inputs.syn}) {
    for (const Workload& w : dataset->queries) {
      inputs.oracles.push_back(Oracle::FromQuery(dataset->graph, w.query));
    }
  }
  return inputs;
}

/// The kR draws come from a fixed seed, not the run's. On syn1 kR, the
/// draw decides how many of the 200 interactions run at k = 3, each about
/// ten times slower than one at k = 2. That count moved the pass's p99
/// from 6.5 ms to 44 ms between seeds. The run seed orders the sessions.
constexpr uint64_t kStrategySeed = 1;

/// Seconds one pass over every session takes (PassCount).
constexpr double kPassSeconds = 13.0;

std::vector<Session> MakeSessions(const Inputs& inputs, const RunConfig& config) {
  std::vector<Session> sessions;
  size_t goal = 0;
  for (const Dataset* dataset : {&inputs.bio, &inputs.syn}) {
    for (const Workload& w : dataset->queries) {
      for (StrategyKind kind :
           {StrategyKind::kRandom, StrategyKind::kSmallestPaths}) {
        Session session{&dataset->graph, &inputs.oracles[goal],
                        w.name + (kind == StrategyKind::kRandom ? "/kR" : "/kS"),
                        SessionOptions{}};
        session.options.strategy = kind;
        session.options.max_interactions = config.scale.max_interactions;
        session.options.seed = DeriveSeed(kStrategySeed, sessions.size());
        sessions.push_back(std::move(session));
      }
      ++goal;
    }
  }
  if (config.scale.max_sessions > 0 &&
      sessions.size() > config.scale.max_sessions) {
    sessions.resize(config.scale.max_sessions);
  }
  InputRng order(config.seed);
  order.Shuffle(&sessions);
  return sessions;
}

bool Consistent(const BitVector& selected, const Sample& sample) {
  return std::all_of(sample.positive.begin(), sample.positive.end(),
                     [&](NodeId v) { return selected.Test(v); }) &&
         std::none_of(sample.negative.begin(), sample.negative.end(),
                      [&](NodeId v) { return selected.Test(v); });
}

/// Checks one library session's outputs; returns an empty string when
/// they hold.
std::string CheckSession(const Session& session, const SessionResult& result) {
  if (!result.status.ok()) return "status " + result.status.ToString();
  Sample labels;
  Sample labels_at_last_learn;
  std::set<NodeId> seen;
  for (const InteractionRecord& r : result.interactions) {
    if (!seen.insert(r.node).second) return "node labeled twice";
    if (r.positive != session.oracle->Label(r.node)) return "wrong label";
    if (!(r.f1 == -1.0 || (r.f1 >= 0.0 && r.f1 <= 1.0))) return "bad F1";
    r.positive ? labels.AddPositive(r.node) : labels.AddNegative(r.node);
    if (r.f1 >= 0.0) labels_at_last_learn = labels;
  }
  if (result.final_query.IsEmptyLanguage()) {
    return result.reached_goal ? "goal reached without a query" : "";
  }
  const BitVector selected = EvalMonadic(*session.graph, result.final_query);
  // The last learned query was consistent with every label given up to
  // the interaction that learned it.
  if (!Consistent(selected, labels_at_last_learn)) {
    return "final query inconsistent with the labels";
  }
  if (result.reached_goal != (selected == session.oracle->goal())) {
    return "reached_goal disagrees with the final query";
  }
  return "";
}

/// RunInteractiveSession rebuilt from the library's public calls, with a
/// span around each. CoverageAtK runs right after each negative (and each
/// k step), so the coverage rebuild is timed apart from the relearn; the
/// learner's own refresh inside LearnAtK is then a cache hit. Every learned
/// query is checked against all labels given so far, outside the spans and
/// the interaction's time.
SessionResult ReplicaSession(const Session& session, Tracer* tracer,
                             Report* report) {
  const Graph& graph = *session.graph;
  const SessionOptions& options = session.options;
  ScopedSpan root(tracer, "session");
  SessionResult result;
  Rng rng(options.seed);
  uint32_t k = options.k_start;
  bool have_query = false;
  EngineOptions engine_options;
  engine_options.eval = options.eval;
  Engine engine(graph, engine_options);
  LearnerOptions learner_options = options.learner;
  learner_options.auto_k = false;
  std::optional<IncrementalLearner> learner;
  {
    ScopedSpan span(tracer, "graph.to_nfa");
    learner.emplace(graph, learner_options);
  }

  // The library has no consistency check; its time is left out of
  // InteractionRecord.seconds.
  double check_seconds = 0.0;
  auto coverage_at = [&](uint32_t at_k, bool rebuilt) {
    ScopedSpan span(tracer, "learn.coverage");
    if (rebuilt) tracer->Count("learn.coverage_builds");
    return learner->CoverageAtK(at_k);
  };
  auto relearn = [&](uint32_t current_k) -> double {
    LearnOutcome outcome;
    {
      ScopedSpan span(tracer, "learn.relearn");
      outcome = learner->LearnAtK(current_k);
    }
    tracer->Count("learn.relearns");
    if (outcome.is_null) tracer->Count("learn.abstains");
    if (!outcome.status.ok() || outcome.is_null) return -1.0;
    result.final_query = outcome.query;
    have_query = true;
    StatusOr<Engine::PlanPtr> plan = [&] {
      ScopedSpan span(tracer, "query.plan");
      return engine.Plan(result.final_query);
    }();
    if (!plan.ok()) {
      report->Fail(session.name + ": plan failed: " + plan.status().ToString());
      return -1.0;
    }
    std::optional<StatusOr<MonadicNodes>> selected;
    {
      ScopedSpan span(tracer, "query.eval");
      selected.emplace((*plan)->RunMonadic());
    }
    if (!selected->ok()) {
      report->Fail(session.name + ": eval failed: " +
                   selected->status().ToString());
      return -1.0;
    }
    const BitVector& nodes = ***selected;
    WallTimer check;
    if (!Consistent(nodes, learner->sample())) {
      report->Fail(session.name + ": learned query inconsistent with labels");
    }
    check_seconds += check.ElapsedSeconds();
    ScopedSpan span(tracer, "query.eval");
    return ComputeMetrics(nodes, session.oracle->goal()).f1;
  };

  bool coverage_stale = true;  // no coverage built yet at this k
  while (result.interactions.size() < options.max_interactions) {
    WallTimer timer;
    check_seconds = 0.0;
    const SubsetCoverage* coverage = coverage_at(k, coverage_stale);
    coverage_stale = false;
    if (coverage == nullptr) break;
    BitVector informative;
    {
      ScopedSpan span(tracer, "interact.informative");
      informative = ComputeKInformative(graph, *coverage);
    }
    tracer->Count("interact.informative_calls");
    std::optional<NodeId> next;
    {
      ScopedSpan span(tracer, "interact.pick");
      next = PickNextNode(graph, learner->sample(), *coverage, informative,
                          options.strategy, &rng);
    }
    if (!next.has_value()) {
      if (k < options.k_max) {
        ++k;
        coverage_at(k, true);
        coverage_stale = false;
        if (relearn(k) == 1.0) {
          result.reached_goal = true;
          break;
        }
        continue;
      }
      break;
    }

    InteractionRecord record;
    record.node = *next;
    record.positive = session.oracle->Label(*next);
    if (record.positive) {
      learner->AddPositive(*next);
    } else {
      {
        ScopedSpan span(tracer, "graph.to_nfa");
        learner->AddNegative(*next);
      }
      coverage_at(k, true);
    }
    record.f1 = relearn(k);
    record.seconds = timer.ElapsedSeconds() - check_seconds;
    result.interactions.push_back(record);
    if (record.f1 == 1.0) {
      result.reached_goal = true;
      break;
    }
  }
  result.final_k = k;
  result.label_fraction =
      static_cast<double>(learner->sample().size()) / graph.num_nodes();
  if (!have_query) {
    Dfa empty(graph.num_symbols());
    empty.AddState(false);
    result.final_query = empty;
  }
  const EngineCounters counters = engine.counters();
  tracer->Count("query.plan_hits", counters.plan_hits);
  tracer->Count("query.plan_lookups",
                counters.plan_hits + counters.plan_misses);
  tracer->Count("query.warm_hits", counters.monadic_warm_hits);
  tracer->Count("query.runs", counters.runs);
  return result;
}

std::string CompareReplica(const SessionResult& replica,
                           const SessionResult& library) {
  if (replica.interactions.size() != library.interactions.size()) {
    return "interaction count differs";
  }
  for (size_t i = 0; i < replica.interactions.size(); ++i) {
    const InteractionRecord& a = replica.interactions[i];
    const InteractionRecord& b = library.interactions[i];
    if (a.node != b.node || a.positive != b.positive || a.f1 != b.f1) {
      return "interaction " + std::to_string(i) + " differs";
    }
  }
  if (!(replica.final_query == library.final_query)) return "final query differs";
  if (replica.reached_goal != library.reached_goal ||
      replica.final_k != library.final_k) {
    return "halt state differs";
  }
  return "";
}

void TracedRun(const std::vector<Session>& sessions, const RunConfig& config,
               Report* report) {
  Tracer tracer;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  for (size_t i = 0; i < sessions.size(); ++i) {
    tracer.SetOperation(i);
    const SessionResult replica = ReplicaSession(sessions[i], &tracer, report);
    const SessionResult library = RunInteractiveSession(
        *sessions[i].graph, *sessions[i].oracle, sessions[i].options);
    for (const InteractionRecord& r : replica.interactions) {
      traced_ms.push_back(r.seconds * 1e3);
    }
    for (const InteractionRecord& r : library.interactions) {
      untraced_ms.push_back(r.seconds * 1e3);
    }
    std::string error = CheckSession(sessions[i], library);
    if (error.empty()) error = CompareReplica(replica, library);
    if (!error.empty()) report->Fail(sessions[i].name + ": " + error);
    report->Attempt(error.empty());
  }
  tracer.WriteTsv(config.out_dir + "/trace-interactive.tsv");

  std::vector<std::pair<std::string, double>> values;
  AddLayerTimes(tracer,
                {"interact.informative", "interact.pick", "learn.coverage",
                 "learn.relearn", "query.plan", "query.eval", "graph.to_nfa"},
                tracer.TotalSeconds("session"), &values);
  values.emplace_back("interact.informative_calls",
                      tracer.Counter("interact.informative_calls"));
  values.emplace_back("learn.coverage_builds",
                      tracer.Counter("learn.coverage_builds"));
  values.emplace_back("learn.abstain_frac",
                      Ratio(tracer.Counter("learn.abstains"),
                            tracer.Counter("learn.relearns")));
  values.emplace_back("query.plan_hit_rate",
                      Ratio(tracer.Counter("query.plan_hits"),
                            tracer.Counter("query.plan_lookups")));
  values.emplace_back("query.warm_hit_rate",
                      Ratio(tracer.Counter("query.warm_hits"),
                            tracer.Counter("query.runs")));
  AddTraceOverhead(traced_ms, untraced_ms, 99.0, &values);
  ReportLayers(values, config.per_layer, report);
}

}  // namespace

void RunInteractive(const RunConfig& config, Report* report) {
  std::vector<double> setup_seconds;
  std::optional<Inputs> inputs;
  for (int i = 0; i < config.scale.setup_repeats; ++i) {
    inputs.reset();
    const OnCpuTimer timer;
    inputs.emplace(BuildInputs());
    setup_seconds.push_back(timer.Stop().OnCpuSeconds());
  }
  const std::vector<Session> sessions = MakeSessions(*inputs, config);
  if (config.trace) {
    TracedRun(sessions, config, report);
    return;
  }

  // Whole passes over every session, as many as fit the budget. Pass 0
  // gives the deterministic quality metrics; later passes must reproduce
  // it exactly. The library times each interaction by wall clock; each is
  // scaled by its session's running share (Elapsed), which takes out the
  // time the host gave the process's CPU to others.
  std::vector<SessionResult> first_pass;
  std::vector<std::vector<double>> interaction_ms;  // per pass
  const int passes = PassCount(config.seconds, kPassSeconds);
  for (int pass = 0; pass < passes; ++pass) {
    interaction_ms.emplace_back();
    for (size_t i = 0; i < sessions.size(); ++i) {
      const OnCpuTimer timer;
      SessionResult result = RunInteractiveSession(
          *sessions[i].graph, *sessions[i].oracle, sessions[i].options);
      const Elapsed elapsed = timer.Stop();
      for (const InteractionRecord& r : result.interactions) {
        interaction_ms.back().push_back(r.seconds * 1e3 *
                                        elapsed.RunningShare());
      }
      std::string error;
      if (pass == 0) {
        error = CheckSession(sessions[i], result);
        first_pass.push_back(std::move(result));
      } else {
        error = CompareReplica(result, first_pass[i]);
        if (!error.empty()) error = "not deterministic: " + error;
      }
      if (!error.empty()) report->Fail(sessions[i].name + ": " + error);
      report->Attempt(error.empty());
    }
  }

  double labels = 0.0;
  int reached = 0;
  for (const SessionResult& r : first_pass) {
    labels += r.label_fraction;
    reached += r.reached_goal ? 1 : 0;
  }
  // quality: the share of sessions that reach F1 = 1.
  const std::vector<double> least_ms = PerOperationMin(interaction_ms);
  ReportEndToEnd({Median(setup_seconds), least_ms, 99.0, PerSecond(least_ms),
                  static_cast<double>(reached) / first_pass.size()},
                 report);
  report->Detail("goal_reached", reached, "count");
  report->Detail("labels_pct", 100.0 * labels / first_pass.size(), "%");
}

}  // namespace perfbench
