#include "experiments/interactive_experiment.h"

#include "interact/oracle.h"
#include "query/engine.h"

namespace rpqlearn {

StatusOr<InteractiveSummary> RunInteractiveExperiment(
    const Graph& graph, const Dfa& goal, StrategyKind strategy, uint64_t seed,
    size_t max_interactions, const EvalOptions& eval) {
  // The goal set is evaluated through the Engine facade (the session builds
  // its own engine for the per-interaction hypothesis evaluations).
  EngineOptions engine_options;
  engine_options.eval = eval;
  Engine engine(graph, engine_options);
  StatusOr<Engine::PlanPtr> goal_plan = engine.Plan(goal);
  if (!goal_plan.ok()) return goal_plan.status();
  StatusOr<MonadicNodes> goal_set = (*goal_plan)->RunMonadic();
  if (!goal_set.ok()) return goal_set.status();
  StatusOr<Oracle> oracle = Oracle(**goal_set);
  SessionOptions options;
  options.strategy = strategy;
  options.seed = seed;
  options.max_interactions = max_interactions;
  options.eval = eval;

  SessionResult session = RunInteractiveSession(graph, *oracle, options);
  if (!session.status.ok()) return session.status;

  double total = 0.0;
  for (const InteractionRecord& r : session.interactions) total += r.seconds;
  return InteractiveSummary{
      .strategy = strategy == StrategyKind::kRandom ? "kR" : "kS",
      .interactions = session.interactions.size(),
      .label_percent = 100.0 * session.label_fraction,
      .mean_seconds = session.interactions.empty()
                          ? 0.0
                          : total / session.interactions.size(),
      .reached_goal = session.reached_goal,
      .final_k = session.final_k,
  };
}

}  // namespace rpqlearn
