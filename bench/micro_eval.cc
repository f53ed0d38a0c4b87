// Microbenchmarks of the query evaluation engine (monadic product
// reachability) on the synthetic workloads.

#include <benchmark/benchmark.h>

#include "query/engine.h"
#include "query/eval.h"
#include "workloads/workloads.h"

namespace rpqlearn {
namespace {

void BM_EvalMonadic(benchmark::State& state) {
  Dataset dataset =
      BuildSyntheticDataset(static_cast<uint32_t>(state.range(0)));
  const Dfa& query = dataset.queries[1].query;  // syn2
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalMonadic(dataset.graph, query));
  }
  state.SetItemsProcessed(state.iterations() * dataset.graph.num_edges());
}
BENCHMARK(BM_EvalMonadic)->Arg(1000)->Arg(5000)->Arg(10000);

void BM_EvalMonadicBounded(benchmark::State& state) {
  Dataset dataset = BuildSyntheticDataset(5000);
  const Dfa& query = dataset.queries[1].query;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalMonadicBounded(
        dataset.graph, query, static_cast<uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_EvalMonadicBounded)->Arg(2)->Arg(4)->Arg(8);

/// The facade's steady state: a repeat query against an unchanged graph is
/// a plan-cache hit served from the retained monadic fixed point. Compare
/// against BM_EvalMonadic to see what the warm path saves.
void BM_EnginePlanRunWarm(benchmark::State& state) {
  Dataset dataset =
      BuildSyntheticDataset(static_cast<uint32_t>(state.range(0)));
  const Dfa& query = dataset.queries[1].query;  // syn2
  Engine engine(dataset.graph);
  for (auto _ : state) {
    auto plan = engine.Plan(query);
    if (!plan.ok()) {
      state.SkipWithError(plan.status().ToString().c_str());
      return;
    }
    auto nodes = (*plan)->RunMonadic();
    if (!nodes.ok()) {
      state.SkipWithError(nodes.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*nodes);
  }
  state.SetItemsProcessed(state.iterations() * dataset.graph.num_edges());
}
BENCHMARK(BM_EnginePlanRunWarm)->Arg(1000)->Arg(5000)->Arg(10000);

/// The facade's cold path (caching disabled): every iteration recompiles
/// the plan and resweeps — the facade-overhead-included analogue of
/// BM_EvalMonadic.
void BM_EnginePlanRunCold(benchmark::State& state) {
  Dataset dataset =
      BuildSyntheticDataset(static_cast<uint32_t>(state.range(0)));
  const Dfa& query = dataset.queries[1].query;
  EngineOptions options;
  options.plan_cache_capacity = 0;
  options.cache_monadic_results = false;
  Engine engine(dataset.graph, options);
  for (auto _ : state) {
    auto plan = engine.Plan(query);
    if (!plan.ok()) {
      state.SkipWithError(plan.status().ToString().c_str());
      return;
    }
    auto nodes = (*plan)->RunMonadic();
    if (!nodes.ok()) {
      state.SkipWithError(nodes.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*nodes);
  }
  state.SetItemsProcessed(state.iterations() * dataset.graph.num_edges());
}
BENCHMARK(BM_EnginePlanRunCold)->Arg(1000)->Arg(5000);

/// Single-source binary evaluation: one lane of the batched product BFS.
void BM_EvalBinaryFrom(benchmark::State& state) {
  Dataset dataset = BuildSyntheticDataset(5000);
  const Dfa& query = dataset.queries[1].query;
  NodeId v = 0;
  for (auto _ : state) {
    const NodeId sources[] = {v};
    auto pairs = EvalBinaryFromSources(dataset.graph, query, sources);
    if (!pairs.ok()) {
      state.SkipWithError(pairs.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*pairs);
    v = (v + 1) % dataset.graph.num_nodes();
  }
}
BENCHMARK(BM_EvalBinaryFrom);

}  // namespace
}  // namespace rpqlearn

BENCHMARK_MAIN();
