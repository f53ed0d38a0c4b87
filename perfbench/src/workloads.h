#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads. Each generates its inputs from the seed,
// measures the library from outside, checks every output, and adds its
// metrics to the Report: the end-to-end metrics in an untraced run, the
// per-layer metrics in a traced run.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "learn/sample.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// Work sizes. The defaults are the benchmark's; the helpers' tests shrink
/// them to a smoke run.
struct Scale {
  /// interactive: interaction cap of every session.
  size_t max_interactions = 200;
  /// interactive: restrict to the first N sessions (0 = all 18).
  size_t max_sessions = 0;
  /// static_learn: synthetic graph sizes, samples per (goal, fraction) on
  /// each, and the label fractions.
  /// The paper's sizes are 10k and 30k nodes. Their learns outgrow a
  /// core's 2 MiB L2 cache into the L3 the host shares with other tenants:
  /// over three runs of the same code, the median learn on syn10000 read
  /// 9.3 ms to 13.8 ms; over four, on syn3000, 1.9 ms to 2.1 ms.
  std::vector<uint32_t> static_graph_nodes = {3000};
  std::vector<int> static_trials = {5};
  std::vector<double> fractions = {0.005, 0.01, 0.02, 0.05,
                                   0.07,  0.10, 0.15, 0.20};
  /// serve: graph size, the length of one pass of the nominal phase (the
  /// passes fill the run's budget) and the seconds per rung of the
  /// offered-rate ladder.
  uint32_t serve_graph_nodes = 10000;
  double pass_seconds = 4.0;
  double rung_seconds = 1.0;
  /// Set-ups timed per run; setup_s is their median.
  int setup_repeats = 15;
};

/// A smoke-sized Scale for the helpers' tests: a few short sessions, one
/// small graph, a short serve phase.
Scale QuickScale();

/// A per-layer metric: its name and unit.
struct LayerMetric {
  std::string name;
  std::string unit;
};

struct RunConfig {
  uint64_t seed = 1;
  /// Measurement budget: it sets how many whole passes a run makes
  /// (PassCount).
  double seconds = 10.0;
  bool trace = false;
  /// Directory for run artifacts (trace files, the served edge list).
  std::string out_dir = ".";
  /// The per-layer metrics a traced run prints (LoadPerLayerMetrics).
  std::vector<LayerMetric> per_layer;
  Scale scale;
};

void RunInteractive(const RunConfig& config, Report* report);
void RunStaticLearn(const RunConfig& config, Report* report);
void RunServe(const RunConfig& config, Report* report);

/// The end-to-end metrics every workload reports, each counted in the
/// workload's own unit of work: an interaction, a learn, a wire query.
struct EndToEnd {
  /// Median of the set-ups' on-CPU times (Elapsed).
  double setup_s = 0.0;
  /// Latency of every operation: its least time over the run's passes
  /// (PerOperationMin), whose median and tail are the latency metrics.
  std::vector<double> op_ms;
  /// The tail percentile; op_ms holds enough operations for it.
  double tail_percentile = 99.0;
  /// Operations per second of CPU time spent on them: on the learning
  /// workloads, PerSecond of op_ms.
  double ops_per_cpu_s = 0.0;
  /// The workload's output quality in [0, 1], higher is better.
  double quality = 0.0;
};
void ReportEndToEnd(const EndToEnd& e2e, Report* report);

/// Reads the per_layer list of the BENCHMARK.json at `path`, the one list
/// of per-layer metrics. Throws std::runtime_error when it cannot.
std::vector<LayerMetric> LoadPerLayerMetrics(const std::string& path);

/// Adds the self time of every span name in `layers` as `<name>_s` and its
/// share of `wall_seconds` as `<name>_pct` to `values`, and the share of the
/// wall time the layers cover as `trace.covered_pct`.
void AddLayerTimes(const Tracer& tracer, const std::vector<std::string>& layers,
                   double wall_seconds,
                   std::vector<std::pair<std::string, double>>* values);

/// For the learning workloads' traced runs, which time each operation both
/// traced (the replica) and untraced (the library call) on the same inputs:
/// prints both runs' op_p50_ms and tail on stderr and adds the traced
/// median's excess over the untraced one as `trace.overhead_pct`.
void AddTraceOverhead(const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms,
                      double tail_percentile,
                      std::vector<std::pair<std::string, double>>* values);

/// Adds every metric of `per_layer` to the report: the value from `values`,
/// or an idle 0 for a layer the workload does not exercise. A value whose
/// name is not in `per_layer` fails the run.
void ReportLayers(const std::vector<std::pair<std::string, double>>& values,
                  const std::vector<LayerMetric>& per_layer, Report* report);

/// The number of passes of about `pass_seconds` each that fill `seconds`,
/// at least one. The count is fixed by the arguments, not by the host's
/// speed, so every run of a workload takes its least times over as many
/// passes.
int PassCount(double seconds, double pass_seconds);

/// For passes that repeat the same operations in the same order: each
/// operation's least time across the passes. Other tenants of a shared
/// host only ever add time, so the least is the one they disturbed least.
std::vector<double> PerOperationMin(
    const std::vector<std::vector<double>>& passes);

/// Operations per second of their times `op_ms`, in milliseconds.
double PerSecond(const std::vector<double>& op_ms);

/// CPU time of the whole process (every thread), in seconds.
double ProcessCpuSeconds();
/// CPU time of the calling thread, in seconds.
double ThreadCpuSeconds();

/// Wall and process CPU time of one stretch of work.
struct Elapsed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// The time the process ran: the wall time less the time it waited for
  /// a CPU (its vCPU lent to another tenant, or the run queue). For
  /// single-threaded work with no I/O that is min(wall, CPU).
  double OnCpuSeconds() const { return std::min(wall_s, cpu_s); }
  /// OnCpuSeconds / wall_s, in (0, 1].
  double RunningShare() const {
    return wall_s > 0.0 ? OnCpuSeconds() / wall_s : 1.0;
  }
};

/// Measures an Elapsed from construction to Stop().
class OnCpuTimer {
 public:
  OnCpuTimer()
      : cpu_start_(ProcessCpuSeconds()),
        wall_start_(std::chrono::steady_clock::now()) {}
  Elapsed Stop() const;

 private:
  double cpu_start_;
  std::chrono::steady_clock::time_point wall_start_;
};

/// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mixes the run seed with a stream index into an independent seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Generator for the benchmark's own inputs (SplitMix64), kept apart from
/// the library's generators so the inputs stay fixed when those change.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); `bound` must be positive.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// static_learn's stratified samples for one goal: for each fraction,
/// `trials` samples labeling that fraction of the goal's nodes positive (at
/// least one) and that fraction of the others negative.
std::vector<rpqlearn::Sample> StaticSamples(const rpqlearn::Graph& graph,
                                            const rpqlearn::BitVector& goal,
                                            const std::vector<double>& fractions,
                                            int trials, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
