// Helpers shared by the workloads: seeds, the benchmark's own generator,
// and the per-layer metric list.

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <stdexcept>

#include "workloads.h"

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  InputRng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  rng.Next();
  return rng.Next();
}

Scale QuickScale() {
  Scale scale;
  scale.max_interactions = 20;
  scale.max_sessions = 4;
  scale.static_graph_nodes = {2000};
  scale.static_trials = {1};
  scale.fractions = {0.01, 0.05};
  scale.pass_seconds = 0.5;
  scale.serve_graph_nodes = 2000;
  scale.rung_seconds = 0.3;
  scale.setup_repeats = 1;
  return scale;
}

uint64_t InputRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<LayerMetric> LoadPerLayerMetrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // The per_layer array holds flat objects only, so its end is the first
  // ']' after its start.
  const size_t key = text.find("\"per_layer\"");
  const size_t open = text.find('[', key);
  const size_t close = text.find(']', open);
  if (key == std::string::npos || open == std::string::npos ||
      close == std::string::npos) {
    throw std::runtime_error(path + " has no per_layer array");
  }
  const std::string array = text.substr(open, close - open);
  static const std::regex kObject(R"(\{[^{}]*\})");
  static const std::regex kName(R"re("name"\s*:\s*"([^"]*)")re");
  static const std::regex kUnit(R"re("unit"\s*:\s*"([^"]*)")re");
  std::vector<LayerMetric> metrics;
  for (std::sregex_iterator it(array.begin(), array.end(), kObject), end;
       it != end; ++it) {
    const std::string object = it->str();
    std::smatch name;
    std::smatch unit;
    if (!std::regex_search(object, name, kName) ||
        !std::regex_search(object, unit, kUnit)) {
      throw std::runtime_error(path + ": a per_layer entry lacks a name or unit");
    }
    metrics.push_back({name[1], unit[1]});
  }
  if (metrics.empty()) throw std::runtime_error(path + ": per_layer is empty");
  return metrics;
}

std::vector<double> PerOperationMin(
    const std::vector<std::vector<double>>& passes) {
  size_t ops = passes.front().size();
  for (const std::vector<double>& pass : passes) ops = std::min(ops, pass.size());
  std::vector<double> least(passes.front().begin(),
                            passes.front().begin() + ops);
  for (const std::vector<double>& pass : passes) {
    for (size_t op = 0; op < ops; ++op) least[op] = std::min(least[op], pass[op]);
  }
  return least;
}

int PassCount(double seconds, double pass_seconds) {
  return std::max(1, static_cast<int>(seconds / pass_seconds + 0.5));
}

double PerSecond(const std::vector<double>& op_ms) {
  double total_ms = 0.0;
  for (double ms : op_ms) total_ms += ms;
  return Ratio(1e3 * static_cast<double>(op_ms.size()), total_ms);
}

double ProcessCpuSeconds() {
  timespec now;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + now.tv_nsec * 1e-9;
}

double ThreadCpuSeconds() {
  timespec now;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + now.tv_nsec * 1e-9;
}

Elapsed OnCpuTimer::Stop() const {
  Elapsed elapsed;
  elapsed.cpu_s = ProcessCpuSeconds() - cpu_start_;
  elapsed.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start_)
                       .count();
  return elapsed;
}

void ReportEndToEnd(const EndToEnd& e2e, Report* report) {
  report->Add("setup_s", e2e.setup_s, "s");
  const Tail tail = TailOf(e2e.op_ms, e2e.tail_percentile);
  if (tail.percentile != e2e.tail_percentile) {
    std::fprintf(stderr, "note: %zu operations support no p%g; the tail is p%g\n",
                 tail.samples, e2e.tail_percentile, tail.percentile);
  }
  report->Add("op_p50_ms", Median(e2e.op_ms), "ms");
  report->Add("op_tail_ms", tail.value, "ms");
  report->Add("ops_per_cpu_s", e2e.ops_per_cpu_s, "1/s");
  report->Add("quality", e2e.quality, "1");
}

void AddLayerTimes(const Tracer& tracer, const std::vector<std::string>& layers,
                   double wall_seconds,
                   std::vector<std::pair<std::string, double>>* values) {
  const std::map<std::string, double> self = tracer.SelfSeconds();
  double covered = 0.0;
  for (const std::string& layer : layers) {
    auto it = self.find(layer);
    const double seconds = it == self.end() ? 0.0 : it->second;
    covered += seconds;
    values->emplace_back(layer + "_s", seconds);
    values->emplace_back(layer + "_pct",
                         wall_seconds > 0.0 ? 100.0 * seconds / wall_seconds
                                            : 0.0);
  }
  values->emplace_back("trace.covered_pct", wall_seconds > 0.0
                                                ? 100.0 * covered / wall_seconds
                                                : 0.0);
}

void AddTraceOverhead(const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms,
                      double tail_percentile,
                      std::vector<std::pair<std::string, double>>* values) {
  const double traced_p50 = Median(traced_ms);
  const double untraced_p50 = Median(untraced_ms);
  std::fprintf(stderr,
               "traced run: op_p50_ms %.4f (untraced %.4f), op_tail_ms %.4f "
               "(untraced %.4f), p%g\n",
               traced_p50, untraced_p50,
               TailOf(traced_ms, tail_percentile).value,
               TailOf(untraced_ms, tail_percentile).value, tail_percentile);
  values->emplace_back("trace.overhead_pct",
                       100.0 * Ratio(traced_p50 - untraced_p50, untraced_p50));
}

void ReportLayers(const std::vector<std::pair<std::string, double>>& values,
                  const std::vector<LayerMetric>& per_layer, Report* report) {
  std::map<std::string, double> by_name(values.begin(), values.end());
  for (const LayerMetric& metric : per_layer) {
    auto it = by_name.find(metric.name);
    if (it == by_name.end()) {
      report->AddIdle(metric.name, metric.unit);
    } else {
      report->Add(metric.name, it->second, metric.unit);
      by_name.erase(it);
    }
  }
  for (const auto& [name, value] : by_name) {
    report->Fail("per-layer metric missing from the list: " + name);
  }
}

}  // namespace perfbench
