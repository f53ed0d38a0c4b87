#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double SupportedPercentile(size_t n, double wanted) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (p <= wanted && SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

Tail TailOf(const std::vector<double>& samples, double wanted) {
  Tail tail;
  tail.samples = samples.size();
  tail.percentile = SupportedPercentile(samples.size(), wanted);
  // Fewer than 20 samples support no percentile; the maximum is the only
  // honest tail then.
  tail.value = tail.percentile > 0.0 ? Percentile(samples, tail.percentile)
                                     : Percentile(samples, 100.0);
  return tail;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit, true});
}

void Report::AddIdle(const std::string& name, const std::string& unit) {
  metrics_.push_back({name, 0.0, unit, true, true});
}

std::vector<std::string> Report::idle_metrics() const {
  std::vector<std::string> names;
  for (const Metric& m : metrics_) {
    if (m.idle) names.push_back(m.name);
  }
  return names;
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit, false});
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  errors_.push_back(why);
}

void Report::Print() const {
  std::fprintf(stderr, "%-34s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics_) {
    std::fprintf(stderr, "%-34s %18.6g  %s%s\n", m.name.c_str(), m.value,
                 m.unit.c_str(),
                 m.idle ? "  (no work here)" : m.in_result ? "" : "  (detail)");
  }
  std::fprintf(stderr, "attempted %llu, failed %llu, error_rate %g\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               attempted_ == 0 ? 0.0
                               : static_cast<double>(failed_) / attempted_);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  const char* separator = "";
  for (const Metric& m : metrics_) {
    if (!m.in_result) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                separator, m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
