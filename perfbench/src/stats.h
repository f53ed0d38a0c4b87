#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Sample statistics and the result report every workload prints.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// Number of samples above the nearest-rank percentile `p` of `n` samples.
size_t SamplesBeyond(size_t n, double p);

/// The highest percentile of the ladder {50, 90, 99, 99.9} that is at most
/// `wanted` and has at least ten samples beyond it among `n`; 0 when even
/// the median lacks ten.
double SupportedPercentile(size_t n, double wanted);

/// The tail statistic of a timing: the `wanted` percentile when the sample
/// supports it, otherwise the highest supported percentile below it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
Tail TailOf(const std::vector<double>& samples, double wanted);

/// What one run prints: every metric by name and unit, plus the outcome of
/// the output checks.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// A metric that reads 0 because the workload gives its layer no work.
  void AddIdle(const std::string& name, const std::string& unit);
  /// A figure shown in the stderr table only, not in the result object.
  void Detail(const std::string& name, double value, const std::string& unit);

  /// Records one attempted operation; `ok` false counts it as failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void Attempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A failed output check: the run exits nonzero.
  void Fail(const std::string& why);

  bool correct() const { return errors_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// The metrics added with AddIdle.
  std::vector<std::string> idle_metrics() const;

  /// Prints the human-readable table on stderr and the result object as the
  /// last line of stdout.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool in_result;
    bool idle = false;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
