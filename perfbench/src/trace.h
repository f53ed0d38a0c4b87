#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span tracer for the benchmark's traced runs. Spans are recorded
// by the benchmark around its calls into the library's public functions
// (never inside the library), kept in memory, and written out when the run
// ends. A layer's self time is its spans' durations minus the time their
// direct child spans cover.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  uint32_t name = 0;
  /// Index of the enclosing span in Tracer::spans(), or kNoParent.
  uint32_t parent = 0;
  /// Operation the span belongs to (one session, one learn, ...).
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  /// Opens a span named `name` under the innermost open span. Returns its
  /// index for End(). Timestamps come from steady_clock unless `now_ns` is
  /// given (tests drive the clock by hand).
  uint32_t Begin(std::string_view name, int64_t now_ns = -1);
  /// Closes span `index`, which must be the innermost open span.
  void End(uint32_t index, int64_t now_ns = -1);

  /// Tags spans opened from now on with operation id `op`.
  void SetOperation(uint64_t op) { op_ = op; }

  /// Adds `delta` to the named counter.
  void Count(std::string_view counter, double delta = 1.0);
  double Counter(std::string_view counter) const;

  /// Self seconds per span name: each span's duration minus the durations
  /// of its direct children, summed per name. Requires no open span.
  std::map<std::string, double> SelfSeconds() const;
  /// Summed duration of every span named `name`.
  double TotalSeconds(std::string_view name) const;

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& NameOf(uint32_t id) const { return names_[id]; }

  /// Writes one tab-separated row per span (name, start_ns, end_ns, parent,
  /// op) after a header. False when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  uint32_t Intern(std::string_view name);

  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> ids_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  std::map<std::string, double, std::less<>> counters_;
  uint64_t op_ = 0;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
