#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Open-loop load generator for the `serve` workload: a seeded timetable of
// requests, sent from one thread at their scheduled times over a few
// connections whatever the replies are doing, with every latency measured
// from the request's scheduled send time.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class RequestKind : uint8_t { kBinary, kMonadic, kUpdate };

struct ScheduledRequest {
  /// Seconds from the start of the phase.
  double send_at = 0.0;
  uint32_t conn = 0;
  RequestKind kind = RequestKind::kBinary;
  /// Queries: index into the regex set (Zipf-distributed ranks).
  uint32_t regex = 0;
  /// Binary queries: the FROM sources.
  std::vector<uint32_t> sources;
  /// Updates: index into the connection's own edges.
  uint32_t edge = 0;
};

/// The serve workload's fixed traffic shape: connections, the regex set the
/// queries draw from, and the edges each connection toggles.
constexpr uint32_t kConnections = 4;
constexpr uint32_t kRegexes = 64;
constexpr uint32_t kEdgesPerConnection = 16;

struct ScheduleSpec {
  /// Offered requests per second over all connections, and phase length.
  double rate = 100.0;
  double seconds = 1.0;
  /// Node count of the served graph; binary queries draw sources below it.
  uint32_t nodes = 10000;
};

/// The timetable of one phase; a pure function of `spec` and `seed`. Each
/// connection sends at rate / kConnections, evenly paced from a random
/// phase with up to +-25% jitter on each gap, so it pipelines only when a
/// reply takes longer than the gap before its next request. The mix is 80%
/// binary QUERY ... FROM (1-3 uniform sources), 10% monadic QUERY and 10%
/// UPDATE; queries draw Zipf (exponent 1) ranks over the kRegexes regexes.
std::vector<ScheduledRequest> MakeSchedule(const ScheduleSpec& spec,
                                           uint64_t seed);

/// What one driven phase measured.
struct PhaseResult {
  /// Latencies from scheduled send to the last reply byte, per completed
  /// request, split by kind.
  std::vector<double> query_ms;  // binary and monadic
  std::vector<double> update_ms;
  /// The same latencies by position in the schedule; negative for a
  /// request that got no reply.
  std::vector<double> request_ms;
  /// How late each request left the generator.
  std::vector<double> lag_ms;
  /// Most requests ever due but unanswered.
  size_t backlog_max = 0;
  /// The backlog rose over the phase instead of staying level.
  bool backlog_grew = false;
  size_t completed = 0;
  /// Requests the reply check rejected, or that never got a reply.
  size_t failed = 0;
  size_t timed_out = 0;
  double elapsed_seconds = 0.0;
};

/// Renders a request as its protocol line (newline included).
using CommandFn = std::function<std::string(size_t index)>;
/// Checks the reply of request `index`; returns an empty string when it is
/// acceptable, otherwise why not.
using ReplyFn = std::function<std::string(size_t index, std::string_view reply)>;

/// Sends `schedule` over the connected sockets `fds` (one per connection)
/// and collects every reply, waiting at most `drain_seconds` after the last
/// send. Sockets are switched to non-blocking mode. With `quick_ack` the
/// client ACKs every reply at once instead of delaying the ACK. A nonzero
/// `window` closes the loop instead: a request also waits until its
/// connection has fewer than `window` requests outstanding.
PhaseResult DriveOpenLoop(const std::vector<int>& fds,
                          const std::vector<ScheduledRequest>& schedule,
                          const CommandFn& command, const ReplyFn& check,
                          double drain_seconds, bool quick_ack,
                          size_t window = 0);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
