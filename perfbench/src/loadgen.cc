#include "loadgen.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kZipfExponent = 1.0;
constexpr uint32_t kMaxSources = 3;
constexpr double kBinaryShare = 0.8;
constexpr double kMonadicShare = 0.1;

/// Zipf ranks over {0, ..., n-1}: rank r has weight 1 / (r+1)^exponent.
class Zipf {
 public:
  Zipf(uint32_t n, double exponent) : cdf_(n) {
    double total = 0.0;
    for (uint32_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(r + 1.0, exponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  uint32_t Sample(InputRng* rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng->Uniform());
    return static_cast<uint32_t>(
        std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

bool IsTerminal(std::string_view line) {
  return line.substr(0, 3) == "OK " || line.substr(0, 4) == "ERR ";
}

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  size_t scan = 0;         // first byte not yet searched for a newline
  size_t reply_start = 0;  // first byte of the reply being received
  std::deque<size_t> in_flight;
  bool closed = false;
};

void Flush(Conn* conn) {
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n = ::write(conn->fd, conn->out.data() + conn->out_pos,
                              conn->out.size() - conn->out_pos);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      conn->closed = true;
      return;
    }
    conn->out_pos += static_cast<size_t>(n);
  }
  conn->out.clear();
  conn->out_pos = 0;
}

}  // namespace

std::vector<ScheduledRequest> MakeSchedule(const ScheduleSpec& spec,
                                           uint64_t seed) {
  InputRng rng(seed);
  const Zipf zipf(kRegexes, kZipfExponent);
  const double gap = kConnections / spec.rate;
  std::vector<ScheduledRequest> schedule;
  for (uint32_t conn = 0; conn < kConnections; ++conn) {
    for (double t = rng.Uniform() * gap; t < spec.seconds;
         t += gap * (0.75 + 0.5 * rng.Uniform())) {
      ScheduledRequest request;
      request.send_at = t;
      request.conn = conn;
      schedule.push_back(std::move(request));
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const ScheduledRequest& a, const ScheduledRequest& b) {
              return a.send_at < b.send_at;
            });
  for (ScheduledRequest& request : schedule) {
    const double mix = rng.Uniform();
    if (mix < kBinaryShare) {
      request.kind = RequestKind::kBinary;
      request.regex = zipf.Sample(&rng);
      const uint64_t sources = 1 + rng.Below(kMaxSources);
      for (uint64_t i = 0; i < sources; ++i) {
        request.sources.push_back(static_cast<uint32_t>(rng.Below(spec.nodes)));
      }
    } else if (mix < kBinaryShare + kMonadicShare) {
      request.kind = RequestKind::kMonadic;
      request.regex = zipf.Sample(&rng);
    } else {
      request.kind = RequestKind::kUpdate;
      request.edge = static_cast<uint32_t>(rng.Below(kEdgesPerConnection));
    }
  }
  return schedule;
}

PhaseResult DriveOpenLoop(const std::vector<int>& fds,
                          const std::vector<ScheduledRequest>& schedule,
                          const CommandFn& command, const ReplyFn& check,
                          double drain_seconds, bool quick_ack,
                          size_t window) {
  using Clock = std::chrono::steady_clock;
  // Wake from ppoll at the timeout asked for, not up to the default 50 us
  // timer slack later: latency counts from the scheduled send.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PhaseResult result;
  result.request_ms.assign(schedule.size(), -1.0);
  std::vector<Conn> conns(fds.size());
  for (size_t i = 0; i < fds.size(); ++i) {
    conns[i].fd = fds[i];
    ::fcntl(fds[i], F_SETFL, ::fcntl(fds[i], F_GETFL, 0) | O_NONBLOCK);
  }
  const Clock::time_point start = Clock::now();
  auto since_start = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  double all_sent_at = 0.0;  // when the last request went out
  // (send time, backlog) at every send, for the growth test.
  std::vector<std::pair<double, size_t>> backlog;
  size_t next = 0;
  size_t reported_errors = 0;
  std::vector<pollfd> polls(conns.size());

  while (result.completed < schedule.size()) {
    double now = since_start();
    while (next < schedule.size() && schedule[next].send_at <= now &&
           (window == 0 ||
            conns[schedule[next].conn].in_flight.size() < window)) {
      Conn& conn = conns[schedule[next].conn];
      result.lag_ms.push_back((now - schedule[next].send_at) * 1e3);
      conn.out += command(next);
      conn.in_flight.push_back(next);
      ++next;
      backlog.emplace_back(now, next - result.completed);
      Flush(&conn);
      if (next == schedule.size()) all_sent_at = now;
    }
    if (next == schedule.size() && now > all_sent_at + drain_seconds) break;

    double wait = all_sent_at + drain_seconds - now;
    if (next < schedule.size()) {
      const bool window_full =
          window > 0 && conns[schedule[next].conn].in_flight.size() >= window;
      wait = window_full ? 0.05 : schedule[next].send_at - now;
    }
    const double clamped = std::clamp(wait, 0.0, 0.05);
    timespec timeout{0, static_cast<long>(clamped * 1e9)};
    for (size_t i = 0; i < conns.size(); ++i) {
      polls[i] = {conns[i].fd, static_cast<short>(
                                   POLLIN | (conns[i].out.empty() ? 0 : POLLOUT)),
                  0};
    }
    if (::ppoll(polls.data(), polls.size(), &timeout, nullptr) <= 0) continue;
    now = since_start();
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& conn = conns[i];
      if (polls[i].revents & POLLOUT) Flush(&conn);
      if (!(polls[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char chunk[1 << 16];
      while (true) {
        const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
        if (n > 0) {
          conn.in.append(chunk, static_cast<size_t>(n));
          if (quick_ack) {
            // The kernel drops out of quick-ACK mode on its own; re-arm it
            // after every read.
            int one = 1;
            ::setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
          }
          continue;
        }
        if (n == 0) conn.closed = true;
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      size_t newline;
      while ((newline = conn.in.find('\n', conn.scan)) != std::string::npos) {
        const std::string_view line(conn.in.data() + conn.scan,
                                    newline - conn.scan);
        conn.scan = newline + 1;
        if (!IsTerminal(line)) continue;
        if (conn.in_flight.empty()) {
          ++result.failed;  // a reply nobody asked for
          conn.reply_start = conn.scan;
          continue;
        }
        const size_t index = conn.in_flight.front();
        conn.in_flight.pop_front();
        const std::string_view reply(conn.in.data() + conn.reply_start,
                                     conn.scan - conn.reply_start);
        conn.reply_start = conn.scan;
        const double latency_ms = (now - schedule[index].send_at) * 1e3;
        (schedule[index].kind == RequestKind::kUpdate ? result.update_ms
                                                      : result.query_ms)
            .push_back(latency_ms);
        result.request_ms[index] = latency_ms;
        ++result.completed;
        const std::string error = check(index, reply);
        if (!error.empty()) {
          ++result.failed;
          if (++reported_errors <= 5) {
            std::fprintf(stderr, "serve: request %zu: %s\n", index,
                         error.c_str());
          }
        }
      }
      if (conn.reply_start > (1 << 20)) {
        conn.in.erase(0, conn.reply_start);
        conn.scan -= conn.reply_start;
        conn.reply_start = 0;
      }
    }
    if (std::any_of(conns.begin(), conns.end(),
                    [](const Conn& c) { return c.closed; })) {
      break;
    }
  }

  result.elapsed_seconds = since_start();
  result.timed_out = schedule.size() - result.completed;
  result.failed += result.timed_out;
  for (const auto& [t, b] : backlog) result.backlog_max = std::max(result.backlog_max, b);
  // Growth: the mean backlog of the last quarter of sends against the first.
  const size_t quarter = backlog.size() / 4;
  if (quarter > 0) {
    double first = 0.0;
    double last = 0.0;
    for (size_t i = 0; i < quarter; ++i) {
      first += static_cast<double>(backlog[i].second);
      last += static_cast<double>(backlog[backlog.size() - 1 - i].second);
    }
    result.backlog_grew = last / quarter > 2.0 * first / quarter + 4.0;
  }
  result.backlog_grew = result.backlog_grew || result.timed_out > 0;
  return result;
}

}  // namespace perfbench
