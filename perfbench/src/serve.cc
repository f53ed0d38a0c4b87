// Workload `serve`: an in-process RpqServer over syn10000 loaded through
// LOAD, driven from one generator thread over four connections. The
// nominal phase is open-loop at 200 requests/s: 80% binary QUERY ... FROM,
// 10% monadic QUERY, 10% UPDATE. Queries draw Zipf-distributed from 64
// fixed A.B*.C regexes, more than the engine's 32-plan cache holds. Each
// connection toggles its own disjoint set of edges, so the final graph
// does not depend on how the server interleaves connections. The nominal
// timetable runs in passes, each followed by a closed-loop capacity round;
// an offered-rate ladder then measures max_qps.
//
// Checks: replies on a quiescent graph are byte-identical to a direct
// Engine, before the load and after it (then against a direct DynamicGraph
// replay of the applied updates); every reply under load is well formed
// and every nominal update applies.
//
// Traced runs add the server's STATS counters and a sequential direct
// replay of the nominal schedule against an Engine over a DynamicGraph,
// with a span around each call.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "graph/dynamic.h"
#include "graph/io.h"
#include "loadgen.h"
#include "query/engine.h"
#include "server/server.h"
#include "util/timer.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace rpqlearn;

/// Seed of the query set and the toggled edges.
constexpr uint64_t kInputSeed = 1;
/// The nominal offered rate, far below the knee: at 500/s, enough binary
/// queries queued behind a monadic reply on their connection to swing the
/// p90 from 0.9 ms to 4.6 ms between runs.
constexpr double kNominalQps = 200.0;
/// Queries in each quiescent verification set (the last four monadic).
constexpr uint32_t kVerifyQueries = 16;
/// Seconds of the budget left after the nominal passes and the ladder,
/// for the checks that end the run, and the seconds a capacity round and
/// the drain add to each pass.
constexpr double kFinishSeconds = 2.0;
constexpr double kPassExtraSeconds = 1.0;
/// Latency limit on query p99 for a rung of the offered-rate ladder.
constexpr double kLatencyLimitMs = 10.0;
/// The fixed geometric ladder of offered rates (requests per second).
constexpr double kLadder[] = {300, 600, 1200, 2400, 4800, 9600};
/// Capacity: rounds of requests sent closed-loop, each connection keeping
/// this many outstanding (16 in all of the server's 64 admission slots stay
/// free, so nothing is refused). One round follows each nominal pass. The
/// rounds' timetables are fixed: with seeded ones, capacity differed by
/// about 20% between two seeds run alternately.
constexpr size_t kCapacityRequests = 2000;  // per round
constexpr size_t kCapacityWindow = 12;

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }
  return fd;
}

/// A blocking client for the quiescent phases: one request, one reply.
class LineClient {
 public:
  explicit LineClient(uint16_t port) : fd_(Connect(port)) {}
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends `line` and returns the full reply (payload and terminal line).
  std::string Call(const std::string& line) {
    for (size_t sent = 0; sent < line.size();) {
      const ssize_t n = ::write(fd_, line.data() + sent, line.size() - sent);
      if (n <= 0) throw std::runtime_error("write to server failed");
      sent += static_cast<size_t>(n);
    }
    std::string reply;
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline == std::string::npos) {
        char chunk[1 << 16];
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n <= 0) throw std::runtime_error("server closed the connection");
        buffer_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      const std::string line_out = buffer_.substr(0, newline + 1);
      buffer_.erase(0, newline + 1);
      reply += line_out;
      if (line_out.rfind("OK ", 0) == 0 || line_out.rfind("ERR ", 0) == 0) {
        return reply;
      }
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

std::map<std::string, double> FetchStats(uint16_t port) {
  LineClient client(port);
  std::map<std::string, double> stats;
  const std::string reply = client.Call("STATS\n");
  size_t pos = 0;
  while (pos < reply.size()) {
    const size_t end = reply.find('\n', pos);
    const std::string line = reply.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("STAT ", 0) != 0) continue;
    const size_t space = line.rfind(' ');
    stats[line.substr(5, space - 5)] = std::stod(line.substr(space + 1));
  }
  return stats;
}

/// A label group "(la+lb+...)" of 1-3 distinct labels of rank [lo, hi).
std::string LabelGroup(InputRng* rng, uint32_t lo, uint32_t hi) {
  std::set<uint32_t> labels;
  const uint64_t count = 1 + rng->Below(3);
  while (labels.size() < count) labels.insert(lo + rng->Below(hi - lo));
  std::string group = "(";
  for (uint32_t label : labels) {
    if (group.size() > 1) group += '+';
    group += 'l' + std::to_string(label);
  }
  return group + ")";
}

/// The seeded A.B*.C query set. A is drawn from frequent labels, so
/// monadic replies run to thousands of nodes; B from rarer ones, so binary
/// replies from a few sources stay small.
std::vector<std::string> MakeRegexes(uint64_t seed) {
  InputRng rng(seed);
  std::vector<std::string> regexes;
  std::set<std::string> seen;
  while (regexes.size() < kRegexes) {
    std::string regex = LabelGroup(&rng, 0, 8) + "." +
                        LabelGroup(&rng, 8, 20) + "*." +
                        LabelGroup(&rng, 0, 24);
    if (seen.insert(regex).second) regexes.push_back(std::move(regex));
  }
  return regexes;
}

struct OwnedEdge {
  NodeId src;
  std::string label;
  NodeId dst;
};

/// Per connection, kEdgesPerConnection distinct edges no other connection
/// touches.
std::vector<std::vector<OwnedEdge>> MakeOwnedEdges(uint64_t seed,
                                                   uint32_t nodes) {
  InputRng rng(seed);
  std::set<std::tuple<NodeId, std::string, NodeId>> taken;
  std::vector<std::vector<OwnedEdge>> owned(kConnections);
  for (auto& edges : owned) {
    while (edges.size() < kEdgesPerConnection) {
      OwnedEdge edge{static_cast<NodeId>(rng.Below(nodes)),
                     'l' + std::to_string(rng.Below(24)),
                     static_cast<NodeId>(rng.Below(nodes))};
      if (taken.emplace(edge.src, edge.label, edge.dst).second) {
        edges.push_back(edge);
      }
    }
  }
  return owned;
}

std::string BinaryCommand(const std::string& regex,
                          const std::vector<uint32_t>& sources) {
  std::string line = "QUERY " + regex + " FROM";
  for (uint32_t v : sources) line += ' ' + std::to_string(v);
  return line + '\n';
}

std::string ExpectedBinary(const Engine& engine, const std::string& regex,
                           const std::vector<uint32_t>& sources) {
  StatusOr<Engine::PlanPtr> plan = engine.Plan(std::string_view(regex));
  if (!plan.ok()) return "plan failed: " + plan.status().ToString();
  auto pairs = (*plan)->RunBinary(std::span<const NodeId>(sources));
  if (!pairs.ok()) return "run failed: " + pairs.status().ToString();
  std::string reply;
  for (const auto& [s, d] : *pairs) {
    reply += "PAIR " + std::to_string(s) + ' ' + std::to_string(d) + '\n';
  }
  return reply + "OK QUERY " + std::to_string(pairs->size()) + '\n';
}

std::string ExpectedMonadic(const Engine& engine, const std::string& regex) {
  StatusOr<Engine::PlanPtr> plan = engine.Plan(std::string_view(regex));
  if (!plan.ok()) return "plan failed: " + plan.status().ToString();
  StatusOr<MonadicNodes> nodes = (*plan)->RunMonadic();
  if (!nodes.ok()) return "run failed: " + nodes.status().ToString();
  std::string reply;
  const std::vector<uint32_t> indices = (*nodes)->ToIndices();
  for (uint32_t v : indices) reply += "NODE " + std::to_string(v) + '\n';
  return reply + "OK QUERY " + std::to_string(indices.size()) + '\n';
}

/// Checks the shape of a query reply under load: `prefix` payload lines
/// counted by the terminal OK QUERY line.
std::string CheckQueryReply(std::string_view reply, std::string_view prefix) {
  size_t lines = 0;
  size_t pos = 0;
  while (true) {
    const size_t end = reply.find('\n', pos);
    if (end == std::string_view::npos) return "truncated reply";
    const std::string_view line = reply.substr(pos, end - pos);
    pos = end + 1;
    if (line.substr(0, prefix.size()) == prefix) {
      ++lines;
      continue;
    }
    if (line == "OK QUERY " + std::to_string(lines) && pos == reply.size()) {
      return "";
    }
    return "unexpected reply line: " + std::string(line.substr(0, 80));
  }
}

/// One update as sent, and what the server said about it.
struct UpdateLog {
  uint32_t conn;
  uint32_t edge;
  bool insert;
  bool replied_ok = false;
  bool applied = false;
};

/// The served engine's configuration: each request evaluates on its
/// executor's own thread. With the default pool, monadic sweeps fanned out
/// over every core, and whenever the shared host ran slow the binary
/// queries' p90 swung from 1.0 ms to 4.5 ms between runs; with one thread
/// per executor it stayed between 0.84 ms and 1.11 ms.
EngineOptions ServedEngineOptions() {
  EngineOptions options;
  options.eval.threads = 1;
  return options;
}

struct Server {
  std::unique_ptr<server::RpqServer> server;
  uint16_t port = 0;
};

/// The workload's set-up: generate the graph, save it as an edge list,
/// start the server and LOAD the list.
Server SetUp(const Scale& scale, const std::string& path) {
  Dataset dataset = BuildSyntheticDataset(scale.serve_graph_nodes);
  if (!SaveEdgeList(dataset.graph, path).ok()) {
    throw std::runtime_error("cannot write " + path);
  }
  Server s;
  server::ServerOptions options;
  options.engine = ServedEngineOptions();
  s.server = std::make_unique<server::RpqServer>(options);
  const Status started = s.server->Start();
  if (!started.ok()) throw std::runtime_error(started.ToString());
  s.port = s.server->port();
  LineClient loader(s.port);
  const std::string reply = loader.Call("LOAD " + path + "\n");
  if (reply.rfind("OK LOAD", 0) != 0) {
    throw std::runtime_error("LOAD failed: " + reply);
  }
  return s;
}

/// Everything a driven phase needs to render and check its requests.
class Traffic {
 public:
  Traffic(const std::vector<std::string>& regexes,
          const std::vector<std::vector<OwnedEdge>>& owned, const Graph& base)
      : regexes_(regexes), owned_(owned), present_(owned.size()) {
    for (size_t c = 0; c < owned.size(); ++c) {
      for (const OwnedEdge& e : owned[c]) {
        const StatusOr<Symbol> label = base.alphabet().Find(e.label);
        present_[c].push_back(label.ok() && base.HasEdge(e.src, *label, e.dst));
      }
    }
  }

  /// Drives `schedule`; `strict` demands every reply succeed (the nominal
  /// phase), otherwise refusals only fail the phase's latency limit.
  PhaseResult Drive(const std::vector<int>& fds,
                    const std::vector<ScheduledRequest>& schedule, bool strict,
                    size_t* refused, bool quick_ack = true,
                    size_t window = 0) {
    std::vector<size_t> update_slot(schedule.size(), SIZE_MAX);
    auto command = [&](size_t i) {
      const ScheduledRequest& r = schedule[i];
      switch (r.kind) {
        case RequestKind::kBinary:
          return BinaryCommand(regexes_[r.regex], r.sources);
        case RequestKind::kMonadic:
          return "QUERY " + regexes_[r.regex] + '\n';
        case RequestKind::kUpdate:
          break;
      }
      // Toggle the edge: the connection's own updates apply in order, so
      // its view of the edge is exact unless the server refused one.
      const bool insert = !present_[r.conn][r.edge];
      present_[r.conn][r.edge] = insert;
      update_slot[i] = log_.size();
      log_.push_back({r.conn, r.edge, insert});
      const OwnedEdge& e = owned_[r.conn][r.edge];
      return std::string("UPDATE ") + (insert ? '+' : '-') + "(" +
             std::to_string(e.src) + "," + e.label + "," +
             std::to_string(e.dst) + ")\n";
    };
    auto check = [&](size_t i, std::string_view reply) -> std::string {
      const ScheduledRequest& r = schedule[i];
      const bool is_refusal = reply.rfind("ERR RESOURCE_EXHAUSTED", 0) == 0;
      if (is_refusal) ++*refused;
      if (r.kind == RequestKind::kUpdate) {
        UpdateLog& entry = log_[update_slot[i]];
        entry.replied_ok = reply.rfind("OK UPDATE ", 0) == 0;
        entry.applied = reply == "OK UPDATE 1\n";
        // A refused or no-op toggle left the edge as it was.
        if (!entry.applied) {
          present_[r.conn][r.edge] = !present_[r.conn][r.edge];
        }
        if (entry.applied || (!strict && (is_refusal || entry.replied_ok))) {
          return "";
        }
        return "update not applied: " + std::string(reply.substr(0, 80));
      }
      if (!strict && is_refusal) return "";
      return CheckQueryReply(reply, r.kind == RequestKind::kBinary ? "PAIR "
                                                                   : "NODE ");
    };
    return DriveOpenLoop(fds, schedule, command, check, /*drain_seconds=*/5.0,
                         quick_ack, window);
  }

  const std::vector<UpdateLog>& log() const { return log_; }

 private:
  const std::vector<std::string>& regexes_;
  const std::vector<std::vector<OwnedEdge>>& owned_;
  std::vector<std::vector<bool>> present_;
  std::vector<UpdateLog> log_;
};

/// Applies one logged update to `graph`; returns whether it mutated.
bool Apply(DynamicGraph* graph, const OwnedEdge& e, bool insert) {
  const StatusOr<Symbol> label = graph->graph().alphabet().Find(e.label);
  if (!label.ok()) throw std::runtime_error("unknown label " + e.label);
  return insert ? graph->InsertEdge(e.src, *label, e.dst)
                : graph->DeleteEdge(e.src, *label, e.dst);
}

/// A DynamicGraph loaded the way the server loads one.
std::unique_ptr<DynamicGraph> LoadDynamic(const std::string& path) {
  StatusOr<Graph> graph = LoadEdgeList(path);
  if (!graph.ok()) throw std::runtime_error(graph.status().ToString());
  auto dynamic = std::make_unique<DynamicGraph>(*std::move(graph));
  if (ServedEngineOptions().eval.condense != CondenseMode::kOff) {
    dynamic->MaintainCondensation();
  }
  return dynamic;
}

/// The quiescent verification set: hot regexes as binary queries from
/// fixed sources, and a few as monadic queries. Returns the number of
/// mismatching replies.
size_t VerifyQuiescent(uint16_t port, const Engine& direct,
                       const std::vector<std::string>& regexes,
                       uint64_t seed, const char* when, Report* report) {
  InputRng rng(seed);
  LineClient client(port);
  size_t mismatches = 0;
  for (uint32_t q = 0; q < kVerifyQueries; ++q) {
    std::vector<uint32_t> sources;
    for (int i = 0; i < 3; ++i) {
      sources.push_back(static_cast<uint32_t>(
          rng.Below(direct.graph().num_nodes())));
    }
    const bool monadic = q >= kVerifyQueries - 4;
    const uint32_t regex = monadic ? q - (kVerifyQueries - 4) : q;
    const std::string line = monadic ? "QUERY " + regexes[regex] + "\n"
                                     : BinaryCommand(regexes[q], sources);
    const std::string want = monadic ? ExpectedMonadic(direct, regexes[regex])
                                     : ExpectedBinary(direct, regexes[q], sources);
    const bool ok = client.Call(line) == want;
    report->Attempt(ok);
    if (!ok) {
      ++mismatches;
      report->Fail(std::string("reply ") + when + " the load differs from a "
                   "direct Engine: " + line.substr(0, line.size() - 1));
    }
  }
  return mismatches;
}

/// Query p99 with every refused or failed request counted as a miss.
double P99WithMisses(const PhaseResult& phase, size_t refused) {
  std::vector<double> latencies = phase.query_ms;
  latencies.insert(latencies.end(), phase.failed + refused,
                   std::numeric_limits<double>::infinity());
  return Percentile(latencies, 99.0);
}

double StatDelta(const std::map<std::string, double>& before,
                 const std::map<std::string, double>& after,
                 const std::string& key) {
  auto value = [&key](const std::map<std::string, double>& m) {
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

/// Replays the nominal schedule sequentially against an Engine over a
/// DynamicGraph, with spans, applying the updates the server applied; the
/// updates logged before the nominal phase (`log[0, first)`) are applied
/// first, untimed. Returns the per-query direct latencies (plan + run).
std::vector<double> DirectReplay(const std::string& path,
                                 const std::vector<std::string>& regexes,
                                 const std::vector<std::vector<OwnedEdge>>& owned,
                                 const std::vector<ScheduledRequest>& schedule,
                                 const std::vector<UpdateLog>& log, size_t first,
                                 Tracer* tracer, Report* report) {
  std::unique_ptr<DynamicGraph> dynamic = LoadDynamic(path);
  for (size_t i = 0; i < first; ++i) {
    if (log[i].replied_ok) {
      Apply(dynamic.get(), owned[log[i].conn][log[i].edge], log[i].insert);
    }
  }
  Engine engine(*dynamic, ServedEngineOptions());
  std::vector<double> direct_ms;
  size_t next_update = first;
  ScopedSpan root(tracer, "replay");
  for (size_t i = 0; i < schedule.size(); ++i) {
    const ScheduledRequest& r = schedule[i];
    tracer->SetOperation(i);
    if (r.kind == RequestKind::kUpdate) {
      const UpdateLog& entry = log[next_update++];
      if (!entry.replied_ok) continue;
      ScopedSpan span(tracer, "graph.update");
      Apply(dynamic.get(), owned[entry.conn][entry.edge], entry.insert);
      continue;
    }
    WallTimer timer;
    StatusOr<Engine::PlanPtr> plan = [&] {
      ScopedSpan span(tracer, "query.plan");
      return engine.Plan(std::string_view(regexes[r.regex]));
    }();
    bool ok = plan.ok();
    if (ok && r.kind == RequestKind::kBinary) {
      ScopedSpan span(tracer, "query.run_binary");
      ok = (*plan)->RunBinary(std::span<const NodeId>(r.sources)).ok();
    } else if (ok) {
      ScopedSpan span(tracer, "query.run_monadic");
      ok = (*plan)->RunMonadic().ok();
    }
    direct_ms.push_back(timer.ElapsedMillis());
    if (!ok) report->Fail("direct replay query failed");
  }
  return direct_ms;
}

}  // namespace

void RunServe(const RunConfig& config, Report* report) {
  const Scale& scale = config.scale;
  const std::string path = config.out_dir + "/serve-graph.txt";

  std::vector<double> setup_seconds;
  Server served;
  for (int i = 0; i < scale.setup_repeats; ++i) {
    if (served.server) served.server->Stop();
    const OnCpuTimer timer;
    served = SetUp(scale, path);
    setup_seconds.push_back(timer.Stop().OnCpuSeconds());
  }

  // The query set and the toggled edges are fixed; the run seed draws the
  // timetable (which query, sources and edge each request takes, and when).
  const std::vector<std::string> regexes = MakeRegexes(DeriveSeed(kInputSeed, 1));
  const std::vector<std::vector<OwnedEdge>> owned =
      MakeOwnedEdges(DeriveSeed(kInputSeed, 2), scale.serve_graph_nodes);
  std::unique_ptr<DynamicGraph> reference = LoadDynamic(path);
  size_t mismatches = 0;
  {
    Engine direct(*reference, ServedEngineOptions());
    mismatches += VerifyQuiescent(served.port, direct, regexes,
                                  DeriveSeed(config.seed, 3), "before", report);
  }

  ScheduleSpec spec;
  spec.nodes = reference->graph().num_nodes();
  spec.rate = kNominalQps;
  spec.seconds = scale.pass_seconds;

  std::vector<int> fds;
  for (uint32_t c = 0; c < kConnections; ++c) fds.push_back(Connect(served.port));
  Traffic traffic(regexes, owned, reference->graph());
  // Capacity: requests completed per CPU-second of the server's threads
  // (every thread but this one, the generator) with the server kept busy.
  // Wall-clock rates are shown too, but the server leaves CPUs idle while
  // it waits for wake-ups, and on a shared host those rates swung from
  // 2,300/s to 3,700/s between the rounds of one run; per CPU-second they
  // stayed within 10%.
  struct {
    size_t completed = 0;
    double server_cpu_s = 0.0;
    std::vector<double> wall_rates;
  } capacity;
  auto capacity_round = [&] {
    ScheduleSpec capacity_spec = spec;
    capacity_spec.rate = 1e6;  // every request is due at once
    capacity_spec.seconds = kCapacityRequests / capacity_spec.rate;
    size_t capacity_refused = 0;
    const double process_cpu = ProcessCpuSeconds();
    const double generator_cpu = ThreadCpuSeconds();
    const PhaseResult result = traffic.Drive(
        fds,
        MakeSchedule(capacity_spec,
                     DeriveSeed(kInputSeed, 8 + capacity.wall_rates.size())),
        /*strict=*/true, &capacity_refused, /*quick_ack=*/true,
        kCapacityWindow);
    report->Attempts(result.completed + result.timed_out, result.failed);
    if (result.failed > 0) report->Fail("requests failed in a capacity round");
    capacity.completed += result.completed;
    capacity.server_cpu_s += (ProcessCpuSeconds() - process_cpu) -
                             (ThreadCpuSeconds() - generator_cpu);
    capacity.wall_rates.push_back(result.completed / result.elapsed_seconds);
  };

  {
    // Warm-up at the nominal rate, unmeasured: plans compile and lazy
    // snapshots build before timing starts.
    ScheduleSpec warm_spec = spec;
    warm_spec.seconds = 1.0;
    size_t warm_refused = 0;
    const PhaseResult warm = traffic.Drive(
        fds, MakeSchedule(warm_spec, DeriveSeed(config.seed, 6)),
        /*strict=*/true, &warm_refused);
    report->Attempts(warm.completed + warm.timed_out, warm.failed);
    if (warm.failed > 0) report->Fail("requests failed during the warm-up");
  }
  // The nominal phase: passes over one timetable, each followed by a
  // capacity round, as many as fit the budget the ladder leaves. Latency
  // on a shared host swings from second to second: over one run, 1 s
  // slices read a binary p50 of 0.73 ms to 1.4 ms and a p90 of 0.9 ms to
  // 7.9 ms. So a binary query's latency is its least over the passes
  // (PerOperationMin). A pass's ~640 binary queries support a p90 but not
  // a p99. `nominal` holds every pass in order for the direct replay.
  const size_t nominal_log_begin = traffic.log().size();
  const std::map<std::string, double> stats_before = FetchStats(served.port);
  const std::vector<ScheduledRequest> timetable =
      MakeSchedule(spec, DeriveSeed(config.seed, 10));
  const int passes = PassCount(
      config.seconds - kFinishSeconds - std::size(kLadder) * scale.rung_seconds,
      spec.seconds + kPassExtraSeconds);
  std::vector<ScheduledRequest> nominal;
  std::vector<std::vector<double>> binary_ms;  // per pass, by binary query
  PhaseResult phase;  // all passes pooled
  size_t refused = 0;
  for (int pass = 0; pass < passes; ++pass) {
    PhaseResult result =
        traffic.Drive(fds, timetable, /*strict=*/true, &refused);
    report->Attempts(timetable.size(), result.failed);
    binary_ms.emplace_back();
    for (size_t i = 0; i < timetable.size(); ++i) {
      if (timetable[i].kind != RequestKind::kBinary) continue;
      // A request without a reply has failed the run; it counts as slow.
      binary_ms.back().push_back(result.request_ms[i] >= 0.0
                                     ? result.request_ms[i]
                                     : std::numeric_limits<double>::max());
    }
    phase.query_ms.insert(phase.query_ms.end(), result.query_ms.begin(),
                          result.query_ms.end());
    phase.update_ms.insert(phase.update_ms.end(), result.update_ms.begin(),
                           result.update_ms.end());
    phase.lag_ms.insert(phase.lag_ms.end(), result.lag_ms.begin(),
                        result.lag_ms.end());
    phase.backlog_max = std::max(phase.backlog_max, result.backlog_max);
    phase.failed += result.failed;
    nominal.insert(nominal.end(), timetable.begin(), timetable.end());
    if (!config.trace) capacity_round();
  }
  const std::map<std::string, double> stats_after = FetchStats(served.port);
  if (phase.failed > 0) {
    report->Fail(std::to_string(phase.failed) +
                 " requests failed at the nominal rate");
  }

  // Traced runs: the same nominal load from a client that leaves the
  // kernel's delayed ACKs on, which the measured phases switch off (see
  // DriveOpenLoop). Replies held back by the server's Nagle algorithm wait
  // for such an ACK; this probe shows that stall.
  PhaseResult delayed_ack;
  if (config.trace) {
    ScheduleSpec probe_spec = spec;
    probe_spec.seconds = std::min(spec.seconds, 2.0);
    size_t probe_refused = 0;
    delayed_ack = traffic.Drive(
        fds, MakeSchedule(probe_spec, DeriveSeed(config.seed, 7)),
        /*strict=*/true, &probe_refused, /*quick_ack=*/false);
    report->Attempts(delayed_ack.completed + delayed_ack.timed_out,
                     delayed_ack.failed);
    if (delayed_ack.failed > 0) report->Fail("requests failed in the probe");
  }

  if (!config.trace) {
    std::fprintf(stderr, "serve: capacity rounds (1/s of wall time):");
    for (double rate : capacity.wall_rates) std::fprintf(stderr, " %.0f", rate);
    std::fprintf(stderr, "\n");
  }

  // The offered-rate ladder: the highest rung whose query p99 (refused and
  // failed requests counted as misses) meets the limit without a growing
  // backlog. The climb goes on until two rungs in a row miss, so one
  // disturbed rung below the knee does not end it.
  double max_qps = 0.0;
  if (!config.trace) {
    int misses_in_a_row = 0;
    for (size_t rung = 0; rung < std::size(kLadder) && misses_in_a_row < 2;
         ++rung) {
      ScheduleSpec rung_spec = spec;
      rung_spec.rate = kLadder[rung];
      rung_spec.seconds = scale.rung_seconds;
      const std::vector<ScheduledRequest> schedule =
          MakeSchedule(rung_spec, DeriveSeed(config.seed, 100 + rung));
      size_t rung_refused = 0;
      const PhaseResult result =
          traffic.Drive(fds, schedule, /*strict=*/false, &rung_refused);
      // Malformed replies are errors even above the knee.
      const size_t malformed = result.failed - result.timed_out;
      if (malformed > 0) {
        report->Attempts(malformed, malformed);
        report->Fail("malformed replies on the ladder");
      }
      const double p99 = P99WithMisses(result, rung_refused);
      std::fprintf(stderr,
                   "serve: rung %.0f/s: p99 %.3f ms, backlog max %zu%s, "
                   "refused %zu\n",
                   kLadder[rung], p99, result.backlog_max,
                   result.backlog_grew ? " (growing)" : "", rung_refused);
      if (p99 > kLatencyLimitMs || result.backlog_grew) {
        ++misses_in_a_row;
        continue;
      }
      misses_in_a_row = 0;
      max_qps = result.completed / result.elapsed_seconds;
    }
  }
  for (int fd : fds) ::close(fd);

  // After the load: the served graph must equal a direct replay of the
  // applied updates, and reply byte for byte like it.
  for (const UpdateLog& entry : traffic.log()) {
    if (!entry.replied_ok) continue;
    const bool mutated =
        Apply(reference.get(), owned[entry.conn][entry.edge], entry.insert);
    if (mutated != entry.applied) {
      report->Fail("server and direct replay disagree on an update");
    }
  }
  {
    Engine direct(*reference, ServedEngineOptions());
    mismatches += VerifyQuiescent(served.port, direct, regexes,
                                  DeriveSeed(config.seed, 5), "after", report);
  }

  if (config.trace) {
    // The nominal phase carries no spans and runs before the probe and the
    // replay, so tracing cannot slow it: trace.overhead_pct is idle here.
    std::fprintf(stderr, "traced run: op_p50_ms %.4f\n",
                 Median(PerOperationMin(binary_ms)));
    Tracer tracer;
    const std::vector<double> direct_ms =
        DirectReplay(path, regexes, owned, nominal, traffic.log(),
                     nominal_log_begin, &tracer, report);
    tracer.WriteTsv(config.out_dir + "/trace-serve.tsv");
    std::vector<std::pair<std::string, double>> values;
    AddLayerTimes(tracer,
                  {"query.plan", "query.run_binary", "query.run_monadic",
                   "graph.update"},
                  tracer.TotalSeconds("replay"), &values);
    const double lookups = StatDelta(stats_before, stats_after, "engine.plan_hits") +
                           StatDelta(stats_before, stats_after, "engine.plan_misses");
    const double monadic = static_cast<double>(std::count_if(
        nominal.begin(), nominal.end(),
        [](const ScheduledRequest& r) { return r.kind == RequestKind::kMonadic; }));
    const double binary = static_cast<double>(std::count_if(
        nominal.begin(), nominal.end(),
        [](const ScheduledRequest& r) { return r.kind == RequestKind::kBinary; }));
    values.emplace_back("query.plan_hit_rate",
                        Ratio(StatDelta(stats_before, stats_after, "engine.plan_hits"),
                              lookups));
    values.emplace_back("query.plan_evictions",
                        StatDelta(stats_before, stats_after, "engine.plan_evictions"));
    values.emplace_back(
        "query.warm_hit_rate",
        Ratio(StatDelta(stats_before, stats_after, "engine.monadic_warm_hits"),
              monadic));
    values.emplace_back("server.overhead_ratio",
                        Ratio(Median(phase.query_ms), Median(direct_ms)));
    values.emplace_back(
        "server.coalesced_frac",
        Ratio(StatDelta(stats_before, stats_after, "server.batched_requests"),
              binary));
    values.emplace_back(
        "server.admission_rejections",
        StatDelta(stats_before, stats_after, "server.admission_rejections"));
    values.emplace_back("loadgen.lag_p99_ms", TailOf(phase.lag_ms, 99.0).value);
    values.emplace_back("loadgen.backlog_max",
                        static_cast<double>(phase.backlog_max));
    values.emplace_back("server.delayed_ack_p50_ms", Median(delayed_ack.query_ms));
    values.emplace_back("server.delayed_ack_p99_ms",
                        TailOf(delayed_ack.query_ms, 99.0).value);
    ReportLayers(values, config.per_layer, report);
  } else {
    // op: a binary QUERY ... FROM at the nominal rate. quality: the share
    // of quiescent replies byte-identical to the direct Engine's.
    ReportEndToEnd({Median(setup_seconds), PerOperationMin(binary_ms), 90.0,
                    Ratio(capacity.completed, capacity.server_cpu_s),
                    1.0 - mismatches / (2.0 * kVerifyQueries)},
                   report);
    report->Detail("query_p50_ms", Median(phase.query_ms), "ms");
    report->Detail("query_p99_ms", TailOf(phase.query_ms, 99.0).value, "ms");
    report->Detail("update_p90_ms", TailOf(phase.update_ms, 90.0).value, "ms");
    report->Detail("max_qps", max_qps, "1/s");
    report->Detail("capacity_wall_per_s", Median(capacity.wall_rates), "1/s");
    std::fprintf(stderr,
                 "serve: nominal %.0f/s: %zu requests, generator lag p99 "
                 "%.3f ms, backlog max %zu, refused %zu\n",
                 kNominalQps, nominal.size(),
                 TailOf(phase.lag_ms, 99.0).value, phase.backlog_max, refused);
  }
  served.server->Stop();
  std::remove(path.c_str());
}

}  // namespace perfbench
