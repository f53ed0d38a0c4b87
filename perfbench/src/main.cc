// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <interactive|static_learn|serve> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a human-readable table on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The per-layer metrics and their units are those that BENCHMARK.json, read
// from the working directory, lists.
// Exits 1 when an output check failed, 2 on a usage or set-up error.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<interactive|static_learn|serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // A write to a socket whose peer has gone (the in-process server's, after
  // a timed-out request's connection is closed) fails with EPIPE, which the
  // writers handle, instead of killing the run.
  std::signal(SIGPIPE, SIG_IGN);
  perfbench::RunConfig config;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (arg == "--out-dir") {
        config.out_dir = value;
      } else {
        Usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad value for " + arg).c_str());
    }
  }

  perfbench::Report report;
  try {
    config.per_layer = perfbench::LoadPerLayerMetrics("BENCHMARK.json");
    if (workload == "interactive") {
      perfbench::RunInteractive(config, &report);
    } else if (workload == "static_learn") {
      perfbench::RunStaticLearn(config, &report);
    } else if (workload == "serve") {
      perfbench::RunServe(config, &report);
    } else {
      Usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 2;
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
