// Benchmark binary: runs one workload and prints its metrics.
//
//   pit_perfbench --workload submit_tcp|stream_tcp|pit_search --seed N
//                 --seconds S --trace 0|1 [--trace-out PATH]
//   pit_perfbench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Lines before it report each phase's accounting, the host
// fingerprint and, for a traced run, the end-to-end metrics measured with
// tracing on (their difference from an untraced run is the overhead).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload submit_tcp|stream_tcp|pit_search "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n"
               "       %s --selftest\n",
               argv0, argv0);
  return 2;
}

int selftest() {
  std::vector<std::string> log;
  const bool ok = selftest_submit(log) & selftest_stream(log) &
                  selftest_search(log);
  for (const std::string& line : log) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("selftest: %s\n", ok ? "every corrupted output was rejected"
                                   : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  RunOptions opt;
  bool seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--selftest") {
      pin_openmp(1);
      return selftest();
    }
    if (val == nullptr) {
      return usage(argv[0]);
    }
    ++i;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
      seconds_set = true;
    } else if (arg == "--trace") {
      opt.trace = std::string(val) == "1";
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (!seconds_set || !(opt.seconds >= 1.0 && opt.seconds <= 60.0)) {
    return usage(argv[0]);
  }
  RunResult (*run)(const RunOptions&) = nullptr;
  if (workload == "submit_tcp") {
    run = run_submit_tcp;
  } else if (workload == "stream_tcp") {
    run = run_stream_tcp;
  } else if (workload == "pit_search") {
    run = run_pit_search;
  } else {
    return usage(argv[0]);
  }

  pin_openmp(1);
  try {
    const double steal0 = host_steal_seconds();
    const double cpu0 = cpu_seconds();
    if (opt.trace) {
      Trace::instance().enable(1U << 20);
    }
    RunResult res = run(opt);
    if (opt.trace) {
      std::printf("traced end_to_end: %s\n", res.end_to_end.json().c_str());
      probe_submit(opt, res.per_layer);
      probe_stream(opt, res.per_layer);
      probe_search(opt, res.per_layer);
      if (!trace_out.empty()) {
        if (!Trace::instance().write(trace_out)) {
          std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
          return 1;
        }
        std::printf("trace: %zu spans written to %s\n",
                    Trace::instance().size(), trace_out.c_str());
      }
    }
    const double cpu = cpu_seconds() - cpu0;
    const double steal = host_steal_seconds() - steal0;
    for (const PhaseReport& p : res.phases) {
      std::printf("%s\n", p.to_string().c_str());
    }
    for (const std::string& msg : res.check_failures) {
      std::printf("CHECK FAILED %s\n", msg.c_str());
    }
    std::printf("host: %s host_steal_s=%.2f process_cpu_s=%.2f "
                "steal_share_of_cpu=%.3f\n",
                host_fingerprint().c_str(), steal, cpu,
                cpu > 0.0 ? steal / cpu : 0.0);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted()),
                static_cast<unsigned long long>(res.failed()),
                (opt.trace ? res.per_layer : res.end_to_end).json().c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
