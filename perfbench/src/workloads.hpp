// The three workloads, their per-layer probes and their self-tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/client.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

/// Loopback connections each serving workload drives (HELLO done).
std::vector<std::unique_ptr<pit::net::BlockingClient>> connect_clients(
    std::uint16_t port, int count, std::vector<double>* connect_ms = nullptr);

/// Blocks until one of `clients` has bytes to read or `timeout_s` passes.
void wait_readable(
    const std::vector<std::unique_ptr<pit::net::BlockingClient>>& clients,
    double timeout_s);

RunResult run_submit_tcp(const RunOptions& opt);
RunResult run_stream_tcp(const RunOptions& opt);
RunResult run_pit_search(const RunOptions& opt);

/// Per-layer probes: each fills its layers' metrics into `out`.
void probe_submit(const RunOptions& opt, Metrics& out);
void probe_stream(const RunOptions& opt, Metrics& out);
void probe_search(const RunOptions& opt, Metrics& out);

/// Self-test verdicts: append a line to `log`; true when the check
/// behaved (accepted the genuine output / rejected the corrupted one by
/// the named check).
bool expect_accepted(std::vector<std::string>& log, const std::string& what,
                     const RunResult& res);
bool expect_rejected(std::vector<std::string>& log, const std::string& what,
                     const RunResult& res, const char* check);

/// Self-tests: genuine outputs pass each check, corrupted ones are
/// rejected. Append one line per case to `log`; false when a corrupted
/// output was accepted or a genuine one rejected.
bool selftest_submit(std::vector<std::string>& log);
bool selftest_stream(std::vector<std::string>& log);
bool selftest_search(std::vector<std::string>& log);

}  // namespace perfbench
