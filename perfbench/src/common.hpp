// Shared plumbing of the benchmark binary: clocks, order statistics,
// process CPU / RSS / steal accounting, the span recorder used by traced
// runs, per-phase accounting, and the metric set printed as the result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since a process-wide epoch taken at first use.
double now_s();

/// Median of `v` (copied; empty input gives 0).
double median(std::vector<double> v);
/// Nearest-rank quantile q in [0, 1] of `v` (copied).
double quantile(std::vector<double> v, double q);

/// Process CPU time (user + system), seconds.
double cpu_seconds();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// Host-wide CPU steal, in seconds, summed over all CPUs (/proc/stat).
double host_steal_seconds();

/// Threads this process may use: the benchmark's whole thread and
/// connection budget (the program's own threads included).
int cpu_budget();

/// One line describing the host: nproc, the ISA of the bound fp32 and
/// int8 kernel variants, and the OpenMP thread count.
std::string host_fingerprint();

/// Pins OpenMP to `threads` for the whole process.
void pin_openmp(int threads);

/// Restricts the calling thread, and the threads it creates from now on,
/// to CPUs [first, first + count) (clamped to the host; no-op when the
/// host has a single CPU).
void pin_thread(int first, int count);

/// Spans of a traced run: name, start, end, parent span and the request
/// they belong to. Kept in memory; written as JSON lines at exit. When
/// disabled, begin()/end() cost one branch.
class Trace {
 public:
  static Trace& instance();
  void enable(std::size_t reserve);
  bool enabled() const { return enabled_; }
  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t record(const char* name, std::uint64_t request, double start,
                       double end, std::uint64_t parent = 0);
  /// Writes every span to `path` (one JSON object per line).
  bool write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    double start;
    double end;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// Attempted / failed accounting of one phase, by failure kind.
struct PhaseReport {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t error = 0;
  std::uint64_t timeout = 0;
  std::uint64_t lost = 0;
  double seconds = 0.0;
  /// Open-loop phases: how late the generator sent, seconds.
  std::vector<double> lateness;
  std::uint64_t failed() const { return shed + error + timeout + lost; }
  std::string to_string() const;
};

/// The named metrics a run prints, in insertion-independent order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Result of one workload run, before main() formats it.
struct RunResult {
  bool correct = true;
  std::vector<std::string> check_failures;
  std::vector<PhaseReport> phases;
  Metrics end_to_end;
  Metrics per_layer;
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  void fail_check(const std::string& message);
};

/// splitmix64: a seed-derived stream independent of the library's RNG.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
