#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "nn/kernels/registry.hpp"

namespace perfbench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::lround(q * static_cast<double>(v.size() - 1)));
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") {
    return 0.0;
  }
  for (std::uint64_t& f : field) {
    stat >> f;
  }
  // user nice system idle iowait irq softirq steal
  return static_cast<double>(field[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

int cpu_budget() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string host_fingerprint() {
  const auto& reg = pit::nn::kernels::Registry::instance();
  int omp = 1;
#ifdef _OPENMP
  omp = omp_get_max_threads();
#endif
  std::ostringstream os;
  os << "nproc=" << cpu_budget() << " fp32_isa=" << reg.fp32_isa()
     << " i8_isa=" << reg.i8_isa() << " omp_threads=" << omp;
  return os.str();
}

void pin_openmp(int threads) {
#ifdef _OPENMP
  omp_set_dynamic(0);
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

void pin_thread(int first, int count) {
  const int n = cpu_budget();
  if (n < 2) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c < first + count && c < n; ++c) {
    CPU_SET(c, &set);
  }
  if (CPU_COUNT(&set) > 0) {
    (void)sched_setaffinity(0, sizeof(set), &set);
  }
}

Trace& Trace::instance() {
  static Trace trace;
  return trace;
}

void Trace::enable(std::size_t reserve) {
  enabled_ = true;
  spans_.reserve(reserve);
}

std::uint64_t Trace::record(const char* name, std::uint64_t request,
                            double start, double end, std::uint64_t parent) {
  if (!enabled_) {
    return 0;
  }
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, parent, request, start, end});
  return id;
}

bool Trace::write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start, s.end);
  }
  return std::fclose(f) == 0;
}

std::string PhaseReport::to_string() const {
  std::ostringstream os;
  os << "phase " << name << ": attempted=" << attempted
     << " completed=" << completed << " failed=" << failed()
     << " (shed=" << shed << " error=" << error << " timeout=" << timeout
     << " lost=" << lost << ") seconds=" << seconds;
  if (!lateness.empty()) {
    os << " generator_late_p50_us=" << quantile(lateness, 0.5) * 1e6
       << " generator_late_max_us="
       << *std::max_element(lateness.begin(), lateness.end()) * 1e6;
  }
  return os.str();
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  char num[64];
  for (const auto& [name, vu] : values_) {
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

std::uint64_t RunResult::attempted() const {
  std::uint64_t n = 0;
  for (const PhaseReport& p : phases) {
    n += p.attempted;
  }
  return n;
}

std::uint64_t RunResult::failed() const {
  std::uint64_t n = 0;
  for (const PhaseReport& p : phases) {
    n += p.failed();
  }
  return n;
}

void RunResult::fail_check(const std::string& message) {
  correct = false;
  if (check_failures.size() < 20) {
    check_failures.push_back(message);
  }
}

}  // namespace perfbench
