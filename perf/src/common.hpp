// Shared helpers of the AeroPack benchmark program: seeded random numbers,
// order statistics, process resource readings, the in-memory span recorder
// of the traced run and the labelled metric table every mode prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace aeropack::perf {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64: a tiny, portable generator, so a seed yields the same specs
/// with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::size_t index(std::size_t n);

 private:
  std::uint64_t state_;
};

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]) of a non-empty sample.
double percentile(std::vector<double> v, double p);

/// The highest percentile of a sample that still has at least ten samples
/// beyond it, from the ladder 95 / 90 / 75 / 50; p50 when none has (then
/// `beyond` says how few). p99 and p99.9 are left out: in a shared virtual
/// machine they measured host CPU steal, swinging up to 2x between
/// identical design_sweep runs.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail_of(const std::vector<double>& v);

/// User + system CPU seconds of the whole process.
double process_cpu_seconds();
/// Peak resident set of the process so far [MB].
double peak_rss_mb();
/// CPUs this process may run on (the `nproc` figure).
std::size_t affinity_cpus();

/// One line of provenance JSON: source revision, build type, CPU counts,
/// every AEROPACK_* environment variable, the seed and the workload
/// parameters (`params_json` is an already-formatted JSON object).
std::string provenance_json(const std::string& workload, std::uint64_t seed,
                            const std::string& params_json);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Format a double as JSON with all its digits (non-finite becomes null).
std::string json_number(double v);
std::string json_string(const std::string& s);

/// The final stdout line of every run.
std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics);

/// Spans of the traced run, kept in memory and written once at the end.
/// A span names a layer call or a scenario; spans of one workload share a
/// workload id and point at the span that caused them.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::string workload;
    std::string name;
    std::string tag;
    double start_s = 0.0;  ///< since the tracer was created
    double end_s = 0.0;
  };

  Tracer() : origin_(Clock::now()) {}
  std::uint64_t next_id();
  double now() const { return seconds_between(origin_, Clock::now()); }
  void record(Span span);
  /// Every span as comma-separated JSON objects, one per line.
  std::string spans_json() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::uint64_t last_id_ = 0;  // guarded by mutex_
};

/// Records one span on destruction. A null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint64_t parent, std::string workload, std::string name,
             std::string tag = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Tracer::Span span_;
};

}  // namespace aeropack::perf
