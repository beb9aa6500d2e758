// Driving a workload through core::ScenarioService and checking what comes
// back: service construction, cache priming, the closed-loop timed window
// and the output checks against the references kept in perf/reference.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/scenario_service.hpp"
#include "workloads.hpp"

namespace aeropack::perf {

/// A service configured as the workload prescribes (`workers` = 0 keeps the
/// workload's own count), with the ROM and mission graphs registered.
std::unique_ptr<core::ScenarioService> make_service(const WorkloadConfig& cfg, bool telemetry,
                                                    std::size_t workers = 0,
                                                    std::size_t threads = 0);

struct Sample {
  std::size_t item = 0;
  double submit_s = 0.0;   ///< wall time inside ScenarioService::submit
  double latency_s = 0.0;  ///< submit -> returned result, seen by the client
  core::ScenarioResult result;
};

struct Window {
  std::vector<Sample> samples;  ///< completion order
  double wall_s = 0.0;
  double cpu_s = 0.0;       ///< process user + system CPU over the window
  bool exhausted = false;   ///< the generated list ran out before the deadline
};

/// Closed loop: `clients` threads each submit the next unclaimed item and
/// wait for its result, until `seconds` have passed or `limit` items were
/// taken. With a tracer, every scenario records a span under `root`.
Window run_window(core::ScenarioService& service, const Workload& w, double seconds,
                  std::size_t limit, Tracer* tracer = nullptr, std::uint64_t root = 0);

/// Reference outputs kept with the benchmark.
struct References {
  /// Prime scenario name -> outputs (the anchors of every workload).
  std::map<std::string, std::map<std::string, double>> anchors;
  /// steady_fv grid point (power_w, t_hot) -> outputs.
  std::map<std::pair<double, double>, std::map<std::string, double>> fv_grid;
};
/// Throws std::runtime_error when a reference file is missing or malformed.
References load_references(const std::string& dir);
/// Recompute every reference on a fresh service and write them to `dir`.
void write_references(const std::string& dir);

struct CheckResult {
  std::size_t attempted = 0;  ///< timed scenarios + anchors checked
  std::size_t failed = 0;     ///< not ok, non-finite or not matching
  std::vector<std::string> problems;  ///< the first few misses, for stderr
};

/// Output checks of one run: every result ok and finite; the primes match
/// their anchors and steady_fv results their grid references to 1e-9
/// relative; with `recheck`, every distinct result of the window equals,
/// bit for bit, a re-run on a fresh 1-worker, 1-thread service.
CheckResult check_outputs(const Workload& w, const std::vector<core::ScenarioResult>& primes,
                          const Window& window, const References& refs, bool recheck);

}  // namespace aeropack::perf
