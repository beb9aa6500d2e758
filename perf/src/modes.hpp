// The run modes of aeropack_perf and the set-up step they share.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace aeropack::perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string out_dir;  ///< where result and trace files go
  References refs;
};

/// A workload ready for its timed window: specs generated, service built
/// with its graphs registered, and the cache primed.
struct Prepared {
  Workload workload;
  std::unique_ptr<core::ScenarioService> service;
  std::vector<core::ScenarioResult> primes;
  double setup_s = 0.0;  ///< wall time of all of the above
};

/// Items generated for a window of `seconds` (see WorkloadConfig::max_rate).
std::size_t item_count(const WorkloadConfig& cfg, double seconds);
Prepared prepare(const std::string& name, std::uint64_t seed, std::size_t count,
                 bool telemetry, std::size_t workers = 0);

/// Timed run with tracing off: prints every end-to-end metric.
int run_end_to_end(const Options& opt);
/// Traced run: every workload traced, every layer probed; prints every
/// per-layer metric and writes the spans.
int run_traced(const Options& opt);
/// The per-layer metric names, units and directions as BENCHMARK.json
/// entries (one JSON object per line).
std::vector<std::string> per_layer_entries();

/// Write `body` to `<out_dir>/<file>` (creating the directory).
void write_output(const std::string& out_dir, const std::string& file, const std::string& body);

}  // namespace aeropack::perf
