// Seeded workload generation. The program under test only ever sees the
// generated core::ScenarioSpec values; the seed and the generator live
// here, in the benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"

namespace aeropack::core {
class ScenarioService;
}

namespace aeropack::perf {

/// How one workload drives the service.
struct WorkloadConfig {
  std::string name;
  std::size_t clients = 1;  ///< closed-loop client threads
  std::size_t workers = 1;  ///< ScenarioService worker threads
  std::size_t threads_per_scenario = 1;
  std::string mix;  ///< human-readable traffic mix, for provenance
  std::vector<std::string> graphs;  ///< solver graphs the timed traffic uses
  /// Generated specs per second of the timed window: the list is sized so
  /// a run far faster than today's still does not exhaust it.
  double max_rate = 0.0;
};

/// The three workloads: design_sweep, steady_fv, mission_campaign.
const std::vector<WorkloadConfig>& workload_configs();
/// Throws std::invalid_argument naming the known workloads.
const WorkloadConfig& workload_config(const std::string& name);
/// The config as a JSON object (clients, workers, threads, mix).
std::string params_json(const WorkloadConfig& cfg);

struct Item {
  core::ScenarioSpec spec;
  bool resubmission = false;  ///< exact copy of an earlier item's inputs
};

struct Workload {
  WorkloadConfig cfg;
  /// One non-timed scenario per shared structure (64^3 assembly, modal
  /// factorization, ROM builds); run before the window so the cache is warm.
  std::vector<core::ScenarioSpec> primes;
  /// The timed traffic, in submission order.
  std::vector<Item> items;
};

/// Generate `count` items of workload `name` from `seed` (steady_fv is
/// capped at the size of its reference grid).
Workload generate(const std::string& name, std::uint64_t seed, std::size_t count);

/// steady_fv's reference grid: every (power_w, t_hot) pair its specs use.
std::vector<std::pair<double, double>> steady_fv_grid();
core::ScenarioSpec steady_fv_spec(double power_w, double t_hot);

/// Register the ROM and mission graphs beside the built-in ones.
void register_graphs(core::ScenarioService& service);

}  // namespace aeropack::perf
