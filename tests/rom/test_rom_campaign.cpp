// Scenario-campaign fidelity swap: the same input points evaluated through
// the compact model ("rom_board_steady") and through the full FV solve (a
// test graph over the same canonical board) inside one ScenarioService
// batch must agree on port temperatures and heat flows, and each scenario's
// isolated counter profile must show which fidelity it ran
// (rom.steady_evals vs. fv.steady_solves) — ROM evaluation swapped in per
// scenario, not per process.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/scenario_service.hpp"
#include "rom/canonical.hpp"
#include "rom/service_graphs.hpp"

namespace ar = aeropack::rom;
namespace ac = aeropack::core;

namespace {

/// Full-order counterpart of "rom_board_steady": same spec conventions
/// (boundaries keyed by port, loads keyed by map) and output keys.
std::map<std::string, double> board_full_order(const ac::ScenarioSpec& scenario,
                                               aeropack::ExecutionContext& ctx) {
  ar::CanonicalCase c = ar::fig2_board();
  ar::RomInputs inputs;
  for (const ar::RomPort& p : c.spec.ports)
    inputs.sink_temperatures.push_back(scenario.boundaries.at(p.name));
  for (const ar::RomPowerMap& m : c.spec.maps) inputs.map_powers.push_back(scenario.loads.at(m.name));
  ar::apply_inputs(c.model, c.spec, inputs);
  const aeropack::thermal::FvSolution sol = c.model.solve_steady(ctx);
  const aeropack::numeric::Vector temps =
      ar::port_surface_temperatures(c.model, c.spec, sol.temperatures);
  const aeropack::numeric::Vector flows =
      ar::port_heat_flows(c.model, c.spec, inputs, sol.temperatures);
  std::map<std::string, double> out;
  for (std::size_t p = 0; p < c.spec.ports.size(); ++p) {
    out["t_" + c.spec.ports[p].name] = temps[p];
    out["q_" + c.spec.ports[p].name] = flows[p];
  }
  return out;
}

ac::ScenarioSpec sweep_point(const std::string& name, const std::string& graph, double rail_k,
                             double power_w) {
  ac::ScenarioSpec spec;
  spec.name = name;
  spec.graph = graph;
  spec.boundaries = {{"rail_left", rail_k}, {"rail_right", rail_k + 5.0}, {"top_air", 303.15}};
  spec.loads = {{"cpu", power_w}, {"psu", 0.6 * power_w}};
  return spec;
}

std::uint64_t counter_of(const ac::ScenarioResult& r, const std::string& key) {
  const auto it = r.counters.find(key);
  return it == r.counters.end() ? 0u : it->second;
}

}  // namespace

TEST(RomCampaign, FidelitySwapAgreesAndCountsBothPaths) {
  ac::ScenarioServiceOptions opts;
  opts.workers = 2;
  ac::ScenarioService service(opts);
  ar::register_rom_graphs(service);
  service.register_graph("board_full_order", board_full_order);

  // Build the compact model once (cached by structure), so the compact
  // scenarios below only evaluate it.
  const auto warm = service.run({sweep_point("warm", "rom_board_steady", 300.0, 1.0)});
  ASSERT_TRUE(warm[0].ok) << warm[0].error;

  const std::vector<ac::ScenarioResult> results =
      service.run({sweep_point("p10.compact", "rom_board_steady", 313.15, 10.0),
                   sweep_point("p10.full", "board_full_order", 313.15, 10.0),
                   sweep_point("p25.compact", "rom_board_steady", 318.15, 25.0),
                   sweep_point("p25.full", "board_full_order", 318.15, 25.0)});
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.name << ": " << r.error;

  // Compact and full-order runs of the same point agree at ROM accuracy.
  for (std::size_t pair = 0; pair < 2; ++pair) {
    const auto& compact = results[2 * pair];
    const auto& full = results[2 * pair + 1];
    ASSERT_EQ(full.values.size(), 6u);
    for (const auto& [key, value] : full.values) {
      // Heat flows agree to a fraction of the dissipated power.
      const double tol = key.rfind("t_", 0) == 0 ? 0.05 : 0.2;
      EXPECT_NEAR(compact.values.at(key), value, tol) << compact.name << " " << key;
    }
  }

  // Isolated per-scenario counters prove which path each scenario took.
  for (std::size_t i = 0; i < results.size(); ++i) {
    const bool full = i % 2 == 1;
    EXPECT_EQ(counter_of(results[i], "rom.steady_evals"), full ? 0u : 1u) << results[i].name;
    if (full)
      EXPECT_GE(counter_of(results[i], "fv.steady_solves"), 1u) << results[i].name;
    else
      EXPECT_EQ(counter_of(results[i], "fv.steady_solves"), 0u) << results[i].name;
  }
}
