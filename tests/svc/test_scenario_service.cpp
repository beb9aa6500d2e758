// core::ScenarioService — submission/dedup/wait semantics, graph registry,
// error capture, telemetry capture (counters + gauges), boundary validation
// of graph params and options validation.
#include "core/scenario_service.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "rom/service_graphs.hpp"

namespace ac = aeropack::core;

namespace {

ac::ScenarioSpec seb_spec(const std::string& name, double power_w) {
  ac::ScenarioSpec spec;
  spec.name = name;
  spec.graph = "seb_point";
  spec.loads = {{"power_w", power_w}};
  return spec;
}

ac::ScenarioSpec slab_spec(const std::string& name, double power_w) {
  ac::ScenarioSpec spec;
  spec.name = name;
  spec.graph = "fv_slab_steady";
  spec.loads = {{"power_w", power_w}};
  return spec;
}

ac::ScenarioSpec modal_spec(const std::string& name, double mass_x) {
  ac::ScenarioSpec spec;
  spec.name = name;
  spec.graph = "modal_plate";
  spec.params = {{"mass_x", mass_x}};
  return spec;
}

TEST(ScenarioService, ZeroWorkersThrows) {
  ac::ScenarioServiceOptions opts;
  opts.workers = 0;
  EXPECT_THROW(ac::ScenarioService service(opts), std::invalid_argument);
}

TEST(ScenarioService, WaitOnDefaultTicketThrows) {
  ac::ScenarioService service;
  EXPECT_THROW(service.wait(ac::ScenarioService::Ticket{}), std::invalid_argument);
}

TEST(ScenarioService, BuiltinGraphsAreRegistered) {
  ac::ScenarioService service;
  EXPECT_TRUE(service.has_graph("fv_slab_steady"));
  EXPECT_TRUE(service.has_graph("modal_plate"));
  EXPECT_TRUE(service.has_graph("seb_point"));
  EXPECT_FALSE(service.has_graph("rom_board_steady"));
  aeropack::rom::register_rom_graphs(service);
  EXPECT_TRUE(service.has_graph("rom_board_steady"));
  EXPECT_TRUE(service.has_graph("rom_seb_steady"));
}

TEST(ScenarioService, UnknownGraphFailsTheScenarioNotTheBatch) {
  ac::ScenarioService service;
  ac::ScenarioSpec bad;
  bad.name = "bad";
  bad.graph = "no_such_graph";
  const std::vector<ac::ScenarioResult> results = service.run({bad, seb_spec("good", 60.0)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("no_such_graph"), std::string::npos);
  EXPECT_TRUE(results[1].ok);
  EXPECT_GT(results[1].values.at("t_pcb"), 0.0);
}

TEST(ScenarioService, DeduplicatesContentEqualSpecs) {
  ac::ScenarioServiceOptions opts;
  opts.workers = 2;
  ac::ScenarioService service(opts);
  // Same content under three names + one genuinely different point.
  const std::vector<ac::ScenarioResult> results =
      service.run({seb_spec("a", 60.0), seb_spec("b", 60.0), seb_spec("c", 60.0),
                   seb_spec("d", 120.0)});
  ASSERT_EQ(results.size(), 4u);
  for (const ac::ScenarioResult& r : results) EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  // Each ticket keeps its own name even when the job was shared.
  EXPECT_EQ(results[0].name, "a");
  EXPECT_EQ(results[1].name, "b");
  EXPECT_EQ(results[2].name, "c");
  // Duplicates return the identical values.
  EXPECT_EQ(results[0].values, results[1].values);
  EXPECT_EQ(results[0].values, results[2].values);
  EXPECT_NE(results[0].values.at("t_pcb"), results[3].values.at("t_pcb"));

  const ac::ScenarioServiceStats s = service.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.dedup_hits, 2u);
  EXPECT_EQ(s.executed, 2u);
}

TEST(ScenarioService, MemoPersistsAcrossBatches) {
  ac::ScenarioService service;
  const auto first = service.run({seb_spec("p60", 60.0)});
  ASSERT_TRUE(first[0].ok);
  const auto again = service.run({seb_spec("p60_again", 60.0)});
  ASSERT_TRUE(again[0].ok);
  EXPECT_EQ(first[0].values, again[0].values);
  const ac::ScenarioServiceStats s = service.stats();
  EXPECT_EQ(s.executed, 1u);  // the second batch was memoized, not re-solved
  EXPECT_EQ(s.dedup_hits, 1u);
}

TEST(ScenarioService, ResultsCarryCountersAndGauges) {
  ac::ScenarioService service;
  ac::ScenarioSpec spec;
  spec.name = "slab";
  spec.graph = "fv_slab_steady";
  const auto results = service.run({spec});
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_GE(results[0].counters.at("fv.steady_solves"), 1u);
  // Gauge capture (the satellite contract): problem size + per-pass traces
  // from the scenario's isolated registry.
  EXPECT_GT(results[0].gauges.at("fv.cells"), 0.0);
  EXPECT_GT(results[0].seconds, 0.0);
}

TEST(ScenarioService, TelemetryOffLeavesProfilesEmpty) {
  ac::ScenarioServiceOptions opts;
  opts.telemetry = false;
  ac::ScenarioService service(opts);
  const auto results = service.run({seb_spec("quiet", 60.0)});
  ASSERT_TRUE(results[0].ok);
  EXPECT_TRUE(results[0].counters.empty());
  EXPECT_TRUE(results[0].gauges.empty());
}

TEST(ScenarioService, IndexParamsMustBeIntegers) {
  // nx = 2.5 would solve as nx = 2 yet hash apart from it; NaN has no
  // integer value at all. Both fail the scenario, naming key and value.
  ac::ScenarioService service;
  ac::ScenarioSpec nan_nx = slab_spec("nan_nx", 5.0);
  nan_nx.params = {{"nx", std::numeric_limits<double>::quiet_NaN()}};
  ac::ScenarioSpec half_ny = slab_spec("half_ny", 5.0);
  half_ny.params = {{"ny", 2.5}};
  ac::ScenarioSpec zero_modes = modal_spec("zero_modes", 0.05);
  zero_modes.params["n_modes"] = 0.0;
  const auto results = service.run({nan_nx, half_ny, zero_modes});
  ASSERT_EQ(results.size(), 3u);
  for (const ac::ScenarioResult& r : results) EXPECT_FALSE(r.ok) << r.name;
  EXPECT_NE(results[0].error.find("'nx'"), std::string::npos) << results[0].error;
  EXPECT_NE(results[0].error.find("nan"), std::string::npos) << results[0].error;
  EXPECT_NE(results[1].error.find("'ny'"), std::string::npos) << results[1].error;
  EXPECT_NE(results[1].error.find("2.5"), std::string::npos) << results[1].error;
  EXPECT_NE(results[2].error.find("'n_modes'"), std::string::npos) << results[2].error;
}

TEST(ScenarioService, NonFiniteLoadFailsBeforeAnySolve) {
  // NaN passes every `<= 0` check; unguarded it ran CG to its iteration
  // limit and reported a convergence failure instead of the bad input.
  ac::ScenarioService service;
  const auto results =
      service.run({slab_spec("nan_power", std::numeric_limits<double>::quiet_NaN())});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("watts must be finite"), std::string::npos)
      << results[0].error;
  EXPECT_NE(results[0].error.find("nan"), std::string::npos) << results[0].error;
  const auto cg = results[0].counters.find("numeric.cg.iterations");
  EXPECT_TRUE(cg == results[0].counters.end() || cg->second == 0u);
}

TEST(ScenarioService, RegisteredGraphRunsAndValidates) {
  ac::ScenarioService service;
  EXPECT_THROW(service.register_graph("", [](const ac::ScenarioSpec&, aeropack::ExecutionContext&) {
    return std::map<std::string, double>{};
  }),
               std::invalid_argument);
  EXPECT_THROW(service.register_graph("g", ac::GraphFn{}), std::invalid_argument);
  service.register_graph("echo", [](const ac::ScenarioSpec& s, aeropack::ExecutionContext&) {
    return std::map<std::string, double>{{"x", s.params.at("x") * 2.0}};
  });
  ac::ScenarioSpec spec;
  spec.name = "echoed";
  spec.graph = "echo";
  spec.params = {{"x", 21.0}};
  const auto results = service.run({spec});
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].values.at("x"), 42.0);
}

TEST(ScenarioService, ThrowingGraphIsCapturedPerScenario) {
  ac::ScenarioService service;
  service.register_graph("boom", [](const ac::ScenarioSpec&, aeropack::ExecutionContext&)
                                     -> std::map<std::string, double> {
    throw std::runtime_error("scenario exploded");
  });
  ac::ScenarioSpec spec;
  spec.name = "boom1";
  spec.graph = "boom";
  const auto results = service.run({spec});
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error, "scenario exploded");
  EXPECT_TRUE(results[0].values.empty());
}

}  // namespace
