// Isolated-context batches through core::ScenarioService: batch semantics
// (order, errors, re-run), per-scenario counter isolation, and bit-identical
// outputs at every worker count. The suite keeps the name these contracts
// were first written under, so their test ids stay stable.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario_service.hpp"
#include "materials/solid.hpp"
#include "obs/registry.hpp"
#include "thermal/fv.hpp"

namespace ac = aeropack::core;
namespace at = aeropack::thermal;
namespace am = aeropack::materials;

namespace {

/// Small FV slab solve — enough numeric work to exercise the context's pool
/// and leave a counter trail.
double slab_t_max(double power_w) {
  at::FvModel slab(at::FvGrid::uniform(0.1, 0.02, 0.01, 12, 3, 3));
  slab.set_material(am::aluminum_6061());
  slab.add_power({0, 12, 0, 3, 0, 3}, power_w);
  slab.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  return slab.solve_steady().max_temperature;
}

/// The test graphs: "slab" (one solve at loads.power_w), "two_slabs" (a
/// second solve at loads.power2_w), "echo" (returns params.v), "diverge"
/// (throws) and "solve_then_throw" (one small solve, then throws).
void register_test_graphs(ac::ScenarioService& service) {
  service.register_graph("slab", [](const ac::ScenarioSpec& s, aeropack::ExecutionContext&) {
    return std::map<std::string, double>{{"t_max", slab_t_max(s.loads.at("power_w"))}};
  });
  service.register_graph("two_slabs", [](const ac::ScenarioSpec& s, aeropack::ExecutionContext&) {
    return std::map<std::string, double>{{"t_max", slab_t_max(s.loads.at("power_w"))},
                                         {"t_max2", slab_t_max(s.loads.at("power2_w"))}};
  });
  service.register_graph("echo", [](const ac::ScenarioSpec& s, aeropack::ExecutionContext&) {
    return std::map<std::string, double>{{"v", s.params.at("v")}};
  });
  service.register_graph("diverge", [](const ac::ScenarioSpec&, aeropack::ExecutionContext&)
                                        -> std::map<std::string, double> {
    throw std::runtime_error("diverged");
  });
  service.register_graph("solve_then_throw", [](const ac::ScenarioSpec&,
                                                aeropack::ExecutionContext&)
                                                 -> std::map<std::string, double> {
    at::FvModel slab(at::FvGrid::uniform(0.1, 0.02, 0.01, 8, 2, 2));
    slab.set_material(am::aluminum_6061());
    slab.add_power({0, 8, 0, 2, 0, 2}, 5.0);
    slab.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
    slab.solve_steady();  // leaves a counter trail before failing
    throw std::runtime_error("diverged after the solve");
  });
}

ac::ScenarioSpec spec_of(const std::string& name, const std::string& graph) {
  ac::ScenarioSpec spec;
  spec.name = name;
  spec.graph = graph;
  return spec;
}

ac::ScenarioSpec slab(const std::string& name, double power_w) {
  ac::ScenarioSpec spec = spec_of(name, "slab");
  spec.loads = {{"power_w", power_w}};
  return spec;
}

ac::ScenarioServiceOptions with_workers(std::size_t workers) {
  ac::ScenarioServiceOptions opts;
  opts.workers = workers;
  return opts;
}

std::uint64_t counter_of(const ac::ScenarioResult& r, const std::string& key) {
  const auto it = r.counters.find(key);
  return it == r.counters.end() ? 0u : it->second;
}

}  // namespace

TEST(ScenarioRunner, RejectsZeroWorkersAndEmptyScenarios) {
  EXPECT_THROW(ac::ScenarioService bad(with_workers(0)), std::invalid_argument);
  ac::ScenarioService service;
  EXPECT_THROW(service.register_graph("empty", ac::GraphFn{}), std::invalid_argument);
}

TEST(ScenarioRunner, ResultsComeBackInAddOrder) {
  ac::ScenarioService service(with_workers(4));
  register_test_graphs(service);
  std::vector<ac::ScenarioSpec> specs;
  for (int i = 0; i < 9; ++i) {
    specs.push_back(spec_of("s" + std::to_string(i), "echo"));
    specs.back().params = {{"v", 1.5 * i}};
  }
  const std::vector<ac::ScenarioResult> results = service.run(specs);
  ASSERT_EQ(results.size(), 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(results[i].name, "s" + std::to_string(i));
    EXPECT_TRUE(results[i].ok) << results[i].error;
    EXPECT_EQ(results[i].values.at("v"), 1.5 * i);
  }
}

TEST(ScenarioRunner, ThrowingScenarioIsCapturedWithoutAbortingTheBatch) {
  ac::ScenarioService service(with_workers(2));
  register_test_graphs(service);
  const auto results =
      service.run({slab("good", 4.0), spec_of("bad", "diverge"), slab("also_good", 6.0)});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].error, "diverged");
  EXPECT_TRUE(results[1].values.empty());
  EXPECT_TRUE(results[2].ok) << results[2].error;
}

TEST(ScenarioRunner, OutputsBitIdenticalAcrossWorkerCounts) {
  // FV solves on a test graph plus the built-in FV and modal graphs.
  std::vector<ac::ScenarioSpec> specs;
  for (const double q : {2.0, 5.0, 9.0, 13.0}) {
    specs.push_back(slab("q" + std::to_string(static_cast<int>(q)), q));
    specs.push_back(spec_of("fv_q" + std::to_string(static_cast<int>(q)), "fv_slab_steady"));
    specs.back().loads = {{"power_w", q}};
  }
  for (const double x : {0.03, 0.08}) {
    specs.push_back(spec_of("modal_x" + std::to_string(x), "modal_plate"));
    specs.back().params = {{"mass_x", x}};
  }
  const auto run_with = [&](std::size_t workers) {
    ac::ScenarioService service(with_workers(workers));
    register_test_graphs(service);
    return service.run(specs);
  };
  const std::vector<ac::ScenarioResult> serial = run_with(1);
  for (const ac::ScenarioResult& r : serial) ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
  for (const std::size_t w : {2u, 8u}) {
    const std::vector<ac::ScenarioResult> batch = run_with(w);
    ASSERT_EQ(batch.size(), serial.size()) << w << " workers";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(batch[i].ok) << batch[i].name << ": " << batch[i].error;
      // Exact equality: same context config => same pool partition and
      // chunked reductions => the same bits, whichever worker ran it.
      EXPECT_EQ(batch[i].values, serial[i].values) << w << " workers, " << batch[i].name;
    }
  }
}

TEST(ScenarioRunner, EachScenarioGetsItsOwnCounterProfile) {
  ac::ScenarioService service(with_workers(2));
  register_test_graphs(service);
  ac::ScenarioSpec two = spec_of("two_solves", "two_slabs");
  two.loads = {{"power_w", 5.0}, {"power2_w", 7.0}};
  const auto results = service.run({slab("one_solve", 5.0), two});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(counter_of(results[0], "fv.steady_solves"), 1u);
  EXPECT_EQ(counter_of(results[1], "fv.steady_solves"), 2u);
  EXPECT_GT(counter_of(results[0], "fv.cg_iterations"), 0u);
}

TEST(ScenarioRunner, TelemetryOffLeavesCountersEmpty) {
  ac::ScenarioServiceOptions opts;
  opts.telemetry = false;
  ac::ScenarioService service(opts);
  register_test_graphs(service);
  const auto results = service.run({slab("quiet", 5.0)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[0].counters.empty());
}

TEST(ScenarioRunner, BatchDoesNotTouchTheProcessRegistry) {
  const auto before = aeropack::obs::Registry::instance().counters();
  ac::ScenarioService service(with_workers(2));
  register_test_graphs(service);
  for (const auto& r : service.run({slab("a", 3.0), slab("b", 8.0)}))
    ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
  EXPECT_EQ(aeropack::obs::Registry::instance().counters(), before);
}

TEST(ScenarioRunner, RunnerIsRerunnableWithFreshCounters) {
  // A re-submission inside one service is answered from its memo; a fresh
  // service re-solves on a fresh context. Counters never accumulate.
  const auto run_twice = [] {
    ac::ScenarioService service;
    register_test_graphs(service);
    std::vector<ac::ScenarioResult> out = service.run({slab("slab", 6.0)});
    const std::vector<ac::ScenarioResult> again = service.run({slab("slab", 6.0)});
    out.insert(out.end(), again.begin(), again.end());
    return out;
  };
  const auto first = run_twice();
  const auto second = run_twice();
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  for (const auto* r : {&first[1], &second[0], &second[1]}) {
    ASSERT_TRUE(r->ok) << r->error;
    EXPECT_EQ(r->values.at("t_max"), first[0].values.at("t_max"));
    EXPECT_EQ(counter_of(*r, "fv.steady_solves"), 1u);
  }
}

TEST(ScenarioRunner, MoreWorkersThanScenariosIsFine) {
  ac::ScenarioService service(with_workers(16));
  register_test_graphs(service);
  const auto results = service.run({slab("only", 4.0)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
}

TEST(ScenarioRunner, ThrowingScenarioRerunsIdenticallyWithFreshCounters) {
  // Re-run contract for failures: a fresh service reproduces the same
  // ok/error outcome per scenario, and counters come from a fresh context
  // both times (no accumulation across runs, failed or not).
  const auto run_once = [] {
    ac::ScenarioService service(with_workers(2));
    register_test_graphs(service);
    return service.run({slab("good", 4.0), spec_of("bad", "solve_then_throw")});
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_TRUE(first[0].ok) << first[0].error;
  EXPECT_TRUE(second[0].ok) << second[0].error;
  EXPECT_EQ(first[0].values, second[0].values);
  EXPECT_FALSE(first[1].ok);
  EXPECT_FALSE(second[1].ok);
  EXPECT_EQ(first[1].error, second[1].error);
  EXPECT_EQ(first[1].error, "diverged after the solve");
  // A failed scenario still reports the counters it accrued — identically
  // on both runs because each run drove a fresh registry.
  EXPECT_EQ(counter_of(first[1], "fv.steady_solves"), 1u);
  EXPECT_EQ(first[1].counters, second[1].counters);
  EXPECT_EQ(first[0].counters, second[0].counters);
}

TEST(ScenarioRunner, ResultsCarryGaugesFromTheScenarioRegistry) {
  ac::ScenarioService service;
  register_test_graphs(service);
  const auto results = service.run({slab("slab", 4.0)});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  // Gauge capture rides along with counters: problem size + per-pass
  // convergence traces from the scenario's isolated registry.
  EXPECT_EQ(results[0].gauges.at("fv.cells"), 12.0 * 3.0 * 3.0);
}
