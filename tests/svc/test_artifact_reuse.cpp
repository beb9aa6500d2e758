// The determinism gate of the artifact cache: a cache-hit solve must be
// BITWISE identical to a cold-start solve, per solver family and at 1/2/8
// threads per scenario. Keys hash exact IEEE-754 bit patterns of every
// structural input, builders are deterministic, consumers copy shared
// state before mutating — so equality here is ==, never near().
//
// Runs plain and under TSan in CI (ctest -L svc): the multi-worker cases
// double as race detectors for concurrent artifact sharing.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/scenario_service.hpp"
#include "fem/modal.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "rom/cache.hpp"
#include "rom/canonical.hpp"
#include "rom/service_graphs.hpp"
#include "thermal/fv.hpp"

namespace ac = aeropack::core;
namespace af = aeropack::fem;
namespace ar = aeropack::rom;
namespace at = aeropack::thermal;
namespace am = aeropack::materials;

namespace {

// ---- producer-level gates (no service, direct API) ----------------------

at::FvModel make_slab() {
  at::FvModel slab(at::FvGrid::uniform(0.1, 0.02, 0.01, 16, 4, 4));
  slab.set_material(am::aluminum_6061());
  slab.add_power({0, 16, 0, 4, 0, 4}, 7.5);
  slab.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  slab.set_boundary(at::Face::XMax,
                    at::BoundaryCondition::convection_radiation(12.0, 310.0, 0.8));
  return slab;
}

TEST(ArtifactReuse, FvSharedAssemblySolvesBitIdenticalToCold) {
  const at::FvModel slab = make_slab();
  const at::FvSolution cold = slab.solve_steady();
  const auto assembly = slab.build_assembly();
  // Two consumers of the same shared assembly: the artifact is immutable,
  // each solve works on its own copy of the mutable parts.
  const at::FvSolution warm1 = slab.solve_steady(assembly);
  const at::FvSolution warm2 = slab.solve_steady(assembly);
  EXPECT_EQ(warm1.structure_assemblies, 0u);
  ASSERT_EQ(cold.temperatures.size(), warm1.temperatures.size());
  for (std::size_t i = 0; i < cold.temperatures.size(); ++i) {
    EXPECT_EQ(cold.temperatures[i], warm1.temperatures[i]) << "cell " << i;
    EXPECT_EQ(cold.temperatures[i], warm2.temperatures[i]) << "cell " << i;
  }
  EXPECT_EQ(cold.max_temperature, warm1.max_temperature);
  EXPECT_EQ(cold.energy_residual, warm1.energy_residual);
  EXPECT_EQ(cold.picard_iterations, warm1.picard_iterations);
  EXPECT_EQ(cold.linear_iterations, warm1.linear_iterations);
}

TEST(ArtifactReuse, FvMismatchedAssemblyThrows) {
  const at::FvModel slab = make_slab();
  at::FvModel other(at::FvGrid::uniform(0.1, 0.02, 0.01, 12, 3, 3));
  other.set_material(am::aluminum_6061());
  other.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  EXPECT_THROW(slab.solve_steady(other.build_assembly()), std::invalid_argument);
  EXPECT_THROW(slab.solve_steady(std::shared_ptr<const at::FvAssembly>{}),
               std::invalid_argument);
}

TEST(ArtifactReuse, FvStructuralHashIgnoresLoadsAndBoundaries) {
  at::FvModel a = make_slab();
  at::FvModel b = make_slab();
  b.add_power({0, 4, 0, 4, 0, 4}, 99.0);  // sources: not structural
  b.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(350.0));
  EXPECT_EQ(a.structural_hash(), b.structural_hash());
  at::FvModel c(at::FvGrid::uniform(0.1, 0.02, 0.01, 16, 4, 5));  // grid: structural
  c.set_material(am::aluminum_6061());
  EXPECT_NE(a.structural_hash(), c.structural_hash());
}

TEST(ArtifactReuse, ModalCachedFactorizationSolvesBitIdenticalToCold) {
  af::PlateModel board(0.16, 0.10, 1.6e-3, am::fr4(), 8, 5);
  board.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  board.add_smeared_mass(2.5);
  board.add_point_mass(0.05, 0.05, 0.18);
  aeropack::numeric::CsrMatrix k, m;
  board.reduced_sparse(k, m);
  af::ModalOptions opts;
  opts.n_modes = 6;
  opts.path = af::ModalPath::Sparse;

  const af::ReducedModes cold = af::solve_reduced_modes(k, m, opts);
  const af::ModalFactorization factor = af::factorize_modal(k, m, opts);
  EXPECT_TRUE(factor.ladder_free);  // clamped plate: K is PD at shift 0
  const af::ReducedModes warm = af::solve_reduced_modes(k, m, opts, factor);

  ASSERT_EQ(cold.eigenvalues.size(), warm.eigenvalues.size());
  for (std::size_t i = 0; i < cold.eigenvalues.size(); ++i) {
    EXPECT_EQ(cold.eigenvalues[i], warm.eigenvalues[i]) << "mode " << i;
    EXPECT_EQ(cold.frequencies_hz[i], warm.frequencies_hz[i]) << "mode " << i;
  }
  for (std::size_t j = 0; j < cold.shapes.cols(); ++j)
    for (std::size_t i = 0; i < cold.shapes.rows(); ++i)
      ASSERT_EQ(cold.shapes(i, j), warm.shapes(i, j)) << i << "," << j;
}

TEST(ArtifactReuse, ModalFactorizationValidatesPencil) {
  af::PlateModel board(0.16, 0.10, 1.6e-3, am::fr4(), 8, 5);
  board.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  board.add_smeared_mass(2.5);
  aeropack::numeric::CsrMatrix k, m;
  board.reduced_sparse(k, m);
  af::ModalOptions opts;
  opts.path = af::ModalPath::Sparse;
  af::ModalFactorization factor = af::factorize_modal(k, m, opts);
  af::ModalOptions shifted = opts;
  shifted.shift = -100.0;
  EXPECT_THROW(af::solve_reduced_modes(k, m, shifted, factor), std::invalid_argument);
  factor.rows += 1;
  EXPECT_THROW(af::solve_reduced_modes(k, m, opts, factor), std::invalid_argument);
}

TEST(ArtifactReuse, RomCachedModelEvaluatesBitIdenticalToCold) {
  const ar::CanonicalCase cc = ar::fig2_board();
  ac::ArtifactCache cache;
  const auto cold = ar::get_or_build_rom(nullptr, cc.model, cc.spec, {});
  const auto miss = ar::get_or_build_rom(&cache, cc.model, cc.spec, {});
  const auto hit = ar::get_or_build_rom(&cache, cc.model, cc.spec, {});
  EXPECT_EQ(miss.get(), hit.get());  // same cached object
  EXPECT_EQ(cache.stats().hits, 1u);

  ar::RomInputs inputs;
  inputs.sink_temperatures = {313.0, 315.0, 301.0};
  inputs.map_powers = {9.0, 5.5};
  const ar::RomSteadyResult a = cold->steady(inputs);
  const ar::RomSteadyResult b = hit->steady(inputs);
  ASSERT_EQ(a.port_temperatures.size(), b.port_temperatures.size());
  for (std::size_t p = 0; p < a.port_temperatures.size(); ++p) {
    EXPECT_EQ(a.port_temperatures[p], b.port_temperatures[p]);
    EXPECT_EQ(a.port_heat_flows[p], b.port_heat_flows[p]);
  }
}

// ---- service-level gates: cold vs hit through the full stack ------------

// Run a mixed batch through one service (cold builds), then a moved copy of
// it through the same service: every moved spec has a new content hash, so
// dedup cannot answer it, but sits on an already-cached structure, so it
// solves against a warm cache. A zero-capacity service solves both batches
// from scratch. Cold, hit and uncached must agree to the bit, at every
// threads-per-scenario count.
void expect_cold_equals_hit(std::size_t threads_per_scenario, std::size_t workers) {
  std::vector<ac::ScenarioSpec> specs;
  {
    ac::ScenarioSpec fv;
    fv.name = "fv";
    fv.graph = "fv_slab_steady";
    fv.loads = {{"power_w", 6.0}};
    fv.boundaries = {{"t_cold", 300.0}, {"t_hot", 318.0}};
    specs.push_back(fv);
    fv.name = "fv_hot";  // same structure, different loads: shares assembly
    fv.loads = {{"power_w", 11.0}};
    specs.push_back(fv);
    ac::ScenarioSpec modal;
    modal.name = "modal";
    modal.graph = "modal_plate";
    modal.params = {{"mass_x", 0.05}};
    specs.push_back(modal);
    modal.name = "modal_slid";  // same K, different M: shares factorization
    modal.params = {{"mass_x", 0.08}};
    specs.push_back(modal);
    ac::ScenarioSpec rom;
    rom.name = "rom";
    rom.graph = "rom_board_steady";
    rom.loads = {{"cpu", 9.0}, {"psu", 5.5}};
    rom.boundaries = {{"rail_left", 313.0}, {"rail_right", 315.0}, {"top_air", 301.0}};
    specs.push_back(rom);
    rom.name = "rom_var";  // same model, different point: shares the ROM
    rom.loads = {{"cpu", 4.0}, {"psu", 2.0}};
    specs.push_back(rom);
  }

  std::vector<ac::ScenarioSpec> moved = specs;
  for (ac::ScenarioSpec& spec : moved) {
    spec.name += "_moved";
    if (spec.graph == "modal_plate")
      spec.params["mass_x"] += 0.01;  // M only: same K, same factorization
    else
      for (auto& [key, load] : spec.loads) load += 0.5;
  }

  ac::ScenarioServiceOptions cached_opts;
  cached_opts.workers = workers;
  cached_opts.threads_per_scenario = threads_per_scenario;
  ac::ScenarioService cached(cached_opts);
  ar::register_rom_graphs(cached);
  const std::vector<ac::ScenarioResult> cold = cached.run(specs);
  const std::uint64_t hits_before = cached.cache().stats().hits;
  const std::vector<ac::ScenarioResult> warm = cached.run(moved);
  EXPECT_EQ(cached.stats().dedup_hits, 0u);
  EXPECT_EQ(cached.cache().stats().hits - hits_before, moved.size())
      << "moved batch missed the warm cache";

  ac::ScenarioServiceOptions plain_opts = cached_opts;
  plain_opts.cache.capacity_bytes = 0;
  ac::ScenarioService uncached(plain_opts);
  ar::register_rom_graphs(uncached);
  const std::vector<ac::ScenarioResult> reference = uncached.run(specs);
  const std::vector<ac::ScenarioResult> moved_reference = uncached.run(moved);
  EXPECT_EQ(uncached.cache().stats().hits, 0u);

  const auto expect_bitwise = [](const std::vector<ac::ScenarioResult>& got,
                                 const std::vector<ac::ScenarioResult>& want, const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(got[i].ok) << got[i].name << ": " << got[i].error;
      ASSERT_TRUE(want[i].ok) << want[i].name << ": " << want[i].error;
      ASSERT_EQ(got[i].values.size(), want[i].values.size()) << got[i].name;
      for (const auto& [key, value] : want[i].values)
        EXPECT_EQ(got[i].values.at(key), value) << got[i].name << "." << key << " (" << what << ")";
    }
  };
  expect_bitwise(cold, reference, "cold");
  expect_bitwise(warm, moved_reference, "hit");
}

TEST(ArtifactReuse, ServiceCacheHitsBitIdenticalAt1Thread) { expect_cold_equals_hit(1, 1); }
TEST(ArtifactReuse, ServiceCacheHitsBitIdenticalAt2Threads) { expect_cold_equals_hit(2, 2); }
TEST(ArtifactReuse, ServiceCacheHitsBitIdenticalAt8Threads) { expect_cold_equals_hit(8, 4); }

}  // namespace
