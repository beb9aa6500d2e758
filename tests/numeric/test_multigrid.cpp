// Geometric multigrid preconditioning (numeric/multigrid.hpp): hierarchy
// shapes, the symmetric-positive-definite V-cycle, bare multigrid CG, and
// the FV solves that take it — bitwise identical across 1/2/8 threads,
// within the 1e-9 golden bound of Jacobi CG, and bitwise equal between a
// cold solve and an artifact-cache hit. Runs under TSan in CI (ctest -L
// numeric).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/scenario_service.hpp"
#include "exec/context.hpp"
#include "materials/solid.hpp"
#include "mission/service_graphs.hpp"
#include "numeric/grain.hpp"
#include "numeric/multigrid.hpp"
#include "numeric/parallel.hpp"
#include "numeric/sparse.hpp"
#include "thermal/fv.hpp"

namespace an = aeropack::numeric;
namespace ac = aeropack::core;
namespace at = aeropack::thermal;
namespace am = aeropack::materials;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

/// 7-point operator on an nx × ny × nz grid with a smoothly varying
/// conductance and a sink on the x = 0 face.
an::Stencil graded_poisson(std::size_t nx, std::size_t ny, std::size_t nz) {
  an::Stencil a({nx, ny, nz});
  const std::size_t sx = nx, sxy = nx * ny;
  const auto g = [](std::size_t c, std::size_t q) {
    return -2.0 - std::sin(0.1 * static_cast<double>(c + q));
  };
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t i = 0; i < nx; ++i) {
        const std::size_t c = i + sx * (j + ny * k);
        if (i + 1 < nx) a.wx[c] = g(c, c + 1);
        if (j + 1 < ny) a.wy[c] = g(c, c + sx);
        if (k + 1 < nz) a.wz[c] = g(c, c + sxy);
      }
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t i = 0; i < nx; ++i) {
        const std::size_t c = i + sx * (j + ny * k);
        double diag = i == 0 ? 2.0 : 0.0;
        if (i > 0) diag -= a.wx[c - 1];
        if (j > 0) diag -= a.wy[c - sx];
        if (k > 0) diag -= a.wz[c - sxy];
        diag -= a.wx[c] + a.wy[c] + a.wz[c];
        a.diag[c] = diag;
      }
  return a;
}

an::Vector wavy(std::size_t n, double f) {
  an::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::sin(f * static_cast<double>(i * i % 997));
  return v;
}

/// 32^3 board-and-drain block: an FR4 board on an aluminium drain with a
/// TIM bond line between them, a copper spreader inset, a hot component,
/// and mixed boundaries — film, natural convection (Picard-linearised),
/// fixed temperature and a prescribed outgoing flux.
at::FvModel heterogeneous_block() {
  at::FvModel m(at::FvGrid::uniform(0.08, 0.08, 0.02, 32, 32, 32));
  m.set_material(am::aluminum_6061());
  m.set_material({0, 32, 0, 32, 16, 32}, am::fr4());
  m.set_material({8, 24, 8, 24, 12, 16}, am::copper());
  m.add_interface_z(15, 2e-5);
  m.add_power({12, 20, 12, 20, 28, 32}, 15.0);
  m.set_boundary(at::Face::ZMin, at::BoundaryCondition::convection(150.0, 300.0));
  m.set_boundary(at::Face::ZMax, at::BoundaryCondition::natural(
                                     at::SurfaceOrientation::HorizontalUp, 0.08, 300.0));
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(305.0));
  m.set_boundary(at::Face::YMax, at::BoundaryCondition::heat_flux(-150.0));
  return m;
}

/// The fv_slab_steady graph's model (core/scenario_service.cpp).
at::FvModel slab(std::size_t n, double power_w, double t_hot) {
  at::FvModel m(at::FvGrid::uniform(0.1, 0.1, 0.1, n, n, n));
  m.set_material(am::aluminum_6061());
  m.add_power({0, n, 0, n, 0, n}, power_w);
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(t_hot));
  return m;
}

ac::ScenarioSpec slab_spec(std::size_t n, double power_w, double t_hot) {
  ac::ScenarioSpec s;
  s.graph = "fv_slab_steady";
  const double d = static_cast<double>(n);
  s.params = {{"nx", d}, {"ny", d}, {"nz", d}, {"lx", 0.1}, {"ly", 0.1}, {"lz", 0.1}};
  s.loads = {{"power_w", power_w}};
  s.boundaries = {{"t_hot", t_hot}};
  return s;
}

bool rel_close(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

TEST(MultigridLevels, CoarsenWhileEveryAxisHasEightCells) {
  const std::vector<an::GridShape> cube = an::multigrid_levels(64, 64, 64);
  ASSERT_EQ(cube.size(), 5u);
  EXPECT_EQ(cube.back().nx, 4u);
  EXPECT_EQ(cube.back().cells(), 64u);
  // Odd axes end in one-cell-thick aggregates.
  const std::vector<an::GridShape> odd = an::multigrid_levels(9, 17, 8);
  ASSERT_EQ(odd.size(), 2u);
  EXPECT_EQ(odd[1].nx, 5u);
  EXPECT_EQ(odd[1].ny, 9u);
  EXPECT_EQ(odd[1].nz, 4u);
  // The slabs, boxes and boards of the design sweep and the mission and
  // ROM campaigns cannot coarsen: they keep Jacobi.
  EXPECT_TRUE(an::multigrid_levels(16, 4, 4).empty());
  EXPECT_TRUE(an::multigrid_levels(24, 4, 4).empty());
  EXPECT_TRUE(an::multigrid_levels(15, 12, 4).empty());
  EXPECT_TRUE(an::multigrid_levels(16, 10, 2).empty());
  // A coarsest level too large for the dense solve: no hierarchy either.
  EXPECT_TRUE(an::multigrid_levels(8, 64, 64).empty());
}

TEST(MultigridPreconditioner, IsSymmetricPositiveDefinite) {
  const an::Stencil a = graded_poisson(19, 16, 11);
  an::Multigrid mg(an::multigrid_levels(19, 16, 11));
  EXPECT_EQ(mg.depth(), 2u);
  an::ThreadPool& pool = an::current_pool();
  mg.setup(pool, a.view());
  const an::Vector x = wavy(a.shape.cells(), 0.37), y = wavy(a.shape.cells(), 0.11);
  an::Vector mx, my;
  mg.apply(pool, x, mx);
  mg.apply(pool, y, my);
  EXPECT_TRUE(rel_close(an::dot(mx, y), an::dot(x, my), 1e-12))
      << an::dot(mx, y) << " vs " << an::dot(x, my);
  EXPECT_GT(an::dot(mx, x), 0.0);
  EXPECT_GT(an::dot(my, y), 0.0);
}

TEST(MultigridPreconditioner, RejectsAMatrixOfAnotherGrid) {
  an::Multigrid mg(an::multigrid_levels(16, 16, 16));
  EXPECT_THROW(mg.setup(an::current_pool(), graded_poisson(16, 16, 15).view()),
               std::invalid_argument);
  an::Vector z;
  EXPECT_THROW(mg.apply(an::current_pool(), an::Vector(16 * 16 * 16, 1.0), z), std::logic_error);
  EXPECT_THROW(an::Multigrid(an::multigrid_levels(16, 4, 4)), std::invalid_argument);
}

TEST(MultigridCg, CutsIterationsWithoutMovingTheAnswer) {
  const an::Stencil a = graded_poisson(32, 32, 32);
  const an::Vector b = wavy(a.shape.cells(), 0.05);
  const an::IterativeResult jacobi = an::conjugate_gradient(a.view(), b);
  an::Multigrid mg(an::multigrid_levels(32, 32, 32));
  const an::IterativeResult multigrid = an::conjugate_gradient(a.view(), b, {}, nullptr, &mg);
  ASSERT_TRUE(jacobi.converged);
  ASSERT_TRUE(multigrid.converged);
  EXPECT_LE(multigrid.iterations * 5, jacobi.iterations)
      << "mg " << multigrid.iterations << " vs jacobi " << jacobi.iterations;
  double scale = 0.0, diff = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    scale = std::max(scale, std::fabs(jacobi.x[i]));
    diff = std::max(diff, std::fabs(multigrid.x[i] - jacobi.x[i]));
  }
  EXPECT_LT(diff, 1e-7 * scale);
}

TEST(MultigridCg, BitIdenticalAcrossThreadCounts) {
  const an::Stencil a = graded_poisson(24, 17, 16);
  const an::Vector b = wavy(a.shape.cells(), 0.21);
  an::grain::ScopedForceFanOut force;
  an::IterativeResult ref;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    an::ThreadPool pool(t);
    an::Multigrid mg(an::multigrid_levels(24, 17, 16));
    const an::IterativeResult res =
        an::conjugate_gradient(pool, a.view(), b, {}, nullptr, &mg);
    ASSERT_TRUE(res.converged) << "t=" << t;
    if (t == 1) {
      ref = res;
      continue;
    }
    EXPECT_EQ(res.iterations, ref.iterations) << "t=" << t;
    EXPECT_EQ(res.x, ref.x) << "t=" << t;
  }
}

TEST(FvMultigridSolves, HeterogeneousSteadyAndDrivenTransientBitIdenticalAcrossThreads) {
  const at::FvModel m = heterogeneous_block();
  at::FvDrive drive;
  drive.power_scale = [](double t) { return 1.0 + 0.05 * t; };
  drive.boundary = [](double t, at::Face face, const at::BoundaryCondition& bc) {
    at::BoundaryCondition out = bc;
    if (face == at::Face::ZMin) out.temperature += 0.5 * t;
    return out;
  };
  const an::Vector t0(32 * 32 * 32, 300.0);

  an::grain::ScopedForceFanOut force;
  at::FvSolution steady_ref;
  at::FvTransientSolution transient_ref;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ExecutionConfig cfg;
    cfg.threads = t;
    cfg.telemetry = true;
    ExecutionContext ctx(cfg);
    const at::FvSolution steady = m.solve_steady(ctx);
    const at::FvTransientSolution transient = m.solve_transient(ctx, 20.0, 5.0, t0, drive);
    ASSERT_TRUE(steady.converged);
    // The natural-convection face takes Picard passes, each a multigrid CG.
    EXPECT_GT(steady.picard_iterations, 1u);
    EXPECT_EQ(ctx.metrics().gauge("fv.mg_levels").value(), 4.0);  // 32 -> 16 -> 8 -> 4
    // Every CG solve ran multigrid, except warm starts already converged.
    EXPECT_EQ(ctx.metrics().counter("numeric.cg.mg_solves").value() +
                  ctx.metrics().counter("numeric.cg.warmstart_hits").value(),
              ctx.metrics().counter("numeric.cg.solves").value());
    if (t == 1) {
      steady_ref = steady;
      transient_ref = transient;
      continue;
    }
    EXPECT_EQ(steady.linear_iterations, steady_ref.linear_iterations) << "t=" << t;
    EXPECT_EQ(steady.temperatures, steady_ref.temperatures) << "t=" << t;
    EXPECT_EQ(transient.linear_iterations, transient_ref.linear_iterations) << "t=" << t;
    EXPECT_EQ(transient.temperatures, transient_ref.temperatures) << "t=" << t;
  }
}

TEST(FvMultigridSolves, SteadyFvPrimePointMeetsTheIterationBarAndMatchesJacobi) {
  // The steady_fv benchmark's prime scenario: 64^3 slab, 5 W, hot wall 320 K.
  ac::ScenarioServiceOptions opts;
  opts.threads_per_scenario = 2;
  ac::ScenarioService service(opts);
  const ac::ScenarioResult r = service.run({slab_spec(64, 5.0, 320.0)}).front();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LE(r.counters.at("fv.cg_iterations"), 25u);
  EXPECT_EQ(r.counters.at("numeric.cg.mg_solves"), 1u);
  EXPECT_EQ(r.gauges.at("fv.mg_levels"), 5.0);

  // Jacobi CG on the same linear system, in the CSR form ROM builds solve.
  const at::LinearSteadySystem sys = slab(64, 5.0, 320.0).linearize_steady();
  const an::IterativeResult jacobi = an::conjugate_gradient(sys.matrix, sys.rhs);
  ASSERT_TRUE(jacobi.converged);
  EXPECT_TRUE(rel_close(r.values.at("t_max"), an::max_element(jacobi.x), 1e-9))
      << r.values.at("t_max") << " vs " << an::max_element(jacobi.x);
  EXPECT_TRUE(rel_close(r.values.at("t_min"), an::min_element(jacobi.x), 1e-9))
      << r.values.at("t_min") << " vs " << an::min_element(jacobi.x);
}

TEST(FvMultigridSolves, CacheHitBitwiseEqualsColdSolve) {
  const std::vector<ac::ScenarioSpec> specs = {slab_spec(32, 4.0, 315.0),
                                               slab_spec(32, 6.5, 322.0),
                                               slab_spec(32, 2.0, 330.0)};
  // Cold: every solve assembles its own structure and hierarchy.
  ac::ScenarioServiceOptions cold_opts;
  cold_opts.cache.capacity_bytes = 0;
  ac::ScenarioService cold(cold_opts);
  const std::vector<ac::ScenarioResult> want = cold.run(specs);
  // Cached: a priming solve builds the assembly, then two workers share it
  // and every spec below is a cache hit.
  ac::ScenarioServiceOptions hit_opts;
  hit_opts.workers = 2;
  hit_opts.threads_per_scenario = 2;
  ac::ScenarioService cached(hit_opts);
  cached.run({slab_spec(32, 1.0, 310.0)});
  const std::vector<ac::ScenarioResult> got = cached.run(specs);
  EXPECT_GE(cached.cache().stats().hits, specs.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok) << got[i].error;
    EXPECT_EQ(got[i].values, want[i].values) << "spec " << i;
    EXPECT_EQ(got[i].gauges.at("fv.mg_levels"), 4.0);
  }
}

TEST(FvMultigridSolves, GridsThatCannotCoarsenKeepJacobi) {
  // The default 16x4x4 slab of the design sweep and the 15x12x4 SEB box of
  // the mission campaign: Jacobi CG, and the results say so.
  ac::ScenarioService service;
  aeropack::mission::register_mission_graphs(service);
  ac::ScenarioSpec slab_default, mission;
  slab_default.graph = "fv_slab_steady";
  mission.graph = "mission_seb_eclipse";
  for (const ac::ScenarioResult& r : service.run({slab_default, mission})) {
    ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_EQ(r.gauges.at("fv.mg_levels"), 0.0) << r.name;
    EXPECT_EQ(r.counters.count("numeric.cg.mg_solves"), 0u) << r.name;
  }
}
