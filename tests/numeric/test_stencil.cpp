// Structured symmetric 7-point operators (numeric/stencil.hpp): the stencil
// multiply and Jacobi CG are bit-identical to their CSR form at 1/2/8
// threads, also on degenerate grids; the FV operator keeps its CSR
// invariants where it leaves as CSR (linearize_steady); multigrid rejects a
// stencil of another grid; and an FV assembly holds four doubles per cell.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "materials/solid.hpp"
#include "numeric/grain.hpp"
#include "numeric/multigrid.hpp"
#include "numeric/parallel.hpp"
#include "numeric/sparse.hpp"
#include "numeric/stencil.hpp"
#include "thermal/fv.hpp"

namespace an = aeropack::numeric;
namespace at = aeropack::thermal;
namespace am = aeropack::materials;

namespace {

/// SPD stencil with couplings spanning six decades, so any change of the
/// summation order shows in the last bits.
an::Stencil heterogeneous(an::GridShape s) {
  an::Stencil a(s);
  const std::size_t sxy = s.nx * s.ny;
  const auto g = [](std::size_t c, double f) {
    return -std::pow(10.0, 3.0 * std::sin(f * static_cast<double>(c) + 0.3));
  };
  for (std::size_t k = 0; k < s.nz; ++k)
    for (std::size_t j = 0; j < s.ny; ++j)
      for (std::size_t i = 0; i < s.nx; ++i) {
        const std::size_t c = i + s.nx * (j + s.ny * k);
        if (i + 1 < s.nx) a.wx[c] = g(c, 0.7);
        if (j + 1 < s.ny) a.wy[c] = g(c, 1.3);
        if (k + 1 < s.nz) a.wz[c] = g(c, 2.9);
      }
  for (std::size_t k = 0; k < s.nz; ++k)
    for (std::size_t j = 0; j < s.ny; ++j)
      for (std::size_t i = 0; i < s.nx; ++i) {
        const std::size_t c = i + s.nx * (j + s.ny * k);
        double d = 1e-2 * static_cast<double>(1 + c % 5);
        if (i > 0) d -= a.wx[c - 1];
        if (j > 0) d -= a.wy[c - s.nx];
        if (k > 0) d -= a.wz[c - sxy];
        a.diag[c] = d - a.wx[c] - a.wy[c] - a.wz[c];
      }
  return a;
}

an::Vector wavy(std::size_t n) {
  an::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::sin(0.37 * static_cast<double>(i * i % 101));
  return v;
}

bool bitwise_equal(const an::Vector& a, const an::Vector& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

TEST(StencilOperator, MultiplyIsBitEqualToCsrOnHeterogeneousAndDegenerateGrids) {
  an::grain::ScopedForceFanOut force;
  for (const an::GridShape s : {an::GridShape{13, 9, 7}, an::GridShape{1, 1, 9},
                                an::GridShape{2, 1, 3}, an::GridShape{1, 6, 5},
                                an::GridShape{7, 1, 1}, an::GridShape{3, 3, 3}}) {
    const an::Stencil a = heterogeneous(s);
    const an::CsrMatrix csr = a.view().to_csr();
    const an::Vector x = wavy(s.cells());
    for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      an::ThreadPool pool(t);
      an::Vector want, got;
      csr.multiply(pool, x, want);
      a.view().multiply(pool, x, got);
      EXPECT_TRUE(bitwise_equal(got, want))
          << s.nx << "x" << s.ny << "x" << s.nz << " at " << t << " threads";
    }
  }
}

TEST(StencilOperator, JacobiCgIsBitEqualToCsrCg) {
  const an::Stencil a = heterogeneous({11, 10, 9});
  const an::Vector b = wavy(a.shape.cells());
  an::grain::ScopedForceFanOut force;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    an::ThreadPool pool(t);
    const an::IterativeResult want = an::conjugate_gradient(pool, a.view().to_csr(), b);
    const an::IterativeResult got = an::conjugate_gradient(pool, a.view(), b);
    ASSERT_TRUE(want.converged);
    EXPECT_EQ(got.iterations, want.iterations) << t << " threads";
    EXPECT_TRUE(bitwise_equal(got.x, want.x)) << t << " threads";
  }
}

TEST(StencilOperator, LinearizedFvMatrixKeepsSortedColumnsAndExactSymmetry) {
  // Heterogeneous board on a drain with a bond line and mixed linear
  // boundaries: the CSR form the ROM builder and the verify ladder take.
  const std::size_t nx = 12, ny = 7, nz = 6;
  at::FvModel m(at::FvGrid::uniform(0.06, 0.04, 0.01, nx, ny, nz));
  m.set_material(am::aluminum_6061());
  m.set_material({0, nx, 0, ny, 3, nz}, am::fr4());
  m.add_interface_z(2, 3e-5);
  m.add_power({4, 8, 2, 5, 5, 6}, 3.0);
  m.set_boundary(at::Face::ZMin, at::BoundaryCondition::convection(80.0, 300.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(310.0));
  m.set_boundary(at::Face::YMin, at::BoundaryCondition::heat_flux(-40.0));
  const at::LinearSteadySystem sys = m.linearize_steady();
  const an::CsrMatrix& a = sys.matrix;
  const std::size_t n = nx * ny * nz;
  ASSERT_EQ(a.rows(), n);
  EXPECT_EQ(a.nonzeros(), 7 * n - 2 * (ny * nz + nx * nz + nx * ny));
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = a.row_ptr()[r] + 1; p < a.row_ptr()[r + 1]; ++p)
      ASSERT_LT(a.col_idx()[p - 1], a.col_idx()[p]) << "row " << r;
  EXPECT_EQ(a.asymmetry(), 0.0);
  // The film and fixed faces put their conductance on the diagonal only.
  const std::shared_ptr<const at::FvAssembly> bare = m.build_assembly();
  const an::Vector diag = a.diagonal();
  for (std::size_t c = 0; c < n; ++c) EXPECT_GE(diag[c], bare->stencil.diag[c]) << c;
}

TEST(MultigridPreconditioner, RejectsAStencilOfAnotherShape) {
  an::Multigrid mg(an::multigrid_levels(16, 16, 16));
  // Same cell count, other grid: the shape is checked, not the size.
  EXPECT_THROW(mg.setup(an::current_pool(), an::Stencil({32, 8, 16}).view()),
               std::invalid_argument);
  EXPECT_THROW(mg.setup(an::current_pool(), an::Stencil({16, 16, 15}).view()),
               std::invalid_argument);
  const an::Stencil fine = heterogeneous({16, 16, 16});
  EXPECT_NO_THROW(mg.setup(an::current_pool(), fine.view()));
}

TEST(FvAssemblyStorage, SixtyFourCubedSlabHoldsFourDoublesPerCell) {
  const std::size_t n = 64;
  at::FvModel m(at::FvGrid::uniform(0.1, 0.1, 0.1, n, n, n));
  m.set_material(am::aluminum_6061());
  const std::shared_ptr<const at::FvAssembly> a = m.build_assembly();
  const std::size_t stencil = 4 * n * n * n * sizeof(double);  // ~8.4 MB (CSR: ~47.6 MB)
  EXPECT_GE(a->cost_bytes(), stencil);
  EXPECT_LT(a->cost_bytes(), stencil + 4096);
  EXPECT_EQ(a->stencil.shape, (an::GridShape{n, n, n}));
}
