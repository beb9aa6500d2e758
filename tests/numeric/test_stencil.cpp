// Structured symmetric 7-point operators (numeric/stencil.hpp): every row
// class of the row-class walker keeps the exact output bits of the multiply
// and of a multigrid V-cycle; the stencil multiply and Jacobi CG are
// bit-identical to their CSR form at 1/2/8 threads, also on degenerate
// grids; the FV operator keeps its CSR
// invariants where it leaves as CSR (linearize_steady); multigrid rejects a
// stencil of another grid; and an FV assembly holds four doubles per cell.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "materials/solid.hpp"
#include "numeric/grain.hpp"
#include "numeric/hashing.hpp"
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

/// Exact-bit fingerprint of vectors (+0.0 and -0.0 differ).
template <typename... V>
std::uint64_t bits(const V&... v) {
  an::StructuralHasher h;
  (h.add(v), ...);
  return h.value();
}

/// A double in [1, 2) from the top 52 bits of a draw, scaled by 2^e:
/// exact arithmetic only, so the operator does not depend on libm.
double draw(std::mt19937_64& rng, int e) {
  return std::ldexp(1.0 + std::ldexp(static_cast<double>(rng() >> 12), -52), e);
}

/// SPD stencil with seeded couplings spanning twelve binary decades either
/// way, so a change of summation order shows in the last bits.
an::Stencil seeded(an::GridShape s, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  an::Stencil a(s);
  const std::size_t sxy = s.nx * s.ny;
  const auto g = [&] { return -draw(rng, static_cast<int>(rng() % 25) - 12); };
  for (std::size_t k = 0; k < s.nz; ++k)
    for (std::size_t j = 0; j < s.ny; ++j)
      for (std::size_t i = 0; i < s.nx; ++i) {
        const std::size_t c = i + s.nx * (j + s.ny * k);
        if (i + 1 < s.nx) a.wx[c] = g();
        if (j + 1 < s.ny) a.wy[c] = g();
        if (k + 1 < s.nz) a.wz[c] = g();
      }
  for (std::size_t k = 0; k < s.nz; ++k)
    for (std::size_t j = 0; j < s.ny; ++j)
      for (std::size_t i = 0; i < s.nx; ++i) {
        const std::size_t c = i + s.nx * (j + s.ny * k);
        double d = draw(rng, -6);
        if (i > 0) d -= a.wx[c - 1];
        if (j > 0) d -= a.wy[c - s.nx];
        if (k > 0) d -= a.wz[c - sxy];
        a.diag[c] = d - a.wx[c] - a.wy[c] - a.wz[c];
      }
  return a;
}

/// Seeded values of both signs, with a box of signed zeros (i <= nx/2,
/// j <= ny/2, k <= nz/2) so rows whose every term is ±0 show the sum's
/// seeding.
an::Vector seeded_x(an::GridShape s, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  an::Vector x(s.cells());
  for (std::size_t k = 0; k < s.nz; ++k)
    for (std::size_t j = 0; j < s.ny; ++j)
      for (std::size_t i = 0; i < s.nx; ++i) {
        const std::uint64_t r = rng();
        const double sign = (r & 1) ? -1.0 : 1.0;
        const bool zero = i <= s.nx / 2 && j <= s.ny / 2 && k <= s.nz / 2;
        x[i + s.nx * (j + s.ny * k)] =
            zero ? sign * 0.0 : sign * draw(rng, static_cast<int>(r >> 60) - 8);
      }
  return x;
}

}  // namespace

TEST(StencilOperator, EveryRowClassKeepsItsBits) {
  // A row (j, k) has one of 16 classes, by which of its -z, -y, +y, +z
  // neighbours exist; the shapes below hold every class (5x4x1 the three
  // with a y but no z neighbour), rows of 1, 2 and many cells, and
  // 17x16x16 coarsens twice. The multigrid hierarchy of a shape that
  // multigrid_levels() refuses is one halving, so the smoother and the
  // restriction see every class too. Fingerprints of the exact output
  // bits: y = A x, and one V-cycle (smoother, restriction, prolongation,
  // coarsest solve) of x and of x's signed zeros. They were recorded from
  // the bounds-tested per-cell kernels the walker replaced, so they hold
  // only while every class keeps that sum order and expression form.
  struct Case {
    an::GridShape s;
    std::uint64_t spmv, vcycle;
  };
  const Case cases[] = {
      {{15, 12, 4}, 0x1d0212e4b3ccb593, 0x786d1f93c751916b},
      {{16, 10, 2}, 0x7ed39d22b3789736, 0xe288c9bbdc0624e3},
      {{1, 1, 9}, 0x5c2e649bdf0041fe, 0xaf07f799fe9f1ffb},
      {{2, 3, 3}, 0xc0eba4f6ea9ef29f, 0xfa25def1b3f94333},
      {{1, 6, 5}, 0x2b1782dfb9521b03, 0x9c7dd9757e61647d},
      {{7, 1, 1}, 0x12b8d08bf624b8a9, 0xe91dacf278192d16},
      {{3, 3, 3}, 0x33f40d06be395bb2, 0xe322548e25d8518e},
      {{13, 9, 7}, 0xc82fd1f894001a83, 0x342bd8c61bb5a188},
      {{17, 16, 16}, 0x0f49a80500937025, 0x3b8944990f9f94f4},
      {{5, 4, 1}, 0x5bcd705cdc048aaa, 0x1119cd41bbb6278d},
      {{6, 1, 4}, 0x7f231e0d2e5a9d71, 0xf1f1c4efbef4ca80},
  };
  an::grain::ScopedForceFanOut force;
  std::uint64_t seed = 1;
  for (const Case& tc : cases) {
    const an::GridShape s = tc.s;
    const an::Stencil a = seeded(s, seed++);
    const an::Vector x = seeded_x(s, seed++);
    // All ±0: every value of the V-cycle stays a zero whose sign only the
    // expression forms decide.
    an::Vector zeros(x.size());
    for (std::size_t c = 0; c < x.size(); ++c) zeros[c] = std::copysign(0.0, x[c]);
    std::vector<an::GridShape> levels = an::multigrid_levels(s.nx, s.ny, s.nz);
    if (levels.empty())
      levels = {s, {(s.nx + 1) / 2, (s.ny + 1) / 2, (s.nz + 1) / 2}};
    const std::string name =
        std::to_string(s.nx) + "x" + std::to_string(s.ny) + "x" + std::to_string(s.nz);
    for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      an::ThreadPool pool(t);
      an::Vector y, z, z0;
      a.view().multiply(pool, x, y);
      an::Multigrid mg(levels);
      mg.setup(pool, a.view());
      mg.apply(pool, x, z);
      mg.apply(pool, zeros, z0);
      EXPECT_EQ(bits(y), tc.spmv) << name << " multiply at " << t << " threads: 0x" << std::hex
                                  << bits(y);
      EXPECT_EQ(bits(z, z0), tc.vcycle) << name << " V-cycle at " << t << " threads: 0x"
                                        << std::hex << bits(z, z0);
    }
  }
}

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
