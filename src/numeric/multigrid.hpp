// Geometric multigrid preconditioner for 7-point operators on structured
// nx × ny × nz grids — the conduction operator of thermal::FvModel.
//
// Hierarchy: every level aggregates 2×2×2 cells of the level above (an odd
// axis ends in a one-cell-thick aggregate). Coarsening continues while every
// axis of the current level has at least 8 cells, so a 64³ grid runs
// 64³ → 32³ → 16³ → 8³ → 4³. A grid with a shorter axis, or whose coarsest
// level would exceed 512 cells (the dense solve below), gets no hierarchy
// and its CG keeps the Jacobi preconditioner.
//
// Coarse operators: the Galerkin product P^T A P of piecewise-constant
// aggregation, with the face couplings halved at every level. A 2×2×2
// aggregate face sums four fine faces of twice the distance, so on a
// homogeneous grid the halved Galerkin couplings equal a re-discretisation
// at 2h — but, unlike re-discretisation, the sum sees heterogeneous
// conductivity and contact interfaces exactly. The row-sum excess of each
// aggregate (boundary films, capacity/dt) is carried over unscaled, so the
// coarse operator stays SPD and conserves the fine operator's sinks.
// Every level is a numeric::Stencil (four doubles per cell: diagonal plus
// +x/+y/+z couplings); the fine level is the caller's stencil, read through
// a view. No triplet assembly, no index map.
//
// Cycle: a symmetric V-cycle. Two red-black Gauss-Seidel sweeps (red =
// even i + j + k first, then black) pre-smooth, the residual is restricted
// by summing each aggregate's children, the coarse correction is prolonged
// by injection, and two sweeps in the reverse colour order (black then red)
// post-smooth.
// The coarsest level is solved exactly by a dense Cholesky factorization.
// The post-smoother is the adjoint of the pre-smoother, so the cycle is a
// symmetric preconditioner fit for CG.
//
// Kernels: the smoother and the restriction sweep the level row by row
// through the row-class walker of numeric/stencil.hpp, so their row sums
// keep one fixed order and expression form per cell class.
//
// Determinism: a red (black) sweep reads only black (red) cells, the
// restriction sums each aggregate's children in the fixed order k, j, i
// within the chunk that owns the aggregate, prolongation is a gather, and
// the coarsest solve is serial — every value is independent of the thread
// partition, so results are bit-identical across thread counts and pools.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "numeric/dense.hpp"
#include "numeric/solve_dense.hpp"
#include "numeric/stencil.hpp"

namespace aeropack::numeric {

class ThreadPool;

/// Level shapes of the multigrid hierarchy of an nx × ny × nz grid, fine
/// level first. Empty when the grid cannot coarsen (some axis below 8
/// cells) or its coarsest level exceeds 512 cells.
std::vector<GridShape> multigrid_levels(std::size_t nx, std::size_t ny, std::size_t nz);

/// Per-solve multigrid state over a fixed hierarchy: the coarse operators,
/// their work vectors and the coarsest factorization. setup() refreshes the
/// coarse operators from the current fine operator; apply() runs one
/// V-cycle.
/// Mutable scratch — one instance per concurrent solve.
class Multigrid {
 public:
  /// `levels` must hold at least two shapes, each the halving of the one
  /// above (std::invalid_argument otherwise); multigrid_levels() builds
  /// such a chain.
  explicit Multigrid(std::vector<GridShape> levels);

  /// Number of levels including the fine one (>= 2).
  std::size_t depth() const { return coarse_.size() + 1; }

  /// Recompute every coarse operator from `a`, which must live on the fine
  /// level's grid (std::invalid_argument otherwise). O(cells). The arrays
  /// `a` points to must outlive the apply() calls that follow.
  void setup(ThreadPool& pool, const StencilView& a);

  /// z = one V-cycle applied to r (z is resized; r must not alias z).
  void apply(ThreadPool& pool, const Vector& r, Vector& z);

 private:
  struct Level {
    Stencil op;
    Vector x, b;  ///< V-cycle iterate and right-hand side
  };
  void cycle(ThreadPool& pool, std::size_t level);

  GridShape fine_;
  StencilView fine_op_;  ///< set by setup()
  std::vector<Level> coarse_;
  std::optional<CholeskyFactorization> coarsest_;
};

}  // namespace aeropack::numeric
