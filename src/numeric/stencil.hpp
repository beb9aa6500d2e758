// Symmetric 7-point operators on structured nx × ny × nz grids — the
// storage of the finite-volume conduction operator (thermal::FvModel) and of
// every multigrid level (numeric/multigrid.hpp).
//
// A cell couples only to its six face neighbours, and the coupling to the
// -x neighbour is the +x coupling of that neighbour, so four doubles per
// cell hold the whole matrix: the diagonal and the couplings to the +x, +y
// and +z neighbours (0 where the neighbour does not exist). Compared with
// CSR that drops the column indices, the row pointers and the duplicate
// lower triangle: 32 instead of ~100 bytes per cell.
//
// Row-class walker. Every kernel that sweeps a stencil row by row (the
// multiply below, the multigrid smoother and restriction) visits its cells
// through for_each_cell(). A row (j, k) has one of 16 classes, by which of
// its -z, -y, +y, +z neighbours exist; the walker runs each run of rows of
// one class in a template instance with those four flags fixed at compile
// time and peels only the row's end cells i = 0 and i = nx - 1. So the
// kernel body sees each cell's neighbour set as a type (Neighbours) and
// carries no bounds test.
//
// Sum-order and expression-form contract (what keeps every bit):
//  - StencilRows::row() sums (A x)[c] from 0.0 in the CSR column order of a
//    7-point row, -z, -y, -x, diagonal, +x, +y, +z, skipping the missing
//    neighbours exactly as CSR never stores them; so y = A x is
//    bit-identical to to_csr().multiply(x) at every thread count.
//  - StencilRows::off() sums the off-diagonal terms in the same order:
//    from 0.0 for a cell that misses a neighbour, and as the unseeded
//    six-term expression for a cell that has all six. The two forms differ
//    only in the sign of an all-zero sum, which the multigrid results keep.
#pragma once

#include <cstddef>
#include <utility>

#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"

namespace aeropack::numeric {

class ThreadPool;

/// Cell counts of one structured level; cells are numbered i-fastest,
/// index = i + nx * (j + ny * k).
struct GridShape {
  std::size_t nx = 0, ny = 0, nz = 0;
  std::size_t cells() const { return nx * ny * nz; }
  bool operator==(const GridShape&) const = default;
};

/// Non-owning view of a symmetric 7-point operator: the four per-cell
/// arrays may live in different owners (the FV workspace pairs its own
/// diagonal with the couplings of a shared assembly).
struct StencilView {
  GridShape shape;
  const double* diag = nullptr;  ///< a_cc
  const double* wx = nullptr;    ///< a_{c, c+1}, 0 on the last x plane
  const double* wy = nullptr;    ///< a_{c, c+nx}, 0 on the last y plane
  const double* wz = nullptr;    ///< a_{c, c+nx*ny}, 0 on the last z plane

  std::size_t rows() const { return shape.cells(); }
  std::size_t cols() const { return rows(); }
  Vector diagonal() const { return Vector(diag, diag + rows()); }

  /// y = A x without allocating (y is resized to rows(); y must not alias
  /// x). Counts one "numeric.spmv.calls". The pool-less overload runs on
  /// the calling thread's current pool.
  void multiply(ThreadPool& pool, const Vector& x, Vector& y) const;
  void multiply(const Vector& x, Vector& y) const;

  /// The same matrix in CSR form: 7-point rows, columns ascending, every
  /// existing neighbour stored (also where its coupling is 0), exactly
  /// symmetric.
  CsrMatrix to_csr() const;
};

/// Owning symmetric 7-point operator.
struct Stencil {
  GridShape shape;
  Vector diag, wx, wy, wz;

  Stencil() = default;
  /// All-zero operator on `s`.
  explicit Stencil(GridShape s);

  /// This operator's couplings with another diagonal (`d` must hold
  /// shape.cells() values and outlive the view).
  StencilView view(const Vector& d) const {
    return {shape, d.data(), wx.data(), wy.data(), wz.data()};
  }
  StencilView view() const { return view(diag); }
  std::size_t bytes() const { return 4 * diag.size() * sizeof(double); }
};

/// The face neighbours a visited cell has, as compile-time flags.
template <bool Zm, bool Ym, bool Xm, bool Xp, bool Yp, bool Zp>
struct Neighbours {
  static constexpr bool zm = Zm, ym = Ym, xm = Xm, xp = Xp, yp = Yp, zp = Zp;
  static constexpr bool all = Zm && Ym && Xm && Xp && Yp && Zp;
};

/// Where a visited cell sits: c = i + nx * (j + ny * k).
struct CellAt {
  std::size_t c, i, j, k;
};

/// A stencil's arrays and strides as plain values, and its per-class row
/// sums. Kernels build one inside each parallel chunk so the compiler keeps
/// them in registers; reading them through the captured view made a
/// fine-level V-cycle ~25% slower.
struct StencilRows {
  const double *d, *ex, *ey, *ez;
  std::size_t nx, sxy;

  explicit StencilRows(const StencilView& op)
      : d(op.diag), ex(op.wx), ey(op.wy), ez(op.wz), nx(op.shape.nx),
        sxy(op.shape.nx * op.shape.ny) {}

  /// (A x)[c] from 0.0 in CSR column order (-z, -y, -x, diagonal, +x, +y, +z).
  template <typename N>
  double row(std::size_t c, const double* x) const {
    double acc = 0.0;
    if constexpr (N::zm) acc += ez[c - sxy] * x[c - sxy];
    if constexpr (N::ym) acc += ey[c - nx] * x[c - nx];
    if constexpr (N::xm) acc += ex[c - 1] * x[c - 1];
    acc += d[c] * x[c];
    if constexpr (N::xp) acc += ex[c] * x[c + 1];
    if constexpr (N::yp) acc += ey[c] * x[c + nx];
    if constexpr (N::zp) acc += ez[c] * x[c + sxy];
    return acc;
  }

  /// Off-diagonal part of (A x)[c] in the same order: unseeded when the cell
  /// has all six neighbours, from 0.0 otherwise.
  template <typename N>
  double off(std::size_t c, const double* x) const {
    if constexpr (N::all) {
      return ez[c - sxy] * x[c - sxy] + ey[c - nx] * x[c - nx] + ex[c - 1] * x[c - 1] +
             ex[c] * x[c + 1] + ey[c] * x[c + nx] + ez[c] * x[c + sxy];
    } else {
      double acc = 0.0;
      if constexpr (N::zm) acc += ez[c - sxy] * x[c - sxy];
      if constexpr (N::ym) acc += ey[c - nx] * x[c - nx];
      if constexpr (N::xm) acc += ex[c - 1] * x[c - 1];
      if constexpr (N::xp) acc += ex[c] * x[c + 1];
      if constexpr (N::yp) acc += ey[c] * x[c + nx];
      if constexpr (N::zp) acc += ez[c] * x[c + sxy];
      return acc;
    }
  }
};

namespace detail {

/// Rows j in [j0, j1) of plane k, all of row class `Class` (bit 0: -z
/// exists, 1: -y, 2: +y, 3: +z), cells i ≡ parity + j + k (mod Step).
template <unsigned Class, std::size_t Step, typename Fn>
void rows_of_class(const GridShape& s, std::size_t j0, std::size_t j1, std::size_t k,
                   std::size_t parity, Fn& fn) {
  constexpr bool zm = Class & 1u, ym = Class & 2u, yp = Class & 4u, zp = Class & 8u;
  const std::size_t nx = s.nx;
  for (std::size_t j = j0; j < j1; ++j) {
    const std::size_t row = nx * (j + s.ny * k);
    std::size_t i = Step == 1 ? 0 : (parity + j + k) % Step;
    if (nx == 1) {
      if (i == 0) fn(Neighbours<zm, ym, false, false, yp, zp>{}, CellAt{row, 0, j, k});
      continue;
    }
    if (i == 0) {
      fn(Neighbours<zm, ym, false, true, yp, zp>{}, CellAt{row, 0, j, k});
      i = Step;
    }
    for (; i + 1 < nx; i += Step)
      fn(Neighbours<zm, ym, true, true, yp, zp>{}, CellAt{row + i, i, j, k});
    if (i + 1 == nx) fn(Neighbours<zm, ym, true, false, yp, zp>{}, CellAt{row + i, i, j, k});
  }
}

/// Runs the rows_of_class instance whose Class equals `cls`.
template <std::size_t Step, typename Fn, unsigned... Class>
void dispatch_class(unsigned cls, const GridShape& s, std::size_t j0, std::size_t j1,
                    std::size_t k, std::size_t parity, Fn& fn,
                    std::integer_sequence<unsigned, Class...>) {
  ((cls == Class && (rows_of_class<Class, Step>(s, j0, j1, k, parity, fn), true)) || ...);
}

}  // namespace detail

/// Visits the cells of planes [klo, khi) of grid `s` in index order, each
/// as fn(Neighbours<...>{}, CellAt{c, i, j, k}). With Step = 2 it visits
/// only the cells with (i + j + k) % 2 == parity (one red-black colour).
/// The first row, the interior rows and the last row of each plane each
/// run in the template instance of their row class.
template <std::size_t Step = 1, typename Fn>
void for_each_cell(const GridShape& s, std::size_t klo, std::size_t khi, Fn&& fn,
                   std::size_t parity = 0) {
  static_assert(Step == 1 || Step == 2);
  for (std::size_t k = klo; k < khi; ++k) {
    const unsigned z = (k > 0 ? 1u : 0u) | (k + 1 < s.nz ? 8u : 0u);
    for (std::size_t j = 0; j < s.ny;) {
      const std::size_t end = (j == 0 || j + 1 == s.ny) ? j + 1 : s.ny - 1;
      const unsigned cls = z | (j > 0 ? 2u : 0u) | (j + 1 < s.ny ? 4u : 0u);
      detail::dispatch_class<Step>(cls, s, j, end, k, parity, fn,
                                   std::make_integer_sequence<unsigned, 16>{});
      j = end;
    }
  }
}

}  // namespace aeropack::numeric
