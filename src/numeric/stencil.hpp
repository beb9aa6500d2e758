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
// multiply() sums each row in the CSR column order of a 7-point row
// (-z, -y, -x, diagonal, +x, +y, +z), so y = A x is bit-identical to
// to_csr().multiply(x) at every thread count.
#pragma once

#include <cstddef>

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

}  // namespace aeropack::numeric
