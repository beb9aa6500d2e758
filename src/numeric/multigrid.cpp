#include "numeric/multigrid.hpp"

#include <algorithm>
#include <stdexcept>

#include "numeric/parallel.hpp"

namespace aeropack::numeric {

namespace {

/// Smoothing sweeps before and after each coarse correction.
constexpr std::size_t kSweeps = 2;
/// A level coarsens only while every axis has at least this many cells.
constexpr std::size_t kMinCoarsenAxis = 8;
/// Largest coarsest level the dense Cholesky solve accepts.
constexpr std::size_t kMaxCoarsestCells = 512;

std::size_t halve(std::size_t n) { return (n + 1) / 2; }

/// Diagonal plus the couplings of a cell to its +x, +y and +z neighbours
/// (0 where the neighbour does not exist).
struct Couplings {
  double d = 0.0, e = 0.0, n = 0.0, u = 0.0;
};

// The two level representations share one interface, so every kernel below
// is written once. Row sums run in the CSR column order of a 7-point row
// (-z, -y, -x, +x, +y, +z) on both.

/// Fine level: the caller's CSR matrix with 7-point rows.
struct CsrLevel {
  GridShape s;
  const std::size_t* rp;
  const double* v;

  /// Sum over the off-diagonal entries of row c times x; `diag` gets a_cc.
  double off_diagonal(std::size_t c, std::size_t i, std::size_t j, std::size_t k,
                      const double* x, double& diag) const {
    const std::size_t sx = s.nx, sxy = s.nx * s.ny;
    std::size_t p = rp[c];
    double acc = 0.0;
    if (k > 0) acc += v[p++] * x[c - sxy];
    if (j > 0) acc += v[p++] * x[c - sx];
    if (i > 0) acc += v[p++] * x[c - 1];
    diag = v[p++];
    if (i + 1 < s.nx) acc += v[p++] * x[c + 1];
    if (j + 1 < s.ny) acc += v[p++] * x[c + sx];
    if (k + 1 < s.nz) acc += v[p] * x[c + sxy];
    return acc;
  }

  /// off_diagonal() for a cell with all six neighbours (same sum order).
  double interior_off_diagonal(std::size_t c, const double* x, double& diag) const {
    const std::size_t sx = s.nx, sxy = s.nx * s.ny;
    const double* a = v + rp[c];
    diag = a[3];
    return a[0] * x[c - sxy] + a[1] * x[c - sx] + a[2] * x[c - 1] + a[4] * x[c + 1] +
           a[5] * x[c + sx] + a[6] * x[c + sxy];
  }

  Couplings couplings(std::size_t c, std::size_t i, std::size_t j, std::size_t k) const {
    std::size_t p = rp[c] + (k > 0) + (j > 0) + (i > 0);
    Couplings out;
    out.d = v[p++];
    if (i + 1 < s.nx) out.e = v[p++];
    if (j + 1 < s.ny) out.n = v[p++];
    if (k + 1 < s.nz) out.u = v[p];
    return out;
  }
};

/// Coarse level: structured stencil arrays.
struct StencilLevel {
  GridShape s;
  const double *diag, *wx, *wy, *wz;

  double off_diagonal(std::size_t c, std::size_t i, std::size_t j, std::size_t k,
                      const double* x, double& d) const {
    const std::size_t sx = s.nx, sxy = s.nx * s.ny;
    double acc = 0.0;
    if (k > 0) acc += wz[c - sxy] * x[c - sxy];
    if (j > 0) acc += wy[c - sx] * x[c - sx];
    if (i > 0) acc += wx[c - 1] * x[c - 1];
    d = diag[c];
    if (i + 1 < s.nx) acc += wx[c] * x[c + 1];
    if (j + 1 < s.ny) acc += wy[c] * x[c + sx];
    if (k + 1 < s.nz) acc += wz[c] * x[c + sxy];
    return acc;
  }

  double interior_off_diagonal(std::size_t c, const double* x, double& d) const {
    const std::size_t sx = s.nx, sxy = s.nx * s.ny;
    d = diag[c];
    return wz[c - sxy] * x[c - sxy] + wy[c - sx] * x[c - sx] + wx[c - 1] * x[c - 1] +
           wx[c] * x[c + 1] + wy[c] * x[c + sx] + wz[c] * x[c + sxy];
  }

  Couplings couplings(std::size_t c, std::size_t, std::size_t, std::size_t) const {
    return {diag[c], wx[c], wy[c], wz[c]};
  }
};

/// True when cell (i, j, k) has all six neighbours.
bool interior(const GridShape& s, std::size_t i, std::size_t j, std::size_t k) {
  return i > 0 && j > 0 && k > 0 && i + 1 < s.nx && j + 1 < s.ny && k + 1 < s.nz;
}

/// Work estimate for a pass over `cells` 7-point rows.
grain::Work row_work(std::size_t cells) {
  return grain::Work::elements(7 * cells, grain::Cost::kSpmv);
}

/// Visit the children of coarse cell (ci, cj, ck) in the fixed order
/// k, j, i ascending: fn(i, j, k, fine index).
template <typename Fn>
void for_children(const GridShape& f, std::size_t ci, std::size_t cj, std::size_t ck, Fn&& fn) {
  const std::size_t i1 = std::min(2 * ci + 2, f.nx), j1 = std::min(2 * cj + 2, f.ny),
                    k1 = std::min(2 * ck + 2, f.nz);
  for (std::size_t k = 2 * ck; k < k1; ++k)
    for (std::size_t j = 2 * cj; j < j1; ++j)
      for (std::size_t i = 2 * ci; i < i1; ++i) fn(i, j, k, i + f.nx * (j + f.ny * k));
}

/// One Gauss-Seidel half-sweep over the cells with (i + j + k) % 2 == colour.
/// Cells of one colour couple only to the other colour, so the update is
/// independent of the plane partition.
template <typename Op>
void smooth_colour(ThreadPool& pool, const Op& op, const double* b, double* x,
                   std::size_t colour) {
  const GridShape& s = op.s;
  parallel_for(
      pool, 0, s.nz,
      [&](std::size_t klo, std::size_t khi) {
        for (std::size_t k = klo; k < khi; ++k)
          for (std::size_t j = 0; j < s.ny; ++j) {
            const std::size_t row = s.nx * (j + s.ny * k);
            const auto edge = [&](std::size_t i) {
              double d;
              const double off = op.off_diagonal(row + i, i, j, k, x, d);
              x[row + i] = (b[row + i] - off) / d;
            };
            std::size_t i = (colour + j + k) & 1;
            if (j == 0 || k == 0 || j + 1 == s.ny || k + 1 == s.nz) {
              for (; i < s.nx; i += 2) edge(i);
              continue;
            }
            // Interior row: only its two end cells miss a neighbour.
            if (i == 0) {
              edge(0);
              i = 2;
            }
            for (; i + 1 < s.nx; i += 2) {
              double d;
              const double off = op.interior_off_diagonal(row + i, x, d);
              x[row + i] = (b[row + i] - off) / d;
            }
            if (i < s.nx) edge(i);
          }
      },
      row_work(s.cells() / 2));
}

/// bc[I] = sum over the children c of I of (b - A x)[c].
template <typename Op>
void restrict_residual(ThreadPool& pool, const Op& op, const double* b, const double* x,
                       const GridShape& cs, double* bc) {
  const GridShape& f = op.s;
  parallel_for(
      pool, 0, cs.nz,
      [&](std::size_t klo, std::size_t khi) {
        for (std::size_t ck = klo; ck < khi; ++ck)
          for (std::size_t cj = 0; cj < cs.ny; ++cj)
            for (std::size_t ci = 0; ci < cs.nx; ++ci) {
              double sum = 0.0;
              for_children(f, ci, cj, ck,
                           [&](std::size_t i, std::size_t j, std::size_t k, std::size_t c) {
                             double d;
                             const double off =
                                 interior(f, i, j, k) ? op.interior_off_diagonal(c, x, d)
                                                      : op.off_diagonal(c, i, j, k, x, d);
                             sum += b[c] - (off + d * x[c]);
                           });
              bc[ci + cs.nx * (cj + cs.ny * ck)] = sum;
            }
      },
      row_work(f.cells()));
}

/// x[c] += xc[parent(c)] (piecewise-constant prolongation, gather form).
void prolong_add(ThreadPool& pool, const GridShape& f, const GridShape& cs, const double* xc,
                 double* x) {
  parallel_for(
      pool, 0, f.nz,
      [&](std::size_t klo, std::size_t khi) {
        for (std::size_t k = klo; k < khi; ++k)
          for (std::size_t j = 0; j < f.ny; ++j) {
            const double* parent = xc + cs.nx * ((j / 2) + cs.ny * (k / 2));
            double* row = x + f.nx * (j + f.ny * k);
            for (std::size_t i = 0; i < f.nx; ++i) row[i] += parent[i / 2];
          }
      },
      grain::Work::elements(2 * f.cells(), grain::Cost::kStream));
}

/// Halved-coupling Galerkin operator of `op` on the aggregates of `coarse`.
/// Pass 1 sums each aggregate's diagonal, internal couplings and crossing
/// couplings (the unscaled P^T A P); pass 2 moves half of every crossing
/// coupling onto the diagonal, which halves the couplings while keeping
/// each coarse row sum equal to the aggregate's fine row sum.
template <typename Op>
void galerkin(ThreadPool& pool, const Op& op, Vector& diag, Vector& wx, Vector& wy, Vector& wz,
              const GridShape& cs) {
  const GridShape& f = op.s;
  parallel_for(
      pool, 0, cs.nz,
      [&](std::size_t klo, std::size_t khi) {
        for (std::size_t ck = klo; ck < khi; ++ck)
          for (std::size_t cj = 0; cj < cs.ny; ++cj)
            for (std::size_t ci = 0; ci < cs.nx; ++ci) {
              double d = 0.0, e = 0.0, n = 0.0, u = 0.0;
              for_children(f, ci, cj, ck,
                           [&](std::size_t i, std::size_t j, std::size_t k, std::size_t c) {
                             const Couplings a = op.couplings(c, i, j, k);
                             d += a.d;
                             // An even-index child couples to its sibling
                             // (both a_cn and a_nc land on the diagonal); an
                             // odd-index child couples across the face.
                             if (i & 1) e += a.e; else d += 2.0 * a.e;
                             if (j & 1) n += a.n; else d += 2.0 * a.n;
                             if (k & 1) u += a.u; else d += 2.0 * a.u;
                           });
              const std::size_t c = ci + cs.nx * (cj + cs.ny * ck);
              diag[c] = d;
              wx[c] = 0.5 * e;
              wy[c] = 0.5 * n;
              wz[c] = 0.5 * u;
            }
      },
      row_work(f.cells()));
  const std::size_t sx = cs.nx, sxy = cs.nx * cs.ny;
  parallel_for(
      pool, 0, cs.nz,
      [&](std::size_t klo, std::size_t khi) {
        for (std::size_t k = klo; k < khi; ++k)
          for (std::size_t j = 0; j < cs.ny; ++j)
            for (std::size_t i = 0; i < cs.nx; ++i) {
              const std::size_t c = i + sx * (j + cs.ny * k);
              double half = wx[c] + wy[c] + wz[c];
              if (i > 0) half += wx[c - 1];
              if (j > 0) half += wy[c - sx];
              if (k > 0) half += wz[c - sxy];
              diag[c] += half;
            }
      },
      row_work(cs.cells()));
}

/// One symmetric V-cycle on a level from x = 0 (x is overwritten):
/// pre-smooth, restrict, recurse through `coarse`, prolong, post-smooth.
template <typename Op, typename Coarse>
void v_cycle(ThreadPool& pool, const Op& op, const double* b, double* x, const GridShape& cs,
             double* bc, double* xc, Coarse&& coarse) {
  std::fill(x, x + op.s.cells(), 0.0);
  for (std::size_t s = 0; s < kSweeps; ++s) {
    smooth_colour(pool, op, b, x, 0);
    smooth_colour(pool, op, b, x, 1);
  }
  restrict_residual(pool, op, b, x, cs, bc);
  coarse();
  prolong_add(pool, op.s, cs, xc, x);
  for (std::size_t s = 0; s < kSweeps; ++s) {
    smooth_colour(pool, op, b, x, 1);
    smooth_colour(pool, op, b, x, 0);
  }
}

}  // namespace

std::vector<GridShape> multigrid_levels(std::size_t nx, std::size_t ny, std::size_t nz) {
  std::vector<GridShape> levels{{nx, ny, nz}};
  while (std::min({levels.back().nx, levels.back().ny, levels.back().nz}) >=
         kMinCoarsenAxis) {
    const GridShape& f = levels.back();
    levels.push_back({halve(f.nx), halve(f.ny), halve(f.nz)});
  }
  if (levels.size() < 2 || levels.back().cells() > kMaxCoarsestCells) return {};
  return levels;
}

Multigrid::Multigrid(std::vector<GridShape> levels) {
  if (levels.size() < 2) throw std::invalid_argument("Multigrid: hierarchy needs >= 2 levels");
  fine_ = levels.front();
  for (std::size_t l = 1; l < levels.size(); ++l) {
    const GridShape& f = levels[l - 1];
    if (levels[l].nx != halve(f.nx) || levels[l].ny != halve(f.ny) || levels[l].nz != halve(f.nz))
      throw std::invalid_argument("Multigrid: each level must halve the one above");
    Level lv;
    lv.shape = levels[l];
    const std::size_t n = lv.shape.cells();
    for (Vector* v : {&lv.diag, &lv.wx, &lv.wy, &lv.wz, &lv.x, &lv.b}) v->assign(n, 0.0);
    coarse_.push_back(std::move(lv));
  }
}

void Multigrid::setup(ThreadPool& pool, const CsrMatrix& a) {
  const std::size_t n = fine_.cells();
  // A 7-point row count: every cell has 7 entries minus one per missing
  // neighbour, i.e. two boundary planes per axis.
  const std::size_t nnz = 7 * n - 2 * (fine_.ny * fine_.nz + fine_.nx * fine_.nz +
                                       fine_.nx * fine_.ny);
  if (a.rows() != n || a.cols() != n || a.nonzeros() != nnz)
    throw std::invalid_argument("Multigrid::setup: matrix is not the fine level's 7-point operator");
  fine_matrix_ = &a;
  const CsrLevel fine{fine_, a.row_ptr().data(), a.values().data()};
  Level* c = &coarse_.front();
  galerkin(pool, fine, c->diag, c->wx, c->wy, c->wz, c->shape);
  for (std::size_t l = 1; l < coarse_.size(); ++l) {
    const Level& f = coarse_[l - 1];
    c = &coarse_[l];
    const StencilLevel op{f.shape, f.diag.data(), f.wx.data(), f.wy.data(), f.wz.data()};
    galerkin(pool, op, c->diag, c->wx, c->wy, c->wz, c->shape);
  }
  // Coarsest level: dense copy of the stencil, factored once per setup.
  const Level& last = coarse_.back();
  const GridShape& s = last.shape;
  const std::size_t m = s.cells(), sx = s.nx, sxy = s.nx * s.ny;
  Matrix dense(m, m, 0.0);
  for (std::size_t k = 0; k < s.nz; ++k)
    for (std::size_t j = 0; j < s.ny; ++j)
      for (std::size_t i = 0; i < s.nx; ++i) {
        const std::size_t r = i + sx * (j + s.ny * k);
        dense(r, r) = last.diag[r];
        if (i + 1 < s.nx) dense(r, r + 1) = dense(r + 1, r) = last.wx[r];
        if (j + 1 < s.ny) dense(r, r + sx) = dense(r + sx, r) = last.wy[r];
        if (k + 1 < s.nz) dense(r, r + sxy) = dense(r + sxy, r) = last.wz[r];
      }
  coarsest_.emplace(dense);
}

void Multigrid::cycle(ThreadPool& pool, std::size_t level) {
  Level& lv = coarse_[level];
  if (level + 1 == coarse_.size()) {
    // Copy into the existing storage: the caller holds a pointer to lv.x.
    const Vector sol = coarsest_->solve(lv.b);
    std::copy(sol.begin(), sol.end(), lv.x.begin());
    return;
  }
  Level& next = coarse_[level + 1];
  const StencilLevel op{lv.shape, lv.diag.data(), lv.wx.data(), lv.wy.data(), lv.wz.data()};
  v_cycle(pool, op, lv.b.data(), lv.x.data(), next.shape, next.b.data(), next.x.data(),
          [&] { cycle(pool, level + 1); });
}

void Multigrid::apply(ThreadPool& pool, const Vector& r, Vector& z) {
  if (fine_matrix_ == nullptr) throw std::logic_error("Multigrid::apply before setup");
  if (r.size() != fine_.cells()) throw std::invalid_argument("Multigrid::apply: size mismatch");
  z.resize(r.size());
  const CsrLevel fine{fine_, fine_matrix_->row_ptr().data(), fine_matrix_->values().data()};
  Level& next = coarse_.front();
  v_cycle(pool, fine, r.data(), z.data(), next.shape, next.b.data(), next.x.data(),
          [&] { cycle(pool, 0); });
}

}  // namespace aeropack::numeric
