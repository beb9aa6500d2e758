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
void smooth_colour(ThreadPool& pool, const StencilView& op, const double* b, double* x,
                   std::size_t colour) {
  parallel_for(
      pool, 0, op.shape.nz,
      [&](std::size_t klo, std::size_t khi) {
        const StencilRows a(op);
        for_each_cell<2>(
            op.shape, klo, khi,
            [&](auto nb, CellAt at) {
              x[at.c] = (b[at.c] - a.off<decltype(nb)>(at.c, x)) / a.d[at.c];
            },
            colour);
      },
      row_work(op.shape.cells() / 2));
}

/// bc[I] = sum over the children c of I of (b - A x)[c]. Each chunk of
/// coarse planes walks its fine rows in index order and adds every child's
/// residual to its parent, so each parent sums its children from 0.0 in
/// the fixed order k, j, i ascending.
void restrict_residual(ThreadPool& pool, const StencilView& op, const double* b,
                       const double* x, const GridShape& cs, double* bc) {
  const GridShape& f = op.shape;
  parallel_for(
      pool, 0, cs.nz,
      [&](std::size_t klo, std::size_t khi) {
        const StencilRows a(op);
        const std::size_t csxy = cs.nx * cs.ny;
        std::fill(bc + csxy * klo, bc + csxy * khi, 0.0);
        for_each_cell(f, 2 * klo, std::min(2 * khi, f.nz), [&](auto nb, CellAt at) {
          bc[at.i / 2 + cs.nx * (at.j / 2 + cs.ny * (at.k / 2))] +=
              b[at.c] - (a.off<decltype(nb)>(at.c, x) + a.d[at.c] * x[at.c]);
        });
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
void galerkin(ThreadPool& pool, const StencilView& op, Stencil& coarse) {
  const GridShape& f = op.shape;
  const GridShape& cs = coarse.shape;
  Vector &diag = coarse.diag, &wx = coarse.wx, &wy = coarse.wy, &wz = coarse.wz;
  parallel_for(
      pool, 0, cs.nz,
      [&](std::size_t klo, std::size_t khi) {
        for (std::size_t ck = klo; ck < khi; ++ck)
          for (std::size_t cj = 0; cj < cs.ny; ++cj)
            for (std::size_t ci = 0; ci < cs.nx; ++ci) {
              double d = 0.0, e = 0.0, n = 0.0, u = 0.0;
              for_children(f, ci, cj, ck,
                           [&](std::size_t i, std::size_t j, std::size_t k, std::size_t c) {
                             d += op.diag[c];
                             // An even-index child couples to its sibling
                             // (both a_cn and a_nc land on the diagonal); an
                             // odd-index child couples across the face.
                             if (i & 1) e += op.wx[c]; else d += 2.0 * op.wx[c];
                             if (j & 1) n += op.wy[c]; else d += 2.0 * op.wy[c];
                             if (k & 1) u += op.wz[c]; else d += 2.0 * op.wz[c];
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
template <typename Coarse>
void v_cycle(ThreadPool& pool, const StencilView& op, const double* b, double* x,
             const GridShape& cs, double* bc, double* xc, Coarse&& coarse) {
  std::fill(x, x + op.shape.cells(), 0.0);
  for (std::size_t s = 0; s < kSweeps; ++s) {
    smooth_colour(pool, op, b, x, 0);
    smooth_colour(pool, op, b, x, 1);
  }
  restrict_residual(pool, op, b, x, cs, bc);
  coarse();
  prolong_add(pool, op.shape, cs, xc, x);
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
    const std::size_t n = levels[l].cells();
    coarse_.push_back({Stencil(levels[l]), Vector(n, 0.0), Vector(n, 0.0)});
  }
}

void Multigrid::setup(ThreadPool& pool, const StencilView& a) {
  if (a.shape != fine_)
    throw std::invalid_argument("Multigrid::setup: operator is not on the fine level's grid");
  fine_op_ = a;
  galerkin(pool, a, coarse_.front().op);
  for (std::size_t l = 1; l < coarse_.size(); ++l)
    galerkin(pool, coarse_[l - 1].op.view(), coarse_[l].op);
  // Coarsest level: dense copy of the stencil, factored once per setup.
  const Stencil& last = coarse_.back().op;
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
  v_cycle(pool, lv.op.view(), lv.b.data(), lv.x.data(), next.op.shape, next.b.data(),
          next.x.data(), [&] { cycle(pool, level + 1); });
}

void Multigrid::apply(ThreadPool& pool, const Vector& r, Vector& z) {
  if (fine_op_.diag == nullptr) throw std::logic_error("Multigrid::apply before setup");
  if (r.size() != fine_.cells()) throw std::invalid_argument("Multigrid::apply: size mismatch");
  z.resize(r.size());
  Level& next = coarse_.front();
  v_cycle(pool, fine_op_, r.data(), z.data(), next.op.shape, next.b.data(), next.x.data(),
          [&] { cycle(pool, 0); });
}

}  // namespace aeropack::numeric
