#include "numeric/stencil.hpp"

#include <stdexcept>
#include <utility>

#include "numeric/parallel.hpp"
#include "obs/registry.hpp"

namespace aeropack::numeric {

Stencil::Stencil(GridShape s) : shape(s) {
  for (Vector* v : {&diag, &wx, &wy, &wz}) v->assign(s.cells(), 0.0);
}

void StencilView::multiply(const Vector& x, Vector& y) const {
  multiply(current_pool(), x, y);
}

void StencilView::multiply(ThreadPool& pool, const Vector& x, Vector& y) const {
  const std::size_t n = rows();
  if (x.size() != n) throw std::invalid_argument("StencilView::multiply: size mismatch");
  if (&x == &y) throw std::invalid_argument("StencilView::multiply: y must not alias x");
  static thread_local obs::CounterHandle spmv_calls{"numeric.spmv.calls"};
  spmv_calls.add();
  y.resize(n);
  parallel_for(
      pool, 0, shape.nz,
      [&](std::size_t klo, std::size_t khi) {
        const StencilRows a(*this);
        const double* __restrict xs = x.data();
        double* __restrict ys = y.data();
        for_each_cell(shape, klo, khi, [&](auto nb, CellAt at) {
          ys[at.c] = a.row<decltype(nb)>(at.c, xs);
        });
      },
      grain::Work::elements(7 * n, grain::Cost::kSpmv));
}

CsrMatrix StencilView::to_csr() const {
  const std::size_t nx = shape.nx, ny = shape.ny, nz = shape.nz, sxy = nx * ny;
  const std::size_t n = rows();
  std::vector<std::size_t> row_ptr(n + 1, 0), col_idx;
  std::vector<double> values;
  col_idx.reserve(7 * n);
  values.reserve(7 * n);
  const auto put = [&](std::size_t col, double v) {
    col_idx.push_back(col);
    values.push_back(v);
  };
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t i = 0; i < nx; ++i) {
        const std::size_t c = i + nx * (j + ny * k);
        if (k > 0) put(c - sxy, wz[c - sxy]);
        if (j > 0) put(c - nx, wy[c - nx]);
        if (i > 0) put(c - 1, wx[c - 1]);
        put(c, diag[c]);
        if (i + 1 < nx) put(c + 1, wx[c]);
        if (j + 1 < ny) put(c + nx, wy[c]);
        if (k + 1 < nz) put(c + sxy, wz[c]);
        row_ptr[c + 1] = values.size();
      }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
}

}  // namespace aeropack::numeric
