#include "layout/dlt_layout.hpp"

#include <cstring>
#include <vector>

#include "grid/view_traits.hpp"

namespace sf {

void row_to_dlt(double* row, int n, int w, double* scratch) {
  if (w <= 1) return;
  const int L = n / w;
  const int n0 = L * w;
  for (int i = 0; i < n0; ++i) scratch[(i % L) * w + (i / L)] = row[i];
  std::memcpy(row, scratch, static_cast<std::size_t>(n0) * sizeof(double));
}

void row_from_dlt(double* row, int n, int w, double* scratch) {
  if (w <= 1) return;
  const int L = n / w;
  const int n0 = L * w;
  for (int i = 0; i < n0; ++i) scratch[i] = row[(i % L) * w + (i / L)];
  std::memcpy(row, scratch, static_cast<std::size_t>(n0) * sizeof(double));
}

namespace {
std::vector<double>& tls_scratch(std::size_t n) {
  thread_local std::vector<double> s;
  if (s.size() < n) s.resize(n);
  return s;
}

// Applies a row transform to every row of `g`. 2-D/3-D transforms include
// halo rows/planes: kernels read y/z-neighbours of boundary rows through
// the lifted index map, so those rows must be lifted too.
template <class View>
void lift_rows(const View& g, int w, void (*fn)(double*, int, int, double*)) {
  const int nx = ViewTraits<View>::extents(g)[0];
  auto& s = tls_scratch(static_cast<std::size_t>(nx));
  for_each_row(g, g.halo(), -g.halo(), tiled_extent(g) + g.halo(),
               [&](const auto& i, int, int, bool) {
                 fn(row_at(g, i), nx, w, s.data());
               });
}

}  // namespace

void grid_to_dlt(const FieldView1D& g, int w) { lift_rows(g, w, row_to_dlt); }
void grid_from_dlt(const FieldView1D& g, int w) {
  lift_rows(g, w, row_from_dlt);
}
void grid_to_dlt(const FieldView2D& g, int w) { lift_rows(g, w, row_to_dlt); }
void grid_from_dlt(const FieldView2D& g, int w) {
  lift_rows(g, w, row_from_dlt);
}
void grid_to_dlt(const FieldView3D& g, int w) { lift_rows(g, w, row_to_dlt); }
void grid_from_dlt(const FieldView3D& g, int w) {
  lift_rows(g, w, row_from_dlt);
}

}  // namespace sf
