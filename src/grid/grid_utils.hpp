// Initialization and comparison helpers for halo fields. All helpers take
// zero-copy FieldViews (grid/field_view.hpp); Grids convert implicitly.
#pragma once

#include <algorithm>
#include <cmath>
#include <random>

#include "grid/grid.hpp"
#include "grid/view_traits.hpp"

namespace sf {

/// Fills interior + halo with reproducible pseudo-random values in [-1, 1],
/// in storage order (z, then y, then x).
template <class G>
void fill_random(const G& g, std::uint64_t seed) {
  const auto v = view_of(g);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for_each_row(v, v.halo(), -v.halo(), tiled_extent(v) + v.halo(),
               [&](const auto& i, int x0, int x1, bool) {
                 double* row = row_at(v, i);
                 for (int x = x0; x < x1; ++x) row[x] = d(rng);
               });
}

/// Copies interior and halo.
template <class G, class H>
void copy(const G& src, const H& dst) {
  const auto s = view_of(src);
  const auto t = view_of(dst);
  for_each_row(s, s.halo(), -s.halo(), tiled_extent(s) + s.halo(),
               [&](const auto& i, int x0, int x1, bool) {
                 const double* from = row_at(s, i);
                 double* to = row_at(t, i);
                 for (int x = x0; x < x1; ++x) to[x] = from[x];
               });
}

/// Max |a-b| over the interior.
template <class G, class H>
double max_abs_diff(const G& a, const H& b) {
  const auto u = view_of(a);
  const auto v = view_of(b);
  double m = 0;
  for_each_row(u, 0, 0, tiled_extent(u),
               [&](const auto& i, int x0, int x1, bool) {
                 const double* p = row_at(u, i);
                 const double* q = row_at(v, i);
                 for (int x = x0; x < x1; ++x)
                   m = std::max(m, std::fabs(p[x] - q[x]));
               });
  return m;
}

/// Max |v| over the interior (for relative tolerances).
template <class G>
double max_abs(const G& a) {
  const auto u = view_of(a);
  double m = 0;
  for_each_row(u, 0, 0, tiled_extent(u),
               [&](const auto& i, int x0, int x1, bool) {
                 const double* p = row_at(u, i);
                 for (int x = x0; x < x1; ++x) m = std::max(m, std::fabs(p[x]));
               });
  return m;
}

}  // namespace sf
