/// \file
/// \brief Per-dimension traits of the field views: what the
/// dimension-generic layers (engine, tiling, serving, Solver) look up
/// instead of writing one body per FieldView1D/2D/3D.
///
/// A view is described per axis, x first: `extents(v)[d]` and
/// `strides(v)[d]` (doubles; the x stride is 1). The outermost axis is the
/// one split tiling tessellates (x in 1-D, y in 2-D, z in 3-D), and
/// for_each_row() walks the rows of a view — the contiguous x runs — over
/// the whole halo-inclusive box or over a `[lo, hi)` slab of that outermost
/// axis, in storage order. The binding to the stencil spec (`p1/p2/p3`) and
/// the kernel executors (`run1/run2/run3`) is by member name, so this header
/// depends on nothing above the grids.
#pragma once

#include <array>
#include <cstddef>
#include <stdexcept>
#include <type_traits>

#include "grid/grid.hpp"

namespace sf {

/// Per-dimension facts of one view type; specialized for FieldView1D/2D/3D
/// (empty for any other type, so templates over it reject non-views).
template <class View>
struct ViewTraits {};

/// Traits of the 1-D view: one axis, which is also the tiled one.
template <>
struct ViewTraits<FieldView1D> {
  /// Number of axes.
  static constexpr int dims = 1;
  /// Display names of the axes, x first.
  static constexpr const char* axis[1] = {"n"};
  /// False: the register-transpose permutes W*W-element blocks of the one
  /// row, which a tile cut would split, so the layout transform cannot be
  /// divided into slabs of the tiled axis.
  static constexpr bool slab_transform = false;
  /// Interior extent per axis.
  static std::array<int, 1> extents(const FieldView1D& v) { return {v.n()}; }
  /// Distance between neighbours per axis, in doubles.
  static std::array<std::ptrdiff_t, 1> strides(const FieldView1D&) {
    return {1};
  }
  /// Calls the 1-D executor of kernel record `k` (KernelInfo::run1).
  template <class Kernel, class Pattern, class Src>
  static void run(const Kernel& k, const Pattern& p, const FieldView1D& a,
                  const FieldView1D& b, const Src* src, const FieldView1D* kv,
                  int tsteps) {
    k.run1(p, a, b, src, kv, tsteps);
  }
};

/// Traits of the 2-D view: rows along y, tiled along y.
template <>
struct ViewTraits<FieldView2D> {
  /// Number of axes.
  static constexpr int dims = 2;
  /// Display names of the axes, x first.
  static constexpr const char* axis[2] = {"nx", "ny"};
  /// True: rows are independent, so slabs of rows transform separately.
  static constexpr bool slab_transform = true;
  /// Interior extent per axis.
  static std::array<int, 2> extents(const FieldView2D& v) {
    return {v.nx(), v.ny()};
  }
  /// Distance between neighbours per axis, in doubles.
  static std::array<std::ptrdiff_t, 2> strides(const FieldView2D& v) {
    return {1, v.stride()};
  }
  /// Calls the 2-D executor of kernel record `k` (KernelInfo::run2); 2-D
  /// stencils have no source term.
  template <class Kernel, class Pattern, class Src>
  static void run(const Kernel& k, const Pattern& p, const FieldView2D& a,
                  const FieldView2D& b, const Src*, const FieldView2D*,
                  int tsteps) {
    k.run2(p, a, b, tsteps);
  }
};

/// Traits of the 3-D view: rows along y within planes along z, tiled along
/// z.
template <>
struct ViewTraits<FieldView3D> {
  /// Number of axes.
  static constexpr int dims = 3;
  /// Display names of the axes, x first.
  static constexpr const char* axis[3] = {"nx", "ny", "nz"};
  /// True: planes are independent, so slabs of planes transform separately.
  static constexpr bool slab_transform = true;
  /// Interior extent per axis.
  static std::array<int, 3> extents(const FieldView3D& v) {
    return {v.nx(), v.ny(), v.nz()};
  }
  /// Distance between neighbours per axis, in doubles.
  static std::array<std::ptrdiff_t, 3> strides(const FieldView3D& v) {
    return {1, v.stride(), static_cast<std::ptrdiff_t>(v.plane_stride())};
  }
  /// Calls the 3-D executor of kernel record `k` (KernelInfo::run3); 3-D
  /// stencils have no source term.
  template <class Kernel, class Pattern, class Src>
  static void run(const Kernel& k, const Pattern& p, const FieldView3D& a,
                  const FieldView3D& b, const Src*, const FieldView3D*,
                  int tsteps) {
    k.run3(p, a, b, tsteps);
  }
};

/// The view of `v` itself; with the overloads below, the view a Grid
/// converts to, so helpers templated over it take views and Grids alike.
inline FieldView1D view_of(const FieldView1D& v) { return v; }
/// 2-D overload of view_of().
inline FieldView2D view_of(const FieldView2D& v) { return v; }
/// 3-D overload of view_of().
inline FieldView3D view_of(const FieldView3D& v) { return v; }

/// Interior extent of the outermost axis — the one split tiling
/// tessellates.
template <class View>
int tiled_extent(const View& v) {
  return ViewTraits<View>::extents(v)[ViewTraits<View>::dims - 1];
}

/// Interior cells of one cross-section of the tiled axis: 1 in 1-D, nx in
/// 2-D, nx * ny in 3-D.
template <class View>
long slice_cells(const View& v) {
  const auto n = ViewTraits<View>::extents(v);
  long cells = 1;
  for (int d = 0; d + 1 < ViewTraits<View>::dims; ++d) cells *= n[d];
  return cells;
}

/// Pointer to x = 0 of the row whose outer indices are `i[1..]` (`i[0]` is
/// ignored; indices may range over the halo).
template <class View>
double* row_at(const View& v,
               const std::array<int, ViewTraits<View>::dims>& i) {
  const auto s = ViewTraits<View>::strides(v);
  std::ptrdiff_t off = 0;
  for (int d = 1; d < ViewTraits<View>::dims; ++d) off += i[d] * s[d];
  return v.data() + off;
}

/// Walks the rows of `v`'s box with `halo` cells on each side of every
/// axis, the outermost axis restricted to `[lo, hi)`, in storage order
/// (outermost axis slowest). Calls `fn(i, x0, x1, shell)` per row: `i` are
/// the row's outer indices (see row_at), `[x0, x1)` its x range — the full
/// haloed row, or `[lo, hi)` itself in 1-D where x is the outermost axis —
/// and `shell` is true when an outer index lies in the halo.
template <class View, class Fn>
void for_each_row(const View& v, int halo, long lo, long hi, Fn&& fn) {
  constexpr int D = ViewTraits<View>::dims;
  const auto n = ViewTraits<View>::extents(v);
  std::array<int, D> first{}, last{};
  for (int d = 0; d < D; ++d) {
    first[d] = -halo;
    last[d] = n[d] + halo;
  }
  first[D - 1] = static_cast<int>(lo);
  last[D - 1] = static_cast<int>(hi);
  if (first[D - 1] >= last[D - 1]) return;
  std::array<int, D> i = first;
  for (;;) {
    bool shell = false;
    for (int d = 1; d < D; ++d) shell = shell || i[d] < 0 || i[d] >= n[d];
    fn(i, first[0], last[0], shell);
    int d = 1;
    for (; d < D; ++d) {
      if (++i[d] < last[d]) break;
      i[d] = first[d];
    }
    if (d >= D) return;
  }
}

/// Calls `f(std::integral_constant<int, D>{})` for the runtime
/// dimensionality `dims`, so the body is written once against D.
template <class F>
decltype(auto) dispatch_dims(int dims, F&& f) {
  switch (dims) {
    case 1: return f(std::integral_constant<int, 1>{});
    case 2: return f(std::integral_constant<int, 2>{});
    case 3: return f(std::integral_constant<int, 3>{});
    default: throw std::logic_error("bad dims");
  }
}

/// The `D`-dimensional pattern of a stencil spec (its `p1`, `p2` or `p3`).
template <int D, class Spec>
const auto& pattern_of(const Spec& s) {
  if constexpr (D == 1)
    return s.p1;
  else if constexpr (D == 2)
    return s.p2;
  else
    return s.p3;
}

/// An owning `D`-dimensional grid of extents (nx, ny, nz); axes above `D`
/// are ignored.
template <int D>
auto make_grid(long nx, long ny, long nz, int halo, bool zero_init = true) {
  if constexpr (D == 1)
    return Grid1D(static_cast<int>(nx), halo, zero_init);
  else if constexpr (D == 2)
    return Grid2D(static_cast<int>(ny), static_cast<int>(nx), halo,
                  zero_init);
  else
    return Grid3D(static_cast<int>(nz), static_cast<int>(ny),
                  static_cast<int>(nx), halo, zero_init);
}

}  // namespace sf
