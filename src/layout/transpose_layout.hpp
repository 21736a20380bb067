// The paper's register-transpose layout (§2.2, Figure 1).
//
// Each aligned sub-sequence of W*W contiguous interior elements ("vector
// set") is viewed as a W x W matrix and transposed in place, so that an
// aligned vector load at offset j*W yields lanes {j, j+W, j+2W, ...} of the
// block. The transform is an involution: applying it twice restores the
// original layout. Halo cells and any tail shorter than W*W stay in original
// order; kernels access them scalar.
#pragma once

#include "grid/grid.hpp"
#include "grid/view_traits.hpp"
#include "simd/transpose.hpp"

namespace sf {

/// Number of full W*W blocks in a row of n elements.
template <int W>
constexpr int tl_blocks(int n) {
  return n / (W * W);
}

/// Storage index of logical element i of a transposed row (involution).
template <int W>
inline int tl_index(int i, int n) {
  const int bs = W * W;
  const int b = i / bs;
  if (i < 0 || b >= tl_blocks<W>(n)) return i;  // halo or tail: untouched
  const int r = i - b * bs;
  return b * bs + (r % W) * W + r / W;
}

/// Transposes every full W*W block of row[0..n) in place.
template <int W>
inline void row_transpose_layout(double* row, int n) {
  const int nb = tl_blocks<W>(n);
  for (int b = 0; b < nb; ++b) simd::transpose_block_inplace<W>(row + b * W * W);
}

/// Slab form of the transform: transposes the rows of `g` whose outermost
/// index (y in 2-D, z in 3-D) lies in [lo, hi), halo rows/planes included
/// (logical indices; halo at negative values). Rows are independent, so
/// disjoint slabs may run concurrently — the pool-parallel
/// to_resident_layout and the pipelined wedge prologue split the tiled axis
/// over the placement map with each worker transforming its own tiles. In
/// 1-D the one row is transformed whole (ViewTraits::slab_transform).
template <int W, class View>
inline void grid_transpose_layout_slab(const View& g, long lo, long hi) {
  const int nx = ViewTraits<View>::extents(g)[0];
  for_each_row(g, g.halo(), lo, hi, [&](const auto& i, int, int, bool) {
    row_transpose_layout<W>(row_at(g, i), nx);
  });
}

/// Runtime-width dispatch of grid_transpose_layout_slab() (`View` is
/// FieldView1D, FieldView2D or FieldView3D).
template <class View>
void apply_transpose_layout_slab(const View& g, int w, long lo, long hi);

/// Whole-field transform of a view or Grid: every row, halo rows/planes
/// included — kernels read y/z-neighbours of boundary rows through
/// layout-aware views, so every row a kernel can touch must be in the same
/// layout. (Column halo stays in original order — tl_index maps it to
/// itself.)
template <int W, class G>
inline void grid_transpose_layout(const G& g) {
  const auto v = view_of(g);
  grid_transpose_layout_slab<W>(v, -v.halo(), tiled_extent(v) + v.halo());
}

/// Runtime-width dispatch of grid_transpose_layout() (W in {1,4,8}); W = 1
/// is a no-op.
template <class G>
void apply_transpose_layout(const G& g, int w) {
  const auto v = view_of(g);
  apply_transpose_layout_slab(v, w, -v.halo(), tiled_extent(v) + v.halo());
}

}  // namespace sf
