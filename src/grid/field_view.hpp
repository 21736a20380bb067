/// \file
/// \brief Non-owning, zero-copy field views — the executor-facing grid type.
///
/// A FieldView is a pointer + extents + stride + halo (plus a Layout tag)
/// over memory the *caller* owns. Every executor in the library — the
/// registry kernels, the split-tiling engine, the naive reference — runs on
/// views, so a PreparedStencil (core/engine.hpp) can execute directly on
/// user buffers without the library ever allocating or copying field data.
/// Grid{1,2,3}D (grid/grid.hpp) remain the library's allocators and convert
/// to views implicitly.
///
/// Views use *shallow const* semantics, like std::span: a `const FieldView&`
/// still hands out writable element access, because the view is a borrowed
/// reference to the caller's mutable buffer, not an owner. Executors take
/// `const FieldView&` parameters and write results through them.
///
/// Memory contract (what Grid guarantees and what raw caller buffers must
/// match — PreparedStencil::run validates it):
///  * interior element (0[,0,0]) is 64-byte aligned;
///  * the row stride is a multiple of 8 doubles, so the first interior
///    element of every row/plane is 64-byte aligned too;
///  * `halo` cells are addressable on each side of every dimension and hold
///    Dirichlet boundary values that executors read but never write.
#pragma once

#include <cstddef>

namespace sf {

/// Storage order of the elements a view covers. Executors transform
/// Natural input into their working layout and back on every call; views
/// tagged with a kernel's *preferred* layout (KernelInfo::preferred_layout,
/// Transposed for the register-transpose methods) execute resident — the
/// per-call involution is skipped, which is how streaming callers amortize
/// the transform across a run() stream (core/engine.hpp
/// to_resident_layout). The tag is a caller promise about the bytes; a
/// mismatched tag is rejected by PreparedStencil::run validation, never
/// silently misinterpreted.
enum class Layout {
  Natural,     ///< Plain row-major order (what Grid allocates).
  Transposed,  ///< Register-transpose layout (layout/transpose_layout.hpp).
  DLT,         ///< Dimension-lifting transpose (layout/dlt_layout.hpp).
};

/// Display name of a Layout ("natural", "transposed", "dlt").
inline const char* layout_name(Layout l) {
  switch (l) {
    case Layout::Natural: return "natural";
    case Layout::Transposed: return "transposed";
    case Layout::DLT: return "dlt";
  }
  return "?";
}

namespace detail {

/// What every field view carries whatever its dimensionality: the interior
/// pointer, the halo width and the layout tag. FieldView1D/2D/3D add their
/// extents and strides.
class ViewBase {
 public:
  /// Addressable halo cells on each side of each dimension.
  int halo() const { return halo_; }
  /// Storage-order tag of the wrapped memory.
  Layout layout() const { return layout_; }
  /// SIMD width (in doubles) the non-natural layout was built with — the
  /// transforms permute differently per width, so resident validation
  /// matches this against the prepared kernel's width. 0 on natural views
  /// (and on tags that never recorded one, which resident validation
  /// rejects: such bytes cannot be verified).
  int layout_width() const { return layout_w_; }
  /// True when the view wraps memory (default-constructed views do not).
  bool valid() const { return p_ != nullptr; }
  /// Pointer to the interior's first element (logical index 0 on every
  /// axis; the halo lies at negative offsets).
  double* data() const { return p_; }

 protected:
  /// An empty view (valid() is false).
  ViewBase() = default;
  /// Wraps caller memory whose interior element 0 is at `p`.
  ViewBase(double* p, int halo, Layout layout, int layout_width)
      : p_(p), halo_(halo), layout_(layout), layout_w_(layout_width) {}

  double* p_ = nullptr;  ///< Interior element 0.
  int halo_ = 0;         ///< Halo width.
  Layout layout_ = Layout::Natural;  ///< Storage-order tag.
  int layout_w_ = 0;     ///< SIMD width of a non-natural tag.
};

}  // namespace detail

/// Non-owning view of a 1-D halo field: n interior elements with `halo`
/// addressable cells on each side.
class FieldView1D : public detail::ViewBase {
 public:
  /// An empty view (valid() is false).
  FieldView1D() = default;
  /// Wraps caller memory; `interior` points at logical element 0 (halo at
  /// negative indices).
  FieldView1D(double* interior, int n, int halo,
              Layout layout = Layout::Natural, int layout_width = 0)
      : ViewBase(interior, halo, layout, layout_width), n_(n) {}

  /// Interior extent.
  int n() const { return n_; }
  /// Element access by logical index (halo at negative indices).
  double& at(int i) const { return p_[i]; }

  /// The same view re-tagged with `l` (no data movement). Non-natural tags
  /// should record the SIMD width the transform used (to_resident_layout
  /// does this automatically).
  FieldView1D with_layout(Layout l, int layout_width = 0) const {
    return FieldView1D(p_, n_, halo_, l, layout_width);
  }

 private:
  int n_ = 0;
};

/// Non-owning view of a 2-D halo field: ny x nx interior, rows `stride`
/// doubles apart.
class FieldView2D : public detail::ViewBase {
 public:
  /// An empty view (valid() is false).
  FieldView2D() = default;
  /// Wraps caller memory; `interior` points at logical element (0,0).
  FieldView2D(double* interior, int ny, int nx, int stride, int halo,
              Layout layout = Layout::Natural, int layout_width = 0)
      : ViewBase(interior, halo, layout, layout_width), ny_(ny), nx_(nx),
        stride_(stride) {}

  /// Interior row count.
  int ny() const { return ny_; }
  /// Interior row extent.
  int nx() const { return nx_; }
  /// Distance between consecutive rows, in doubles.
  int stride() const { return stride_; }
  /// Pointer to interior element (y, 0); y may range over the halo.
  double* row(int y) const {
    return p_ + static_cast<std::ptrdiff_t>(y) * stride_;
  }
  /// Element access by logical index (halo at negative indices).
  double& at(int y, int x) const { return row(y)[x]; }

  /// The same view re-tagged with `l` (no data movement); see
  /// FieldView1D::with_layout().
  FieldView2D with_layout(Layout l, int layout_width = 0) const {
    return FieldView2D(p_, ny_, nx_, stride_, halo_, l, layout_width);
  }

 private:
  int ny_ = 0, nx_ = 0, stride_ = 0;
};

/// Non-owning view of a 3-D halo field: nz x ny x nx interior, rows
/// `stride` doubles apart, planes `plane_stride` doubles apart.
class FieldView3D : public detail::ViewBase {
 public:
  /// An empty view (valid() is false).
  FieldView3D() = default;
  /// Wraps caller memory; `interior` points at logical element (0,0,0).
  FieldView3D(double* interior, int nz, int ny, int nx, int stride,
              std::size_t plane_stride, int halo,
              Layout layout = Layout::Natural, int layout_width = 0)
      : ViewBase(interior, halo, layout, layout_width), nz_(nz), ny_(ny),
        nx_(nx), stride_(stride), plane_(plane_stride) {}

  /// Interior plane count.
  int nz() const { return nz_; }
  /// Interior row count per plane.
  int ny() const { return ny_; }
  /// Interior row extent.
  int nx() const { return nx_; }
  /// Distance between consecutive rows, in doubles.
  int stride() const { return stride_; }
  /// Distance between consecutive planes, in doubles.
  std::size_t plane_stride() const { return plane_; }
  /// Pointer to interior element (z, y, 0); z/y may range over the halo.
  double* row(int z, int y) const {
    return p_ + static_cast<std::ptrdiff_t>(z) *
                    static_cast<std::ptrdiff_t>(plane_) +
           static_cast<std::ptrdiff_t>(y) * stride_;
  }
  /// Element access by logical index (halo at negative indices).
  double& at(int z, int y, int x) const { return row(z, y)[x]; }

  /// The same view re-tagged with `l` (no data movement); see
  /// FieldView1D::with_layout().
  FieldView3D with_layout(Layout l, int layout_width = 0) const {
    return FieldView3D(p_, nz_, ny_, nx_, stride_, plane_, halo_, l,
                       layout_width);
  }

 private:
  int nz_ = 0, ny_ = 0, nx_ = 0, stride_ = 0;
  std::size_t plane_ = 0;
};

}  // namespace sf
