// Halo grids over aligned storage.
//
// Semantics shared by every executor in this library: the *interior* is
// updated each time step, the *halo* (width chosen at construction) holds
// Dirichlet boundary values that are written once at initialization and never
// touched again. All optimized kernels must produce exactly the values the
// naive reference produces under these semantics.
//
// Layout guarantees:
//  * element (0[,0,0]) of the interior is 64-byte aligned,
//  * row stride is a multiple of 8 doubles, so the first interior element of
//    *every* row/plane is 64-byte aligned too.
#pragma once

#include <cstdint>
#include <random>

#include "common/aligned_buffer.hpp"
#include "grid/field_view.hpp"

namespace sf {

class Grid1D {
 public:
  /// `zero_init = false` defers the page-placing first write to the caller
  /// (see AlignedBuffer; used with PreparedStencil::first_touch so a
  /// pinned worker pool places each worker's tiles on its NUMA node).
  Grid1D(int n, int halo, bool zero_init = true)
      : n_(n), halo_(halo), off_(static_cast<int>(round_up(halo, 8))),
        buf_(off_ + round_up(n + halo, 8), zero_init) {}

  int n() const { return n_; }
  int halo() const { return halo_; }

  /// Pointer to interior element 0; valid indices are [-halo, n+halo).
  double* data() { return buf_.data() + off_; }
  const double* data() const { return buf_.data() + off_; }

  double& at(int i) { return data()[i]; }
  double at(int i) const { return data()[i]; }

  /// Zero-copy view of this grid's storage (Layout::Natural). Views have
  /// shallow-const semantics (see grid/field_view.hpp), so even a const
  /// grid yields a writable view — borrowed grids can be passed wherever
  /// executors expect views.
  FieldView1D view() const {
    return FieldView1D(const_cast<Grid1D*>(this)->data(), n_, halo_);
  }
  operator FieldView1D() const { return view(); }

 private:
  int n_, halo_, off_;
  AlignedBuffer buf_;
};

class Grid2D {
 public:
  /// `zero_init` as in Grid1D.
  Grid2D(int ny, int nx, int halo, bool zero_init = true)
      : ny_(ny), nx_(nx), halo_(halo),
        xoff_(static_cast<int>(round_up(halo, 8))),
        stride_(static_cast<int>(round_up(xoff_ + nx + halo, 8))),
        buf_(static_cast<std::size_t>(stride_) * (ny + 2 * halo),
             zero_init) {}

  int ny() const { return ny_; }
  int nx() const { return nx_; }
  int halo() const { return halo_; }
  int stride() const { return stride_; }

  /// Pointer to interior element (0,0); valid (y,x) with y in [-halo,ny+halo)
  /// and x in [-halo, nx+halo).
  double* data() { return buf_.data() + static_cast<std::size_t>(halo_) * stride_ + xoff_; }
  const double* data() const {
    return buf_.data() + static_cast<std::size_t>(halo_) * stride_ + xoff_;
  }

  double* row(int y) { return data() + static_cast<std::ptrdiff_t>(y) * stride_; }
  const double* row(int y) const {
    return data() + static_cast<std::ptrdiff_t>(y) * stride_;
  }

  double& at(int y, int x) { return row(y)[x]; }
  double at(int y, int x) const { return row(y)[x]; }

  /// Zero-copy view of this grid's storage; see Grid1D::view().
  FieldView2D view() const {
    return FieldView2D(const_cast<Grid2D*>(this)->data(), ny_, nx_, stride_,
                       halo_);
  }
  operator FieldView2D() const { return view(); }

 private:
  int ny_, nx_, halo_, xoff_, stride_;
  AlignedBuffer buf_;
};

class Grid3D {
 public:
  /// `zero_init` as in Grid1D.
  Grid3D(int nz, int ny, int nx, int halo, bool zero_init = true)
      : nz_(nz), ny_(ny), nx_(nx), halo_(halo),
        xoff_(static_cast<int>(round_up(halo, 8))),
        stride_(static_cast<int>(round_up(xoff_ + nx + halo, 8))),
        plane_(static_cast<std::size_t>(stride_) * (ny + 2 * halo)),
        buf_(plane_ * (nz + 2 * halo), zero_init) {}

  int nz() const { return nz_; }
  int ny() const { return ny_; }
  int nx() const { return nx_; }
  int halo() const { return halo_; }
  int stride() const { return stride_; }
  std::size_t plane_stride() const { return plane_; }

  double* data() {
    return buf_.data() + static_cast<std::size_t>(halo_) * plane_ +
           static_cast<std::size_t>(halo_) * stride_ + xoff_;
  }
  const double* data() const {
    return const_cast<Grid3D*>(this)->data();
  }

  double* row(int z, int y) {
    return data() + static_cast<std::ptrdiff_t>(z) * static_cast<std::ptrdiff_t>(plane_) +
           static_cast<std::ptrdiff_t>(y) * stride_;
  }
  const double* row(int z, int y) const {
    return const_cast<Grid3D*>(this)->row(z, y);
  }

  double& at(int z, int y, int x) { return row(z, y)[x]; }
  double at(int z, int y, int x) const { return row(z, y)[x]; }

  /// Zero-copy view of this grid's storage; see Grid1D::view().
  FieldView3D view() const {
    return FieldView3D(const_cast<Grid3D*>(this)->data(), nz_, ny_, nx_,
                       stride_, plane_, halo_);
  }
  operator FieldView3D() const { return view(); }

 private:
  int nz_, ny_, nx_, halo_, xoff_, stride_;
  std::size_t plane_;
  AlignedBuffer buf_;
};

}  // namespace sf
