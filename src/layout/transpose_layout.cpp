#include "layout/transpose_layout.hpp"

#include <stdexcept>

namespace sf {

template <class View>
void apply_transpose_layout_slab(const View& g, int w, long lo, long hi) {
  switch (w) {
    case 1: break;
    case 4: grid_transpose_layout_slab<4>(g, lo, hi); break;
    case 8: grid_transpose_layout_slab<8>(g, lo, hi); break;
    default: throw std::invalid_argument("unsupported SIMD width");
  }
}

template void apply_transpose_layout_slab(const FieldView1D&, int, long, long);
template void apply_transpose_layout_slab(const FieldView2D&, int, long, long);
template void apply_transpose_layout_slab(const FieldView3D&, int, long, long);

}  // namespace sf
