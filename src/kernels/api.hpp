// Kernel method identifiers and executor signatures.
//
// Every kernel advances a Jacobi problem `tsteps` steps and leaves the final
// state in field `a` (field `b` is scratch of identical shape/halo). Halos
// are Dirichlet and never written. All kernels accept the stencil pattern at
// runtime, so the same code serves every Table-1 benchmark.
//
// Executors take zero-copy FieldViews (grid/field_view.hpp) over
// caller-owned memory; Grids convert implicitly. Natural-layout views are
// transformed into the kernel's working layout and back on every call;
// views tagged with the kernel's preferred layout
// (KernelInfo::preferred_layout) execute resident, skipping the per-call
// transform (see core/engine.hpp).
//
// Kernel lookup lives in kernels/registry.hpp: executors self-register with
// capability metadata (dims, ISA, halo, fold depth) and are found by method
// enum or string key.
#pragma once

#include <string>

#include "common/cpu.hpp"
#include "grid/grid.hpp"
#include "stencil/pattern.hpp"

namespace sf {

/// The vectorization/folding strategies compared throughout the paper.
enum class Method {
  Naive,          // scalar loops (compiler may auto-vectorize)
  MultipleLoads,  // one unaligned vector load per tap
  DataReorg,      // aligned loads + in-register shifts
  DLT,            // dimension-lifting transpose (Henretty)
  Ours,           // paper's register-transpose layout, 1-step
  Ours2,          // + temporal computation folding, m = 2
  Auto,           // Solver picks via the fold cost model (not a kernel)
};

const char* method_name(Method m);

/// 1-D kernels optionally take a time-invariant source: step = p(A)+src(K)
/// (the APOP benchmark; src/k are null for the other stencils).
using Run1D = void (*)(const Pattern1D& p, const FieldView1D& a,
                       const FieldView1D& b, const Pattern1D* src,
                       const FieldView1D* k, int tsteps);
using Run2D = void (*)(const Pattern2D& p, const FieldView2D& a,
                       const FieldView2D& b, int tsteps);
using Run3D = void (*)(const Pattern3D& p, const FieldView3D& a,
                       const FieldView3D& b, int tsteps);

}  // namespace sf
