// Transposed-resident prepared execution vs the per-call involution on
// short run() streams — the scenario the resident-layout API targets.
//
// The register-transpose kernels (Method::Ours) historically transformed
// both ping-pong buffers into the transpose layout on entry and back on
// exit of *every* run() call. For a long horizon that cost amortizes; for a
// streaming caller issuing many short run() calls it dominates. This
// bench prepares one handle per mode and times a stream of run(steps)
// calls over the same problem:
//
//   per-call  — natural-layout views; the kernel pays 4 full-grid
//               transform passes (a+b, in+out) per advance;
//   resident  — views transformed once via to_resident_layout and tagged
//               Layout::Transposed; every advance skips the involution;
//   +clean    — resident plus ExecOptions::halo_policy = Clean, which also
//               skips the per-call O(surface) halo re-sync (valid here:
//               kernels never write halos, so b's halo stays equal to a's
//               after the initial copy).
//
// The one-time transform in/out is charged to the resident modes' totals,
// so the reported win is end-to-end, not just the steady state.
#include <iostream>

#include "bench_util/harness.hpp"
#include "common/timing.hpp"
#include "grid/grid_utils.hpp"

namespace {

using namespace sf;

struct StreamResult {
  double seconds = 0;
  double gflops = 0;
};

/// Times `calls` run(steps) calls through `ps` on fresh grids of the
/// prepared shape, in the given mode. Dimension-generic over Grid type.
template <class Grid, class MakeGrid>
StreamResult time_stream(const PreparedStencil& ps, MakeGrid make, int calls,
                         int steps, bool resident) {
  Grid a = make();
  Grid b = make();
  fill_random(a, 42);
  copy(a, b);

  auto av = a.view();
  auto bv = b.view();
  Timer timer;
  if (resident) {
    av = to_resident_layout(ps, av);
    bv = to_resident_layout(ps, bv);
  }
  for (int c = 0; c < calls; ++c) ps.run(av, bv, steps);
  if (resident) {
    av = to_natural_layout(ps, av);
    bv = to_natural_layout(ps, bv);
  }
  do_not_optimize(a.data());
  StreamResult r;
  r.seconds = timer.seconds();
  r.gflops = flops_per_step(ps.spec(), ps.nx(), ps.ny(), ps.nz()) *
             static_cast<double>(calls) * steps / r.seconds / 1e9;
  return r;
}

/// One table row: per-call vs resident vs resident+clean for one preset.
void run_row(Table& t, Preset p, int calls, int steps) {
  const StencilSpec spec = preset(p);

  ExecOptions opts;
  opts.method = Method::Ours;  // the register-transpose kernel
  opts.tiling = Tiling::Off;   // short advances never amortize stages
  opts.tsteps = steps;
  PreparedStencil percall = Engine::instance().prepare(spec, {}, opts);
  if (percall.preferred_layout() != Layout::Transposed) return;  // no story

  opts.layout = Layout::Transposed;
  PreparedStencil res = Engine::instance().prepare(spec, {}, opts);
  opts.halo_policy = HaloPolicy::Clean;
  PreparedStencil clean = Engine::instance().prepare(spec, {}, opts);

  StreamResult base, resi, rescl;
  if (spec.dims == 1) {
    const int nx = static_cast<int>(percall.nx());
    auto make = [&] { return Grid1D(nx, percall.halo()); };
    base = time_stream<Grid1D>(percall, make, calls, steps, false);
    resi = time_stream<Grid1D>(res, make, calls, steps, true);
    rescl = time_stream<Grid1D>(clean, make, calls, steps, true);
  } else if (spec.dims == 2) {
    const int nx = static_cast<int>(percall.nx());
    const int ny = static_cast<int>(percall.ny());
    auto make = [&] { return Grid2D(ny, nx, percall.halo()); };
    base = time_stream<Grid2D>(percall, make, calls, steps, false);
    resi = time_stream<Grid2D>(res, make, calls, steps, true);
    rescl = time_stream<Grid2D>(clean, make, calls, steps, true);
  } else {
    const int nx = static_cast<int>(percall.nx());
    const int ny = static_cast<int>(percall.ny());
    const int nz = static_cast<int>(percall.nz());
    auto make = [&] { return Grid3D(nz, ny, nx, percall.halo()); };
    base = time_stream<Grid3D>(percall, make, calls, steps, false);
    resi = time_stream<Grid3D>(res, make, calls, steps, true);
    rescl = time_stream<Grid3D>(clean, make, calls, steps, true);
  }

  t.add_row({spec.name, std::to_string(spec.dims) + "D",
             std::to_string(calls) + "x" + std::to_string(steps),
             Table::num(base.gflops), Table::num(resi.gflops),
             Table::num(rescl.gflops), Table::num(resi.gflops / base.gflops) + "x",
             Table::num(rescl.gflops / base.gflops) + "x"});
}

}  // namespace

int main() {
  using namespace sf;
  const bool full = bench_full();
  // Streams of single-step advances: the worst case for the per-call
  // transform, and exactly the streaming pattern the Engine API targets.
  const int calls = full ? 400 : 100;
  const int steps = 1;

  Table t({"Stencil", "dims", "stream", "per-call GF/s", "resident GF/s",
           "resident+clean GF/s", "resident/x", "clean/x"});
  std::cout << "Resident-layout run() streams: transposed-resident "
               "execution vs per-call involution (method=ours, untiled, "
            << calls << " run(" << steps << ") calls)\n";
  for (Preset p : {Preset::Heat1D, Preset::P1D5, Preset::Heat2D,
                   Preset::Box2D9, Preset::Life, Preset::GB, Preset::Heat3D,
                   Preset::Box3D27}) {
    run_row(t, p, calls, steps);
  }
  bench::emit(t, "resident_layout");
  return 0;
}
