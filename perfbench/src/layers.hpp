// The traced run's per-layer probes, shared by every workload: each times
// one public entry point of a library layer on the workload's own prepared
// plan and grids, inside a span named after the layer.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "fold/cost_model.hpp"
#include "grid/grid.hpp"
#include "runtime/worker_pool.hpp"
#include "serving/server.hpp"
#include "telemetry/telemetry.hpp"
#include "tiling/split_tiling.hpp"

namespace pb {

// --- Per-dimension dispatch over the library's 1-D/2-D/3-D overloads. ------

inline const sf::Pattern1D& pattern(const sf::StencilSpec& s,
                                    const sf::FieldView1D&) {
  return s.p1;
}
inline const sf::Pattern2D& pattern(const sf::StencilSpec& s,
                                    const sf::FieldView2D&) {
  return s.p2;
}
inline const sf::Pattern3D& pattern(const sf::StencilSpec& s,
                                    const sf::FieldView3D&) {
  return s.p3;
}

inline double cells(const sf::FieldView1D& v) { return static_cast<double>(v.n()); }
inline double cells(const sf::FieldView2D& v) {
  return static_cast<double>(v.ny()) * static_cast<double>(v.nx());
}
inline double cells(const sf::FieldView3D& v) {
  return static_cast<double>(v.nz()) * static_cast<double>(v.ny()) *
         static_cast<double>(v.nx());
}

/// The registry executor of `k`, called directly (untiled, one thread).
inline void kernel_run(const sf::KernelInfo& k, const sf::StencilSpec& s,
                       const sf::FieldView1D& a, const sf::FieldView1D& b,
                       int t) {
  k.run1(s.p1, a, b, nullptr, nullptr, t);
}
inline void kernel_run(const sf::KernelInfo& k, const sf::StencilSpec& s,
                       const sf::FieldView2D& a, const sf::FieldView2D& b,
                       int t) {
  k.run2(s.p2, a, b, t);
}
inline void kernel_run(const sf::KernelInfo& k, const sf::StencilSpec& s,
                       const sf::FieldView3D& a, const sf::FieldView3D& b,
                       int t) {
  k.run3(s.p3, a, b, t);
}

inline void tile_run(const sf::StencilSpec& s, const sf::FieldView1D& a,
                     const sf::FieldView1D& b, int t, const sf::TilePlan& p) {
  sf::run_tile_plan(s.p1, a, b, nullptr, nullptr, t, p);
}
template <class V>
void tile_run(const sf::StencilSpec& s, const V& a, const V& b, int t,
              const sf::TilePlan& p) {
  sf::run_tile_plan(pattern(s, a), a, b, t, p);
}

/// Owning grid of the same shape as `v` with halo `halo`.
inline std::unique_ptr<sf::Grid1D> make_grid(const sf::FieldView1D& v, int halo,
                                             bool zero = true) {
  return std::make_unique<sf::Grid1D>(v.n(), halo, zero);
}
inline std::unique_ptr<sf::Grid2D> make_grid(const sf::FieldView2D& v, int halo,
                                             bool zero = true) {
  return std::make_unique<sf::Grid2D>(v.ny(), v.nx(), halo, zero);
}
inline std::unique_ptr<sf::Grid3D> make_grid(const sf::FieldView3D& v, int halo,
                                             bool zero = true) {
  return std::make_unique<sf::Grid3D>(v.nz(), v.ny(), v.nx(), halo, zero);
}

inline sf::Extents extents_of(const sf::FieldView1D& v) { return {v.n(), 0, 0}; }
inline sf::Extents extents_of(const sf::FieldView2D& v) { return {v.nx(), v.ny(), 0}; }
inline sf::Extents extents_of(const sf::FieldView3D& v) {
  return {v.nx(), v.ny(), v.nz()};
}

// --- Serving metrics ------------------------------------------------------

/// One request's record plus the batch it ran in.
struct ServedRequest {
  OpenLoopRecord rec;
  int batch = 0;
  double flops = 0;  ///< Useful flops the request computes.
};

/// serving.* and gen.* metrics over `reqs`, with the server's batch count.
void add_serving_metrics(Report& r, const std::vector<ServedRequest>& reqs,
                         const sf::ServerStats& stats);

/// ceiling.* metrics, then the self-time ledger of every span recorded
/// since `t_begin`: self_s.<layer> per layer, trace.uncovered_s (no span
/// open) and trace.total_s, which they add up to. Writes the spans to
/// `trace_out` when it is not empty.
void add_ceiling_and_ledger(Report& r, const Ceilings& c, double t_begin,
                            const std::string& trace_out);

/// Closed-loop serving probe for the solve workloads: `n` advance requests
/// of the workload's own plan through a default sf::Server, each sent when
/// the previous one was seen complete. Gives the serving layer's fixed
/// cost on a plan that is not served in production.
template <class V>
std::vector<ServedRequest> serve_closed_loop(const sf::PreparedStencil& ps,
                                             const V& a, const V& b,
                                             int nsteps, int n,
                                             sf::ServerStats* stats) {
  std::vector<ServedRequest> out;
  sf::Server server;
  double due = now();
  for (int i = 0; i < n; ++i) {
    ServedRequest q;
    q.rec.due = due;
    q.rec.sent = now();
    std::future<sf::ServeResult> fut;
    {
      Scope s("serving.submit");
      fut = server.submit("probe", ps, a, b, nsteps);
    }
    q.rec.submitted = now();
    sf::ServeResult res;
    {
      Scope s("serving.wait");
      res = fut.get();
    }
    q.rec.done = now();
    q.rec.queue = res.queue_seconds;
    q.rec.exec = res.exec_seconds;
    q.rec.ok = res.ok();
    q.batch = res.batch_size;
    out.push_back(q);
    due = q.rec.done;
  }
  *stats = server.stats();
  return out;
}

// --- Kernel / tiling / layout / runtime / core probes ----------------------

/// How hard each probe works on one workload.
struct ProbePlan {
  int threads;        ///< The workload's ExecOptions::threads.
  int kernel_steps;   ///< Steps of the direct single-thread kernel call.
  int sweep_steps;    ///< Horizon of the core.auto_regret sweep.
  double min_seconds; ///< Minimum timing window of each small probe.
};

/// layout.transform_ms: the resident-layout round trip on field `a`. One
/// span covers the whole timing loop: a round trip can take well under a
/// microsecond, and a span per call would time the tracer.
template <class V>
void probe_layout(Report& r, const sf::PreparedStencil& ps, const V& a,
                  double min_seconds) {
  Scope s("layout.round_trip");
  const double t = time_median(
      [&] { sf::to_natural_layout(ps, sf::to_resident_layout(ps, a)); }, 3,
      min_seconds);
  r.add("layout.transform_ms", t * 1e3, "ms");
}

/// Fills a Report with the kernel.*, tiling.*, runtime.dispatch_us,
/// core.auto_regret, plan.* and engine.run_overhead_s metrics of `ps` on
/// the grids (a, b). `run_s` is the median traced PreparedStencil::run time
/// of `steps` steps. The grids' contents are overwritten.
template <class V>
void probe_layers(Report& r, const sf::PreparedStencil& ps, const V& a,
                  const V& b, int steps, double run_s, const ProbePlan& pp,
                  const Ceilings& c) {
  const sf::StencilSpec& spec = ps.spec();
  const sf::KernelInfo& k = ps.kernel();
  const sf::ExecutionPlan& plan = ps.plan();
  const double ncell = cells(a);
  const double fpc = static_cast<double>(pattern(spec, a).flops_per_point());
  const int m = std::max(1, k.fold_depth);

  r.add("plan.tiled", plan.tiled ? 1 : 0, "bool");
  r.add("plan.tile", plan.tiled ? plan.tile.tile : 0, "count");
  r.add("plan.time_block", plan.tiled ? plan.tile.time_block : 0, "count");
  r.add("plan.levels", plan.tiled ? plan.tile.levels : 0, "count");

  // Kernel: the selected executor, direct, untiled, on this thread.
  const double t_kernel = time_median(
      [&] {
        Scope s("kernel.run");
        kernel_run(k, spec, a, b, pp.kernel_steps);
      },
      1, pp.min_seconds);
  const double kgf = gflops(fpc, ncell, pp.kernel_steps, t_kernel);
  const double collects =
      static_cast<double>(sf::profitability(pattern(spec, a), m).folded_vec) / m;
  const double fma_core = k.isa == sf::Isa::Avx512 ? c.fma_gflops_avx512
                          : k.isa == sf::Isa::Avx2 ? c.fma_gflops_avx2
                                                   : c.fma_gflops_avx2 / 4.0;
  // Computed bytes: one read of `a` and one write of `b` per cell per
  // kernel sweep, and a folded sweep advances m steps.
  const double bytes_cell = 16.0 / m;
  auto roof = [&](double peak, double bw, double bytes) {
    return std::min(peak, bw * fpc / bytes);
  };
  r.add("kernel.gflops", kgf, "GFLOP/s");
  r.add("kernel.collects_per_cell", collects, "count");
  r.add("kernel.fma_frac",
        gflops(2.0 * collects, ncell, pp.kernel_steps, t_kernel) / fma_core,
        "fraction");
  r.add("kernel.bytes_per_cell", bytes_cell, "B");
  r.add("kernel.roofline_frac", kgf / roof(fma_core, c.triad_gbs_1t, bytes_cell),
        "fraction");

  // Tiling: the prepared TilePlan run directly (the same work as run()).
  sf::TilePlan tp = plan.tile;
  tp.method = k.method;
  tp.isa = k.isa;
  if (tp.threads == 0) tp.threads = pp.threads;
  const double t_tile = time_median(
      [&] {
        Scope s("tiling.run_tile_plan");
        tile_run(spec, a, b, steps, tp);
      },
      1, pp.min_seconds);
  const double tgf = gflops(fpc, ncell, steps, t_tile);
  // A tiled plan streams each cell from memory once per time block.
  const double tile_bytes =
      plan.tiled ? 16.0 / std::max(1, plan.tile.time_block) : bytes_cell;
  r.add("tiling.gflops", tgf, "GFLOP/s");
  r.add("tiling.speedup_1t", tgf / kgf, "x");
  r.add("tiling.efficiency", tgf / kgf / tp.threads, "fraction");
  r.add("tiling.bytes_per_cell", tile_bytes, "B");
  r.add("tiling.roofline_frac",
        tgf / roof(fma_core * tp.threads, c.triad_gbs, tile_bytes), "fraction");

  // Engine overhead: run() minus the direct call that does its work.
  double t_direct = t_tile;
  if (!plan.tiled) {
    t_direct = time_median(
        [&] {
          Scope s("kernel.run");
          kernel_run(k, spec, a, b, steps);
        },
        1, pp.min_seconds);
  }
  r.add("engine.run_overhead_s", run_s - t_direct, "s");

  // Runtime: an empty dispatch round trip on the plan's pool size.
  {
    auto pool = sf::shared_pool(pp.threads, sf::Affinity::None);
    Scope s("runtime.parallel_for");
    const double t = time_median(
        [&] { pool->parallel_for(0, pp.threads, [](int) {}); }, 200,
        std::min(pp.min_seconds, 0.2));
    r.add("runtime.dispatch_us", t * 1e6, "us");
  }

  // Core: every registered vector kernel of these dims, explicitly prepared
  // on the same extents and threads, against what Auto selects. Scalar
  // entries are the portable fallbacks; Isa::Auto never picks them on a
  // host with a vector ISA, and on the large grids they would dominate the
  // traced run's time.
  auto sweep_gflops = [&](const sf::ExecOptions& eo) {
    sf::PreparedStencil cp;
    {
      Scope s("engine.prepare");
      cp = sf::Engine::instance().prepare(spec, extents_of(a), eo);
    }
    decltype(make_grid(a, 1)) ga, gb;
    V va = a, vb = b;
    if (cp.halo() > a.halo()) {
      ga = make_grid(a, cp.halo());
      gb = make_grid(a, cp.halo());
      va = ga->view();
      vb = gb->view();
    }
    const double t = time_median(
        [&] {
          Scope s("engine.run");
          cp.run(va, vb, pp.sweep_steps);
        },
        1, pp.min_seconds);
    return gflops(fpc, ncell, pp.sweep_steps, t);
  };
  sf::ExecOptions eo;
  eo.threads = pp.threads;
  eo.tsteps = pp.sweep_steps;
  const double selected = sweep_gflops(eo);
  double best = 0;
  for (const sf::KernelInfo* cand : sf::available_kernels(spec.dims)) {
    if (cand->isa == sf::Isa::Scalar) continue;
    eo.method = cand->method;
    eo.isa = cand->isa;
    best = std::max(best, sweep_gflops(eo));
  }
  r.add("core.auto_regret", best / selected, "x");
}

}  // namespace pb
