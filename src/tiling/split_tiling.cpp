#include "tiling/split_tiling.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "fold/folding_plan.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/kernels2d_impl.hpp"
#include "kernels/kernels3d_impl.hpp"
#include "kernels/tl_access.hpp"
#include "layout/dlt_layout.hpp"
#include "layout/transpose_layout.hpp"
#include "simd/vecd.hpp"
#include "stencil/reference.hpp"
#include "telemetry/telemetry.hpp"

namespace sf {
namespace {

using detail::folded2d_advance;
using detail::folded3d_advance;
using detail::step_planes_dlt3d;
using detail::step_planes_tl3d;
using detail::step_region_ml2d;
using detail::step_region_ml3d;
using detail::step_rows_dlt2d;
using detail::step_rows_tl2d;

template <int W>
using V = simd::vecd<W>;

/// Geometry/schedule parameters of one wedge run (time in super-steps).
struct WedgePlan {
  int n = 0;      // extent of the tiled dimension
  int slope = 0;  // shift per super-step (m * r)
  int tile = 0;
  int H = 0;      // super-steps per time block
  int threads = 1;
  int levels = 1;  // engaged tile-tree depth (TilePlan::levels)
  Affinity affinity = Affinity::None;
  bool blocked = true;  // false: domain too small, run unblocked
};

/// Internal view of negotiate_wedge() with time measured in super-steps.
WedgePlan make_plan(int n, int slope, int super_steps, const TilePlan& opt,
                    int fold_m, long slice_bytes) {
  const int m = std::max(1, fold_m);
  const WedgeGeometry g =
      negotiate_wedge(n, slope, m, super_steps * m, opt, slice_bytes);
  WedgePlan w;
  w.n = n;
  w.slope = slope;
  w.tile = g.tile;
  w.H = std::max(1, g.time_block / m);
  w.threads = g.threads;
  w.levels = std::max(1, opt.levels);
  w.affinity = opt.affinity;
  w.blocked = g.blocked;
  return w;
}

/// True when the wedge schedule will run its point-to-point pipelined path:
/// a real pool, more than one worker, and the caller is not itself a worker
/// of that pool (a nested pipelined task cannot run inline — worker w's
/// waits on w+1 would never be satisfied in index order — so nested runs
/// take the serial walk on the calling worker).
bool pipelined_schedule(WorkerPool* pool) {
  return pool != nullptr && pool->threads() > 1 && !pool->on_worker_thread();
}

/// The pool of a wedge plan: the shared (threads, affinity) pool for
/// parallel blocked runs, none for serial ones (a one-worker stage runs
/// inline on the calling thread, exactly like the old OpenMP master).
std::shared_ptr<WorkerPool> plan_pool(const WedgePlan& w) {
  if (!w.blocked || w.threads <= 1) return nullptr;
  return shared_pool(w.threads, w.affinity);
}

/// The generic wedge schedule (tiles = triangles, boundaries = inverted
/// triangles; Jacobi parity buffers make partial-level reads exact).
/// adv(in, out, lo, hi, worker) performs one super-step on [lo, hi) of the
/// tiled dimension (`worker` is the executing pool worker, -1 on the
/// calling thread). The buffer-parity cursor is passed *by value* into each
/// stage call — explicit per (worker, round) state, never a shared variable
/// a pipelined worker could read torn while another advances it.
///
/// Every worker walks exactly the tile range the balanced_placement()
/// ownership map assigns it — the same contiguous chunks OpenMP's
/// schedule(static) produced, and the same map the planner reports
/// (ExecutionPlan::placement) and first_touch() initializes by, so a
/// worker's tiles stay on its NUMA node across all super-steps.
///
/// That per-worker tile loop is also how the schedule walks a hierarchical
/// tile tree (core/execution_plan.hpp TileTree): the worker's owned range
/// [t0, t1) *is* the top (shard) level, each owned tile is one mid-level
/// (LLC-capped, leaf-rounded) tile, and one wedge is the leaf execution.
/// Flat plans are the degenerate one-tile-per-worker walk.
///
/// Tree plans (w.levels >= 2) additionally *fuse* the two sweeps: the
/// inverted wedge at an interior tile boundary kt depends only on the up
/// wedges at kt-1 and kt (the blocked-geometry guarantee keeps every other
/// wedge pair disjoint), so the walk runs up(kt) immediately followed by
/// down(kt) and the flank rows the down wedge consumes are the ones the two
/// preceding up wedges just wrote — reuse distance of one LLC-sized tile
/// instead of the worker's whole shard (the flat walk sweeps all ups, then
/// re-reads everything for the downs). Only the boundary wedge at t0 reads
/// another worker's rows; it stays behind the same neighbor wait as the
/// flat walk. The wedge set and every wedge's inputs are identical — each
/// (row, parity) value is written exactly once per block by the same adv
/// call — so results are bitwise equal across tree depths and the
/// NeighborSync protocol stays per *worker*, i.e. at the top level only.
///
/// Two walks execute that identical wedge set (bitwise-identical results;
/// only the executing threads differ):
///
///  * Serial (no pool, or a one-worker pool, or a run nested on a worker of
///    its own pool): the calling thread walks all tiles in order — every
///    up wedge of a block, then every down wedge (fused per tile for tree
///    plans). This is also the oracle the schedule fuzz compares against.
///
///  * Pipelined (pipelined_schedule()): one long-lived task per worker with
///    point-to-point NeighborSync counters. Worker w publishes seq = 2b+1
///    after its up stage of block b and seq = 2b+2 after its down stage.
///    With contiguous ownership exactly two waits cover every cross-worker
///    hazard: before up(b>0), wait seq[w+1] >= 2b — the boundary wedge at
///    tile t1 (owned by w+1) rewrote rows w's top tile reads, and w's own
///    up writes into rows that down wedge read (RAW + WAR in one edge);
///    before down(b), wait seq[w-1] >= 2b+1 — the down wedge at tile t0
///    reads w-1's up flank below t0*tile. All remaining stage overlaps are
///    disjoint by the blocked-geometry guarantee tile >= (2H+1)*slope.
///    Edge workers skip the missing-neighbor wait; empty-range workers
///    (ntiles < workers) execute nothing but still publish every round, so
///    neighbors indexed past them never deadlock.
///
/// `prologue(t0, t1, wk)`, when set, runs on each worker before its first
/// up stage (pipelined path only — callers must gate on
/// pipelined_schedule()): the resident-layout transform of the worker's own
/// rows overlaps the first super-step instead of serializing in front of
/// it. No extra sync edge is needed: up(0) reads only the worker's own rows
/// (plus domain-end halo rows, owned by the same edge worker), and down(0)
/// already waits on w-1's up(0) publish, which transitively orders w-1's
/// prologue.
template <class G, class Adv>
int wedge_schedule(G& a, G& b, const WedgePlan& w, int super_steps, Adv&& adv,
                   WorkerPool* pool,
                   const std::function<void(int, int, int)>& prologue = {}) {
  G* bufs[2] = {&a, &b};
  const int ntiles = (w.n + w.tile - 1) / w.tile;
  const int nworkers = pool != nullptr ? pool->threads() : 1;
  const PlacementPlan place = balanced_placement(ntiles, nworkers, w.affinity);
  // Schedule-shape telemetry, resolved once per process at the first tiled
  // run (function-local statics: the wedge entry is too hot for a registry
  // lookup per call). One add per *schedule*, never per tile or cell.
  struct WedgeTelemetry {
    telemetry::Counter pipelined_runs =
        telemetry::counter("tiling.wedge.pipelined_runs");
    telemetry::Counter serial_runs =
        telemetry::counter("tiling.wedge.serial_runs");
    telemetry::Counter blocks = telemetry::counter("tiling.wedge.blocks");
    telemetry::Counter tree_runs =
        telemetry::counter("tiling.wedge.tree_runs");
  };
  static const WedgeTelemetry wt;
  const long nblocks = w.H > 0 ? (super_steps + w.H - 1) / w.H : 0;
  // A schedule counts as a tree run when its geometry was negotiated at
  // depth >= 2: LLC-capped tiles per worker, walked with the fused
  // up/down traversal (see above).
  const bool fused = w.levels >= 2;
  if (fused) wt.tree_runs.add(1);
  auto up_tile = [&](int kt, int hb, int cur, int wk) {
    const int x0 = kt * w.tile;
    const int x1 = std::min(w.n, x0 + w.tile);
    for (int sg = 1; sg <= hb; ++sg) {
      const int lo = x0 == 0 ? 0 : x0 + sg * w.slope;
      const int hi = x1 == w.n ? w.n : x1 - sg * w.slope;
      if (lo < hi)
        adv(*bufs[(cur + sg - 1) & 1], *bufs[(cur + sg) & 1], lo, hi, wk);
    }
  };
  auto down_tile = [&](int kt, int hb, int cur, int wk) {
    const int xc = kt * w.tile;
    for (int sg = 1; sg <= hb; ++sg) {
      const int lo = std::max(0, xc - sg * w.slope);
      const int hi = std::min(w.n, xc + sg * w.slope);
      adv(*bufs[(cur + sg - 1) & 1], *bufs[(cur + sg) & 1], lo, hi, wk);
    }
  };
  if (pipelined_schedule(pool)) {
    wt.pipelined_runs.add(1);
    wt.blocks.add(nblocks);
    telemetry::Span span("tiling.wedge.pipelined");
    pool->run_pipelined([&](int wk, NeighborSync& sync) {
      const auto [t0, t1] = place.tiles_of(wk);
      if (prologue) prologue(t0, t1, wk);
      int cur = 0;
      long b = 0;
      for (int s0 = 0; s0 < super_steps; s0 += w.H, ++b) {
        const int hb = std::min(w.H, super_steps - s0);
        if (b > 0 && wk + 1 < nworkers) sync.wait_for(wk + 1, 2 * b);
        test_jitter_stall(wk);
        for (int kt = t0; kt < t1; ++kt) {
          up_tile(kt, hb, cur, wk);
          // Tree walk: the interior inverted wedge at kt needs only the up
          // wedges at kt-1 and kt — consume their flanks while resident.
          if (fused && kt > t0) down_tile(kt, hb, cur, wk);
        }
        sync.publish(wk, 2 * b + 1);
        if (wk > 0) sync.wait_for(wk - 1, 2 * b + 1);
        test_jitter_stall(wk);
        if (fused) {
          // Only the boundary wedge at t0 (reads w-1's up flank) is left.
          if (t0 >= 1 && t0 < t1) down_tile(t0, hb, cur, wk);
        } else {
          for (int kt = std::max(1, t0); kt < t1; ++kt)
            down_tile(kt, hb, cur, wk);
        }
        sync.publish(wk, 2 * b + 2);
        cur = (cur + hb) & 1;
      }
    });
    // Every worker advanced parity identically; recompute, don't share.
    int cursor = 0;
    for (int s0 = 0; s0 < super_steps; s0 += w.H)
      cursor = (cursor + std::min(w.H, super_steps - s0)) & 1;
    return cursor;
  }
  wt.serial_runs.add(1);
  wt.blocks.add(nblocks);
  telemetry::Span span("tiling.wedge.serial");
  int cursor = 0;
  for (int s0 = 0; s0 < super_steps; s0 += w.H) {
    const int hb = std::min(w.H, super_steps - s0);
    if (fused) {
      for (int kt = 0; kt < ntiles; ++kt) {
        up_tile(kt, hb, cursor, -1);
        if (kt >= 1) down_tile(kt, hb, cursor, -1);
      }
    } else {
      for (int kt = 0; kt < ntiles; ++kt) up_tile(kt, hb, cursor, -1);
      for (int kt = 1; kt < ntiles; ++kt) down_tile(kt, hb, cursor, -1);
    }
    cursor = (cursor + hb) & 1;
  }
  return cursor;
}

// ---------------------------------------------------------------------------
// 1-D advancers (region [lo, hi) of x)
// ---------------------------------------------------------------------------

/// One step over [lo, hi) of a transposed row: whole vector sets inside the
/// region go vectorized, partial sets scalar through the index map.
template <int W>
void tl_region_step_1d(const Pattern1D& p, const Pattern1D* src,
                       const double* kk, int n, const double* in_p,
                       double* out_p, int lo, int hi) {
  const int bs = W * W;
  const int r = p.radius();
  TLRow<W> in(in_p, n);
  TLRow<W> kin(kk != nullptr ? kk : in_p, n);

  auto scalar_span = [&](int s0, int s1) {
    for (int i = s0; i < s1; ++i) {
      double acc = 0;
      for (const auto& t : p.taps) acc += t.w * in.logical(i + t.off[0]);
      if (src != nullptr)
        for (const auto& t : src->taps) acc += t.w * kin.logical(i + t.off[0]);
      out_p[tl_index<W>(i, n)] = acc;
    }
  };

  const int b0 = (lo + bs - 1) / bs;
  const int b1 = std::min(hi / bs, in.nb);
  if (b0 >= b1) {
    scalar_span(lo, hi);
    return;
  }
  scalar_span(lo, b0 * bs);
  V<W> vv[3 * W];
  V<W> vk[3 * W];
  const int sr = src != nullptr ? src->radius() : 0;
  for (int blk = b0; blk < b1; ++blk) {
    for (int i = 0; i < W + 2 * r; ++i) vv[i] = in.vec(blk, i - r);
    if (src != nullptr)
      for (int i = 0; i < W + 2 * sr; ++i) vk[i] = kin.vec(blk, i - sr);
    for (int j = 0; j < W; ++j) {
      V<W> acc = V<W>::zero();
      for (const auto& t : p.taps)
        acc = V<W>::fma(V<W>::set1(t.w), vv[j + t.off[0] + r], acc);
      if (src != nullptr)
        for (const auto& t : src->taps)
          acc = V<W>::fma(V<W>::set1(t.w), vk[j + t.off[0] + sr], acc);
      acc.store(out_p + blk * bs + j * W);
    }
  }
  scalar_span(b1 * bs, hi);
}

/// Folded (m = 2) super-step over [lo, hi) of a transposed row, with a
/// private-buffer boundary correction where the region touches the domain
/// ends (the folded expansion assumes the halo advances in time).
template <int W>
void tl_folded_region_step_1d(const Pattern1D& p, const Pattern1D& lam,
                              const Pattern1D* src, const Pattern1D* fsrc,
                              const double* kk, int n, const double* in_p,
                              double* out_p, int lo, int hi) {
  tl_region_step_1d<W>(lam, fsrc, kk, n, in_p, out_p, lo, hi);

  const int r = p.radius();
  if (r == 0) return;
  TLRow<W> in(in_p, n);
  TLRow<W> kin(kk != nullptr ? kk : in_p, n);
  auto stepwise_at = [&](int i, const std::function<double(int)>& level) {
    double acc = 0;
    for (const auto& t : p.taps) acc += t.w * level(i + t.off[0]);
    if (src != nullptr)
      for (const auto& t : src->taps) acc += t.w * kin.logical(i + t.off[0]);
    return acc;
  };
  for (int side = 0; side < 2; ++side) {
    const int r0 = side == 0 ? 0 : std::max(n - r, 0);
    const int r1 = side == 0 ? std::min(r, n) : n;
    const int f0 = std::max(r0 - r, 0), f1 = std::min(r1 + r, n);
    if (std::max(r0, lo) >= std::min(r1, hi)) continue;
    std::vector<double> t1(static_cast<std::size_t>(f1 - f0));
    std::function<double(int)> lvl0 = [&](int i) { return in.logical(i); };
    for (int i = f0; i < f1; ++i)
      t1[static_cast<std::size_t>(i - f0)] = stepwise_at(i, lvl0);
    std::function<double(int)> lvl1 = [&](int i) {
      if (i < f0 || i >= f1) return in.logical(i);  // halo never advances
      return t1[static_cast<std::size_t>(i - f0)];
    };
    for (int i = std::max(r0, lo); i < std::min(r1, hi); ++i)
      out_p[tl_index<W>(i, n)] = stepwise_at(i, lvl1);
  }
}

// ---------------------------------------------------------------------------
// Per-dimension stages of the tiled engine
// ---------------------------------------------------------------------------

/// The per-dimension step functions behind the 2-D/3-D Stage.
template <class View>
struct StageKernels;

/// The 2-D row-range step functions (tiled axis y).
template <>
struct StageKernels<FieldView2D> {
  template <int W>
  static void step_tl(const Pattern2D& p, const FieldView2D& in,
                      const FieldView2D& out, int lo, int hi) {
    step_rows_tl2d<W>(p, in, out, lo, hi);
  }
  template <int W>
  static void step_dlt(const Pattern2D& p, const FieldView2D& in,
                       const FieldView2D& out, int lo, int hi) {
    step_rows_dlt2d<W>(p, in, out, lo, hi);
  }
  template <int W>
  static void folded(const Pattern2D& p, const FoldingPlan& plan,
                     const Pattern2D& lam, const FieldView2D& in,
                     const FieldView2D& out, WorkerPool*, int, int lo,
                     int hi) {
    folded2d_advance<W>(p, plan, lam, in, out, /*reuse=*/true, lo, hi);
  }
  template <int W>
  static void step_whole(const Pattern2D& p, const FieldView2D& in,
                         const FieldView2D& out) {
    step_region_ml2d<W>(p, in, out, 0, in.ny(), 0, in.nx());
  }
  static void naive(const Pattern2D& p, const FieldView2D& in,
                    const FieldView2D& out, int lo, int hi) {
    apply_pattern(p, in, out, lo, hi, 0, in.nx());
  }
  /// The folded 2-D advance keeps no per-worker window.
  static detail::Folded3DWindowShape window_shape(const FoldingPlan&, int,
                                                  int) {
    return {};
  }
};

/// The 3-D plane-range step functions (tiled axis z).
template <>
struct StageKernels<FieldView3D> {
  template <int W>
  static void step_tl(const Pattern3D& p, const FieldView3D& in,
                      const FieldView3D& out, int lo, int hi) {
    step_planes_tl3d<W>(p, in, out, lo, hi);
  }
  template <int W>
  static void step_dlt(const Pattern3D& p, const FieldView3D& in,
                       const FieldView3D& out, int lo, int hi) {
    step_planes_dlt3d<W>(p, in, out, lo, hi);
  }
  template <int W>
  static void folded(const Pattern3D& p, const FoldingPlan& plan,
                     const Pattern3D& lam, const FieldView3D& in,
                     const FieldView3D& out, WorkerPool* pool, int wk, int lo,
                     int hi) {
    // The sliding plane window lives in the owning worker's pool arena
    // (allocated there by the pipelined prologue, so its pages sit on the
    // worker's NUMA node). The serial walk (wk == -1) uses a
    // calling-thread-local window.
    thread_local std::vector<AlignedBuffer> tls_window;
    std::vector<AlignedBuffer>& window =
        pool != nullptr && wk >= 0 ? pool->arena(wk) : tls_window;
    folded3d_advance<W>(p, plan, lam, in, out, window, lo, hi);
  }
  template <int W>
  static void step_whole(const Pattern3D& p, const FieldView3D& in,
                         const FieldView3D& out) {
    step_region_ml3d<W>(p, in, out, 0, in.nz(), 0, in.ny(), 0, in.nx());
  }
  static void naive(const Pattern3D& p, const FieldView3D& in,
                    const FieldView3D& out, int lo, int hi) {
    apply_pattern(p, in, out, lo, hi, 0, in.ny(), 0, in.nx());
  }
  static detail::Folded3DWindowShape window_shape(const FoldingPlan& plan,
                                                  int nx, int W) {
    return detail::folded3d_window_shape(plan, nx, W);
  }
};

/// What a tiled run does around and inside the wedge schedule, for one
/// view type: the constructor moves the pair into the method's working
/// layout, step() advances one super-step over [lo, hi) of the tiled axis,
/// remainder() takes one plain step over the whole domain (the odd step of
/// a folded run), prologue() is the pipelined schedule's per-worker slot
/// (see wedge_schedule) and finish() restores the caller's layout. The
/// primary template serves 2-D and 3-D through StageKernels; 1-D is the
/// specialization below.
template <int W, class View>
class Stage {
  using K = StageKernels<View>;
  using P = Pattern<ViewTraits<View>::dims>;

 public:
  Stage(const P& p, const View& a, const View& b, const Pattern1D*,
        const View*, Method mth, const WedgePlan& w, WorkerPool* pool)
      : p_(p), a_(a), b_(b), mth_(mth), pool_(pool), tile_(w.tile),
        dlt_(mth == Method::DLT),
        to_layout_(mth == Method::Ours && a.layout() != Layout::Transposed),
        // Pipelined blocked runs fold the to-layout transform into the
        // schedule itself (each worker transposes its own rows/planes as
        // the wedge prologue) instead of serializing it in front of the
        // first stage.
        overlap_layout_(to_layout_ && w.blocked && pipelined_schedule(pool)),
        plan_(mth == Method::Ours2 ? plan_folding(p, 2) : FoldingPlan{}),
        lam_(power(p, 2)) {
    if (to_layout_ && !overlap_layout_) {
      grid_transpose_layout<W>(a);
      grid_transpose_layout<W>(b);
    } else if (dlt_) {
      grid_to_dlt(a, W);
      grid_to_dlt(b, W);
    }
    // Pipelined folded runs first-touch the per-worker window (3-D only) in
    // the prologue slot that already overlaps the first super-step — the
    // same down(0) transitive wait orders it, so no extra sync edge and no
    // separate pool dispatch ahead of the run.
    if (mth == Method::Ours2 && w.blocked && pipelined_schedule(pool))
      window_ = K::window_shape(plan_, a.nx(), W);
  }

  void step(const View& in, const View& out, int lo, int hi, int wk) const {
    switch (mth_) {
      case Method::Ours:
        K::template step_tl<W>(p_, in, out, lo, hi);
        break;
      case Method::Ours2:
        K::template folded<W>(p_, plan_, lam_, in, out, pool_, wk, lo, hi);
        break;
      case Method::DLT:
        K::template step_dlt<W>(p_, in, out, lo, hi);
        break;
      default:
        K::naive(p_, in, out, lo, hi);
        break;
    }
  }

  void remainder(const View& in, const View& out) const {
    K::template step_whole<W>(p_, in, out);
  }

  std::function<void(int, int, int)> prologue() const {
    if (!overlap_layout_ && window_.nbufs == 0) return {};
    return [this](int t0, int t1, int wk) {
      if (window_.nbufs > 0)
        pool_->ensure_arena_local(wk, window_.nbufs, window_.doubles);
      if (!overlap_layout_ || t0 >= t1) return;
      // Own rows/planes plus the halo ones attached to the domain-end
      // tiles: the up stage reads neighbours of boundary rows, and both
      // parity buffers serve as the read level at some stage.
      const int n = tiled_extent(a_);
      const int lo = t0 == 0 ? -a_.halo() : t0 * tile_;
      const int hi = t1 * tile_ >= n ? n + a_.halo() : t1 * tile_;
      grid_transpose_layout_slab<W>(a_, lo, hi);
      grid_transpose_layout_slab<W>(b_, lo, hi);
    };
  }

  void finish() const {
    if (to_layout_) {
      grid_transpose_layout<W>(a_);
      grid_transpose_layout<W>(b_);
    } else if (dlt_) {
      grid_from_dlt(a_, W);
      grid_from_dlt(b_, W);
    }
  }

 private:
  const P& p_;
  const View& a_;
  const View& b_;
  Method mth_;
  WorkerPool* pool_;
  int tile_;
  bool dlt_, to_layout_, overlap_layout_;
  FoldingPlan plan_;
  P lam_;
  detail::Folded3DWindowShape window_;
};

/// 1-D: the register-transpose methods (ours and the folded ours-2step)
/// work on a transposed `a` (the scratch interior is written before it is
/// read) and the APOP source term rides along.
template <int W>
class Stage<W, FieldView1D> {
 public:
  Stage(const Pattern1D& p, const FieldView1D& a, const FieldView1D&,
        const Pattern1D* src, const FieldView1D* k, Method mth,
        const WedgePlan&, WorkerPool*)
      : p_(p), a_(a), src_(src), k_(k), mth_(mth), n_(a.n()),
        tl_(mth == Method::Ours || mth == Method::Ours2),
        // Transposed-resident views (core/engine.hpp) are already in
        // layout — skip the per-run involution, and read a resident source
        // array zero-copy instead of through a transformed private copy.
        to_layout_(tl_ && a.layout() != Layout::Transposed),
        ks_(k, /*to_layout=*/tl_),
        lam_(power(p, 2)) {
    if (src != nullptr) fsrc_ = compose(power_sum(p, 2), *src);
    if (to_layout_) grid_transpose_layout<W>(a);
  }

  void step(const FieldView1D& in, const FieldView1D& out, int lo, int hi,
            int) const {
    switch (mth_) {
      case Method::Ours:
        tl_region_step_1d<W>(p_, src_, ks_.data, n_, in.data(), out.data(),
                             lo, hi);
        break;
      case Method::Ours2:
        tl_folded_region_step_1d<W>(p_, lam_, src_,
                                    src_ != nullptr ? &fsrc_ : nullptr,
                                    ks_.data, n_, in.data(), out.data(), lo,
                                    hi);
        break;
      default:
        apply_pattern(p_, in, out, lo, hi);
        if (src_ != nullptr && k_ != nullptr) {
          // Source reads must match the active layout (none here: Naive).
          add_source(*src_, *k_, out, lo, hi);
        }
        break;
    }
  }

  void remainder(const FieldView1D& in, const FieldView1D& out) const {
    tl_region_step_1d<W>(p_, src_, ks_.data, n_, in.data(), out.data(), 0,
                         n_);
  }

  std::function<void(int, int, int)> prologue() const { return {}; }

  void finish() const {
    if (to_layout_) grid_transpose_layout<W>(a_);
  }

 private:
  const Pattern1D& p_;
  const FieldView1D& a_;
  const Pattern1D* src_;
  const FieldView1D* k_;
  Method mth_;
  int n_;
  bool tl_, to_layout_;
  StagedSource1D<W> ks_;
  Pattern1D lam_, fsrc_;
};

/// The one tiled run, every dimensionality: negotiate the wedge plan,
/// enter the working layout, run the wedge schedule (or plain full sweeps
/// when the domain is too small to block), take the folded run's odd
/// remainder step, land the result in `a` and restore the layout.
/// `serial` forces the whole run onto the calling thread (no pool
/// dispatch): the batched entry runs each item this way on the pool worker
/// that owns it, without a pool lookup per item. The wedge geometry is
/// negotiated identically either way, so serial and pooled runs are
/// bitwise identical.
template <int W, class View>
void tiled_impl(const Pattern<ViewTraits<View>::dims>& p, const View& a,
                const View& b, const Pattern1D* src, const View* k,
                int tsteps, const TilePlan& opt, bool serial) {
  const int m = opt.method == Method::Ours2 ? 2 : 1;
  const int super = tsteps / m;
  const int rem = tsteps - super * m;
  const int n = tiled_extent(a);
  const WedgePlan w =
      make_plan(n, m * p.radius(), super, opt, m,
                static_cast<long>(sizeof(double)) * slice_cells(a));
  const std::shared_ptr<WorkerPool> pool = serial ? nullptr : plan_pool(w);
  const Stage<W, View> stage(p, a, b, src, k, opt.method, w, pool.get());
  auto adv = [&](const View& in, const View& out, int lo, int hi, int wk) {
    stage.step(in, out, lo, hi, wk);
  };

  int cursor = 0;
  const View* bufs[2] = {&a, &b};
  if (w.blocked) {
    cursor = wedge_schedule(a, b, w, super, adv, pool.get(), stage.prologue());
  } else {
    // Domain too small to tile: plain full sweeps.
    for (int s = 0; s < super; ++s) {
      adv(*bufs[cursor], *bufs[cursor ^ 1], 0, n, -1);
      cursor ^= 1;
    }
  }
  // Remainder single steps (folded runs only).
  for (int t = 0; t < rem; ++t) {
    stage.remainder(*bufs[cursor], *bufs[cursor ^ 1]);
    cursor ^= 1;
  }
  if (cursor != 0) copy_interior(b, a);
  stage.finish();
}

/// Calls `f(std::integral_constant<int, W>{})` for the SIMD width of `isa`.
template <class F>
void dispatch_width(Isa isa, F&& f) {
  switch (isa_width(resolve_isa(isa))) {
    case 8: f(std::integral_constant<int, 8>{}); break;
    case 4: f(std::integral_constant<int, 4>{}); break;
    default: f(std::integral_constant<int, 1>{}); break;
  }
}

/// The batch fan-out: one pool dispatch laying `nitems` over the shared
/// (threads, affinity) pool with the balanced_placement() ownership map;
/// `run_item(i)` executes item i's complete serial lifecycle on its owning
/// worker. Single-worker or single-item batches run inline on the caller.
void fan_out_items(std::size_t nitems, const TilePlan& plan,
                   const std::function<void(int)>& run_item) {
  const int threads =
      plan.threads > 0 ? plan.threads : hardware_threads();
  if (threads > 1 && nitems > 1) {
    shared_pool(threads, plan.affinity)
        ->parallel_for(0, static_cast<int>(nitems), run_item);
  } else {
    for (std::size_t i = 0; i < nitems; ++i)
      run_item(static_cast<int>(i));
  }
}

}  // namespace

WedgeGeometry negotiate_wedge(int n_tiled, int slope, int fold_m, int tsteps,
                              const TilePlan& requested, long slice_bytes) {
  const int m = std::max(1, fold_m);
  const int super_steps = tsteps / m;
  WedgeGeometry g;
  g.threads = requested.threads > 0 ? requested.threads : hardware_threads();
  if (requested.tile > 0) {
    g.tile = requested.tile;
  } else {
    long tile = n_tiled / std::max(1, g.threads);
    if (g.threads == 1) {
      // Serial runs get no per-thread split — the share above is the whole
      // domain and would never block. Cap the tile so its ping-pong pair
      // (2 buffers plus wedge slack) stays LLC-resident, turning serial
      // split tiling into the Fig. 8 cache-blocking optimization. With
      // multiple threads the per-thread split is the paper's Fig. 9/10
      // geometry and t concurrent tiles could not share the LLC anyway.
      const long cache_cap =
          llc_bytes() / std::max(1L, 3 * std::max<long>(slice_bytes, 1));
      if (cache_cap < tile) tile = cache_cap;
    }
    g.tile = static_cast<int>(std::max<long>(4 * slope, tile));
  }
  const int h_from_tile = std::max(1, (g.tile / std::max(1, slope) - 2) / 2);
  int H = requested.time_block > 0 ? std::max(1, requested.time_block / m)
                                   : h_from_tile;
  H = std::min({H, h_from_tile, std::max(1, super_steps)});
  g.time_block = H * m;
  // Wedges must stay disjoint from neighbour wedge writes during a stage.
  g.blocked =
      super_steps > 0 && g.tile < n_tiled && g.tile >= (2 * H + 1) * slope;
  return g;
}

bool tiled_path_engages(const KernelInfo& k, int radius, int src_radius,
                        long nx) {
  // The 1-D source term widens the wedge reads: the stage must cover the
  // wider of the two radii.
  if (!k.tileable(std::max(radius, src_radius))) return false;
  // DLT's lifted layout needs a full stencil of lifted rows per tile; with
  // fewer the lifted seam folds back into every tile (shape-, not
  // capability-dependent, so it lives here rather than in the registry).
  if (k.method == Method::DLT &&
      nx / std::max(k.width, 1) < 2L * radius + 1)
    return false;
  return true;
}

template <class View>
void run_tile_plan(const Pattern<ViewTraits<View>::dims>& p, const View& a,
                   const View& b, const Pattern1D* src, const View* k,
                   int tsteps, const TilePlan& plan) {
  const KernelInfo& info =
      require_kernel(plan.method, ViewTraits<View>::dims, plan.isa);
  // 1-D DLT never engages (tiled_max_radius = -1): the lifted layout's seam
  // couples column 0 to column L-1 across lanes, so column tiles are not
  // spatially local and concurrent wedges would race on the seam. SDSL-1D
  // therefore runs the untiled lifted kernel (see DESIGN.md).
  if (!tiled_path_engages(info, p.radius(),
                          src != nullptr ? src->radius() : 0,
                          ViewTraits<View>::extents(a)[0])) {
    ViewTraits<View>::run(info, p, a, b, src, k, tsteps);
    return;
  }
  dispatch_width(plan.isa, [&](auto wc) {
    tiled_impl<decltype(wc)::value>(p, a, b, src, k, tsteps, plan, false);
  });
}

void run_tile_plan(const Pattern1D& p, const FieldView1D& a, const FieldView1D& b,
                   const Pattern1D* src, const FieldView1D* k, int tsteps,
                   const TilePlan& plan) {
  run_tile_plan<FieldView1D>(p, a, b, src, k, tsteps, plan);
}

void run_tile_plan(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps,
                   const TilePlan& plan) {
  run_tile_plan<FieldView2D>(p, a, b, nullptr, nullptr, tsteps, plan);
}

void run_tile_plan(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps,
                   const TilePlan& plan) {
  run_tile_plan<FieldView3D>(p, a, b, nullptr, nullptr, tsteps, plan);
}

template <class View>
void run_tile_plan_batch(const Pattern<ViewTraits<View>::dims>& p,
                         const std::vector<TileBatch<View>>& items,
                         const Pattern1D* src, int tsteps,
                         const TilePlan& plan) {
  if (items.empty()) return;
  if (items.size() == 1) {
    run_tile_plan<View>(p, items[0].a, items[0].b, src, items[0].k, tsteps,
                        plan);
    return;
  }
  const KernelInfo& info =
      require_kernel(plan.method, ViewTraits<View>::dims, plan.isa);
  const bool engages =
      tiled_path_engages(info, p.radius(), src != nullptr ? src->radius() : 0,
                         ViewTraits<View>::extents(items[0].a)[0]);
  fan_out_items(items.size(), plan, [&](int i) {
    const TileBatch<View>& it = items[static_cast<std::size_t>(i)];
    if (!engages) {
      ViewTraits<View>::run(info, p, it.a, it.b, src, it.k, tsteps);
      return;
    }
    dispatch_width(plan.isa, [&](auto wc) {
      tiled_impl<decltype(wc)::value>(p, it.a, it.b, src, it.k, tsteps, plan,
                                      true);
    });
  });
}

template void run_tile_plan<FieldView1D>(const Pattern1D&, const FieldView1D&,
                            const FieldView1D&, const Pattern1D*,
                            const FieldView1D*, int, const TilePlan&);
template void run_tile_plan<FieldView2D>(const Pattern2D&, const FieldView2D&,
                            const FieldView2D&, const Pattern1D*,
                            const FieldView2D*, int, const TilePlan&);
template void run_tile_plan<FieldView3D>(const Pattern3D&, const FieldView3D&,
                            const FieldView3D&, const Pattern1D*,
                            const FieldView3D*, int, const TilePlan&);
template void run_tile_plan_batch(const Pattern1D&,
                                  const std::vector<TileBatch1D>&,
                                  const Pattern1D*, int, const TilePlan&);
template void run_tile_plan_batch(const Pattern2D&,
                                  const std::vector<TileBatch2D>&,
                                  const Pattern1D*, int, const TilePlan&);
template void run_tile_plan_batch(const Pattern3D&,
                                  const std::vector<TileBatch3D>&,
                                  const Pattern1D*, int, const TilePlan&);

}  // namespace sf
