/// \file
/// \brief Temporal split tiling with parallel stage execution (paper §3.4).
///
/// The iteration space is tessellated along one spatial dimension (x in 1-D,
/// y in 2-D, z in 3-D) into *triangles* (shrinking tiles) and *inverted
/// triangles* (expanding wedges rooted at tile boundaries), exactly the 1-D
/// scheme of the paper's Figure 7. Each stage is embarrassingly parallel —
/// executed on the library-owned, optionally topology-pinned WorkerPool
/// (runtime/worker_pool.hpp) with the static balanced_placement() ownership
/// map, so the same worker keeps the same tile columns across super-steps;
/// tiles never recompute a point (redundancy-free). Jacobi double
/// buffering makes the wedge reads exact: position x always holds its two
/// most recent time levels, one per parity.
///
/// Combined with temporal computation folding (Method::Ours2) the wedge
/// slope doubles and odd time levels are never materialized — the paper's
/// "odd time steps are skipped over" (Fig. 7).
///
/// This header is the tiling *engine*: it executes a TilePlan whose gaps
/// (tile = 0, time_block = 0, threads = 0) it fills with the
/// negotiate_wedge() heuristics. Deciding *whether* to tile — and feeding
/// tuned geometry back in — is the job of the ExecutionPlan layer
/// (core/execution_plan.hpp), which `Solver::run` drives.
///
/// One wedge schedule executes every parallel run: point-to-point
/// NeighborSync waits between neighbouring workers (WorkerPool::
/// run_pipelined), so fast workers pipeline into the next super-step while
/// slow ones finish. Serial plans, batched items and runs issued from a
/// worker of the plan's own pool take the serial walk of the same wedge set
/// instead; results are bitwise identical either way.
#pragma once

#include <vector>

#include "common/cpu.hpp"
#include "grid/grid.hpp"
#include "grid/view_traits.hpp"
#include "kernels/api.hpp"
#include "kernels/registry.hpp"
#include "runtime/worker_pool.hpp"
#include "stencil/pattern.hpp"

namespace sf {

/// One split-tiling execution request. Zero-valued geometry fields mean
/// "negotiate": the engine fills them via negotiate_wedge(); the
/// ExecutionPlan layer fills them from its cost model or the tuner cache
/// before the run, so `Solver::plan()` can report the concrete geometry.
struct TilePlan {
  Method method = Method::Ours2;  ///< Naive | DLT | Ours | Ours2 have tiled
                                  ///< stages; other methods (and shapes the
                                  ///< stage cannot handle, see
                                  ///< tiled_path_engages) run their untiled
                                  ///< kernel.
  Isa isa = Isa::Auto;            ///< ISA level; Auto = widest supported.
  int tile = 0;        ///< Tile extent along the tiled dimension (0 = auto).
  int time_block = 0;  ///< Time steps per block (0 = auto).
  int threads = 0;     ///< Pool workers per stage (0 = hardware threads).
  Affinity affinity = Affinity::None;
  ///< Worker placement policy: the stages run on the shared_pool() for
  ///< (threads, affinity), so a prepared Engine run and a direct
  ///< run_tile_plan() call land on the same pinned workers. Results are
  ///< bitwise identical across policies; only locality changes.
  int levels = 1;
  ///< Engaged tile-tree depth this plan's geometry was negotiated at
  ///< (core/execution_plan.hpp TileTree): 1 = flat, >= 2 = `tile` is the
  ///< LLC-capped mid-level extent and each worker walks several tiles per
  ///< stage instead of one. Purely descriptive for the scheduler — the
  ///< wedge set executed is fully determined by tile/time_block/threads,
  ///< so results are bitwise identical across depths — but the schedule
  ///< telemetry reports tree runs separately.
};

/// The concrete wedge geometry negotiate_wedge() settles on for one run.
struct WedgeGeometry {
  int tile = 0;        ///< Tile extent along the tiled dimension.
  int time_block = 0;  ///< Time steps per block (a multiple of fold depth).
  int threads = 1;     ///< Pool workers each stage runs with.
  bool blocked = false;  ///< False: the domain is too small for disjoint
                         ///< wedges at this geometry; the engine runs plain
                         ///< full sweeps instead.
};

/// Fills the unset (zero) fields of `requested` with the library's
/// heuristics and returns the resulting geometry:
///  * threads — the hardware thread count;
///  * tile — max(4 * slope, n_tiled / threads): one tile per thread, wide
///    enough that a tile outlives its wedge erosion (paper §3.4's "tile
///    size several times the slope"). Serial runs (threads == 1) instead
///    cap the tile so its ping-pong working set stays LLC-resident — the
///    cap is what makes serial split tiling a cache-blocking win (paper
///    Fig. 8) instead of degenerating to one whole-domain tile;
///  * time_block — the tallest block whose triangles stay non-degenerate,
///    (tile / slope - 2) / 2 super-steps (Fig. 7 geometry), clamped to the
///    run length.
/// `blocked` reports whether wedges stay disjoint at the chosen geometry
/// (tile < n_tiled and tile >= (2H + 1) * slope); when false the engine
/// falls back to unblocked full sweeps.
/// \param n_tiled extent of the tiled dimension (x/y/z in 1/2/3-D).
/// \param slope   wedge slope per super-step (KernelInfo::wedge_slope).
/// \param fold_m  temporal fold depth m (KernelInfo::fold_depth).
/// \param tsteps  total plain time steps of the run.
/// \param requested explicit tile/time_block/threads overrides (0 = auto).
/// \param slice_bytes bytes of one cross-section slice of the tiled
///   dimension (8 in 1-D, 8 * nx in 2-D, 8 * nx * ny in 3-D), used for the
///   cache-capacity tile cap.
WedgeGeometry negotiate_wedge(int n_tiled, int slope, int fold_m, int tsteps,
                              const TilePlan& requested,
                              long slice_bytes = sizeof(double));

/// True when the split-tiled stage implementation of `k` engages for a
/// pattern of radius `radius` (plus 1-D source-term radius `src_radius`)
/// on a domain whose contiguous row extent is `nx`: the kernel declares a
/// tiled stage whose (fold-doubled) radius range covers the pattern
/// (KernelInfo::tileable), and DLT's lifted layout keeps at least a full
/// stencil of lifted rows (nx / width >= 2 * radius + 1). When false, a
/// tiling request runs the untiled kernel — the same executor, just
/// without wedge scheduling.
bool tiled_path_engages(const KernelInfo& k, int radius, int src_radius,
                        long nx);

/// Runs `tsteps` Jacobi steps with temporal split tiling; result in `a`.
/// Geometry gaps in `plan` are negotiated (see negotiate_wedge); methods or
/// shapes without an engaging tiled stage (see tiled_path_engages) fall
/// back to the untiled kernel. Throws std::invalid_argument when no kernel
/// is registered for the plan's (method, dimensionality, ISA). `View` is
/// FieldView1D, FieldView2D or FieldView3D; the 1-D form optionally takes
/// the APOP source pattern `src` over the time-invariant array `k` (both
/// null otherwise, and always in 2-D/3-D, which tile along y/z).
template <class View>
void run_tile_plan(const Pattern<ViewTraits<View>::dims>& p, const View& a,
                   const View& b, const Pattern1D* src, const View* k,
                   int tsteps, const TilePlan& plan);
/// 1-D spelling of run_tile_plan() (also accepts Grid1D, which converts).
void run_tile_plan(const Pattern1D& p, const FieldView1D& a, const FieldView1D& b,
                   const Pattern1D* src, const FieldView1D* k, int tsteps,
                   const TilePlan& plan);
/// 2-D spelling of run_tile_plan(); tiles along y.
void run_tile_plan(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps,
                   const TilePlan& plan);
/// 3-D spelling of run_tile_plan(); tiles along z.
void run_tile_plan(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps,
                   const TilePlan& plan);

/// One grid of a batched tiling run: the ping/pong buffer pair plus the
/// optional per-item APOP source array (`k` null when the pattern has no
/// source term, and always in 2-D/3-D). All items of one batch share the
/// Pattern and TilePlan but own distinct buffers.
template <class View>
struct TileBatch {
  View a;                   ///< Ping buffer; holds the result.
  View b;                   ///< Pong buffer.
  const View* k = nullptr;  ///< Optional time-invariant source array.
};
/// One grid of a batched 1-D tiling run.
using TileBatch1D = TileBatch<FieldView1D>;
/// One grid of a batched 2-D tiling run.
using TileBatch2D = TileBatch<FieldView2D>;
/// One grid of a batched 3-D tiling run.
using TileBatch3D = TileBatch<FieldView3D>;

/// Advances every item of `items` by `tsteps` Jacobi steps in *one* pool
/// dispatch: the batch is laid over the shared (threads, affinity) pool
/// with the same balanced_placement() ownership map the wedge stages use,
/// and each worker runs its items' complete tiling lifecycle (layout
/// transforms, wedge schedule, remainder steps) inline. This amortizes
/// dispatch and barrier cost across N same-geometry small grids — the
/// serving batcher's fast path (serving/server.hpp) — where per-item stage
/// parallelism has nothing to win.
///
/// Every item must have the geometry of item 0 (extents, halo, layout);
/// buffers of distinct items must not alias. Results are bitwise identical
/// to running run_tile_plan() on each item sequentially: each item executes
/// the same negotiated wedge geometry and region math, merely on one worker
/// instead of spread over the pool. A single-item batch degrades to exactly
/// run_tile_plan(). The 1-D form optionally takes the APOP source pattern
/// `src` read through each item's own `k` array; `src` is null in 2-D/3-D.
template <class View>
void run_tile_plan_batch(const Pattern<ViewTraits<View>::dims>& p,
                         const std::vector<TileBatch<View>>& items,
                         const Pattern1D* src, int tsteps,
                         const TilePlan& plan);

/// The per-element update levels after one up-stage (triangles) and one
/// down-stage (inverted triangles) of the Fig. 7 tessellation; used by tests
/// to assert the paper's (0,1,2,3,4,3,2,1,0) / all-H states and by the
/// tessellate1d demo.
struct TessellationTrace {
  std::vector<int> after_up;    ///< Level of each element after stage 1.
  std::vector<int> after_down;  ///< After stage 2 (must be uniform H).
};

/// Simulates the Fig. 7 two-stage tessellation bookkeeping (no floating
/// point): `n` elements, tiles of extent `tile`, `height` super-steps per
/// block, wedge slope `slope` per super-step.
TessellationTrace trace_tessellation_1d(int n, int tile, int height,
                                        int slope);

}  // namespace sf
