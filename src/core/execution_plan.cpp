#include "core/execution_plan.hpp"

#include <algorithm>

#include "common/env.hpp"
#include "core/tuner.hpp"
#include "grid/view_traits.hpp"
#include "runtime/topology.hpp"

namespace sf {

namespace {

int pattern_radius(const StencilSpec& s) {
  return dispatch_dims(s.dims, [&](auto dc) {
    return pattern_of<decltype(dc)::value>(s).radius();
  });
}

int source_radius(const StencilSpec& s) {
  return s.dims == 1 && s.has_source ? s.src1.radius() : 0;
}

// The dimension the wedge schedule tessellates: x in 1-D, y in 2-D, z in
// 3-D (always the outermost loop of the untiled executors).
long tiled_axis_extent(const PlanRequest& req) {
  const long n[3] = {req.nx, req.ny, req.nz};
  return n[req.spec->dims - 1];
}

bool engages(const PlanRequest& req) {
  return req.spec != nullptr && req.kernel != nullptr &&
         tiled_path_engages(*req.kernel, pattern_radius(*req.spec),
                            source_radius(*req.spec), req.nx);
}

// Bytes of one cross-section slice of the tiled dimension (every axis
// below it), mirroring what the engine passes make_plan (so plan() reports
// the exact geometry run_tile_plan will reconstruct).
long slice_bytes(const PlanRequest& req) {
  const long n[3] = {req.nx, req.ny, req.nz};
  long bytes = sizeof(double);
  for (int d = 0; d + 1 < req.spec->dims; ++d) bytes *= n[d];
  return bytes;
}

WedgeGeometry negotiate(const PlanRequest& req) {
  TilePlan requested;
  requested.method = req.kernel->method;
  requested.isa = req.kernel->isa;
  requested.tile = req.tile;
  requested.time_block = req.time_block;
  requested.threads = req.threads;
  requested.affinity = req.affinity;
  const int slope = req.kernel->wedge_slope(pattern_radius(*req.spec));
  return negotiate_wedge(static_cast<int>(tiled_axis_extent(req)), slope,
                         req.kernel->fold_depth, req.tsteps, requested,
                         slice_bytes(req));
}

}  // namespace

const char* plan_source_name(PlanSource s) {
  switch (s) {
    case PlanSource::Untiled: return "untiled";
    case PlanSource::Heuristic: return "heuristic";
    case PlanSource::Cached: return "cached";
    case PlanSource::Tuned: return "tuned";
  }
  return "?";
}

int effective_radius(const StencilSpec& spec) {
  return std::max(pattern_radius(spec), source_radius(spec));
}

long working_set_bytes(long nx, long ny, long nz) {
  return 2L * static_cast<long>(sizeof(double)) * nx * std::max(1L, ny) *
         std::max(1L, nz);
}

namespace {

// The Tiling::Auto decision against an already-negotiated geometry (shared
// by tiling_profitable and plan_execution so the geometry is computed
// once and the two can never drift apart).
bool profitable_at(const PlanRequest& req, const WedgeGeometry& g) {
  // A time block needs at least two super-steps to amortize its stage
  // synchronization; shorter horizons run untiled.
  const int m = std::max(1, req.kernel->fold_depth);
  if (req.tsteps / m < 2) return false;
  if (!g.blocked) return false;
  const long bytes = working_set_bytes(req.nx, req.ny, req.nz);
  if (g.threads > 1) {
    // The untiled executors are serial, so parallel wedges win on anything
    // sizable; below the floor the stage synchronization eats the gain.
    return bytes >= tile_min_bytes();
  }
  // Single-threaded split tiling is purely a cache-blocking play (Fig. 8):
  // profitable only once the ping-pong pair falls out of the LLC.
  return bytes > llc_bytes();
}

}  // namespace

bool tiling_profitable(const PlanRequest& req) {
  if (!engages(req)) return false;
  return profitable_at(req, negotiate(req));
}

WedgeGeometry plan_geometry(const PlanRequest& req) { return negotiate(req); }

namespace {

// The multi-level negotiation pass (tentpole of the tile-tree refactor).
// Levels, outermost first, mirroring TileTree's documentation:
//  1. the top level is the per-worker shard the PlacementPlan already
//     owns — worker count and contiguous tile ownership are unchanged, so
//     the pipelined NeighborSync ordering (one publish/wait pair per
//     worker per stage) keeps covering every cross-worker hazard;
//  2. the mid level caps the wedge tile so one tile's ping-pong working
//     set (3 slices of slack per plane, as in the serial Fig. 8 cap) fits
//     the LLC share a single worker gets on its NUMA node — a worker then
//     walks several cache-resident tiles per stage instead of streaming
//     one node-sized tile through memory;
//  3. the leaf level rounds the mid tile down to the kernel's
//     register-block quantum (KernelInfo::reg_block) so no tile cuts the
//     unit the vector path processes at once.
// Returns the engaged depth: the requested depth when the capped geometry
// still blocks, or 1 (flat — the degenerate tree) when the cap does not
// bind, the domain cannot block at the capped tile, or the plan is serial
// (the serial heuristic already LLC-caps its single-worker tile).
int negotiate_tree(const PlanRequest& req, ExecutionPlan& plan) {
  if (req.levels < 2 || !plan.blocked || plan.tile.threads <= 1 ||
      req.tile > 0)
    return 1;
  const long slice = slice_bytes(req);
  const int nodes = std::max(1, Topology::system().numa_nodes());
  const int workers_per_node =
      (plan.tile.threads + nodes - 1) / nodes;
  long cap = llc_bytes() / std::max(1, workers_per_node) /
             std::max(1L, 3 * std::max<long>(slice, 1));
  const int leaf = req.levels >= 3 ? std::max(1, req.kernel->reg_block()) : 1;
  if (leaf > 1 && cap > leaf) cap = cap / leaf * leaf;
  if (cap <= 0 || cap >= plan.tile.tile) return 1;  // cap does not bind
  PlanRequest mid = req;
  mid.tile = static_cast<int>(cap);
  mid.time_block = 0;  // re-derive the block height for the smaller tile
  mid.threads = plan.tile.threads;
  const WedgeGeometry mg = negotiate(mid);
  if (!mg.blocked) return 1;  // too small to keep wedges disjoint
  plan.tile.tile = mg.tile;
  plan.tile.time_block = mg.time_block;
  return req.levels;
}

// Stamps ExecutionPlan::tree from the final geometry: the degenerate
// one-level chain for flat plans, shard -> L3 tile (-> register block)
// for engaged multi-level ones. Built last so a tuner recall's tile is
// what the tree reports.
void stamp_tree(const PlanRequest& req, ExecutionPlan& plan, int levels) {
  const int axis = req.spec->dims - 1;
  const long n_tiled = tiled_axis_extent(req);
  TileTree leaf_level;
  leaf_level.axis = axis;
  leaf_level.extent = plan.tile.tile;
  if (levels <= 1) {
    plan.tree = std::move(leaf_level);
    return;
  }
  const int ntiles =
      static_cast<int>((n_tiled + plan.tile.tile - 1) / plan.tile.tile);
  const int workers = std::max(1, plan.tile.threads);
  TileTree root;
  root.axis = axis;
  root.extent = static_cast<int>(
      std::min<long>(n_tiled, static_cast<long>((ntiles + workers - 1) /
                                                workers) *
                                  plan.tile.tile));
  TileTree mid = std::move(leaf_level);
  if (levels >= 3) {
    TileTree reg;
    reg.axis = axis;
    reg.extent = std::min(plan.tile.tile,
                          std::max(1, req.kernel->reg_block()));
    mid.children.push_back(std::move(reg));
  }
  root.children.push_back(std::move(mid));
  plan.tree = std::move(root);
}

}  // namespace

ExecutionPlan plan_execution(const PlanRequest& req) {
  ExecutionPlan plan;
  plan.kernel = req.kernel;
  if (req.tiling == Tiling::Off || !engages(req)) return plan;

  const WedgeGeometry g = negotiate(req);
  if (req.tiling == Tiling::Auto && !profitable_at(req, g)) return plan;
  plan.tiled = true;
  plan.blocked = g.blocked;
  plan.source = PlanSource::Heuristic;
  plan.tile.method = req.kernel->method;
  plan.tile.isa = req.kernel->isa;
  plan.tile.tile = g.tile;
  plan.tile.time_block = g.time_block;
  plan.tile.threads = g.threads;
  plan.tile.affinity = req.affinity;
  // Multi-level pass before the tuner: the engaged depth is part of the
  // tune key, so tree and flat measurements of one shape never cross.
  const int levels = negotiate_tree(req, plan);
  plan.tile.levels = levels;
  // Explicit geometry outranks the cache; a fully-auto request recalls any
  // previously-measured result for this configuration — exact shape first,
  // then the quarter-octave shape bucket (core/tuner.hpp tune_bucket), so
  // nearby production sizes reuse measurements instead of re-tuning. A
  // cached geometry is re-validated against *this* domain before it is
  // trusted — a cache file can legitimately come from another machine or
  // be edited — and an unblockable entry is ignored in favor of the
  // heuristics. An entry that probed the thread-count axis deploys its
  // winning worker count too (a bandwidth-saturated stencil may have
  // measured fastest below the hardware maximum).
  if (req.tile == 0 && req.time_block == 0) {
    const TuneKey key =
        make_tune_key(*req.kernel, effective_radius(*req.spec), req.nx,
                      req.ny, req.nz, req.tsteps, g.threads, levels);
    if (auto hit = TuneCache::instance().lookup_rounded(key)) {
      PlanRequest cached = req;
      cached.tile = hit->tile;
      cached.time_block = hit->time_block;
      if (hit->threads > 0) cached.threads = hit->threads;
      const WedgeGeometry cg = negotiate(cached);
      if (cg.blocked) {
        plan.tile.tile = cg.tile;
        plan.tile.time_block = cg.time_block;
        plan.tile.threads = cg.threads;
        plan.blocked = cg.blocked;
        plan.source = PlanSource::Cached;
      }
    }
  }
  // The placement map is part of the plan: who computes which tiles is
  // negotiated with the geometry, not improvised at run time.
  if (plan.blocked && plan.tile.threads > 1) {
    const long n_tiled = tiled_axis_extent(req);
    const int ntiles =
        static_cast<int>((n_tiled + plan.tile.tile - 1) / plan.tile.tile);
    plan.placement =
        balanced_placement(ntiles, plan.tile.threads, req.affinity);
  }
  stamp_tree(req, plan, levels);
  return plan;
}

}  // namespace sf
