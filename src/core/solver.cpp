#include "core/solver.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/timing.hpp"
#include "core/tuner.hpp"
#include "grid/grid_utils.hpp"
#include "grid/view_traits.hpp"
#include "stencil/reference.hpp"
#include "telemetry/telemetry.hpp"
#include "tiling/split_tiling.hpp"

namespace sf {

namespace {

// The Workspace's D-dimensional slots: (a, b, ra, rb).
template <int D>
auto ws_slots(Workspace& w) {
  if constexpr (D == 1) return std::tie(w.a1, w.b1, w.ra1, w.rb1);
  else if constexpr (D == 2) return std::tie(w.a2, w.b2, w.ra2, w.rb2);
  else return std::tie(w.a3, w.b3, w.ra3, w.rb3);
}

/// Candidate tile extents the auto-tuner measures: the planner's negotiated
/// tile, the per-thread split, and a small fan around them (halved,
/// doubled, slope-proportional), filtered to extents that can actually
/// block (at least (2*1+1)*slope for an H = 1 wedge, strictly inside the
/// domain).
std::vector<int> tile_candidates(long n, int slope, int threads,
                                 int planned) {
  const int thr = std::max(1, threads);
  const int heur = std::max(4 * slope, static_cast<int>(n / thr));
  const int raw[] = {planned,   planned / 2, 2 * planned,
                     heur,      4 * slope,   8 * slope,
                     static_cast<int>(n / (2L * thr))};
  std::vector<int> out;
  for (int c : raw) {
    if (c < 3 * slope) continue;
    if (c >= n) continue;
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  if (out.empty()) out.push_back(planned > 0 ? planned : heur);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

Solver& Solver::size(long nx, long ny, long nz) {
  cfg_.nx = nx;
  cfg_.ny = ny;
  cfg_.nz = nz;
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::steps(int tsteps) {
  cfg_.tsteps = tsteps;
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::method(Method m) {
  cfg_.method = m;
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::method(const std::string& name) {
  return method(method_from_name(name));
}

Solver& Solver::isa(Isa v) {
  cfg_.isa = v;
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::tiling(Tiling mode) {
  cfg_.tiling = mode;
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::threads(int n) {
  cfg_.threads = n;
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::affinity(Affinity a) {
  cfg_.affinity = a;
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::levels(int depth) {
  cfg_.levels = depth;
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::tile(int extent) {
  cfg_.tile = extent;
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::time_block(int steps) {
  cfg_.time_block = steps;
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::tune(bool on) {
  cfg_.tune = on;
  return *this;
}

Solver& Solver::resident_layout(bool on) {
  cfg_.resident = on;
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::seed(std::uint64_t s) {
  cfg_.seed = s;
  return *this;
}

// ---------------------------------------------------------------------------
// Resolution: one Engine::prepare call captures kernel, halo and plan.
// ---------------------------------------------------------------------------

Solver& Solver::resolve() {
  if (selected_ != nullptr) return *this;
  // The Engine resolves the unset (0) extents and horizon: each defaults
  // independently to the preset's fast-run value, so size(nx) on a 2-D
  // problem keeps the preset's ny rather than degenerating to nx x 1.
  prepared_ = Engine::instance().prepare(
      cfg_.spec, Extents{cfg_.nx, cfg_.ny, cfg_.nz}, exec_options());
  cfg_.nx = prepared_.nx();
  cfg_.ny = prepared_.ny();
  cfg_.nz = prepared_.nz();
  cfg_.tsteps = prepared_.tsteps();
  if (cfg_.resident && prepared_.preferred_layout() != Layout::Natural) {
    // Re-prepare with the now-known preferred layout so the handle accepts
    // resident views; the first preparation stays cached and is shared by
    // any non-resident Solver of the same configuration.
    ExecOptions o = exec_options();
    o.layout = prepared_.preferred_layout();
    prepared_ = Engine::instance().prepare(
        cfg_.spec, Extents{cfg_.nx, cfg_.ny, cfg_.nz}, o);
  }
  selected_ = &prepared_.kernel();
  halo_ = prepared_.halo();
  plan_ = prepared_.plan();
  return *this;
}

ExecOptions Solver::exec_options() const {
  ExecOptions o;
  o.method = cfg_.method;
  o.isa = cfg_.isa;
  o.tiling = cfg_.tiling;
  o.threads = cfg_.threads;
  o.tile = cfg_.tile;
  o.time_block = cfg_.time_block;
  o.tsteps = cfg_.tsteps;
  o.affinity = cfg_.affinity;
  o.levels = cfg_.levels;
  return o;
}

PlanRequest Solver::plan_request() const {
  PlanRequest req;
  req.spec = &cfg_.spec;
  req.kernel = selected_;
  req.nx = cfg_.nx;
  req.ny = cfg_.ny;
  req.nz = cfg_.nz;
  req.tsteps = cfg_.tsteps;
  req.tiling = cfg_.tiling;
  req.threads = cfg_.threads;
  req.tile = cfg_.tile;
  req.time_block = cfg_.time_block;
  req.affinity = cfg_.affinity;
  // The *engaged* depth of the resolved plan (plan_request requires a
  // selected kernel, so plan_ is live): re-planning from this request
  // re-derives the same tree the Engine negotiated.
  req.levels = plan_.tile.levels;
  return req;
}

const KernelInfo& Solver::kernel() { return *resolve().selected_; }

int Solver::halo() { return resolve().halo_; }

// ---------------------------------------------------------------------------
// Measure-once auto-tuning
// ---------------------------------------------------------------------------

// Probes candidate geometries on the allocated grids (contents are
// irrelevant for timing but kept finite so FP corner cases don't distort
// it), records the winner in the TuneCache, and restores `a`'s initial
// state for the timed run. A Cached plan skips all of this — that is the
// "repeated runs are free" contract — and an unblockable plan has no wedge
// geometry worth measuring.
//
// The search runs its axes in sequence rather than their full product
// (additive, not multiplicative, probe counts):
//  0. tree plans only (TilePlan::levels >= 2), staged ahead of the tile
//     axis: leaf (register-block) granules 1x/2x/4x KernelInfo::reg_block —
//     the planner's mid tile re-aligned down to each granule and measured,
//     so the L3-tile axis then searches leaf-aligned extents;
//  1. tile extents, each probed at the block height the Fig. 7 heuristic
//     yields for it — the heuristic is the probe seed, never skipped;
//  2. (tile × time_block) pairs: the winning tile re-measured at halved
//     and doubled block heights, so a machine whose sweet spot departs
//     from the triangle-geometry derivation is actually measured;
//  3. thread counts {resolved, resolved/2, cores-per-node}: now that the
//     worker count is a first-class plan parameter, bandwidth-saturated
//     stencils can settle below the hardware maximum.
template <class View>
void Solver::tune_pass(const View& a, const View& b, const Pattern1D* src,
                       const View* kk) {
  if (!(plan_.tiled && plan_.blocked && (cfg_.tune || tune_forced()) &&
        plan_.source == PlanSource::Heuristic && cfg_.tile == 0 &&
        cfg_.time_block == 0))
    return;
  const auto& p = pattern_of<ViewTraits<View>::dims>(cfg_.spec);
  const long n_tiled = tiled_extent(a);
  const int m = std::max(1, selected_->fold_depth);
  const int slope = selected_->wedge_slope(p.radius());
  // One uniform probe horizon for every candidate: fixed per-call
  // overheads (layout transposes in/out, stage fork/join) amortize
  // identically and cancel out of the ranking.
  const int probe_steps = std::min(cfg_.tsteps, std::max(2 * m, 48));
  const int base_threads = plan_.tile.threads;  // the resolved count
  PlanRequest treq = plan_request();
  treq.threads = base_threads;
  treq.affinity = plan_.tile.affinity;
  treq.tsteps = probe_steps;

  auto probe = [&](int tile_c, int tb_c, int thr_c, int steps) {
    TilePlan cand = plan_.tile;
    cand.tile = tile_c;
    cand.time_block = tb_c;
    cand.threads = thr_c;
    run_tile_plan(p, a, b, src, kk, steps, cand);
  };
  // Every probe measurement is logged (not just winners): the accumulated
  // (geometry -> GFLOP/s) table is the training set the ROADMAP item-5
  // performance model fits over. Dead no-op unless SF_METRICS is on.
  const telemetry::SampleLog tune_log = telemetry::samples(
      "tuner", {"kernel", "isa", "dims", "radius", "nx", "ny", "nz",
                "probe_steps", "threads", "tile", "time_block", "seconds",
                "gflops"});
  auto measure = [&](int tile_c, int tb_c, int thr_c) {
    Timer timer;
    probe(tile_c, tb_c, thr_c, probe_steps);
    const double sec = timer.seconds();
    if (tune_log.live()) {
      const double gflops = flops_per_step(cfg_.spec, cfg_.nx, cfg_.ny,
                                           cfg_.nz) *
                            probe_steps / sec / 1e9;
      tune_log.append(
          {selected_->name, isa_name(selected_->isa),
           std::to_string(cfg_.spec.dims),
           std::to_string(effective_radius(cfg_.spec)),
           std::to_string(cfg_.nx), std::to_string(cfg_.ny),
           std::to_string(cfg_.nz), std::to_string(probe_steps),
           std::to_string(thr_c), std::to_string(tile_c),
           std::to_string(tb_c), std::to_string(sec),
           std::to_string(gflops)});
    }
    return sec;
  };

  double best_sec = std::numeric_limits<double>::infinity();
  int best_tile = plan_.tile.tile;
  int best_tb = 0;  // 0 = the heuristic height (re-derived at deploy time)
  int best_leaf = 0;  // 0 = no leaf granule probed/won (flat plans)
  bool warmed = false;

  // Axis 0 (tree plans only): leaf granules, staged ahead of the tile axis.
  // A granule only survives as provenance (TunedGeometry::leaf) when its
  // aligned tile actually measured fastest so far; the axis-1 candidates
  // are then rounded to it, keeping the winner leaf-aligned.
  if (plan_.tile.levels >= 2) {
    const int q = std::max(1, selected_->reg_block());
    for (int mult : {1, 2, 4}) {
      const int granule = q * mult;
      const int aligned = plan_.tile.tile / granule * granule;
      if (granule < 2 || aligned < 3 * slope) continue;
      treq.tile = aligned;
      treq.time_block = 0;
      const WedgeGeometry g = plan_geometry(treq);
      if (!g.blocked) continue;
      if (!warmed) {
        // Untimed warmup: absorbs one-time costs (pool creation, page
        // faults) so they don't land on the first measured candidate.
        probe(g.tile, g.time_block, base_threads,
              std::min(cfg_.tsteps, 2 * m));
        warmed = true;
      }
      const double sec = measure(g.tile, g.time_block, base_threads);
      if (sec < best_sec) {
        best_sec = sec;
        best_tile = g.tile;
        best_leaf = granule;
      }
    }
  }

  // Axis 1: tile extents at their heuristic block heights, rounded to the
  // winning leaf granule when axis 0 picked one. A taller block than the
  // probe horizon can observe is never measured; unblockable candidates
  // have no wedge schedule to measure.
  std::vector<std::pair<int, int>> cands;  // (tile, probe time_block)
  for (int c :
       tile_candidates(n_tiled, slope, base_threads, plan_.tile.tile)) {
    if (best_leaf > 1) c = std::max(best_leaf, c / best_leaf * best_leaf);
    treq.tile = c;
    treq.time_block = 0;
    const WedgeGeometry g = plan_geometry(treq);
    if (g.blocked &&
        std::find(cands.begin(), cands.end(),
                  std::make_pair(g.tile, g.time_block)) == cands.end())
      cands.emplace_back(g.tile, g.time_block);
  }
  if (cands.empty() && !warmed) return;  // nothing measurable at all
  if (!warmed && !cands.empty())
    probe(cands.front().first, cands.front().second, base_threads,
          std::min(cfg_.tsteps, 2 * m));
  for (const auto& [tile_c, tb_c] : cands) {
    const double sec = measure(tile_c, tb_c, base_threads);
    if (sec < best_sec) {
      best_sec = sec;
      best_tile = tile_c;
    }
  }

  // Axis 2: block heights below the winner's heuristic height — the
  // (tile × time_block) pair is measured, not re-derived. Only shorter
  // blocks exist for a fixed tile: the Fig. 7 height is the viability
  // maximum (taller blocks have degenerate triangle tops and renegotiate
  // back down), so the taller-block direction is explored through wider
  // tiles on axis 1. A non-heuristic winner is deployed (and recorded)
  // explicitly.
  treq.tile = best_tile;
  treq.time_block = 0;
  const int heur_tb = plan_geometry(treq).time_block;
  for (int tb_c : {std::max(m, heur_tb / 2 / m * m),
                   std::max(m, heur_tb / 4 / m * m)}) {
    if (tb_c == heur_tb) continue;
    treq.time_block = tb_c;
    const WedgeGeometry g = plan_geometry(treq);
    if (!g.blocked || g.time_block == heur_tb || g.time_block == best_tb)
      continue;
    const double sec = measure(best_tile, g.time_block, base_threads);
    if (sec < best_sec) {
      best_sec = sec;
      best_tb = g.time_block;
    }
  }

  // Axis 3: thread counts below the resolved maximum. The geometry is
  // re-negotiated per count (the heuristic tile is a per-thread split), so
  // each candidate runs its own best-known shape.
  int best_thr = base_threads;
  std::vector<int> thr_cands{std::max(1, base_threads / 2),
                             Topology::system().cores_per_node()};
  if (thr_cands[1] == thr_cands[0]) thr_cands.pop_back();
  for (int thr_c : thr_cands) {
    if (thr_c <= 0 || thr_c == base_threads || thr_c > base_threads)
      continue;
    treq.threads = thr_c;
    treq.tile = best_tile;
    treq.time_block = best_tb;
    const WedgeGeometry g = plan_geometry(treq);
    if (!g.blocked) continue;
    const double sec = measure(g.tile, g.time_block, thr_c);
    if (sec < best_sec) {
      best_sec = sec;
      best_thr = thr_c;
    }
  }

  // Deploy (and record) the winner: the measured block height when one
  // beat the heuristic, otherwise the height the heuristic gives the
  // winning tile at the full horizon (so a tuned plan never trades away
  // the tall blocks an untuned plan would use); the winning thread count
  // only when the axis actually moved it (0 = "deploy with the key's").
  treq.tsteps = cfg_.tsteps;
  treq.threads = best_thr;
  treq.tile = best_tile;
  treq.time_block = best_tb;
  const WedgeGeometry deployed = plan_geometry(treq);
  TuneCache::instance().store(
      make_tune_key(*selected_, effective_radius(cfg_.spec), cfg_.nx, cfg_.ny,
                    cfg_.nz, cfg_.tsteps, base_threads, plan_.tile.levels),
      TunedGeometry{deployed.tile, deployed.time_block,
                    best_thr != base_threads ? best_thr : 0, best_leaf});
  // The store invalidated this configuration's cached plan (per-key), so
  // this re-prepare re-plans and recalls the geometry just recorded: the
  // prepared handle the timed run executes through carries the tuned plan.
  // The resident-layout acceptance of the handle being replaced is carried
  // forward — exec_options() alone never requests it (resolve() negotiates
  // it against the kernel's preference).
  ExecOptions tuned_opts = exec_options();
  tuned_opts.layout = prepared_.resident_layout();
  prepared_ = Engine::instance().prepare(
      cfg_.spec, Extents{cfg_.nx, cfg_.ny, cfg_.nz}, tuned_opts);
  plan_ = prepared_.plan();
  plan_.source = PlanSource::Tuned;  // report provenance, not cache recall
  fill_random(a, cfg_.seed);  // probes clobbered the initial state
}

// ---------------------------------------------------------------------------
// Execution: one generic path for every dimensionality
// ---------------------------------------------------------------------------

RunResult Solver::run_impl(bool verify) {
  resolve();
  const StencilSpec& s = cfg_.spec;

  return dispatch_dims(s.dims, [&](auto dc) -> RunResult {
    constexpr int D = std::decay_t<decltype(dc)>::value;
    const auto& p = pattern_of<D>(s);

    if (ws_.dims != D || ws_.halo != halo_ || ws_.nx != cfg_.nx ||
        ws_.ny != cfg_.ny || ws_.nz != cfg_.nz ||
        ws_.affinity != prepared_.affinity()) {
      ws_ = Workspace{};
      ws_.dims = D;
      ws_.halo = halo_;
      ws_.nx = cfg_.nx;
      ws_.ny = cfg_.ny;
      ws_.nz = cfg_.nz;
      ws_.affinity = prepared_.affinity();
    }
    auto [A, B, RA, RB] = ws_slots<D>(ws_);
    if (!A) {
      // Pinned runs allocate the ping-pong pair untouched and let the
      // pool's placement map write each page first: worker w zeroes the
      // rows/planes of the tiles it owns, so they land on its NUMA node
      // (the serial fill below only overwrites already-placed pages).
      const bool ft = prepared_.pool() != nullptr &&
                      prepared_.affinity() != Affinity::None;
      A.emplace(make_grid<D>(cfg_.nx, cfg_.ny, cfg_.nz, halo_, !ft));
      B.emplace(make_grid<D>(cfg_.nx, cfg_.ny, cfg_.nz, halo_, !ft));
      if (ft) {
        prepared_.first_touch(A->view());
        prepared_.first_touch(B->view());
      }
    }
    fill_random(*A, cfg_.seed);
    using View = decltype(A->view());
    const Pattern1D* src = nullptr;
    View kview;
    const View* kk = nullptr;
    if constexpr (D == 1) {
      if (s.has_source) {
        if (!ws_.k1) ws_.k1.emplace(make_grid<1>(cfg_.nx, cfg_.ny, cfg_.nz, halo_));
        fill_random(*ws_.k1, cfg_.seed + 1);
        src = &s.src1;
        kview = ws_.k1->view();
        kk = &kview;
      }
    }

    tune_pass(A->view(), B->view(), src, kk);
    copy(*A, *B);

    // Resident-layout execution (opt-in): hoist the kernel's per-call
    // layout transform out of the timed region — transform the workspace
    // once here, run resident, and transform back after timing. The same
    // transforms and kernel steps happen either way, so results are
    // bitwise identical to the default path.
    auto av = A->view();
    auto bv = B->view();
    const bool resident = prepared_.resident_layout() != Layout::Natural;
    if (resident) {
      av = to_resident_layout(prepared_, av);
      bv = to_resident_layout(prepared_, bv);
      if (kk != nullptr) kview = to_resident_layout(prepared_, kview);
    }

    RunResult res;
    res.tsteps = cfg_.tsteps;
    res.points = cfg_.nx * (D >= 2 ? cfg_.ny : 1) * (D >= 3 ? cfg_.nz : 1);
    Timer timer;
    if constexpr (D == 1) {
      if (kk != nullptr)
        prepared_.run(av, bv, kview, cfg_.tsteps);
      else
        prepared_.run(av, bv, cfg_.tsteps);
    } else {
      prepared_.run(av, bv, cfg_.tsteps);
    }
    do_not_optimize(A->data());
    res.seconds = timer.seconds();
    if (resident) {
      to_natural_layout(prepared_, av);
      to_natural_layout(prepared_, bv);
      if (kk != nullptr) kview = to_natural_layout(prepared_, kview);
    }
    res.gflops = flops_per_step(s, cfg_.nx, cfg_.ny, cfg_.nz) *
                 static_cast<double>(cfg_.tsteps) / res.seconds / 1e9;

    if (verify) {
      // Untimed reference on identical inputs; the timed run's own output
      // is what gets compared (the kernel executes exactly once).
      if (!RA) {
        RA.emplace(make_grid<D>(cfg_.nx, cfg_.ny, cfg_.nz, halo_));
        RB.emplace(make_grid<D>(cfg_.nx, cfg_.ny, cfg_.nz, halo_));
      }
      fill_random(*RA, cfg_.seed);
      copy(*RA, *RB);
      if constexpr (D == 1)
        run_reference(p, *RA, *RB, cfg_.tsteps, src, kk);
      else
        run_reference(p, *RA, *RB, cfg_.tsteps);
      res.max_error = max_abs_diff(*A, *RA);
    }
    return res;
  });
}

}  // namespace sf
