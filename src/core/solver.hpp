/// \file
/// \brief The public entry point: a dimension-generic, builder-style facade
/// over the kernel registry and the execution planner.
///
/// \code
///   RunResult r = Solver::make(Preset::Heat2D)
///                     .size(4096, 4096)
///                     .steps(500)
///                     .method("ours-2step")   // or Method::Auto (default)
///                     .isa(Isa::Auto)
///                     .tiling(Tiling::On)     // split tiling (Fig. 9 path)
///                     .threads(8)             // 0 = OpenMP default
///                     .run();
/// \endcode
///
/// The Solver is a thin convenience facade over the prepared-execution
/// layer (core/engine.hpp): resolve() asks the process-wide Engine to
/// prepare the run — kernel selection through the registry (fold cost model
/// when the method is Auto), halo negotiation
/// (KernelInfo::required_halo), and the ExecutionPlan that decides untiled
/// vs. split-tiled execution with its concrete tile/time_block/threads
/// geometry (core/execution_plan.hpp) — and run() executes the resulting
/// PreparedStencil on the Solver-owned Workspace grids. With `tune(true)`
/// (or `SF_TUNE=1`) the first run of a configuration measures a handful of
/// candidate tile extents and caches the winner (core/tuner.hpp), so later
/// runs — and later processes when `SF_TUNE_CACHE` is set — plan for free.
/// Callers who own their buffers use Engine::prepare directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/cpu.hpp"
#include "core/engine.hpp"
#include "core/execution_plan.hpp"
#include "grid/grid.hpp"
#include "kernels/registry.hpp"
#include "stencil/presets.hpp"

namespace sf {

/// The grids a Solver runs on. One (a, b) ping-pong pair of the problem's
/// dimensionality is allocated with the halo negotiated from the selected
/// kernel's capability; `k` is the 1-D time-invariant source array (APOP),
/// and (ra, rb) are the naive-reference pair allocated only for verified
/// runs. Allocations persist across run() calls and are re-made only when
/// the shape or halo changes. After run(), `a*` of the active
/// dimensionality holds the final state.
struct Workspace {
  int dims = 0;           ///< Active dimensionality (0 = nothing allocated).
  int halo = 0;           ///< Halo the grids were allocated with.
  long nx = 0;            ///< Extents the grids were allocated for.
  long ny = 0;            ///< Second extent.
  long nz = 0;            ///< Third extent.
  Affinity affinity = Affinity::None;
  ///< Placement policy the grids were first-touched under; changing the
  ///< Solver's affinity reallocates so the pages are placed afresh.

  std::optional<Grid1D> a1;   ///< 1-D result grid.
  std::optional<Grid1D> b1;   ///< 1-D scratch grid.
  std::optional<Grid1D> k1;   ///< 1-D time-invariant source array (APOP).
  std::optional<Grid1D> ra1;  ///< 1-D reference grid (verified runs).
  std::optional<Grid1D> rb1;  ///< 1-D reference scratch.
  std::optional<Grid2D> a2;   ///< 2-D result grid.
  std::optional<Grid2D> b2;   ///< 2-D scratch grid.
  std::optional<Grid2D> ra2;  ///< 2-D reference grid.
  std::optional<Grid2D> rb2;  ///< 2-D reference scratch.
  std::optional<Grid3D> a3;   ///< 3-D result grid.
  std::optional<Grid3D> b3;   ///< 3-D scratch grid.
  std::optional<Grid3D> ra3;  ///< 3-D reference grid.
  std::optional<Grid3D> rb3;  ///< 3-D reference scratch.
};

/// Timing/throughput/accuracy results of one Solver run.
struct RunResult {
  double seconds = 0;     ///< Wall time of the timed kernel execution.
  double gflops = 0;      ///< Useful flops: taps-based, identical across
                          ///< methods.
  double max_error = -1;  ///< Vs naive reference, if verification requested
                          ///< (negative = not verified).
  long points = 0;        ///< Grid points per time step.
  int tsteps = 0;         ///< Time steps executed.
};

/// Builder-style facade over the Engine's prepared-execution layer.
class Solver {
 public:
  /// Starts a builder chain for one of the paper's Table-1 presets.
  static Solver make(Preset p) { return Solver(preset(p)); }
  /// Starts a builder chain for an arbitrary stencil specification.
  static Solver make(const StencilSpec& spec) { return Solver(spec); }

  /// Copying a Solver copies its *specification* (stencil, size, method,
  /// ...) but not the workspace grids: the copy starts with an empty
  /// workspace and allocates on its first run. The prepared handle is
  /// shared — preparations are immutable. This keeps builder chains
  /// assignable (`Solver s = Solver::make(p).method(...).steps(...);`).
  Solver(const Solver& o)
      : cfg_(o.cfg_), prepared_(o.prepared_), selected_(o.selected_),
        halo_(o.halo_), plan_(o.plan_) {}
  /// Specification-copying assignment; see the copy constructor.
  Solver& operator=(const Solver& o) {
    if (this != &o) {
      cfg_ = o.cfg_;
      prepared_ = o.prepared_;
      selected_ = o.selected_;
      halo_ = o.halo_;
      plan_ = o.plan_;
      ws_ = Workspace{};
    }
    return *this;
  }

  // ---- builder ----------------------------------------------------------
  /// Problem extents; trailing dimensions are ignored below spec.dims.
  /// Unset (0) extents default to the preset's fast-run size.
  Solver& size(long nx, long ny = 0, long nz = 0);
  /// Time-step horizon (0 = the preset's fast-run default).
  Solver& steps(int tsteps);
  /// Vectorization/folding method (Method::Auto = fold cost model).
  Solver& method(Method m);
  /// Method by registry string key ("auto" included).
  Solver& method(const std::string& name);
  /// ISA level (Isa::Auto = widest the CPU supports).
  Solver& isa(Isa v);
  /// Tiling policy: Auto (cost model, the default), On (always tile when
  /// the kernel's tiled stage engages — the paper's Fig. 9 configuration),
  /// or Off.
  Solver& tiling(Tiling mode);
  /// Pool workers for the tiled stages (0 = hardware threads, or
  /// `SF_THREADS` when set). Part of the tuner cache key.
  Solver& threads(int n);
  /// Worker placement policy of the tiled stages (runtime/topology.hpp):
  /// Affinity::None (default — unpinned, the historical behavior; the
  /// `SF_AFFINITY` env default applies), Compact (pack adjacent cores) or
  /// Scatter (spread across NUMA nodes). Results are bitwise identical
  /// across policies; with a non-None policy the workspace grids are also
  /// allocated first-touch: each pinned worker touches its own tiles'
  /// pages, so they land on its NUMA node.
  Solver& affinity(Affinity a);
  /// Tile-tree depth of the plan (core/execution_plan.hpp TileTree): 1 =
  /// flat (the historical plan), 2/3 = hierarchical LLC/register blocking,
  /// -1 = Auto (depth from working set vs LLC), 0 (the default) = the
  /// process-wide `SF_TILE_LEVELS` default. Results are bitwise identical
  /// across depths; only cache locality changes.
  Solver& levels(int depth);
  /// Explicit tile extent along the tiled dimension (0 = negotiate/tune).
  Solver& tile(int extent);
  /// Explicit time steps per block (0 = negotiate/tune).
  Solver& time_block(int steps);
  /// Enables the measure-once auto-tuner for this Solver's tiled runs
  /// (equivalent to SF_TUNE=1 process-wide). The first run of a
  /// configuration measures candidate tile extents; the result is cached in
  /// the process-wide TuneCache (and in SF_TUNE_CACHE when set).
  Solver& tune(bool on = true);
  /// Opt-in resident-layout execution: when the selected kernel keeps data
  /// in a transformed layout (PreparedStencil::preferred_layout(), e.g.
  /// Layout::Transposed for the "ours" methods), run() transforms the
  /// workspace grids into that layout once, executes resident — skipping
  /// the kernel's per-call transform in and out — and transforms back
  /// after timing. Results are bitwise identical to the default path (the
  /// same transforms and kernel steps happen, just hoisted out of the
  /// timed per-call loop); the default (off) leaves existing figures
  /// untouched. No-op for kernels that prefer natural layout.
  Solver& resident_layout(bool on = true);
  /// Seed of the deterministic random initial condition.
  Solver& seed(std::uint64_t s);

  // ---- resolved view ----------------------------------------------------
  /// The stencil being solved.
  const StencilSpec& spec() const { return cfg_.spec; }
  /// Prepares the run through the process-wide Engine: selects the kernel
  /// (resolving Method::Auto via the cost model), fills defaulted
  /// sizes/steps, and captures the execution plan in a PreparedStencil.
  /// Throws std::invalid_argument if no kernel is registered for the
  /// request. Idempotent.
  Solver& resolve();
  /// The Engine-prepared handle this Solver executes through; resolves
  /// first. Useful for migrating to caller-owned buffers: the same handle
  /// can run() on any conforming FieldViews.
  const PreparedStencil& prepared() { return resolve().prepared_; }
  /// The selected kernel's registry entry; resolves first.
  const KernelInfo& kernel();
  /// Negotiated workspace halo; resolves first.
  int halo();
  /// How the next run() will execute: untiled or split-tiled, with the
  /// concrete tile/time_block/threads geometry and its provenance
  /// (heuristic, tuner-cached, or tuned). Resolves first. A tuning run
  /// upgrades the stored plan, so calling this after run() reports the
  /// geometry that actually executed.
  const ExecutionPlan& plan() { return resolve().plan_; }
  /// Resolved x extent.
  long nx() { return resolve().cfg_.nx; }
  /// Resolved y extent (1 below 2-D).
  long ny() { return resolve().cfg_.ny; }
  /// Resolved z extent (1 below 3-D).
  long nz() { return resolve().cfg_.nz; }
  /// Resolved time-step horizon.
  int tsteps() { return resolve().cfg_.tsteps; }

  // ---- execution --------------------------------------------------------
  /// One timed run; result grids live in the Solver-owned workspace.
  RunResult run() { return run_impl(false); }
  /// One timed run *plus* an untimed naive-reference run on identical
  /// inputs; fills RunResult::max_error. The measured kernel executes
  /// exactly once (its own output is what gets verified).
  RunResult run_verified() { return run_impl(true); }

  /// The Solver-owned grids; populated by run()/run_verified().
  const Workspace& workspace() const { return ws_; }

 private:
  /// The whole problem specification in one copyable bundle, so Solver's
  /// copy operations cannot silently miss a future builder field.
  struct Config {
    StencilSpec spec;
    Method method = Method::Auto;
    Isa isa = Isa::Auto;
    long nx = 0, ny = 0, nz = 0;
    int tsteps = 0;
    Tiling tiling = Tiling::Auto;
    int threads = 0;
    int tile = 0;
    int time_block = 0;
    Affinity affinity = Affinity::None;
    int levels = 0;
    bool tune = false;
    bool resident = false;
    std::uint64_t seed = 42;
  };

  explicit Solver(const StencilSpec& spec) { cfg_.spec = spec; }
  RunResult run_impl(bool verify);
  /// The planner request for the current configuration (requires a
  /// selected kernel). Built in one place so resolve() and the tuning pass
  /// can never disagree on the request fields.
  PlanRequest plan_request() const;
  /// The Engine prepare options for the current configuration.
  ExecOptions exec_options() const;
  /// The measure-once auto-tuning pass: when enabled and the plan is a
  /// blocked heuristic one, probes candidates on (a, b) along staged axes
  /// in sequence — leaf (register-block) granules first for tree plans,
  /// then tile extents (heuristic block height as the probe seed),
  /// then (tile × time_block) pairs around the winner, then candidate
  /// thread counts {resolved, resolved/2, cores-per-node} — records the
  /// winner in the TuneCache, re-prepares through the Engine (which now
  /// recalls the tuned geometry), upgrades plan_ to the winner
  /// (source = Tuned), and restores `a`'s initial state. No-op otherwise.
  template <class View>
  void tune_pass(const View& a, const View& b, const Pattern1D* src,
                 const View* kk);

  Config cfg_;
  PreparedStencil prepared_;              // set by resolve()
  const KernelInfo* selected_ = nullptr;  // mirrors prepared_ for accessors
  int halo_ = 0;
  ExecutionPlan plan_;  // prepared_'s plan, upgraded in place by tune_pass
  Workspace ws_;
};

}  // namespace sf
