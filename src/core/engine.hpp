/// \file
/// \brief Prepared execution: one-time prepare, cheap repeatable execute.
///
/// `sf::Engine` is the process-wide planning service. It owns what used to
/// be re-derived on every `Solver::run()`: the registry view (kernel
/// selection), the plan cache (negotiated ExecutionPlans keyed on the full
/// request), the tuner cache hookup, and the runtime WorkerPool acquisition
/// (built or reused per (threads, affinity), per-worker workspace slabs
/// first-touched on their owners), so parallel stages never pay thread
/// creation or remote-node workspace pages on the execute path.
///
/// \code
///   Engine& eng = Engine::instance();
///   PreparedStencil ps = eng.prepare(preset(Preset::Heat2D),
///                                    {4096, 4096}, {});
///   Grid2D a(4096, 4096, ps.halo()), b(4096, 4096, ps.halo());
///   fill_random(a, 42);
///   ps.run(a, b, 500);          // zero-copy: result lands in `a`
///   ps.run(a, b, 500);          // no re-plan, no allocation
/// \endcode
///
/// A PreparedStencil is an immutable, thread-safe handle: distinct handles
/// — or the same handle with distinct field sets — may run() concurrently
/// from multiple threads. Fields are passed as zero-copy FieldViews
/// (grid/field_view.hpp) over caller-owned memory; run() validates each
/// view against the prepared geometry (extents, halo, alignment, stride,
/// layout) and throws std::invalid_argument on mismatch instead of
/// corrupting memory.
///
/// `sf::Solver` (core/solver.hpp) remains the convenience facade: it owns
/// its grids and drives this layer underneath.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "core/execution_plan.hpp"
#include "grid/grid.hpp"
#include "kernels/registry.hpp"
#include "runtime/worker_pool.hpp"
#include "stencil/presets.hpp"

namespace sf {

/// Problem extents of a prepare request. Unset (0) trailing extents default
/// to the stencil's preset fast-run size, mirroring Solver::size().
struct Extents {
  long nx = 0;  ///< First extent.
  long ny = 0;  ///< Second extent (ignored below 2-D).
  long nz = 0;  ///< Third extent (ignored below 3-D).
};

/// Per-call halo handling of PreparedStencil::run().
enum class HaloPolicy {
  Sync,   ///< run() mirrors a's Dirichlet halo ring into b before executing
          ///< (the safe default: b's halo may hold anything).
  Clean,  ///< The caller promises b's halo already equals a's (true after
          ///< any prior run() on the same pair, since kernels never
          ///< write halos) — the O(surface) per-call sync is skipped.
          ///< Streaming run() loops use this to shave the remaining
          ///< per-call work once the pair is warmed up.
};

/// Execution knobs of a prepare request — the planning-relevant subset of
/// the Solver builder, in one aggregate.
struct ExecOptions {
  Method method = Method::Auto;  ///< Kernel method (Auto = fold cost model).
  Isa isa = Isa::Auto;           ///< ISA level (Auto = widest supported).
  Tiling tiling = Tiling::Auto;  ///< Split-tiling policy.
  int threads = 0;     ///< OpenMP threads for tiled stages (0 = default).
  int tile = 0;        ///< Explicit tile extent (0 = negotiate/tune).
  int time_block = 0;  ///< Explicit time block (0 = negotiate/tune).
  int tsteps = 0;  ///< Planning horizon in time steps (0 = preset default).
                   ///< run() may execute a different horizon; the captured
                   ///< geometry is simply re-clamped by the engine.
  Layout layout = Layout::Natural;
  ///< Resident field layout run() will accept in addition to
  ///< Layout::Natural. Layout::Natural (the default) keeps the historical
  ///< contract: only natural-layout views are accepted and layout-using
  ///< kernels transform in/out on every call. Requesting the selected
  ///< kernel's preferred layout (PreparedStencil::preferred_layout(),
  ///< Transposed for the "ours" methods) lets callers keep their buffers
  ///< in that layout across a run() stream — transform once via
  ///< to_resident_layout(), then every call skips the involution.
  ///< prepare() throws when the layout is not the kernel's preference.
  HaloPolicy halo_policy = HaloPolicy::Sync;
  ///< Per-call halo handling; see HaloPolicy.
  Affinity affinity = Affinity::None;
  ///< Worker placement of the tiled stages (runtime/topology.hpp): the
  ///< prepared plan's pool pins its workers per this policy and the
  ///< placement map assigns them tile ranges. Affinity::None (default)
  ///< leaves workers unpinned — results are bitwise identical across
  ///< policies; placement changes locality only. When left at None the
  ///< process-wide `SF_AFFINITY` default applies.
  int levels = 0;
  ///< Tile-tree depth of the plan (core/execution_plan.hpp TileTree):
  ///< 1 keeps the flat one-level plan, 2/3 engage the hierarchical
  ///< LLC/register blocking negotiation, -1 picks the depth from the
  ///< working set vs the LLC (Auto), and 0 (the default) defers to the
  ///< process-wide `SF_TILE_LEVELS` default — resolved at prepare() time,
  ///< so prepared handles are env-immune and the plan cache keys on the
  ///< effective depth. Results are bitwise identical across depths.
  bool validate = true;
  ///< Per-call FieldView validation in run(). Default on; the
  ///< debug-only escape hatch (`validate = false`, or `SF_VALIDATE=0`
  ///< process-wide) removes the residual O(1) checks from streaming
  ///< run() loops — combined with HaloPolicy::Clean a call is then
  ///< pure kernel dispatch. Invalid views are undefined behavior once
  ///< validation is off; keep it on everywhere except profiled-clean
  ///< streaming hot loops.
};

/// Immutable, thread-safe handle to one prepared stencil execution: the
/// negotiated kernel, halo, ExecutionPlan and tile geometry, captured once
/// by Engine::prepare(). Copies share the underlying prepared state.
///
/// run() executes zero-copy on caller-owned buffers. The result
/// always lands in `a`; `b` is same-shaped scratch whose halo run() syncs
/// from `a` (Dirichlet halos are part of the input state, and both
/// ping-pong buffers expose them to the kernels) — unless the handle was
/// prepared with HaloPolicy::Clean. Handles prepared with
/// ExecOptions::layout additionally accept views kept resident in the
/// kernel's preferred layout (see to_resident_layout), skipping the
/// per-call layout transform.
class PreparedStencil {
 public:
  /// An empty handle; valid() is false and run() throws. Assign from
  /// Engine::prepare() to obtain a usable one.
  PreparedStencil() = default;

  /// True when this handle holds prepared state.
  bool valid() const { return st_ != nullptr; }

  /// The stencil this handle was prepared for.
  const StencilSpec& spec() const;
  /// The negotiated kernel's registry entry.
  const KernelInfo& kernel() const;
  /// Minimum halo the field views must be allocated with.
  int halo() const;
  /// The captured execution plan (untiled or split-tiled geometry).
  const ExecutionPlan& plan() const;
  /// Prepared first extent.
  long nx() const;
  /// Prepared second extent (1 below 2-D).
  long ny() const;
  /// Prepared third extent (1 below 3-D).
  long nz() const;
  /// The planning horizon the geometry was negotiated for.
  int tsteps() const;
  /// The memory layout the negotiated kernel keeps field data in between
  /// time steps (KernelInfo::resident_layout at the prepared radius):
  /// Layout::Transposed for the engaged register-transpose kernels,
  /// Layout::Natural otherwise. This is what to_resident_layout() converts
  /// to — independent of whether *this handle* accepts resident views
  /// (that requires ExecOptions::layout, see resident_layout()).
  Layout preferred_layout() const;
  /// The resident layout run() accepts beyond Layout::Natural —
  /// ExecOptions::layout as validated by prepare(). Natural means this is
  /// a natural-only handle (the historical contract).
  Layout resident_layout() const;
  /// The per-call halo policy this handle was prepared with.
  HaloPolicy halo_policy() const;
  /// The resolved worker placement policy (ExecOptions::affinity after the
  /// SF_AFFINITY default applied).
  Affinity affinity() const;
  /// True when run() validates views per call (the default).
  bool validates() const;
  /// Stable hash of the *effective* prepare request this handle was built
  /// from (stencil pattern + extents + horizon + every resolved ExecOptions
  /// field). Two handles share a plan key exactly when Engine::prepare
  /// would serve them from one cache entry — same kernel, geometry, pool
  /// and validation behavior — so requests with equal keys are safely
  /// batchable through advance_batch(). This is the key the serving
  /// batcher (serving/server.hpp) groups submissions by.
  std::uint64_t plan_key() const;
  /// The persistent worker pool the tiled stages execute on — shared per
  /// (threads, affinity) configuration and reused across prepare() calls —
  /// or nullptr for untiled/serial plans. Exposed for introspection and
  /// tests; the pool is owned by the runtime registry (shared_pool), not
  /// by this handle.
  const WorkerPool* pool() const;

  /// First-touch initialization: zeroes `v`'s buffer with each pool worker
  /// writing exactly the rows/planes of the wedge tiles the placement plan
  /// assigns it (plus the adjacent boundary halo at the domain ends), so
  /// under Linux's first-touch policy every worker's tiles land on its own
  /// NUMA node. Call it on freshly allocated, never-written memory —
  /// first touch is decided by the *first* write, so a buffer that was
  /// already zeroed serially gains nothing. Serial/untiled preparations
  /// (and Affinity::None pools) zero the buffer on the calling thread.
  /// `View` is FieldView1D, FieldView2D or FieldView3D.
  template <class View>
  void first_touch(const View& v) const;

  /// Executes `tsteps` steps on a 1-D source-free stencil; result in `a`.
  /// Throws std::invalid_argument on view/shape mismatch. Repeated calls on
  /// the same pair stream the fields onward: no per-call planning or
  /// allocation occurs.
  void run(FieldView1D a, FieldView1D b, int tsteps) const;
  /// 1-D run with the APOP time-invariant source array `k`.
  void run(FieldView1D a, FieldView1D b, FieldView1D k, int tsteps) const;
  /// 2-D run; result in `a`.
  void run(FieldView2D a, FieldView2D b, int tsteps) const;
  /// 3-D run; result in `a`.
  void run(FieldView3D a, FieldView3D b, int tsteps) const;

  /// Batched run: advances every item of `items` by `nsteps` steps with
  /// *one* pool dispatch (tiling/split_tiling.hpp run_tile_plan_batch)
  /// instead of one per item — the serving batcher's execution primitive,
  /// amortizing dispatch and barrier cost across N same-plan small grids.
  /// Per-item semantics are exactly run(): each item is validated (unless
  /// prepared with validate off), halo-synced per the prepared HaloPolicy,
  /// and its result lands in its `a`; results are bitwise identical to
  /// sequential run() calls. Items must all match this handle's prepared
  /// geometry, and buffers of distinct items must be pairwise disjoint (not
  /// cross-checked — each item's views are validated individually). A 1-D
  /// prepared stencil with a source term reads each item's own `k` view.
  template <class View>
  void advance_batch(const std::vector<TileBatch<View>>& items,
                     int nsteps) const;

  /// Validates a view pair (plus, in 1-D, the optional source array `k`)
  /// against the prepared geometry exactly as run() does —
  /// unconditionally, even on handles prepared with validation off. Throws
  /// std::invalid_argument on mismatch. The serving front end calls this at
  /// submit time so a bad request is rejected on the client thread instead
  /// of poisoning a batch.
  template <class View>
  void validate_views(const View& a, const View& b,
                      const View* k = nullptr) const;

 private:
  friend class Engine;
  struct State;
  explicit PreparedStencil(std::shared_ptr<const State> st)
      : st_(std::move(st)) {}
  /// The prepared state; throws unless this handle holds one for `dims`-D
  /// views (`fn` names the caller in the message).
  const State& state(int dims, const char* fn) const;
  /// The one body behind the run() overloads.
  template <class View>
  void run_impl(const View& a, const View& b, const View* k,
                int tsteps) const;

  std::shared_ptr<const State> st_;
};

/// Process-wide prepared-execution service. prepare() performs the one-time
/// work — kernel selection, halo and resident-layout negotiation,
/// plan/tune-cache consultation, worker-pool build-or-reuse with
/// first-touch workspace initialization — and hands back an
/// immutable PreparedStencil. Identical requests (same stencil, extents
/// and options) return a shared cached preparation; a preparation whose
/// plan consulted the tuner stays cached exactly while its *own* TuneCache
/// lookup is unchanged (per-key invalidation — tuning one configuration
/// never evicts unrelated prepared handles). Thread-safe.
class Engine {
 public:
  /// The process-wide engine.
  static Engine& instance();

  /// Prepares one stencil execution. Unset extents/horizon default to the
  /// spec's preset fast-run values. Throws std::invalid_argument when no
  /// kernel is registered for the requested (method, dims, ISA).
  PreparedStencil prepare(const StencilSpec& spec, Extents ext = {},
                          const ExecOptions& opts = {});
  /// Preset convenience overload of prepare().
  PreparedStencil prepare(Preset p, Extents ext = {},
                          const ExecOptions& opts = {});

  /// Concurrency-friendly prepare() for multi-tenant callers: concurrent
  /// prepare_shared() calls for the *same* effective request coalesce — one
  /// caller builds the preparation while the others wait and are then
  /// served the identical cached state, instead of every tenant paying the
  /// planning (and possibly pool-construction) cost in parallel and racing
  /// to insert duplicates. Distinct requests build concurrently; semantics
  /// are otherwise exactly prepare(). This is what the serving front end
  /// prepares tenant plans through.
  PreparedStencil prepare_shared(const StencilSpec& spec, Extents ext = {},
                                 const ExecOptions& opts = {});
  /// Preset convenience overload of prepare_shared().
  PreparedStencil prepare_shared(Preset p, Extents ext = {},
                                 const ExecOptions& opts = {});

  /// The plan key prepare() would assign this request: the stable hash of
  /// the effective request after environment defaults (SF_AFFINITY,
  /// SF_THREADS, SF_VALIDATE) and preset extent/horizon fallbacks are
  /// resolved — the same value PreparedStencil::plan_key() reports on the
  /// resulting handle. Lets a batcher group requests before preparing.
  std::uint64_t plan_key(const StencilSpec& spec, Extents ext = {},
                         const ExecOptions& opts = {}) const;

  /// Number of distinct preparations currently cached.
  std::size_t plan_cache_size() const;
  /// prepare() calls served from the cache over this engine's lifetime.
  long plan_cache_hits() const;

  /// Ensures the process-wide WorkerPool for `threads` workers (0 = the
  /// hardware thread count) at Affinity::None exists, so the first tiled
  /// run() does not pay thread creation. prepare() acquires the matching
  /// pool automatically for tiled plans (including pinned ones); this
  /// remains for callers that want to pre-warm before preparing.
  void warm_pool(int threads = 0);

 private:
  Engine() = default;

  struct CacheEntry;

  mutable Mutex mu_;
  std::vector<CacheEntry> cache_ SF_GUARDED_BY(mu_);
  long hits_ SF_GUARDED_BY(mu_) = 0;

  // prepare_shared() build coalescing: plan keys currently being built.
  Mutex share_mu_;
  CondVar share_cv_;
  std::unordered_set<std::uint64_t> building_ SF_GUARDED_BY(share_mu_);
};

/// Transforms `v`'s buffer in place into `ps`'s preferred resident layout
/// and returns the view re-tagged with it. The one-time counterpart of the
/// per-call involution: pay it once, then stream transposed-tagged views
/// through a handle prepared with ExecOptions::layout and every
/// run() skips the transform. Halo rows/planes are transformed
/// along with the interior (kernels read y/z-neighbours of boundary rows
/// through layout-aware accessors). No-op when the preferred layout is
/// Natural or `v` is already tagged with it; throws std::invalid_argument
/// for views tagged with any other layout.
/// `View` is FieldView1D, FieldView2D or FieldView3D.
template <class View>
View to_resident_layout(const PreparedStencil& ps, View v);

/// Inverse of to_resident_layout(): transforms a resident-tagged view's
/// buffer back to natural order (the transpose layout is an involution) and
/// returns it re-tagged Layout::Natural. No-op on natural-tagged views.
template <class View>
View to_natural_layout(const PreparedStencil& ps, View v);

/// Useful FLOPs per time step for a stencil at the given size.
double flops_per_step(const StencilSpec& spec, long nx, long ny, long nz);

/// The method Auto resolves to for this stencil at this ISA: the deepest
/// profitable fold (paper Eq. 3) whose vector path engages at the pattern's
/// radius, falling back through the paper's method ordering.
Method auto_method(const StencilSpec& spec, Isa isa);

}  // namespace sf
