#include "core/engine.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/env.hpp"
#include "core/tuner.hpp"
#include "fold/cost_model.hpp"
#include "grid/view_traits.hpp"
#include "layout/transpose_layout.hpp"
#include "telemetry/telemetry.hpp"
#include "tiling/split_tiling.hpp"

namespace sf {

// ---------------------------------------------------------------------------
// Auto method selection + flop accounting (shared by Engine and Solver).
// ---------------------------------------------------------------------------

double flops_per_step(const StencilSpec& spec, long nx, long ny, long nz) {
  return dispatch_dims(spec.dims, [&](auto dc) {
    constexpr int D = decltype(dc)::value;
    const long n[3] = {nx, ny, nz};
    double pts = 1;
    for (int d = 0; d < D; ++d) pts *= static_cast<double>(n[d]);
    long f = pattern_of<D>(spec).flops_per_point();
    if (spec.has_source) f += 2 * static_cast<long>(spec.src1.size());
    return pts * static_cast<double>(f);
  });
}

Method auto_method(const StencilSpec& spec, Isa isa) {
  const int r = effective_radius(spec);
  // Deepest fold first: fold when the cost model says the folded collect
  // beats the naive expansion *and* the folded vector path engages at this
  // radius. Then the paper's single-step ordering (Table 2):
  // ours > dlt > data-reorg > multiple-loads > naive.
  const KernelInfo* folded = find_kernel(Method::Ours2, spec.dims, isa);
  if (folded != nullptr && folded->supports(r) &&
      dispatch_dims(spec.dims, [&](auto dc) {
        return profitability(pattern_of<decltype(dc)::value>(spec),
                             folded->fold_depth)
                   .index_vec() > 1.0;
      }))
    return Method::Ours2;
  for (Method m : {Method::Ours, Method::DLT, Method::DataReorg,
                   Method::MultipleLoads}) {
    const KernelInfo* k = find_kernel(m, spec.dims, isa);
    if (k != nullptr && k->supports(r)) return m;
  }
  return Method::Naive;
}

// ---------------------------------------------------------------------------
// Prepared state
// ---------------------------------------------------------------------------

struct PreparedStencil::State {
  StencilSpec spec;
  const KernelInfo* kernel = nullptr;
  int halo = 0;
  ExecutionPlan plan;
  long nx = 0, ny = 1, nz = 1;
  int tsteps = 0;
  Layout preferred = Layout::Natural;  // kernel's layout at this radius
  Layout accept = Layout::Natural;     // resident layout run() accepts
  HaloPolicy halo_policy = HaloPolicy::Sync;
  Affinity affinity = Affinity::None;  // resolved placement policy
  bool validate = true;                // per-call view validation
  int threads = 0;                     // resolved request thread count (0 =
                                       // hardware); batch fan-out pool size
  std::uint64_t plan_key = 0;          // effective-request hash (batch key)
  std::shared_ptr<WorkerPool> pool;    // runtime pool of the tiled stages
                                       // (shared per (threads, affinity);
                                       // null for untiled/serial plans)
};

const StencilSpec& PreparedStencil::spec() const { return st_->spec; }
const KernelInfo& PreparedStencil::kernel() const { return *st_->kernel; }
int PreparedStencil::halo() const { return st_->halo; }
const ExecutionPlan& PreparedStencil::plan() const { return st_->plan; }
long PreparedStencil::nx() const { return st_->nx; }
long PreparedStencil::ny() const { return st_->ny; }
long PreparedStencil::nz() const { return st_->nz; }
int PreparedStencil::tsteps() const { return st_->tsteps; }
Layout PreparedStencil::preferred_layout() const { return st_->preferred; }
Layout PreparedStencil::resident_layout() const { return st_->accept; }
HaloPolicy PreparedStencil::halo_policy() const { return st_->halo_policy; }
Affinity PreparedStencil::affinity() const { return st_->affinity; }
bool PreparedStencil::validates() const { return st_->validate; }
std::uint64_t PreparedStencil::plan_key() const { return st_->plan_key; }
const WorkerPool* PreparedStencil::pool() const { return st_->pool.get(); }

// ---------------------------------------------------------------------------
// View validation
// ---------------------------------------------------------------------------

namespace {

bool aligned64(const double* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & 63u) == 0;
}

[[noreturn]] void bad_view(const char* which, const std::string& why) {
  throw std::invalid_argument(std::string("PreparedStencil::run: view '") +
                              which + "' " + why);
}

// `accept` is the resident layout this preparation admits beyond Natural
// (ExecOptions::layout): Natural-tagged views are always valid (the kernel
// transforms in/out per call), accept-tagged views execute resident —
// provided their recorded layout width matches the prepared kernel's (the
// transforms permute differently per SIMD width, so a W=4-resident buffer
// handed to a W=8 kernel would be silently misread, never detectably).
template <class View>
void check_common(const char* which, const View& v, int need_halo,
                  Layout accept, int want_width) {
  if (!v.valid()) bad_view(which, "is empty (default-constructed)");
  const Layout layout = v.layout();
  if (layout != Layout::Natural && layout != accept)
    bad_view(which,
             std::string("is tagged ") + layout_name(layout) +
                 "; this preparation accepts " +
                 (accept == Layout::Natural
                      ? std::string("only natural-layout views (prepare with "
                                    "ExecOptions::layout = the kernel's "
                                    "preferred_layout() for resident "
                                    "execution)")
                      : std::string("natural or ") + layout_name(accept) +
                            " views (transform via to_resident_layout)"));
  if (layout != Layout::Natural && v.layout_width() != want_width) {
    std::ostringstream os;
    os << "is tagged " << layout_name(layout) << " for SIMD width "
       << v.layout_width() << " but the prepared kernel reads width "
       << want_width
       << "; transform via to_resident_layout on this handle (hand-tagged "
          "views must record the width: with_layout(layout, width))";
    bad_view(which, os.str());
  }
  if (v.halo() < need_halo) {
    std::ostringstream os;
    os << "has halo " << v.halo() << " but the prepared kernel requires >= "
       << need_halo;
    bad_view(which, os.str());
  }
  if (!aligned64(v.data()))
    bad_view(which, "interior is not 64-byte aligned (allocate via Grid or "
                    "an aligned allocator)");
}

// The ping-pong pair must share one layout: the kernels treat both buffers
// as being in the same storage order throughout the run.
void check_same_layout(Layout a, Layout b) {
  if (a != b)
    bad_view("b", std::string("is tagged ") + layout_name(b) +
                      " but 'a' is tagged " + layout_name(a) +
                      "; ping-pong buffers must share one layout");
}

// Extents against the prepared ones (x first), then the stride of every
// outer axis: a multiple of 8 doubles, so each row/plane starts 64-byte
// aligned, and at least the haloed extent of the axis below it, so
// consecutive rows/planes never alias.
template <class View>
void check_shape(const char* which, const View& v, const long* want) {
  using T = ViewTraits<View>;
  const auto n = T::extents(v);
  const auto s = T::strides(v);
  for (int d = 0; d < T::dims; ++d) {
    if (n[d] == want[d]) continue;
    std::ostringstream os;
    os << "has " << T::axis[d] << " = " << n[d] << " but was prepared for "
       << want[d];
    bad_view(which, os.str());
  }
  static constexpr const char* kStride[3] = {"", "row", "plane"};
  for (int d = 1; d < T::dims; ++d) {
    const std::ptrdiff_t need = s[d - 1] * (n[d - 1] + 2L * v.halo());
    if (s[d] % 8 == 0 && s[d] >= need) continue;
    std::ostringstream os;
    os << "has " << kStride[d] << " stride " << s[d];
    if (s[d] % 8 != 0)
      os << ", which is not a multiple of 8 doubles";
    else
      os << " < " << need << " (the haloed extent below it); consecutive "
         << kStride[d] << "s would alias";
    bad_view(which, os.str());
  }
}

// Addressable span of a view, as [lo, hi) byte-order addresses. Pointer
// order across distinct allocations is compared via uintptr_t, which every
// supported platform orders consistently.
struct Span {
  std::uintptr_t lo, hi;
};

template <class View>
Span span_of(const View& v) {
  const auto n = ViewTraits<View>::extents(v);
  const auto s = ViewTraits<View>::strides(v);
  const std::ptrdiff_t h = v.halo();
  std::ptrdiff_t lo = 0, hi = 1;  // in doubles, relative to the interior
  for (int d = 0; d < ViewTraits<View>::dims; ++d) {
    lo -= h * s[d];
    hi += (n[d] + h - 1) * s[d];
  }
  const auto base = reinterpret_cast<std::uintptr_t>(v.data());
  return {base + static_cast<std::uintptr_t>(lo) * sizeof(double),
          base + static_cast<std::uintptr_t>(hi) * sizeof(double)};
}

template <class View>
void check_disjoint(const char* which, const View& v, const char* other_name,
                    const View& other) {
  const Span a = span_of(v), b = span_of(other);
  if (a.lo < b.hi && b.lo < a.hi)
    bad_view(which, std::string("overlaps view '") + other_name +
                        "'; executors need disjoint buffers");
}

// The Dirichlet halo is input state on *both* ping-pong buffers (kernels
// read whichever buffer holds the current parity), so run() mirrors a's
// halo ring into b before executing. Interior cells are not touched —
// that is the zero-copy contract. The copy is positional, so it is valid
// in any resident layout as long as both buffers share one (validated):
// permute-then-copy and copy-then-permute produce identical bytes.
// O(surface), not O(volume): only the halo shell is copied — rows fully
// inside the halo slabs in full, interior rows just their x rims.
template <class View>
void sync_halo(const View& a, const View& b) {
  const int h = std::min(a.halo(), b.halo());
  const int nx = ViewTraits<View>::extents(a)[0];
  for_each_row(a, h, -h, tiled_extent(a) + h,
               [&](const auto& i, int x0, int x1, bool shell) {
                 const double* s = row_at(a, i);
                 double* d = row_at(b, i);
                 if (shell) {
                   for (int x = x0; x < x1; ++x) d[x] = s[x];
                 } else {
                   for (int x = x0; x < 0; ++x) d[x] = s[x];
                   for (int x = nx; x < x1; ++x) d[x] = s[x];
                 }
               });
}

}  // namespace

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

const PreparedStencil::State& PreparedStencil::state(int dims,
                                                     const char* fn) const {
  if (st_ == nullptr)
    throw std::invalid_argument(std::string("PreparedStencil::") + fn +
                                " on an empty handle");
  if (st_->spec.dims != dims)
    throw std::invalid_argument(std::to_string(dims) + "-D " + fn +
                                "() on a stencil prepared for " +
                                std::to_string(st_->spec.dims) + "-D");
  return *st_;
}

template <class View>
void PreparedStencil::validate_views(const View& a, const View& b,
                                     const View* k) const {
  const State& st = state(ViewTraits<View>::dims, "validate_views");
  const long want[3] = {st.nx, st.ny, st.nz};
  const int w = st.kernel->width;
  check_common("a", a, st.halo, st.accept, w);
  check_common("b", b, st.halo, st.accept, w);
  check_same_layout(a.layout(), b.layout());
  check_shape("a", a, want);
  check_shape("b", b, want);
  check_disjoint("b", b, "a", a);
  if (st.spec.has_source) {
    if (k == nullptr)
      throw std::invalid_argument(
          "PreparedStencil::run: this stencil has a source term; use the "
          "overload taking the source view 'k'");
    // The source array's layout is independent of the pair's: a
    // natural-tagged k is copied+transformed per call, a resident-tagged
    // one is read zero-copy.
    check_common("k", *k, st.halo, st.accept, w);
    check_shape("k", *k, want);
    check_disjoint("k", *k, "a", a);
    check_disjoint("k", *k, "b", b);
  } else if (k != nullptr) {
    throw std::invalid_argument(
        "PreparedStencil::run: source view 'k' passed but the prepared "
        "stencil has no source term");
  }
}

template <class View>
void PreparedStencil::run_impl(const View& a, const View& b, const View* k,
                               int tsteps) const {
  constexpr int D = ViewTraits<View>::dims;
  const State& st = state(D, "run");
  if (st.validate) validate_views(a, b, k);
  if (st.halo_policy == HaloPolicy::Sync) sync_halo(a, b);
  const auto& p = pattern_of<D>(st.spec);
  const Pattern1D* src = st.spec.has_source ? &st.spec.src1 : nullptr;
  if (st.plan.tiled)
    run_tile_plan(p, a, b, src, k, tsteps, st.plan.tile);
  else
    ViewTraits<View>::run(*st.kernel, p, a, b, src, k, tsteps);
}

void PreparedStencil::run(FieldView1D a, FieldView1D b, int tsteps) const {
  run_impl<FieldView1D>(a, b, nullptr, tsteps);
}
void PreparedStencil::run(FieldView1D a, FieldView1D b, FieldView1D k,
                          int tsteps) const {
  run_impl(a, b, k.valid() ? &k : nullptr, tsteps);
}
void PreparedStencil::run(FieldView2D a, FieldView2D b, int tsteps) const {
  run_impl<FieldView2D>(a, b, nullptr, tsteps);
}
void PreparedStencil::run(FieldView3D a, FieldView3D b, int tsteps) const {
  run_impl<FieldView3D>(a, b, nullptr, tsteps);
}

template <class View>
void PreparedStencil::advance_batch(const std::vector<TileBatch<View>>& items,
                                    int nsteps) const {
  constexpr int D = ViewTraits<View>::dims;
  const State& st = state(D, "advance_batch");
  if (items.empty()) return;
  for (const TileBatch<View>& it : items) {
    if (st.validate) validate_views(it.a, it.b, it.k);
    if (st.halo_policy == HaloPolicy::Sync) sync_halo(it.a, it.b);
  }
  const auto& p = pattern_of<D>(st.spec);
  const Pattern1D* src = st.spec.has_source ? &st.spec.src1 : nullptr;
  if (st.plan.tiled) {
    run_tile_plan_batch(p, items, src, nsteps, st.plan.tile);
    return;
  }
  const auto run_item = [&](const TileBatch<View>& it) {
    ViewTraits<View>::run(*st.kernel, p, it.a, it.b, src, it.k, nsteps);
  };
  // Untiled plan: the batch *is* the parallelism — fan the independent
  // per-item kernel runs over the shared pool in one dispatch.
  if (items.size() > 1 && st.threads != 1) {
    shared_pool(st.threads, st.affinity)
        ->parallel_for(0, static_cast<int>(items.size()), [&](int i) {
          run_item(items[static_cast<std::size_t>(i)]);
        });
  } else {
    for (const TileBatch<View>& it : items) run_item(it);
  }
}

// ---------------------------------------------------------------------------
// First-touch initialization
// ---------------------------------------------------------------------------

namespace {

// Drives `fn(lo, hi)` over the tiled dimension's logical range
// [-halo, n_tiled + halo) of `v` either per placement — each owning worker
// handling exactly its tile rows/planes (plus the domain-end halo slabs
// abutting its tiles) — or serially on the calling thread when `pool` is
// null or the view's tiled extent is not the one `ps` was prepared for.
// `pinned_only` additionally forces the serial path for unpinned
// (Affinity::None) pools: first-touch zeroing gains nothing from floating
// workers (pages would land on whatever node the OS scheduled them),
// whereas compute-bound callers (the pool-parallel layout transform) want
// the parallelism either way.
template <class View, class Fn>
void split_over_placement(const PreparedStencil& ps, WorkerPool* pool,
                          const View& v, bool pinned_only, Fn&& fn) {
  const PlacementPlan& place = ps.plan().placement;
  const long prepared[3] = {ps.nx(), ps.ny(), ps.nz()};
  const long n_tiled = tiled_extent(v);
  const int halo = v.halo();
  if (pool == nullptr || place.workers == 0 ||
      (pinned_only && place.affinity == Affinity::None) ||
      n_tiled != prepared[ViewTraits<View>::dims - 1]) {
    fn(-halo, n_tiled + halo);
    return;
  }
  const int tile = ps.plan().tile.tile;
  pool->run([&](int w) {
    const auto [t0, t1] = place.tiles_of(w);
    if (t0 >= t1) return;
    long lo = static_cast<long>(t0) * tile;
    long hi = std::min<long>(n_tiled, static_cast<long>(t1) * tile);
    // The domain-end halo slabs belong to the workers whose tiles abut
    // them — they are read alongside those tiles every super-step.
    if (t0 == 0) lo = -halo;
    if (hi >= n_tiled) hi = n_tiled + halo;
    fn(lo, hi);
  });
}

}  // namespace

template <class View>
void PreparedStencil::first_touch(const View& v) const {
  if (st_ == nullptr)
    throw std::invalid_argument("PreparedStencil::first_touch on an empty handle");
  const auto zero_rows = [&](long lo, long hi) {
    for_each_row(v, v.halo(), lo, hi, [&](const auto& i, int x0, int x1, bool) {
      std::memset(row_at(v, i) + x0, 0,
                  static_cast<std::size_t>(x1 - x0) * sizeof(double));
    });
  };
  split_over_placement(*this, st_->pool.get(), v, /*pinned_only=*/true,
                       zero_rows);
}

template void PreparedStencil::first_touch(const FieldView1D&) const;
template void PreparedStencil::first_touch(const FieldView2D&) const;
template void PreparedStencil::first_touch(const FieldView3D&) const;
template void PreparedStencil::validate_views(const FieldView1D&,
                                              const FieldView1D&,
                                              const FieldView1D*) const;
template void PreparedStencil::validate_views(const FieldView2D&,
                                              const FieldView2D&,
                                              const FieldView2D*) const;
template void PreparedStencil::validate_views(const FieldView3D&,
                                              const FieldView3D&,
                                              const FieldView3D*) const;
template void PreparedStencil::advance_batch(const std::vector<TileBatch1D>&,
                                             int) const;
template void PreparedStencil::advance_batch(const std::vector<TileBatch2D>&,
                                             int) const;
template void PreparedStencil::advance_batch(const std::vector<TileBatch3D>&,
                                             int) const;

// ---------------------------------------------------------------------------
// Resident-layout conversion helpers
// ---------------------------------------------------------------------------

namespace {

// The in-place transform behind convert_layout(), placement-aware where the
// row/plane structure allows: 2-D rows and 3-D planes are independent, so
// the transform runs as a pool task over the plan's ownership map — each
// worker permutes the rows/planes of its own tiles, keeping the work where
// the pages live (and off the calling thread's node for fresh first-touched
// buffers). 1-D has no such split (ViewTraits::slab_transform) and stays
// serial. Serial/untiled preparations and mismatched extents fall back to
// the caller's thread. The const_cast is sound: pool() returns const only
// as introspection hygiene; the pool object itself is the registry's
// mutable shared state.
template <class View>
void transform_view(const PreparedStencil& ps, const View& v) {
  WorkerPool* pool = ViewTraits<View>::slab_transform
                         ? const_cast<WorkerPool*>(ps.pool())
                         : nullptr;
  split_over_placement(ps, pool, v, /*pinned_only=*/false,
                       [&](long lo, long hi) {
                         apply_transpose_layout_slab(v, ps.kernel().width, lo,
                                                     hi);
                       });
}

// Shared implementation of to_resident_layout()/to_natural_layout(): the
// preferred layouts are involutions (register transpose), so the same
// transform converts in either direction and only the tag bookkeeping
// differs.
template <class View>
View convert_layout(const PreparedStencil& ps, View v, bool to_resident,
                    const char* fn) {
  if (!ps.valid())
    throw std::invalid_argument(std::string(fn) +
                                ": empty PreparedStencil handle");
  if (!v.valid())
    throw std::invalid_argument(std::string(fn) + ": empty view");
  const Layout pref = ps.preferred_layout();
  if (pref == Layout::Natural) {
    if (v.layout() != Layout::Natural)
      throw std::invalid_argument(
          std::string(fn) + ": view is tagged " + layout_name(v.layout()) +
          " but the prepared kernel keeps data in natural layout");
    return v;  // nothing to convert to or from
  }
  // A non-natural view must have been transformed at *this* kernel's SIMD
  // width — the permutations differ per width, so converting (or handing
  // back, in the idempotent case) a foreign-width buffer would scramble it
  // undetectably.
  if (v.layout() != Layout::Natural &&
      v.layout_width() != ps.kernel().width) {
    std::ostringstream os;
    os << fn << ": view is tagged " << layout_name(v.layout())
       << " for SIMD width " << v.layout_width()
       << " but this handle's kernel uses width " << ps.kernel().width;
    throw std::invalid_argument(os.str());
  }
  const Layout want = to_resident ? pref : Layout::Natural;
  if (v.layout() == want) return v;  // idempotent
  const Layout from = to_resident ? Layout::Natural : pref;
  if (v.layout() != from)
    throw std::invalid_argument(
        std::string(fn) + ": view is tagged " + layout_name(v.layout()) +
        "; expected " + layout_name(from) + " (preferred layout is " +
        layout_name(pref) + ")");
  transform_view(ps, v);  // involution
  return v.with_layout(want,
                       want == Layout::Natural ? 0 : ps.kernel().width);
}

}  // namespace

template <class View>
View to_resident_layout(const PreparedStencil& ps, View v) {
  return convert_layout(ps, v, true, "to_resident_layout");
}
template <class View>
View to_natural_layout(const PreparedStencil& ps, View v) {
  return convert_layout(ps, v, false, "to_natural_layout");
}

template FieldView1D to_resident_layout(const PreparedStencil&, FieldView1D);
template FieldView2D to_resident_layout(const PreparedStencil&, FieldView2D);
template FieldView3D to_resident_layout(const PreparedStencil&, FieldView3D);
template FieldView1D to_natural_layout(const PreparedStencil&, FieldView1D);
template FieldView2D to_natural_layout(const PreparedStencil&, FieldView2D);
template FieldView3D to_natural_layout(const PreparedStencil&, FieldView3D);

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

template <int D>
std::uint64_t hash_pattern(std::uint64_t h, const Pattern<D>& p) {
  for (const auto& t : p.taps) {
    for (int d = 0; d < D; ++d)
      h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(t.off[d])));
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(t.w), "double is 64-bit");
    __builtin_memcpy(&bits, &t.w, sizeof(bits));
    h = fnv1a(h, bits);
  }
  return h;
}

std::uint64_t hash_spec(const StencilSpec& s) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, static_cast<std::uint64_t>(s.dims));
  h = dispatch_dims(s.dims, [&](auto dc) {
    return hash_pattern(h, pattern_of<decltype(dc)::value>(s));
  });
  h = fnv1a(h, s.has_source ? 1 : 0);
  if (s.has_source) h = hash_pattern(h, s.src1);
  return h;
}

// Environment/preset fallback resolution shared by prepare() and
// plan_key(): the effective request is what both the plan-cache key and the
// plan-key hash are computed from, so an env change between calls is never
// served (or keyed as) a stale preparation.
void resolve_request(const StencilSpec& spec, Extents& ext, ExecOptions& opts,
                     int& tsteps) {
  if (spec.dims < 1 || spec.dims > 3)
    throw std::invalid_argument("Engine::prepare: no kernels exist for " +
                                std::to_string(spec.dims) + "-D stencils");
  if (opts.affinity == Affinity::None) opts.affinity = env_affinity();
  if (opts.threads == 0) opts.threads = env_threads();
  opts.validate = opts.validate && env_validate();
  if (ext.nx == 0) ext.nx = spec.small_size[0];
  if (ext.ny == 0) ext.ny = spec.dims >= 2 ? spec.small_size[1] : 1;
  if (ext.nz == 0) ext.nz = spec.dims >= 3 ? spec.small_size[2] : 1;
  // Views carry int extents: an axis the stencil uses must fit one.
  const long used[3] = {ext.nx, ext.ny, ext.nz};
  for (int d = 0; d < spec.dims; ++d)
    if (used[d] < 1 || used[d] > std::numeric_limits<int>::max())
      throw std::invalid_argument(
          "Engine::prepare: extent " + std::to_string(used[d]) +
          " of axis " + std::to_string(d) + " is outside [1, INT_MAX]");
  tsteps = opts.tsteps > 0 ? opts.tsteps
                           : static_cast<int>(spec.small_tsteps);
  // Tile-tree depth: unset defers to SF_TILE_LEVELS; Auto (-1, from either
  // source) engages the full hierarchy exactly when the ping-pong working
  // set spills the LLC — flat plans already keep LLC-resident tiles.
  if (opts.levels == 0) opts.levels = env_tile_levels();
  if (opts.levels < 0)
    opts.levels =
        working_set_bytes(ext.nx, ext.ny, ext.nz) > llc_bytes() ? 3 : 1;
  opts.levels = opts.levels < 1 ? 1 : opts.levels > 3 ? 3 : opts.levels;
}

// The effective request after resolve_request(), flattened: every field
// the plan cache matches on and the plan key hashes (the spec itself is
// matched by same_spec() and hashed by hash_spec()).
using RequestFields = std::array<std::uint64_t, 15>;

RequestFields request_fields(const Extents& ext, int tsteps,
                             const ExecOptions& o) {
  auto u = [](auto v) { return static_cast<std::uint64_t>(v); };
  return {u(ext.nx), u(ext.ny), u(ext.nz), u(tsteps), u(o.method),
          u(o.isa), u(o.tiling), u(o.threads), u(o.tile), u(o.time_block),
          u(o.layout), u(o.halo_policy), u(o.affinity), u(o.levels),
          u(o.validate)};
}

// The plan key: FNV-1a over the full effective request. Equal keys mean
// prepare() would serve both requests from one cache entry (modulo hash
// collisions, which only cost a missed batching opportunity downstream —
// the serving batcher executes each group through a handle of that group,
// never across groups).
std::uint64_t request_key(std::uint64_t spec_hash, const RequestFields& f) {
  std::uint64_t h = fnv1a(1469598103934665603ull, spec_hash);
  for (std::uint64_t v : f) h = fnv1a(h, v);
  return h;
}

template <int D>
bool same_pattern(const Pattern<D>& a, const Pattern<D>& b) {
  if (a.taps.size() != b.taps.size()) return false;
  for (std::size_t i = 0; i < a.taps.size(); ++i) {
    if (a.taps[i].off != b.taps[i].off) return false;
    if (a.taps[i].w != b.taps[i].w) return false;
  }
  return true;
}

// Taps are kept sorted and offset-unique by the Pattern algebra, so
// element-wise comparison is a canonical equality test. Identity metadata
// (id, name) participates too: a pattern-identical custom spec must not be
// handed a cached state whose spec() reports another stencil's name.
bool same_spec(const StencilSpec& a, const StencilSpec& b) {
  if (a.id != b.id || a.name != b.name) return false;
  if (a.dims != b.dims || a.has_source != b.has_source) return false;
  if (a.has_source && !same_pattern(a.src1, b.src1)) return false;
  return dispatch_dims(a.dims, [&](auto dc) {
    constexpr int D = decltype(dc)::value;
    return same_pattern(pattern_of<D>(a), pattern_of<D>(b));
  });
}

}  // namespace

struct Engine::CacheEntry {
  std::uint64_t spec_hash = 0;
  RequestFields request{};
  // Per-key tuner dependence: a plan that consulted the TuneCache records
  // *which* key it asked about and what the lookup returned. The entry
  // stays valid exactly while that lookup still returns the same answer —
  // so tuning one configuration invalidates only the preparations that
  // actually read its entry, not every cached plan (the old scheme keyed
  // on the table-wide generation counter and evicted wholesale). Plans
  // that never consulted the tuner (untiled, or explicit tile/time_block)
  // are valid across any tuning activity.
  bool tuner_dependent = false;
  TuneKey tune_key;
  std::optional<TunedGeometry> tune_seen;
  std::shared_ptr<const PreparedStencil::State> state;
};

Engine& Engine::instance() {
  static Engine* e = new Engine();
  return *e;
}

PreparedStencil Engine::prepare(Preset p, Extents ext,
                                const ExecOptions& opts) {
  return prepare(preset(p), ext, opts);
}

PreparedStencil Engine::prepare(const StencilSpec& spec, Extents ext,
                                const ExecOptions& opts_in) {
  // Defaults mirror Solver::resolve(): each unset extent independently
  // falls back to the preset fast-run size. Unset runtime knobs pick up
  // their process-wide environment defaults here, so the cache key below
  // is the *effective* request and an env change between calls is never
  // served a stale preparation.
  ExecOptions opts = opts_in;
  int tsteps = 0;
  resolve_request(spec, ext, opts, tsteps);

  // Tiled auto-geometry plans read the TuneCache, so each cached
  // preparation snapshots the lookup it depended on; it is served only
  // while that per-key lookup still returns the same answer (see
  // CacheEntry). The request key itself includes every ExecOptions field —
  // the resident-layout axis and halo policy change run()-time behavior,
  // so preparations differing in them must not be shared.
  const std::uint64_t sh = hash_spec(spec);
  const RequestFields request = request_fields(ext, tsteps, opts);
  auto matches = [&](const CacheEntry& e) {
    return e.spec_hash == sh && e.request == request &&
           same_spec(e.state->spec, spec);
  };
  auto tuner_fresh = [](const CacheEntry& e) {
    return !e.tuner_dependent ||
           TuneCache::instance().lookup_rounded(e.tune_key) == e.tune_seen;
  };
  {
    LockGuard lock(mu_);
    for (const CacheEntry& e : cache_)
      if (matches(e) && tuner_fresh(e)) {
        ++hits_;
        telemetry::counter("engine.plan_cache.hit").add(1);
        return PreparedStencil(e.state);
      }
  }
  // Miss: a full plan + pool + workspace build — worth a trace span, and
  // the counter pair the cache-effectiveness dashboards divide. Resolving
  // the handle per call is fine here: prepare() is the documented cold
  // path (serving pays it once per plan).
  telemetry::counter("engine.plan_cache.miss").add(1);
  telemetry::Span prepare_span("engine.prepare");

  auto st = std::make_shared<PreparedStencil::State>();
  st->spec = spec;
  st->nx = ext.nx;
  st->ny = ext.ny;
  st->nz = ext.nz;
  st->tsteps = tsteps;
  st->threads = opts.threads;
  st->plan_key = request_key(sh, request);

  const Method m =
      opts.method == Method::Auto ? auto_method(spec, opts.isa) : opts.method;
  st->kernel = find_kernel(m, spec.dims, opts.isa);
  if (st->kernel == nullptr)
    throw std::invalid_argument(std::string("no kernel registered for ") +
                                method_name(m) + " in " +
                                std::to_string(spec.dims) + "-D at " +
                                isa_name(resolve_isa(opts.isa)));
  st->halo = st->kernel->required_halo(effective_radius(spec));
  // Resident-layout negotiation: the handle records the kernel's engaged
  // layout preference, and a request to accept resident views must match
  // it — a mismatch would mean kernels misinterpreting the caller's bytes.
  st->preferred = st->kernel->resident_layout(effective_radius(spec));
  st->accept = opts.layout;
  st->halo_policy = opts.halo_policy;
  st->affinity = opts.affinity;
  st->validate = opts.validate;
  if (opts.layout != Layout::Natural && opts.layout != st->preferred)
    throw std::invalid_argument(
        std::string("Engine::prepare: ExecOptions::layout requests ") +
        layout_name(opts.layout) + "-resident execution but kernel '" +
        st->kernel->name + "' keeps data in " + layout_name(st->preferred) +
        " layout at this radius");

  PlanRequest req;
  req.spec = &st->spec;
  req.kernel = st->kernel;
  req.nx = ext.nx;
  req.ny = ext.ny;
  req.nz = ext.nz;
  req.tsteps = tsteps;
  req.tiling = opts.tiling;
  req.threads = opts.threads;
  req.tile = opts.tile;
  req.time_block = opts.time_block;
  req.affinity = opts.affinity;
  req.levels = opts.levels;
  st->plan = plan_execution(req);

  // Build or reuse the runtime pool the tiled stages will run on (shared
  // per (threads, affinity), workers parked between tasks). The per-worker
  // workspace slabs are first-touched by the wedge schedule's own prologue
  // (tiling/split_tiling.cpp), in the slot that already overlaps the first
  // super-step, so prepare() pays no pool round-trip for them.
  if (st->plan.tiled && st->plan.blocked && st->plan.tile.threads > 1)
    st->pool = shared_pool(st->plan.tile.threads, opts.affinity);

  CacheEntry entry;
  entry.spec_hash = sh;
  entry.request = request;
  // Snapshot the tuner lookup this plan depended on (plan_execution
  // consults the cache only for tiled plans with auto geometry, keyed on
  // the negotiated thread count). The snapshot is taken after planning, so
  // a store racing in between leaves a snapshot one step ahead of the plan
  // — harmless: the entry self-invalidates on the *next* change to that
  // key, and tuned geometry is advisory, never a correctness input.
  entry.tuner_dependent =
      st->plan.tiled && opts.tile == 0 && opts.time_block == 0;
  if (entry.tuner_dependent) {
    // The lookup plan_execution performed is keyed on the thread count
    // negotiated from the *request* (a cached entry may deploy a different
    // winning count, so st->plan.tile.threads is not necessarily the
    // lookup key) — re-derive it the same way.
    entry.tune_key =
        make_tune_key(*st->kernel, effective_radius(spec), ext.nx, ext.ny,
                      ext.nz, tsteps, plan_geometry(req).threads,
                      st->plan.tile.levels);
    entry.tune_seen = TuneCache::instance().lookup_rounded(entry.tune_key);
  }
  entry.state = st;
  {
    LockGuard lock(mu_);
    // Evict the same-request entry being superseded and any entry whose
    // tuner snapshot went stale (it can never be served again); a hard cap
    // bounds the cache against unbounded distinct-shape churn in
    // long-lived processes.
    const std::size_t before = cache_.size();
    cache_.erase(std::remove_if(cache_.begin(), cache_.end(),
                                [&](const CacheEntry& e) {
                                  return matches(e) || !tuner_fresh(e);
                                }),
                 cache_.end());
    constexpr std::size_t kMaxEntries = 256;
    std::size_t evicted = before - cache_.size();
    if (cache_.size() >= kMaxEntries) {
      cache_.erase(cache_.begin());  // oldest first
      ++evicted;
    }
    if (evicted > 0)
      telemetry::counter("engine.plan_cache.evictions")
          .add(static_cast<std::int64_t>(evicted));
    cache_.push_back(std::move(entry));
  }
  return PreparedStencil(st);
}

PreparedStencil Engine::prepare_shared(Preset p, Extents ext,
                                       const ExecOptions& opts) {
  return prepare_shared(preset(p), ext, opts);
}

PreparedStencil Engine::prepare_shared(const StencilSpec& spec, Extents ext,
                                       const ExecOptions& opts) {
  // Build coalescing: the first caller of a key claims it and builds; later
  // callers of the *same* key wait here and are then served the cached
  // state their builder inserted (their prepare() below is a cache hit
  // returning the identical State). Distinct keys never wait on each other.
  const std::uint64_t key = plan_key(spec, ext, opts);
  {
    UniqueLock lock(share_mu_);
    // Explicit loop so the guarded building_ reads are visibly under the
    // lock to the thread-safety analysis.
    while (building_.count(key) != 0) share_cv_.wait(lock);
    building_.insert(key);
  }
  struct Claim {  // release the key and wake waiters even on throw
    Engine* e;
    std::uint64_t key;
    ~Claim() {
      {
        LockGuard lock(e->share_mu_);
        e->building_.erase(key);
      }
      e->share_cv_.notify_all();
    }
  } claim{this, key};
  return prepare(spec, ext, opts);
}

std::uint64_t Engine::plan_key(const StencilSpec& spec, Extents ext,
                               const ExecOptions& opts_in) const {
  ExecOptions opts = opts_in;
  int tsteps = 0;
  resolve_request(spec, ext, opts, tsteps);
  return request_key(hash_spec(spec), request_fields(ext, tsteps, opts));
}

std::size_t Engine::plan_cache_size() const {
  LockGuard lock(mu_);
  return cache_.size();
}

long Engine::plan_cache_hits() const {
  LockGuard lock(mu_);
  return hits_;
}

void Engine::warm_pool(int threads) {
  // Building the shared pool is the warmup: workers spawn, pin and park.
  // Resolve the same process-wide affinity default prepare() would, so the
  // pool warmed here is the pool a subsequent prepare() reuses.
  shared_pool(threads, env_affinity());
}

}  // namespace sf
