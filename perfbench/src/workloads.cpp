// The two solve workloads (heat3d-llc, box2d-1t): one prepared stencil run
// back to back with library defaults, then checked against the naive
// reference over the dependence cones of a seeded sample of cells.
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "stencil/reference.hpp"

namespace pb {

// --- Helpers declared in common.hpp ----------------------------------------

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void parallel_chunks(long n, int threads,
                     const std::function<void(long, long)>& fn) {
  threads = static_cast<int>(std::max(1L, std::min<long>(threads, n)));
  std::vector<std::thread> ts;
  for (int t = 1; t < threads; ++t)
    ts.emplace_back(fn, n * t / threads, n * (t + 1) / threads);
  fn(0, n / threads);
  for (auto& t : ts) t.join();
}

double time_median(const std::function<void()>& fn, int min_reps,
                   double min_seconds) {
  std::vector<double> ts;
  const double start = now();
  while (static_cast<int>(ts.size()) < min_reps || now() - start < min_seconds) {
    const double t0 = now();
    fn();
    ts.push_back(now() - t0);
  }
  return median(ts);
}

void fill_input(const sf::FieldView1D& v, std::uint64_t seed,
                std::uint64_t stream) {
  for (int x = -v.halo(); x < v.n() + v.halo(); ++x)
    v.at(x) = input_value(seed, stream, gen_index(0, 0, x));
}

void fill_input(const sf::FieldView2D& v, std::uint64_t seed,
                std::uint64_t stream) {
  const int h = v.halo();
  for (int y = -h; y < v.ny() + h; ++y)
    for (int x = -h; x < v.nx() + h; ++x)
      v.at(y, x) = input_value(seed, stream, gen_index(0, y, x));
}

void fill_input(const sf::FieldView3D& v, std::uint64_t seed,
                std::uint64_t stream) {
  const int h = v.halo();
  parallel_chunks(v.nz() + 2L * h, nproc(), [&](long lo, long hi) {
    for (long z = lo - h; z < hi - h; ++z)
      for (int y = -h; y < v.ny() + h; ++y)
        for (int x = -h; x < v.nx() + h; ++x)
          v.at(static_cast<int>(z), y, x) =
              input_value(seed, stream, gen_index(z, y, x));
  });
}

namespace {

/// Reusable barrier for the step-synchronous parallel reference check.
class Barrier {
 public:
  explicit Barrier(int n) : n_(n) {}
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    const long gen = gen_;
    if (++count_ == n_) {
      count_ = 0;
      ++gen_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return gen_ != gen; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int n_;
  int count_ = 0;  // guarded by mu_
  long gen_ = 0;   // guarded by mu_
};

// --- Dependence-cone reference check --------------------------------------

template <int D>
struct Dims;
template <>
struct Dims<2> {
  using Grid = sf::Grid2D;
  using View = sf::FieldView2D;
  static std::array<long, 3> ext(const View& v) { return {1, v.ny(), v.nx()}; }
  static std::unique_ptr<Grid> grid(std::array<long, 3> n, int h, bool zero) {
    return std::make_unique<Grid>(static_cast<int>(n[1]), static_cast<int>(n[2]),
                                  h, zero);
  }
  static double& at(const View& v, long, long y, long x) {
    return v.at(static_cast<int>(y), static_cast<int>(x));
  }
  /// Reference update of outer-axis slices [r0, r1) (rows).
  static void apply(const sf::Pattern2D& p, const View& in, const View& out,
                    long r0, long r1) {
    sf::apply_pattern(p, in, out, static_cast<int>(r0), static_cast<int>(r1), 0,
                      in.nx());
  }
  static long outer(const View& v) { return v.ny(); }
};
template <>
struct Dims<3> {
  using Grid = sf::Grid3D;
  using View = sf::FieldView3D;
  static std::array<long, 3> ext(const View& v) { return {v.nz(), v.ny(), v.nx()}; }
  static std::unique_ptr<Grid> grid(std::array<long, 3> n, int h, bool zero) {
    return std::make_unique<Grid>(static_cast<int>(n[0]), static_cast<int>(n[1]),
                                  static_cast<int>(n[2]), h, zero);
  }
  static double& at(const View& v, long z, long y, long x) {
    return v.at(static_cast<int>(z), static_cast<int>(y), static_cast<int>(x));
  }
  /// Reference update of outer-axis slices [r0, r1) (planes).
  static void apply(const sf::Pattern3D& p, const View& in, const View& out,
                    long r0, long r1) {
    sf::apply_pattern(p, in, out, static_cast<int>(r0), static_cast<int>(r1), 0,
                      in.ny(), 0, in.nx());
  }
  static long outer(const View& v) { return v.nz(); }
};

/// Recomputes `steps` steps of the reference on the dependence-cone box of
/// each sample cell (the whole domain when the cone covers it), from inputs
/// regenerated by (seed, stream), and compares every cell of the box whose
/// cone stays inside it with `out`. Returns the number of mismatching cells.
template <int D>
long check_cones(const sf::StencilSpec& spec, const typename Dims<D>::View& out,
                 std::uint64_t seed, std::uint64_t stream, int steps,
                 int samples, long* checked) {
  using DD = Dims<D>;
  const auto& p = pattern(spec, out);
  const int r = std::max(1, p.radius());
  const long reach = static_cast<long>(steps) * r;
  const std::array<long, 3> n = DD::ext(out);
  std::uint64_t rs = seed ^ 0xC0FFEEull;
  long bad = 0;
  *checked = 0;
  std::vector<std::array<long, 3>> centers;
  for (int i = 0; i < samples; ++i) {
    std::array<long, 3> c{};
    for (int d = 0; d < 3; ++d) {
      // The first two samples sit within reach of the low/high faces, so
      // the Dirichlet boundary is inside a checked cone.
      const long span = i < 2 ? std::min(n[d], reach + 1) : n[d];
      const long off = static_cast<long>(unit_uniform(rs) * static_cast<double>(span));
      c[d] = i == 1 ? n[d] - 1 - off : off;
    }
    centers.push_back(c);
  }
  for (const auto& c : centers) {
    std::array<long, 3> lo{}, hi{}, sz{};
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::max(0L, c[d] - reach);
      hi[d] = std::min(n[d], c[d] + reach + 1);
      sz[d] = hi[d] - lo[d];
    }
    auto ga = DD::grid(sz, r, false);
    auto gb = DD::grid(sz, r, false);
    const typename DD::View va = ga->view(), vb = gb->view();
    // Whole box, halo included, at global coordinates; halo cells inside
    // the domain hold initial values that cannot reach the checked cells.
    const long zr = D == 3 ? r : 0;
    for (long z = -zr; z < sz[0] + zr; ++z)
      for (long y = -r; y < sz[1] + r; ++y)
        for (long x = -r; x < sz[2] + r; ++x) {
          const double v = input_value(seed, stream,
                                       gen_index(lo[0] + z, lo[1] + y, lo[2] + x));
          DD::at(va, z, y, x) = v;
          DD::at(vb, z, y, x) = v;
        }
    // Step-synchronous parallel reference over the outer axis.
    const int threads = static_cast<int>(std::min<long>(nproc(), DD::outer(va)));
    Barrier bar(threads);
    parallel_chunks(DD::outer(va), threads, [&](long r0, long r1) {
      const typename DD::View* in = &va;
      const typename DD::View* o = &vb;
      for (int t = 0; t < steps; ++t) {
        DD::apply(p, *in, *o, r0, r1);
        bar.wait();
        std::swap(in, o);
      }
    });
    const typename DD::View& ref = steps % 2 == 0 ? va : vb;
    std::array<long, 3> elo{}, ehi{};
    for (int d = 0; d < 3; ++d) {
      elo[d] = lo[d] == 0 ? 0 : reach;
      ehi[d] = hi[d] == n[d] ? sz[d] : sz[d] - reach;
    }
    for (long z = elo[0]; z < ehi[0]; ++z)
      for (long y = elo[1]; y < ehi[1]; ++y)
        for (long x = elo[2]; x < ehi[2]; ++x) {
          const double want = DD::at(ref, z, y, x);
          const double got = DD::at(out, lo[0] + z, lo[1] + y, lo[2] + x);
          if (!(std::abs(want - got) <= kCheckTol)) ++bad;
          ++*checked;
        }
    // A box that covered the whole domain already checked every cell.
    if (sz == n) break;
  }
  return bad;
}

// --- The solve workloads --------------------------------------------------

struct SolveCfg {
  sf::Preset preset;
  long n;             ///< Cube/square edge.
  int steps;          ///< Steps per solve.
  int threads;        ///< ExecOptions::threads.
  int min_reps;       ///< Minimum timed solves of an untraced run.
  int traced_reps;    ///< Timed solves of a traced run.
  int samples;        ///< Cone-check sample cells.
  ProbePlan probe;
  int serve_steps;    ///< Steps per serving-probe request.
};

constexpr std::uint64_t kInputStream = 0;

template <int D>
Report run_solve(const Options& o, const SolveCfg& cfg) {
  using DD = Dims<D>;
  Report r;
  const double t_begin = now();
  Ceilings ceil;
  if (o.trace) ceil = measure_ceilings(nproc());

  const sf::Extents ext{cfg.n, cfg.n, D == 3 ? cfg.n : 0};
  const std::array<long, 3> n3{D == 3 ? cfg.n : 1, cfg.n, cfg.n};
  sf::ExecOptions eo;
  eo.threads = cfg.threads;
  eo.tsteps = cfg.steps;

  // Set-up: prepare + allocate + first touch, several times; the median is
  // the end-to-end figure. Only the first prepare misses the plan cache.
  sf::PreparedStencil ps;
  std::unique_ptr<typename DD::Grid> ga, gb;
  std::vector<double> setup, alloc, touch;
  double prepare_first = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    ga.reset();
    gb.reset();
    const double t0 = now();
    {
      Scope s("engine.prepare");
      ps = sf::Engine::instance().prepare(cfg.preset, ext, eo);
    }
    const double t1 = now();
    {
      Scope s("grid.alloc");
      ga = DD::grid(n3, ps.halo(), false);
      gb = DD::grid(n3, ps.halo(), false);
    }
    const double t2 = now();
    {
      Scope s("engine.first_touch");
      ps.first_touch(ga->view());
      ps.first_touch(gb->view());
    }
    const double t3 = now();
    if (i == 0) prepare_first = t1 - t0;
    alloc.push_back(t2 - t1);
    touch.push_back(t3 - t2);
    setup.push_back(t3 - t0);
  }
  const typename DD::View a = ga->view(), b = gb->view();
  const double fpc = static_cast<double>(pattern(ps.spec(), a).flops_per_point());
  const double ncell = cells(a);

  // Timed solves, each from freshly generated input.
  const auto snap0 = sf::telemetry::snapshot();
  std::vector<double> runs;
  double run_wall = 0;
  const double t_start = now();
  for (;;) {
    const int want = o.reps > 0 ? o.reps : o.trace ? cfg.traced_reps : cfg.min_reps;
    if (static_cast<int>(runs.size()) >= want &&
        (o.trace || o.reps > 0 || now() - t_start >= o.seconds))
      break;
    fill_input(a, o.seed, kInputStream);
    const double t0 = now();
    {
      Scope s("engine.run");
      ps.run(a, b, cfg.steps);
    }
    runs.push_back(now() - t0);
    run_wall += runs.back();
  }
  const auto snap1 = sf::telemetry::snapshot();
  const double run_s = median(runs);
  std::fprintf(stderr, "solves: %zu, min %.4f s, median %.4f s, max %.4f s\n",
               runs.size(), *std::min_element(runs.begin(), runs.end()), run_s,
               *std::max_element(runs.begin(), runs.end()));

  long checked = 0;
  const long bad = check_cones<D>(ps.spec(), a, o.seed, kInputStream, cfg.steps,
                                  cfg.samples, &checked);
  std::fprintf(stderr, "check: %ld of %ld cells differ from the reference\n",
               bad, checked);
  r.attempted = static_cast<long>(runs.size());
  r.failed = bad > 0 ? 1 : 0;
  r.correct = bad == 0;

  const double g = gflops(fpc, ncell, cfg.steps, run_s);
  r.add("setup_s", median(setup), "s");
  r.add("gflops", g, "GFLOP/s");
  // A solve workload has no arrival process: every latency figure is the
  // solve wall time (p99 of fewer than 100 solves is their maximum), and
  // max_rps is solves per second at the median.
  for (const char* rate : {"r1000", "r2000"}) {
    r.add(std::string("lat_p50_ms.") + rate, run_s * 1e3, "ms");
    r.add(std::string("lat_p99_ms.") + rate, percentile(runs, 99) * 1e3, "ms");
  }
  r.add("max_rps", 1.0 / run_s, "1/s");

  if (o.trace) {
    r.add("trace.e2e", g, "GFLOP/s");
    r.add("engine.prepare_s", prepare_first, "s");
    r.add("grid.alloc_s", median(alloc), "s");
    r.add("engine.first_touch_s", median(touch), "s");
    const double pool_ns =
        1e9 * run_wall * (ps.pool() != nullptr ? ps.pool()->threads() : 0);
    auto delta = [&](const char* name) {
      return static_cast<double>(snap1.counter_value(name) - snap0.counter_value(name));
    };
    r.add("runtime.sync_wait_frac",
          pool_ns > 0 ? delta("runtime.sync.wait_ns") / pool_ns : 0, "fraction");
    r.add("runtime.pool_busy_frac",
          pool_ns > 0 ? delta("runtime.pool.busy_ns") / pool_ns : 0, "fraction");
    probe_layers(r, ps, a, b, cfg.steps, run_s, cfg.probe, ceil);
    probe_layout(r, ps, a, cfg.probe.min_seconds);
    sf::ServerStats st;
    const auto served =
        serve_closed_loop(ps, a, b, cfg.serve_steps, 5, &st);
    r.attempted += static_cast<long>(served.size());
    for (const auto& q : served) r.failed += q.rec.ok ? 0 : 1;
    add_serving_metrics(r, served, st);
    add_ceiling_and_ledger(r, ceil, t_begin, o.trace_out);
  }
  r.add("fail_frac", static_cast<double>(r.failed) / r.attempted, "fraction");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

}  // namespace

Report run_heat3d_llc(const Options& o) {
  SolveCfg c{};
  c.preset = sf::Preset::Heat3D;
  c.n = 384;
  c.steps = 40;
  c.threads = nproc();
  c.min_reps = 3;
  c.traced_reps = 1;
  c.samples = 8;
  c.probe = {c.threads, 2, 8, 0.0};
  c.serve_steps = 2;
  return run_solve<3>(o, c);
}

Report run_box2d_1t(const Options& o) {
  SolveCfg c{};
  c.preset = sf::Preset::Box2D9;
  c.n = 256;
  c.steps = 4000;
  c.threads = 1;
  c.min_reps = 5;
  c.traced_reps = 3;
  c.samples = 1;
  c.probe = {1, 4000, 400, 0.5};
  c.serve_steps = 400;
  return run_solve<2>(o, c);
}

}  // namespace pb
