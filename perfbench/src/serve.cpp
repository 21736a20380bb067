// serve-mix: open-loop Poisson traffic into one sf::Server with default
// ServerOptions — a seeded 3:1 mix of Heat2D 64x64 and 1D5P 8192-point
// requests, 8 steps each — at fixed rates and then up a rate ladder.
// Also the serving/ledger metric helpers every traced run shares.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "stencil/reference.hpp"

namespace pb {

void add_serving_metrics(Report& r, const std::vector<ServedRequest>& reqs,
                         const sf::ServerStats& stats) {
  std::vector<double> submit, queue, exec, notify, lag, batch;
  for (const ServedRequest& q : reqs) {
    lag.push_back(q.rec.lag());
    if (!q.rec.ok) continue;
    submit.push_back(q.rec.submit());
    queue.push_back(q.rec.queue);
    exec.push_back(q.rec.exec);
    notify.push_back(q.rec.notify());
    batch.push_back(q.batch);
  }
  r.add("serving.submit_us.p50", percentile(submit, 50) * 1e6, "us");
  r.add("serving.submit_us.p99", percentile(submit, 99) * 1e6, "us");
  r.add("serving.queue_ms.p50", percentile(queue, 50) * 1e3, "ms");
  r.add("serving.queue_ms.p99", percentile(queue, 99) * 1e3, "ms");
  r.add("serving.exec_ms.p50", percentile(exec, 50) * 1e3, "ms");
  r.add("serving.notify_us", percentile(notify, 50) * 1e6, "us");
  r.add("serving.batch_size.mean", mean(batch), "count");
  r.add("serving.batches_per_kreq",
        stats.completed > 0 ? 1e3 * static_cast<double>(stats.batches) /
                                  static_cast<double>(stats.completed)
                            : 0,
        "count");
  r.add("gen.lag_ms.p99", percentile(lag, 99) * 1e3, "ms");
  r.add("gen.lag_ms.max", lag.empty() ? 0 : *std::max_element(lag.begin(), lag.end()) * 1e3,
        "ms");
}

void add_ceiling_and_ledger(Report& r, const Ceilings& c, double t_begin,
                            const std::string& trace_out) {
  r.add("ceiling.triad_gbs", c.triad_gbs, "GB/s");
  r.add("ceiling.triad_gbs_1t", c.triad_gbs_1t, "GB/s");
  r.add("ceiling.triad_array_mb", c.array_mb, "MB");
  r.add("ceiling.fma_gflops.avx2", c.fma_gflops_avx2, "GFLOP/s");
  r.add("ceiling.fma_gflops.avx512", c.fma_gflops_avx512, "GFLOP/s");
  const double t_end = now();
  const std::vector<SpanRec> spans = Tracer::instance().spans();
  const SelfTime st = self_time(spans, t_begin, t_end);
  double sum = st.uncovered;
  for (const char* layer :
       {"engine", "grid", "kernel", "layout", "tiling", "runtime", "serving"}) {
    const auto it = st.per_layer.find(layer);
    const double v = it == st.per_layer.end() ? 0.0 : it->second;
    r.add(std::string("self_s.") + layer, v, "s");
    sum += v;
  }
  r.add("trace.uncovered_s", st.uncovered, "s");
  r.add("trace.total_s", st.total, "s");
  std::fprintf(stderr,
               "ledger: %zu spans; self times + uncovered = %.6f s of %.6f s\n",
               spans.size(), sum, st.total);
  if (!trace_out.empty() && !Tracer::instance().write_json(trace_out))
    std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
}

namespace {

constexpr int kSteps = 8;
constexpr double kLatencyLimit = 5e-3;  // p99 limit of max_rps, seconds
constexpr std::size_t kMaxSaved = 256;  // checked requests per lane, at most

/// One request buffer pair. `busy` is set by the generator at submit and
/// cleared by the collector once the result is read and the slot refilled,
/// so a slot is never handed out while its request is in flight.
template <class G>
struct Slot {
  std::unique_ptr<G> a, b;
  std::atomic<bool> busy{false};
};

/// Copy of a view's interior, for the post-run check of sampled requests.
std::vector<double> interior(const sf::FieldView1D& v) {
  return std::vector<double>(v.data(), v.data() + v.n());
}
std::vector<double> interior(const sf::FieldView2D& v) {
  std::vector<double> out;
  for (int y = 0; y < v.ny(); ++y)
    out.insert(out.end(), v.row(y), v.row(y) + v.nx());
  return out;
}

/// Everything of one plan key: the prepared handle, its slot ring and the
/// collector that observes its completions in submission order (the server
/// runs each plan key's requests FIFO).
template <class G>
struct Lane {
  int id = 0;  // input-stream tag of this lane
  sf::PreparedStencil ps;
  double flops = 0;  // useful flops of one request
  std::vector<std::unique_ptr<Slot<G>>> slots;
  long next = 0;  // per-lane request counter (generator thread only)

  struct Pending {
    long rec = 0;  // index into the run's records
    long j = 0;    // per-lane request index
    std::future<sf::ServeResult> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;  // guarded by mu
  bool closing = false;       // guarded by mu
  std::atomic<long> done{0};

  struct Saved {
    long rec, j;
    std::vector<double> out;
  };
  std::vector<Saved> saved;  // collector thread only, read after join
                             // (capacity reserved up front: steady RSS)

  std::uint64_t stream(long j) const {
    return 1 + static_cast<std::uint64_t>(id) + 2 * static_cast<std::uint64_t>(j);
  }
  Slot<G>& slot(long j) { return *slots[static_cast<std::size_t>(j) % slots.size()]; }

  /// Lets the collector return once the queue is empty.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closing = true;
    }
    cv.notify_all();
  }
};

bool sampled(std::uint64_t seed, long rec) {
  std::uint64_t s = seed ^ (static_cast<std::uint64_t>(rec) * 0x9E37ull);
  return splitmix64(s) % 32 == 0;
}

template <class G>
void collect(Lane<G>& lane, std::vector<ServedRequest>& recs, std::uint64_t seed) {
  for (;;) {
    typename Lane<G>::Pending p;
    {
      std::unique_lock<std::mutex> lock(lane.mu);
      lane.cv.wait(lock, [&] { return lane.closing || !lane.queue.empty(); });
      if (lane.queue.empty()) return;
      p = std::move(lane.queue.front());
      lane.queue.pop_front();
    }
    sf::ServeResult res;
    {
      Scope s("serving.wait");
      res = p.fut.get();
    }
    ServedRequest& q = recs[static_cast<std::size_t>(p.rec)];
    q.rec.done = now();
    q.rec.queue = res.queue_seconds;
    q.rec.exec = res.exec_seconds;
    q.rec.ok = res.ok();
    q.batch = res.batch_size;
    Slot<G>& sl = lane.slot(p.j);
    if (sampled(seed, p.rec) && lane.saved.size() < kMaxSaved)
      lane.saved.push_back({p.rec, p.j, interior(sl.a->view())});
    // Refill for the next request this slot will carry, then release it.
    fill_input(sl.a->view(), seed, lane.stream(p.j + static_cast<long>(lane.slots.size())));
    sl.busy.store(false, std::memory_order_release);
    lane.done.fetch_add(1, std::memory_order_release);
  }
}

/// Re-runs the reference on every saved sample and marks wrong outputs as
/// failed. Returns the number of mismatching requests.
template <class G>
long check_lane(Lane<G>& lane, std::vector<ServedRequest>& recs,
                std::uint64_t seed, long* checked) {
  const sf::StencilSpec& spec = lane.ps.spec();
  auto ga = make_grid(lane.slots[0]->a->view(), lane.ps.halo(), false);
  auto gb = make_grid(lane.slots[0]->a->view(), lane.ps.halo(), false);
  long bad = 0;
  for (const auto& s : lane.saved) {
    fill_input(ga->view(), seed, lane.stream(s.j));
    fill_input(gb->view(), seed, lane.stream(s.j));
    sf::run_reference(pattern(spec, ga->view()), ga->view(), gb->view(), kSteps);
    const std::vector<double> want = interior(ga->view());
    bool same = want.size() == s.out.size();
    for (std::size_t i = 0; same && i < want.size(); ++i)
      same = std::abs(want[i] - s.out[i]) <= kCheckTol;
    if (!same) {
      ++bad;
      recs[static_cast<std::size_t>(s.rec)].rec.ok = false;
    }
    ++*checked;
  }
  return bad;
}

struct ServeSetup {
  double prepare_s = 0, alloc_s = 0, touch_s = 0;  // parts of the set-up
  std::unique_ptr<sf::Server> server;
  Lane<sf::Grid2D> heat;   // majority plan: Heat2D 64x64
  Lane<sf::Grid1D> line;   // minority plan: 1D5P 8192
};

template <class G>
void build_lane(ServeSetup& st, Lane<G>& lane, int id, sf::Preset p,
                sf::Extents ext, const sf::ExecOptions& eo, int nslots,
                std::unique_ptr<G> proto) {
  lane.id = id;
  lane.saved.reserve(kMaxSaved);
  const double t0 = now();
  {
    Scope s("engine.prepare");
    lane.ps = sf::Engine::instance().prepare(p, ext, eo);
  }
  lane.flops = sf::flops_per_step(lane.ps.spec(), ext.nx, std::max(1L, ext.ny),
                                  std::max(1L, ext.nz)) *
               kSteps;
  const double t1 = now();
  {
    Scope s("grid.alloc");
    for (int i = 0; i < nslots; ++i) {
      auto sl = std::make_unique<Slot<G>>();
      sl->a = make_grid(proto->view(), lane.ps.halo(), false);
      sl->b = make_grid(proto->view(), lane.ps.halo(), false);
      lane.slots.push_back(std::move(sl));
    }
  }
  const double t2 = now();
  {
    Scope s("engine.first_touch");
    for (auto& sl : lane.slots) {
      lane.ps.first_touch(sl->a->view());
      lane.ps.first_touch(sl->b->view());
    }
  }
  st.prepare_s += t1 - t0;
  st.alloc_s += t2 - t1;
  st.touch_s += now() - t2;
}

std::unique_ptr<ServeSetup> setup(int threads) {
  auto st = std::make_unique<ServeSetup>();
  {
    Scope s("serving.server");
    st->server = std::make_unique<sf::Server>();
  }
  sf::ExecOptions eo;
  eo.threads = threads;
  eo.tsteps = kSteps;
  build_lane(*st, st->heat, 0, sf::Preset::Heat2D, {64, 64, 0}, eo, 512,
             std::make_unique<sf::Grid2D>(64, 64, 1, false));
  build_lane(*st, st->line, 1, sf::Preset::P1D5, {8192, 0, 0}, eo, 256,
             std::make_unique<sf::Grid1D>(8192, 1, false));
  return st;
}

template <class G>
void submit_one(sf::Server& server, Lane<G>& lane, std::vector<ServedRequest>& recs,
                long rec, double due) {
  const long j = lane.next++;
  Slot<G>& sl = lane.slot(j);
  while (sl.busy.load(std::memory_order_acquire)) std::this_thread::yield();
  sl.busy.store(true, std::memory_order_relaxed);
  ServedRequest& q = recs[static_cast<std::size_t>(rec)];
  q.flops = lane.flops;
  q.rec.due = due;
  q.rec.sent = now();
  std::future<sf::ServeResult> fut;
  {
    Scope s("serving.submit");
    fut = server.submit("mix", lane.ps, sl.a->view(), sl.b->view(), kSteps);
  }
  q.rec.submitted = now();
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.queue.push_back({rec, j, std::move(fut)});
  }
  lane.cv.notify_one();
}

/// Sends one Poisson phase at `rate` for `seconds` into the records after
/// the first `used`, and waits until every request of the phase completed.
/// Returns the [begin, end) record range of the phase. `recs` is sized up
/// front: the collectors write into it while the phase runs.
std::pair<long, long> run_phase(ServeSetup& st, std::vector<ServedRequest>& recs,
                                long& used, double rate, double seconds,
                                std::uint64_t seed, std::uint64_t phase) {
  const std::vector<double> due =
      poisson_schedule(rate, seconds, seed * 0x100000001B3ull + phase);
  const long begin = used;
  if (static_cast<std::size_t>(used) + due.size() > recs.size())
    throw std::logic_error("serve-mix: record capacity too small");
  used += static_cast<long>(due.size());
  const long heat0 = st.heat.done.load(), line0 = st.line.done.load();
  long heat_n = 0, line_n = 0;
  std::uint64_t mix = seed ^ (phase << 32);
  const double t0 = now() + 0.002;
  using Clock = std::chrono::steady_clock;
  const auto base = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(t0 - now()));
  for (std::size_t i = 0; i < due.size(); ++i) {
    std::this_thread::sleep_until(
        base + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due[i])));
    const long rec = begin + static_cast<long>(i);
    if (splitmix64(mix) % 4 != 3) {
      submit_one(*st.server, st.heat, recs, rec, t0 + due[i]);
      ++heat_n;
    } else {
      submit_one(*st.server, st.line, recs, rec, t0 + due[i]);
      ++line_n;
    }
  }
  while (st.heat.done.load(std::memory_order_acquire) < heat0 + heat_n ||
         st.line.done.load(std::memory_order_acquire) < line0 + line_n)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  return {begin, begin + static_cast<long>(due.size())};
}

std::vector<OpenLoopRecord> records(const std::vector<ServedRequest>& recs,
                                    std::pair<long, long> range) {
  std::vector<OpenLoopRecord> out;
  for (long i = range.first; i < range.second; ++i)
    out.push_back(recs[static_cast<std::size_t>(i)].rec);
  return out;
}

}  // namespace

Report run_serve_mix(const Options& o) {
  Report r;
  const double t_begin = now();
  Ceilings ceil;
  if (o.trace) ceil = measure_ceilings(nproc());
  const int threads = std::max(1, nproc() - 2);

  // Set-up: Server construction, both prepares, slot allocation and first
  // touch, repeated; the median is the end-to-end figure.
  std::unique_ptr<ServeSetup> st;
  std::vector<double> setup_t, alloc_t, touch_t;
  double prepare_first = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    st.reset();
    const double t0 = now();
    st = setup(threads);
    setup_t.push_back(now() - t0);
    if (i == 0) prepare_first = st->prepare_s;
    alloc_t.push_back(st->alloc_s);
    touch_t.push_back(st->touch_s);
  }
  for (long j = 0; j < static_cast<long>(st->heat.slots.size()); ++j)
    fill_input(st->heat.slot(j).a->view(), o.seed, st->heat.stream(j));
  for (long j = 0; j < static_cast<long>(st->line.slots.size()); ++j)
    fill_input(st->line.slot(j).a->view(), o.seed, st->line.stream(j));

  // Phase plan: warm-up, the two fixed rates, then a ladder of short rungs
  // that stops at the first rung missing the limit.
  const double s = o.seconds;
  const double fixed = 0.3 * s, rung = std::max(0.5, 0.05 * s);
  const std::vector<double> ladder = {2500, 3000, 3500, 4000, 4500,
                                      5000, 6000, 7000, 8000};
  double cap = 0.5 * 1000 + fixed * 3000;
  for (double rate : ladder) cap += 2 * rate * rung;
  std::vector<ServedRequest> recs(static_cast<std::size_t>(cap * 1.2 + 1000));
  long used = 0;

  std::thread heat_col([&] { collect(st->heat, recs, o.seed); });
  std::thread line_col([&] { collect(st->line, recs, o.seed); });
  // Joins the collectors on every path out, exceptions included.
  struct Joiner {
    ServeSetup& st;
    std::thread& a;
    std::thread& b;
    void operator()() {
      st.heat.close();
      st.line.close();
      if (a.joinable()) a.join();
      if (b.joinable()) b.join();
    }
    ~Joiner() { (*this)(); }
  } join_collectors{*st, heat_col, line_col};

  run_phase(*st, recs, used, 1000, 0.5, o.seed, 0);  // warm-up, not reported
  const auto snap0 = sf::telemetry::snapshot();
  const double fixed_t0 = now();
  const auto r1000 = run_phase(*st, recs, used, 1000, fixed, o.seed, 1);
  const auto r2000 = run_phase(*st, recs, used, 2000, fixed, o.seed, 2);
  const double fixed_wall = now() - fixed_t0;
  const auto snap1 = sf::telemetry::snapshot();
  // Each rung gets a second attempt before it counts as missed, so one
  // transient stall does not end the ladder.
  std::vector<Rung> climbed;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    Rung best{};
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto range =
          run_phase(*st, recs, used, ladder[i], rung, o.seed, 3 + 2 * i + attempt);
      const Rung g{ladder[i], summarize_windows(records(recs, range))};
      if (attempt == 0 || g.s.p99 < best.s.p99) best = g;
      if (g.meets(kLatencyLimit)) {
        best = g;
        break;
      }
    }
    climbed.push_back(best);
    if (!best.meets(kLatencyLimit)) break;
  }
  join_collectors();

  // Correctness: the saved sample, recomputed with the naive reference.
  long checked = 0;
  const long bad = check_lane(st->heat, recs, o.seed, &checked) +
                   check_lane(st->line, recs, o.seed, &checked);
  std::fprintf(stderr, "check: %ld of %ld sampled requests differ from the reference\n",
               bad, checked);
  r.correct = bad == 0;
  recs.resize(static_cast<std::size_t>(used));
  r.attempted = used;
  for (const auto& q : recs) r.failed += q.rec.ok ? 0 : 1;

  // Rejected, failed and wrong requests were marked before summarizing.
  const PhaseSummary s1 = summarize_windows(records(recs, r1000));
  const PhaseSummary s2 = summarize_windows(records(recs, r2000));
  std::vector<Rung> all = {{1000, s1}, {2000, s2}};
  all.insert(all.end(), climbed.begin(), climbed.end());
  std::fprintf(stderr, "rates:");
  for (const Rung& g : all)
    std::fprintf(stderr, " %.0f:p50=%.3fms,p99=%.3fms%s", g.rate, g.s.p50 * 1e3,
                 g.s.p99 * 1e3, g.meets(kLatencyLimit) ? "" : "(miss)");
  std::fprintf(stderr, "\n");

  // Useful GFLOP/s delivered over the r2000 phase.
  double useful = 0, first_due = 1e300, last_done = 0;
  for (long i = r2000.first; i < r2000.second; ++i) {
    const ServedRequest& q = recs[static_cast<std::size_t>(i)];
    first_due = std::min(first_due, q.rec.due);
    last_done = std::max(last_done, q.rec.done);
    if (q.rec.ok) useful += q.flops;
  }
  r.add("setup_s", median(setup_t), "s");
  r.add("gflops", useful / (last_done - first_due) * 1e-9, "GFLOP/s");
  r.add("lat_p50_ms.r1000", s1.p50 * 1e3, "ms");
  r.add("lat_p99_ms.r1000", s1.p99 * 1e3, "ms");
  r.add("lat_p50_ms.r2000", s2.p50 * 1e3, "ms");
  r.add("lat_p99_ms.r2000", s2.p99 * 1e3, "ms");
  r.add("max_rps", max_sustainable_rate(all, kLatencyLimit), "1/s");

  if (o.trace) {
    r.add("trace.e2e", s1.p50 * 1e3, "ms");
    auto delta = [&](const char* name) {
      return static_cast<double>(snap1.counter_value(name) - snap0.counter_value(name));
    };
    const double pool_ns = 1e9 * fixed_wall * threads;
    r.add("runtime.sync_wait_frac", delta("runtime.sync.wait_ns") / pool_ns, "fraction");
    r.add("runtime.pool_busy_frac", delta("runtime.pool.busy_ns") / pool_ns, "fraction");
    add_serving_metrics(
        r,
        std::vector<ServedRequest>(recs.begin() + r1000.first,
                                   recs.begin() + r2000.second),
        st->server->stats());
    r.add("engine.prepare_s", prepare_first, "s");
    r.add("grid.alloc_s", median(alloc_t), "s");
    r.add("engine.first_touch_s", median(touch_t), "s");
    // The majority plan's layers on one request-sized grid pair.
    const sf::PreparedStencil& ps = st->heat.ps;
    sf::Grid2D ga(64, 64, ps.halo()), gb(64, 64, ps.halo());
    fill_input(ga.view(), o.seed, 0);
    const double run_s = time_median(
        [&] {
          Scope sp("engine.run");
          ps.run(ga.view(), gb.view(), kSteps);
        },
        5, 0.3);
    probe_layers(r, ps, ga.view(), gb.view(), kSteps, run_s,
                 ProbePlan{threads, kSteps, kSteps, 0.3}, ceil);
    // The layout involution is paid per call by the 1-D requests.
    sf::Grid1D gl(8192, st->line.ps.halo());
    fill_input(gl.view(), o.seed, 0);
    probe_layout(r, st->line.ps, gl.view(), 0.3);
    add_ceiling_and_ledger(r, ceil, t_begin, o.trace_out);
  }
  r.add("fail_frac", static_cast<double>(r.failed) / r.attempted, "fraction");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

}  // namespace pb
