#include "serving/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "telemetry/telemetry.hpp"

namespace sf {

const char* reject_name(Reject r) {
  switch (r) {
    case Reject::None: return "none";
    case Reject::QueueFull: return "queue-full";
    case Reject::TenantPlans: return "tenant-plans";
    case Reject::TenantInflight: return "tenant-inflight";
    case Reject::ShuttingDown: return "shutting-down";
    case Reject::BadRequest: return "bad-request";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// A request's views: the ping-pong pair and, in 1-D, the source array
/// (a default, invalid view when absent).
template <class View>
struct Views {
  View a, b, k;
};

/// One accepted submission, heap-allocated by submit() and owned by the
/// dispatcher from the moment it enters the ring. The views stay borrowed
/// from the caller (the zero-copy contract); only the small request record
/// itself is allocated.
struct Request {
  PreparedStencil ps;
  std::variant<Views<FieldView1D>, Views<FieldView2D>, Views<FieldView3D>>
      views;
  int nsteps = 0;
  std::string tenant;
  std::uint64_t plan = 0;  // the handle's plan_key (tenant plan budget)
  std::uint64_t key = 0;   // plan_key folded with nsteps (batch group key)
  Clock::time_point submitted;
  std::promise<ServeResult> promise;
};

/// Bounded lock-free MPSC ring (Vyukov bounded-MPMC scheme, used here with
/// many producers and the single dispatcher consumer). Each cell carries a
/// sequence number producers and the consumer rendezvous on: push claims a
/// slot with one CAS on the head counter, pop is CAS-free because only the
/// dispatcher advances the tail. A full ring fails the push immediately —
/// that failure *is* the backpressure signal (Reject::QueueFull).
class SubmitRing {
 public:
  explicit SubmitRing(int capacity) {
    std::size_t cap = 2;
    while (cap < static_cast<std::size_t>(capacity < 2 ? 2 : capacity))
      cap <<= 1;
    cells_.reset(new Cell[cap]);
    // relaxed: pre-publication init — the ring is not visible to any other
    // thread until the constructor returns.
    for (std::size_t i = 0; i < cap; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
    mask_ = cap - 1;
  }

  /// Multi-producer push; false when the ring is full.
  bool push(Request* r) {
    // relaxed: only a starting hint for the claim loop; the cell seq
    // acquire below is what orders the slot's prior contents.
    std::size_t pos = head_.load(std::memory_order_relaxed);
    Cell* cell;
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        // relaxed: the CAS only claims a ticket number; the request itself
        // is published by the cell's release seq store below, so the claim
        // orders no data.
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return false;  // full
      } else {
        // relaxed: lost the race; re-read the ticket and retry (same
        // hint-only role as the initial load).
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    cell->req = r;
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Single-consumer pop; nullptr when empty.
  Request* pop() {
    Cell* cell = &cells_[tail_ & mask_];
    const std::size_t seq = cell->seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) -
            static_cast<std::intptr_t>(tail_ + 1) <
        0)
      return nullptr;  // empty (or the producer has not published yet)
    Request* r = cell->req;
    cell->seq.store(tail_ + mask_ + 1, std::memory_order_release);
    ++tail_;
    return r;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    Request* req = nullptr;
  };
  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // producers
  alignas(64) std::size_t tail_ = 0;              // dispatcher only
};

}  // namespace

struct Server::Impl {
  ServerOptions opts;
  SubmitRing ring;

  std::atomic<bool> accepting{true};
  std::atomic<bool> stop{false};

  // Doorbell: producers bump `pending` after a successful push and knock;
  // the dispatcher sleeps here when the ring is empty. `pending` stays an
  // atomic (not guarded): producers bump it outside the bell critical
  // section, which only orders the knock against a dispatcher about to
  // sleep.
  Mutex bell_mu;
  CondVar bell_cv;
  std::atomic<long> pending{0};

  // Accepted-but-not-completed accounting, for drain() and the destructor.
  Mutex done_mu;
  CondVar done_cv;
  long inflight_total SF_GUARDED_BY(done_mu) = 0;

  // Per-tenant budgets.
  struct Tenant {
    std::unordered_set<std::uint64_t> plans;  // distinct plan keys seen
    int inflight = 0;
    // Per-tenant admission outcome counters (serving.tenant.<name>.*),
    // resolved on the tenant's first admission attempt. Dead unless the
    // server itself was built with metrics on.
    telemetry::Counter accepted;
    telemetry::Counter rejected;
  };
  Mutex tenant_mu;
  std::unordered_map<std::string, Tenant> tenants SF_GUARDED_BY(tenant_mu);

  // Stats.
  std::atomic<long> n_submitted{0}, n_completed{0}, n_failed{0},
      n_rejected{0}, n_batches{0};
  std::atomic<int> max_batch{0};

  // Telemetry handles (serving.*), resolved at Server construction.
  telemetry::Counter t_submitted, t_accepted, t_completed, t_failed,
      t_batches;
  telemetry::Counter t_reject[6];  // indexed by static_cast<int>(Reject)
  // Gauge (by delta): the dispatcher's current adaptive drain cap.
  telemetry::Counter t_adaptive;
  telemetry::Histogram t_queue_depth, t_batch_size, t_queue_us, t_exec_us;

  std::thread dispatcher;

  explicit Impl(ServerOptions o)
      : opts(std::move(o)),
        ring(opts.queue_capacity),
        t_submitted(telemetry::counter("serving.submitted")),
        t_accepted(telemetry::counter("serving.accepted")),
        t_completed(telemetry::counter("serving.completed")),
        t_failed(telemetry::counter("serving.failed")),
        t_batches(telemetry::counter("serving.batches")),
        t_adaptive(telemetry::counter("serving.adaptive_batch")),
        t_queue_depth(telemetry::histogram("serving.queue_depth")),
        t_batch_size(telemetry::histogram("serving.batch_size")),
        t_queue_us(telemetry::histogram("serving.queue_us")),
        t_exec_us(telemetry::histogram("serving.exec_us")) {
    for (Reject why :
         {Reject::QueueFull, Reject::TenantPlans, Reject::TenantInflight,
          Reject::ShuttingDown, Reject::BadRequest})
      t_reject[static_cast<int>(why)] =
          telemetry::counter(std::string("serving.reject.") +
                             reject_name(why));
  }

  std::future<ServeResult> reject(Reject why, const std::string& detail) {
    // relaxed: stats tally — the n_* atomics are independent monotone
    // counters read only by stats()'s approximate snapshot, so the RMW's
    // atomicity suffices (same rationale at every n_* site below).
    n_rejected.fetch_add(1, std::memory_order_relaxed);
    t_reject[static_cast<int>(why)].add(1);
    std::promise<ServeResult> p;
    ServeResult r;
    r.rejected = why;
    r.error = detail.empty() ? reject_name(why) : detail;
    p.set_value(std::move(r));
    return p.get_future();
  }

  /// Admission + enqueue behind submit(). Takes ownership of `req`
  /// (deletes it on rejection).
  std::future<ServeResult> admit(Request* req) {
    telemetry::Span span("serve.submit");
    // relaxed: stats tally (see reject()).
    n_submitted.fetch_add(1, std::memory_order_relaxed);
    t_submitted.add(1);
    std::future<ServeResult> fut = req->promise.get_future();
    if (!accepting.load(std::memory_order_acquire)) {
      delete req;
      return reject(Reject::ShuttingDown, "");
    }
    telemetry::Counter tn_accepted, tn_rejected;
    {
      LockGuard lock(tenant_mu);
      Tenant& t = tenants[req->tenant];
      if (t_submitted.live() && !t.accepted.live()) {
        t.accepted = telemetry::counter("serving.tenant." + req->tenant +
                                        ".accepted");
        t.rejected = telemetry::counter("serving.tenant." + req->tenant +
                                        ".rejected");
      }
      tn_accepted = t.accepted;
      tn_rejected = t.rejected;
      if (opts.tenant_max_plans > 0 && t.plans.count(req->plan) == 0 &&
          t.plans.size() >=
              static_cast<std::size_t>(opts.tenant_max_plans)) {
        delete req;
        tn_rejected.add(1);
        return reject(Reject::TenantPlans, "");
      }
      if (opts.tenant_max_inflight > 0 &&
          t.inflight >= opts.tenant_max_inflight) {
        delete req;
        tn_rejected.add(1);
        return reject(Reject::TenantInflight, "");
      }
      t.plans.insert(req->plan);
      ++t.inflight;
    }
    {
      LockGuard lock(done_mu);
      ++inflight_total;
    }
    if (!ring.push(req)) {
      // Backpressure: undo the accounting and report the full queue.
      settle_accounting(req->tenant);
      delete req;
      tn_rejected.add(1);
      return reject(Reject::QueueFull, "");
    }
    t_accepted.add(1);
    tn_accepted.add(1);
    pending.fetch_add(1, std::memory_order_release);
    {
      // Empty critical section: orders the knock against a dispatcher that
      // checked `pending` just before our increment and is about to sleep.
      LockGuard lock(bell_mu);
    }
    bell_cv.notify_one();
    return fut;
  }

  void settle_accounting(const std::string& tenant) {
    {
      LockGuard lock(tenant_mu);
      --tenants[tenant].inflight;
    }
    {
      LockGuard lock(done_mu);
      --inflight_total;
    }
    done_cv.notify_all();
  }

  /// Fulfills one request's future and releases its accounting.
  void complete(Request* req, ServeResult r) {
    if (r.error.empty()) {
      // relaxed: stats tally (see reject()).
      n_completed.fetch_add(1, std::memory_order_relaxed);
      t_completed.add(1);
    } else {
      // relaxed: stats tally (see reject()).
      n_failed.fetch_add(1, std::memory_order_relaxed);
      t_failed.add(1);
    }
    req->promise.set_value(r);
    settle_accounting(req->tenant);
    if (opts.on_complete) opts.on_complete(r);
    delete req;
  }

  /// Executes one same-(plan, nsteps) group through a single batched
  /// dispatch and fulfills every member.
  void run_group(std::vector<Request*>& group) {
    telemetry::Span span("serve.batch");
    t_batch_size.record(static_cast<std::int64_t>(group.size()));
    const Clock::time_point t_dispatch = Clock::now();
    std::string error;
    try {
      Request& lead = *group[0];
      // Group members share a plan key, so any member's handle describes
      // the whole group's geometry, dimensionality and pool; execute
      // through the leader's.
      std::visit(
          [&](const auto& lead_views) {
            using V = std::decay_t<decltype(lead_views)>;
            std::vector<TileBatch<decltype(V::a)>> items;
            items.reserve(group.size());
            for (Request* r : group) {
              const V& v = std::get<V>(r->views);
              items.push_back({v.a, v.b, v.k.valid() ? &v.k : nullptr});
            }
            lead.ps.advance_batch(items, lead.nsteps);
          },
          lead.views);
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown execution error";
    }
    const double exec = seconds_between(t_dispatch, Clock::now());
    // relaxed: stats tally (see reject()).
    n_batches.fetch_add(1, std::memory_order_relaxed);
    t_batches.add(1);
    // relaxed: monotone high-water mark; the CAS loop re-reads the current
    // value on every failure, and no other data hangs off it.
    int prev = max_batch.load(std::memory_order_relaxed);
    while (prev < static_cast<int>(group.size()) &&
           !max_batch.compare_exchange_weak(prev,
                                            static_cast<int>(group.size()))) {
    }
    const bool latency_on = t_queue_us.live();
    for (Request* r : group) {
      ServeResult res;
      res.error = error;
      res.queue_seconds = seconds_between(r->submitted, t_dispatch);
      res.exec_seconds = exec;
      res.batch_size = static_cast<int>(group.size());
      if (latency_on) {
        t_queue_us.record(
            static_cast<std::int64_t>(res.queue_seconds * 1e6));
        t_exec_us.record(static_cast<std::int64_t>(exec * 1e6));
      }
      complete(r, res);
    }
    group.clear();
  }

  /// The dispatcher: drain up to the round's cap (max_batch, adaptively
  /// lowered from the observed queue depth unless disabled), group by
  /// (plan key, nsteps) preserving first-appearance order, execute each
  /// group batched. Exits only when stopped *and* the ring is empty, so
  /// shutdown drains every accepted request.
  void dispatch_loop() {
    std::vector<Request*> round;
    std::vector<std::vector<Request*>> groups;
    // Adaptive drain cap (dispatcher-local, no locks): the cap for a round
    // is twice the peak queue depth observed over the last 16 wakeups —
    // headroom above anything recently seen — bounded by the configured
    // max_batch. A lightly loaded server thus dispatches small rounds
    // (lower per-request latency) while a backlogged one opens the full
    // batching window. The window seeds at max_batch so the first rounds
    // run uncapped, and the cap is computed *before* the current
    // observation is pushed, so one deep wakeup already runs under the
    // previous cap while widening the next round's.
    long depth_window[16];
    for (long& d : depth_window) d = opts.max_batch;
    std::size_t window_at = 0;
    int last_cap = opts.max_batch;
    // Gauge-by-delta seed: the counter's running total tracks the current
    // cap, starting at the configured max_batch.
    t_adaptive.add(last_cap);
    for (;;) {
      {
        UniqueLock lock(bell_mu);
        // Explicit predicate loop; the predicate reads only atomics, but
        // the loop form keeps the shape uniform with the pool's waits.
        while (!stop.load(std::memory_order_acquire) &&
               pending.load(std::memory_order_acquire) <= 0)
          bell_cv.wait(lock);
      }
      // Queue depth as the dispatcher observes it at wakeup — the signal
      // the adaptive cap feeds on.
      // relaxed: approximate sample; the depth is stale the moment it is
      // read and orders nothing.
      const long depth = pending.load(std::memory_order_relaxed);
      if (depth > 0 && t_queue_depth.live()) t_queue_depth.record(depth);
      long peak = 0;
      for (long d : depth_window) peak = std::max(peak, d);
      const int cap = static_cast<int>(
          std::min<long>(opts.max_batch, std::max(1L, 2 * peak)));
      depth_window[window_at++ % 16] = depth > 0 ? depth : 0;
      if (cap != last_cap) {
        // Gauge-by-delta: the counter's running total tracks the current
        // cap (may step down as well as up).
        t_adaptive.add(cap - last_cap);
        last_cap = cap;
      }
      round.clear();
      while (static_cast<int>(round.size()) < cap) {
        Request* r = ring.pop();
        if (r == nullptr) break;
        // relaxed: bookkeeping decrement; the request's data was already
        // ordered by the ring pop's acquire load, and `pending` is only a
        // doorbell hint/shutdown count re-checked under acquire above.
        pending.fetch_sub(1, std::memory_order_relaxed);
        round.push_back(r);
      }
      if (round.empty()) {
        if (stop.load(std::memory_order_acquire) &&
            pending.load(std::memory_order_acquire) == 0)
          return;
        continue;
      }
      groups.clear();
      for (Request* r : round) {
        std::vector<Request*>* g = nullptr;
        for (auto& cand : groups)
          if (cand[0]->key == r->key && cand[0]->nsteps == r->nsteps) {
            g = &cand;
            break;
          }
        if (g == nullptr) {
          groups.emplace_back();
          g = &groups.back();
        }
        g->push_back(r);
      }
      {
        telemetry::Span round_span("serve.round");
        for (auto& g : groups) run_group(g);
      }
    }
  }
};

Server::Server(ServerOptions opts) : impl_(new Impl(std::move(opts))) {
  if (impl_->opts.max_batch < 1) impl_->opts.max_batch = 1;
  impl_->dispatcher = std::thread([this] { impl_->dispatch_loop(); });
}

Server::~Server() {
  impl_->accepting.store(false, std::memory_order_release);
  impl_->stop.store(true, std::memory_order_release);
  {
    LockGuard lock(impl_->bell_mu);
  }
  impl_->bell_cv.notify_all();
  impl_->dispatcher.join();
  // Sweep stragglers that raced admission with shutdown (a submit that
  // passed the accepting check but pushed after the dispatcher exited):
  // their futures are satisfied with a rejection, never abandoned.
  for (Request* r = impl_->ring.pop(); r != nullptr; r = impl_->ring.pop()) {
    ServeResult res;
    res.rejected = Reject::ShuttingDown;
    res.error = reject_name(Reject::ShuttingDown);
    impl_->complete(r, res);
  }
}

namespace {

/// Builds the request record; returns null and a rejection message when
/// the handle is empty.
Request* make_request(const std::string& tenant, const PreparedStencil& ps,
                      int nsteps, std::string* why) {
  if (!ps.valid()) {
    *why = "empty PreparedStencil handle";
    return nullptr;
  }
  Request* r = new Request;
  r->ps = ps;
  r->tenant = tenant;
  r->nsteps = nsteps;
  r->plan = ps.plan_key();
  // Fold nsteps into the group key: only same-horizon requests batch.
  r->key = r->plan * 1099511628211ull + static_cast<std::uint64_t>(nsteps);
  r->submitted = Clock::now();
  return r;
}

}  // namespace

template <class View>
std::future<ServeResult> Server::submit_views(const std::string& tenant,
                                              const PreparedStencil& ps,
                                              const View& a, const View& b,
                                              const View* k, int nsteps) {
  std::string why;
  Request* r = make_request(tenant, ps, nsteps, &why);
  if (r != nullptr) {
    try {
      ps.validate_views(a, b, k);
    } catch (const std::invalid_argument& e) {
      delete r;
      r = nullptr;
      why = e.what();
    }
  }
  if (r == nullptr) {
    // relaxed: stats tally (see Impl::reject()).
    impl_->n_submitted.fetch_add(1, std::memory_order_relaxed);
    impl_->t_submitted.add(1);
    return impl_->reject(Reject::BadRequest, why);
  }
  r->views = Views<View>{a, b, k != nullptr ? *k : View{}};
  return impl_->admit(r);
}

std::future<ServeResult> Server::submit(const std::string& tenant,
                                        const PreparedStencil& ps,
                                        FieldView1D a, FieldView1D b,
                                        FieldView1D k, int nsteps) {
  return submit_views(tenant, ps, a, b, k.valid() ? &k : nullptr, nsteps);
}

template std::future<ServeResult> Server::submit_views(
    const std::string&, const PreparedStencil&, const FieldView1D&,
    const FieldView1D&, const FieldView1D*, int);
template std::future<ServeResult> Server::submit_views(
    const std::string&, const PreparedStencil&, const FieldView2D&,
    const FieldView2D&, const FieldView2D*, int);
template std::future<ServeResult> Server::submit_views(
    const std::string&, const PreparedStencil&, const FieldView3D&,
    const FieldView3D&, const FieldView3D*, int);

void Server::drain() {
  UniqueLock lock(impl_->done_mu);
  // Explicit loop: the guarded inflight_total read stays where the
  // thread-safety analysis can see the lock (lambdas are analyzed as
  // separate, lock-free functions).
  while (impl_->inflight_total != 0) impl_->done_cv.wait(lock);
}

std::string Server::metrics() const {
  const ServerStats s = stats();
  std::ostringstream os;
  os << "# sf::Server\n"
     << "submitted " << s.submitted << "\n"
     << "completed " << s.completed << "\n"
     << "failed " << s.failed << "\n"
     << "rejected " << s.rejected << "\n"
     << "batches " << s.batches << "\n"
     << "max_batch " << s.max_batch << "\n"
     << telemetry::text_dump();
  return os.str();
}

ServerStats Server::stats() const {
  ServerStats s;
  // relaxed: approximate snapshot of independent monotone tallies — the
  // documented stats() contract; nothing is ordered by these reads.
  s.submitted = impl_->n_submitted.load(std::memory_order_relaxed);
  s.completed = impl_->n_completed.load(std::memory_order_relaxed);
  s.failed = impl_->n_failed.load(std::memory_order_relaxed);
  s.rejected = impl_->n_rejected.load(std::memory_order_relaxed);
  s.batches = impl_->n_batches.load(std::memory_order_relaxed);
  s.max_batch = impl_->max_batch.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sf
