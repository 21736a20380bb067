/// \file
/// \brief Multi-tenant batched serving front end over the shared runtime.
///
/// `sf::Server` is the admission-and-batching layer the ROADMAP's
/// "heavy traffic from millions of users" north star needs between request
/// streams and the prepared-execution machinery: clients submit() prepared
/// small-grid advances from any thread into a lock-free bounded MPSC ring;
/// a single dispatcher thread drains the ring, groups requests by prepared
/// plan key (PreparedStencil::plan_key()) and executes each group through
/// one PreparedStencil::advance_batch() call — one pool dispatch advancing
/// the whole batch, amortizing dispatch and barrier cost the same way
/// resident layouts amortize the transpose involution. Results are bitwise
/// identical to per-request run() calls (see run_tile_plan_batch).
///
/// Admission control is explicit rather than implicit latency: the ring is
/// bounded (ServerOptions::queue_capacity), and a full ring rejects with
/// Reject::QueueFull instead of queueing unboundedly. Per-tenant budgets
/// cap the number of distinct plans a tenant may use
/// (ServerOptions::tenant_max_plans) and its concurrently in-flight
/// requests (ServerOptions::tenant_max_inflight). Every submit() returns a
/// std::future<ServeResult> satisfied on completion (or immediately, for
/// rejected requests) with per-request queue/execute timing; an optional
/// ServerOptions::on_complete callback observes every completion on the
/// dispatcher thread.
///
/// Buffers stay caller-owned and zero-copy throughout: a request carries
/// FieldViews, and the caller must keep the underlying memory (and, for
/// distinct requests, pairwise-disjoint buffers) alive and untouched until
/// its future is satisfied. Views are validated against the prepared
/// geometry at submit() time on the client thread — a bad request is
/// rejected with Reject::BadRequest instead of poisoning a batch.
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <string>

#include "core/engine.hpp"
#include "grid/view_traits.hpp"

namespace sf {

/// Why a submit() was rejected (ServeResult::rejected). Rejected requests
/// never execute; their futures are satisfied immediately.
enum class Reject {
  None,           ///< Not rejected — the request executed.
  QueueFull,      ///< The bounded submission ring was full (backpressure:
                  ///< retry later or shed load).
  TenantPlans,    ///< The tenant would exceed its distinct-plan budget.
  TenantInflight, ///< The tenant is at its in-flight request budget.
  ShuttingDown,   ///< The server is being destroyed and admits no new work.
  BadRequest,     ///< The views failed validation against the prepared
                  ///< geometry (see ServeResult::error for the reason).
};

/// Display name of a Reject ("none", "queue-full", ...).
const char* reject_name(Reject r);

/// Completion record of one served request, delivered through the future
/// returned by Server::submit() (and to ServerOptions::on_complete).
struct ServeResult {
  Reject rejected = Reject::None;  ///< Why admission refused the request
                                   ///< (None when it was accepted).
  std::string error;  ///< Execution error message ("" on success); rejected
                      ///< requests carry the rejection reason here too.
  double queue_seconds = 0;  ///< Submit-to-dispatch wait in the ring.
  double exec_seconds = 0;   ///< Execution time of the batch the request
                             ///< ran in (shared by all its members).
  int batch_size = 0;  ///< Number of same-plan requests in that batch.

  /// True when the request was admitted and executed without error.
  bool ok() const { return rejected == Reject::None && error.empty(); }
};

/// Admission and batching knobs of a Server.
struct ServerOptions {
  int queue_capacity = 1024;  ///< Bounded submission-ring capacity (rounded
                              ///< up to a power of two; >= 2). A full ring
                              ///< rejects with Reject::QueueFull.
  int max_batch = 64;  ///< Max requests drained per dispatch round — the
                       ///< batching window. Same-plan requests within one
                       ///< round execute as one advance_batch() call. The
                       ///< dispatcher adapts its per-round drain cap to the
                       ///< observed queue depth (twice the recent peak,
                       ///< never above max_batch), exported as the
                       ///< `serving.adaptive_batch` gauge.
  int tenant_max_inflight = 0;  ///< Per-tenant cap on requests accepted but
                                ///< not yet completed (0 = unlimited).
  int tenant_max_plans = 0;  ///< Per-tenant cap on *distinct* plan keys
                             ///< ever submitted (0 = unlimited) — bounds
                             ///< the plan-cache and pool footprint a single
                             ///< tenant can pin.
  std::function<void(const ServeResult&)> on_complete;
  ///< Optional completion callback, invoked once per executed request on
  ///< the dispatcher thread (rejected submits do not reach it). Keep it
  ///< cheap: it runs between batches.
};

/// Lifetime counters of a Server (stats()), monotonically increasing.
struct ServerStats {
  long submitted = 0;  ///< submit() calls, accepted or not.
  long completed = 0;  ///< Requests executed successfully.
  long failed = 0;     ///< Requests whose batch threw during execution.
  long rejected = 0;   ///< Requests refused at admission.
  long batches = 0;    ///< advance_batch() dispatches issued.
  int max_batch = 0;   ///< Largest same-plan batch executed so far.
};

/// The multi-tenant serving front end: one dispatcher thread multiplexing
/// batched prepared executions over the shared WorkerPool runtime.
/// submit() is thread-safe and lock-free up to the ring (tenant accounting
/// takes a short mutex); all execution happens on the dispatcher and the
/// plans' shared pools. Destruction stops admission, drains every accepted
/// request, and joins the dispatcher.
class Server {
 public:
  /// Starts the dispatcher thread with the given admission/batching knobs.
  explicit Server(ServerOptions opts = {});
  /// Stops admission (late submits reject with Reject::ShuttingDown),
  /// executes every already-accepted request, then joins the dispatcher —
  /// no accepted future is ever abandoned.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submits a source-free advance of `nsteps` steps on caller-owned views
  /// (semantics of PreparedStencil::run(); result lands in `a`). `G` is a
  /// FieldView1D/2D/3D or a Grid converting to one. `tenant` names the
  /// budget bucket the request is accounted against. The returned future
  /// is satisfied when the request completes — or immediately with
  /// ServeResult::rejected set when admission refuses it. The caller keeps
  /// `a`/`b` alive and untouched until then.
  template <class G>
  std::future<ServeResult> submit(const std::string& tenant,
                                  const PreparedStencil& ps, const G& a,
                                  const G& b, int nsteps) {
    return submit_views<decltype(view_of(a))>(tenant, ps, view_of(a),
                                              view_of(b), nullptr, nsteps);
  }
  /// 1-D submit with the APOP time-invariant source array `k`.
  std::future<ServeResult> submit(const std::string& tenant,
                                  const PreparedStencil& ps, FieldView1D a,
                                  FieldView1D b, FieldView1D k, int nsteps);

  /// Blocks until every request accepted so far has completed (the queue is
  /// empty and nothing is executing). New submits during a drain() are
  /// admitted normally and extend the wait.
  void drain();

  /// Lifetime counters (thread-safe snapshot).
  ServerStats stats() const;

  /// Pull-style observability endpoint: the stats() counters followed by
  /// the process-wide `telemetry::text_dump()` report (serving queue/batch
  /// histograms, runtime and engine metrics — see docs/OBSERVABILITY.md).
  /// Metrics sections are empty unless `SF_METRICS` was on when the server
  /// (and the layers below it) were constructed.
  std::string metrics() const;

 private:
  struct Impl;
  /// The one body behind the submit() overloads; `k` is the 1-D source
  /// array (null when absent).
  template <class View>
  std::future<ServeResult> submit_views(const std::string& tenant,
                                        const PreparedStencil& ps,
                                        const View& a, const View& b,
                                        const View* k, int nsteps);

  std::unique_ptr<Impl> impl_;
};

}  // namespace sf
