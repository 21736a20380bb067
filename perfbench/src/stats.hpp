// Measurement helpers of the benchmark: order statistics, span self time
// and open-loop lateness accounting. Header-only and free of library
// dependencies, so tests/helpers_test.cpp checks them in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (p in (0, 100]): the smallest sample such that at
/// least p% of the samples are <= it. 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// Median (mean of the two middle samples for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// First, second and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(v, n=4), the rule the benchmark's spread is judged
/// by. Needs at least two samples (one sample returns it three times).
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 1) return {v[0], v[0], v[0]};
  auto at = [&](int j) {
    const long m = n + 1;
    // 1-based rank of the lower neighbour, clamped first: Python then
    // extrapolates from the two end samples.
    const long k = std::clamp(j * m / 4, 1L, n - 1);
    const double frac = static_cast<double>(j * m - k * 4) / 4.0;
    return v[static_cast<std::size_t>(k - 1)] +
           (v[static_cast<std::size_t>(k)] - v[static_cast<std::size_t>(k - 1)]) *
               frac;
  };
  return {at(1), at(2), at(3)};
}

// ---------------------------------------------------------------------------
// Span self time
// ---------------------------------------------------------------------------

/// One recorded span: a layer call made by the benchmark. `parent` is the
/// index of the enclosing span in the same vector, or -1 for a root.
struct SpanRec {
  std::string name;  ///< "<layer>.<operation>", e.g. "engine.run".
  double t0 = 0;     ///< Start, seconds on the run's clock.
  double t1 = 0;     ///< End.
  int parent = -1;
};

/// The layer a span belongs to: its name up to the first '.'.
inline std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// Self-time ledger over [t_begin, t_end]: every instant is charged to the
/// innermost spans open at that instant — split evenly when several
/// siblings overlap (e.g. calls made concurrently from different threads) —
/// or to `uncovered` when no span is open. So a span's self time is its
/// duration minus the part its children cover, and the per-span self times
/// plus `uncovered` add up to t_end - t_begin exactly.
struct SelfTime {
  std::vector<double> per_span;               ///< Indexed like the input.
  std::map<std::string, double> per_layer;    ///< Summed by layer_of(name).
  double uncovered = 0;
  double total = 0;
};

inline SelfTime self_time(const std::vector<SpanRec>& spans, double t_begin,
                          double t_end) {
  SelfTime st;
  st.per_span.assign(spans.size(), 0.0);
  st.total = t_end - t_begin;
  // Boundary events, clipped to the window; ends sort before starts at the
  // same instant so back-to-back spans never count as overlapping.
  struct Ev {
    double t;
    int kind;  // 0 = end, 1 = start
    int idx;
  };
  std::vector<Ev> ev;
  ev.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double a = std::max(spans[i].t0, t_begin);
    const double b = std::min(spans[i].t1, t_end);
    if (b <= a) continue;
    ev.push_back({a, 1, static_cast<int>(i)});
    ev.push_back({b, 0, static_cast<int>(i)});
  }
  std::sort(ev.begin(), ev.end(), [](const Ev& x, const Ev& y) {
    return x.t != y.t ? x.t < y.t : x.kind < y.kind;
  });
  // open_children[i]: children of span i currently open. A span with no
  // open child is innermost.
  std::vector<int> open_children(spans.size(), 0);
  std::vector<int> open;  // currently open span indices
  double t = t_begin;
  auto charge = [&](double until) {
    const double dt = until - t;
    if (dt <= 0) return;
    int leaves = 0;
    for (int i : open)
      if (open_children[static_cast<std::size_t>(i)] == 0) ++leaves;
    if (leaves == 0) {
      st.uncovered += dt;
    } else {
      for (int i : open)
        if (open_children[static_cast<std::size_t>(i)] == 0)
          st.per_span[static_cast<std::size_t>(i)] += dt / leaves;
    }
  };
  for (const Ev& e : ev) {
    charge(e.t);
    t = e.t;
    const int p = spans[static_cast<std::size_t>(e.idx)].parent;
    // A child whose parent is not open (clipped away) counts as a root.
    const bool parent_open =
        p >= 0 && std::find(open.begin(), open.end(), p) != open.end();
    if (e.kind == 1) {
      open.push_back(e.idx);
      if (parent_open) ++open_children[static_cast<std::size_t>(p)];
    } else {
      open.erase(std::find(open.begin(), open.end(), e.idx));
      if (parent_open) --open_children[static_cast<std::size_t>(p)];
    }
  }
  charge(t_end);
  for (std::size_t i = 0; i < spans.size(); ++i)
    st.per_layer[layer_of(spans[i].name)] += st.per_span[i];
  return st;
}

// ---------------------------------------------------------------------------
// Open-loop lateness accounting
// ---------------------------------------------------------------------------

/// Poisson arrival schedule: `n` due times (seconds from the phase start)
/// with exponential gaps of mean 1/rate, drawn from a splitmix64 stream so
/// the same seed gives the same schedule on every platform.
inline std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
inline double unit_uniform(std::uint64_t& s) {
  return static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
}
inline std::vector<double> poisson_schedule(double rate, double seconds,
                                            std::uint64_t seed) {
  std::vector<double> due;
  std::uint64_t s = seed;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - unit_uniform(s)) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

/// Timeline of one open-loop request, seconds on one clock. Latency runs
/// from when the request was *due*, so a generator that falls behind
/// charges its lateness to every request it delays.
struct OpenLoopRecord {
  double due = 0;         ///< Scheduled send time.
  double sent = 0;        ///< submit() entered.
  double submitted = 0;   ///< submit() returned.
  double done = 0;        ///< Completion observed by the client.
  double queue = 0;       ///< Server-reported queue wait.
  double exec = 0;        ///< Server-reported batch execution time.
  bool ok = false;        ///< Executed, no error, output not wrong.

  double lag() const { return sent - due; }
  double submit() const { return submitted - sent; }
  double latency() const { return done - due; }
  /// What no other component explains: completion hand-off to the client.
  double notify() const { return latency() - lag() - submit() - queue - exec; }
};

/// Summary of one fixed-rate phase. A failed request counts as missing the
/// latency limit, so its latency enters the percentiles as +infinity.
struct PhaseSummary {
  long attempted = 0;
  long failed = 0;
  double p50 = 0, p99 = 0;   ///< Latency, seconds.
  double lag_p99 = 0, lag_max = 0;
  double tail_p50 = 0;       ///< Median latency of the last 10% by due time.
  double achieved_rps = 0;   ///< Completions / (last done - first due).
};

inline PhaseSummary summarize_phase(const std::vector<OpenLoopRecord>& recs) {
  PhaseSummary s;
  s.attempted = static_cast<long>(recs.size());
  if (recs.empty()) return s;
  std::vector<double> lat, lag, tail;
  double first_due = recs.front().due, last_done = recs.front().due;
  long done_ok = 0;
  const std::size_t tail_from = recs.size() - std::max<std::size_t>(1, recs.size() / 10);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const OpenLoopRecord& r = recs[i];
    const double l = r.ok ? r.latency() : INFINITY;
    if (!r.ok) ++s.failed;
    else ++done_ok;
    lat.push_back(l);
    lag.push_back(r.lag());
    if (i >= tail_from) tail.push_back(l);
    first_due = std::min(first_due, r.due);
    last_done = std::max(last_done, r.done);
  }
  s.p50 = percentile(lat, 50);
  s.p99 = percentile(lat, 99);
  s.lag_p99 = percentile(lag, 99);
  s.lag_max = *std::max_element(lag.begin(), lag.end());
  s.tail_p50 = median(tail);
  s.achieved_rps = last_done > first_due
                       ? static_cast<double>(done_ok) / (last_done - first_due)
                       : 0.0;
  return s;
}

/// The same summary, robust to a transient stall: the phase is cut into
/// consecutive windows of at least `min_window` requests (so each window's
/// p99 has at least ten samples beyond it at 1000), and p50, p99 and the
/// p99 lag are the medians of the per-window figures. Counts, the maximum
/// lag, the tail median and the achieved rate are over the whole phase.
inline PhaseSummary summarize_windows(const std::vector<OpenLoopRecord>& recs,
                                      std::size_t min_window = 1000) {
  PhaseSummary all = summarize_phase(recs);
  const std::size_t nwin = std::max<std::size_t>(1, recs.size() / min_window);
  if (nwin == 1) return all;
  std::vector<double> p50, p99, lag99;
  for (std::size_t w = 0; w < nwin; ++w) {
    const std::size_t lo = recs.size() * w / nwin, hi = recs.size() * (w + 1) / nwin;
    const PhaseSummary s = summarize_phase(
        std::vector<OpenLoopRecord>(recs.begin() + static_cast<long>(lo),
                                    recs.begin() + static_cast<long>(hi)));
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    lag99.push_back(s.lag_p99);
  }
  all.p50 = median(p50);
  all.p99 = median(p99);
  all.lag_p99 = median(lag99);
  return all;
}

/// One rung of a rate ladder and whether it met the service limit: p99
/// latency within `limit` and no growing backlog (the last tenth of the
/// rung still served within the limit at the median).
struct Rung {
  double rate = 0;
  PhaseSummary s;
  bool meets(double limit) const {
    return s.failed == 0 && s.p99 <= limit && s.tail_p50 <= limit;
  }
};

/// Highest sustainable rate on an ascending ladder: the achieved rate of
/// the last rung that meets the limit, moved toward the first failing rung
/// by where the limit falls between their p99 latencies (log scale). The
/// interpolation keeps the figure continuous instead of snapping to rungs.
/// 0 when even the first rung fails.
inline double max_sustainable_rate(const std::vector<Rung>& ladder,
                                   double limit) {
  const Rung* pass = nullptr;
  const Rung* fail = nullptr;
  for (const Rung& r : ladder) {
    if (r.meets(limit)) {
      pass = &r;
    } else {
      fail = &r;
      break;
    }
  }
  if (pass == nullptr) return 0.0;
  if (fail == nullptr || !std::isfinite(fail->s.p99) || fail->s.p99 <= limit ||
      pass->s.p99 <= 0)
    return pass->s.achieved_rps;
  const double f = (std::log(limit) - std::log(pass->s.p99)) /
                   (std::log(fail->s.p99) - std::log(pass->s.p99));
  return pass->s.achieved_rps +
         std::clamp(f, 0.0, 1.0) * (fail->rate - pass->rate);
}

}  // namespace pb
