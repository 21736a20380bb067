// Self-test of the benchmark's measurement helpers (src/stats.hpp):
// percentiles and quartiles, span self time with overlapping children, and
// open-loop lateness accounting. Exits non-zero on the first failure.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::abs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect_near(pb::percentile(v, 50), 50, "p50 of 1..100");
  expect_near(pb::percentile(v, 99), 99, "p99 of 1..100");
  expect_near(pb::percentile(v, 100), 100, "p100 is the max");
  expect_near(pb::percentile({7}, 99), 7, "p99 of one sample");
  expect_near(pb::percentile({}, 50), 0, "empty percentile");
  expect_near(pb::percentile({1, 2, INFINITY}, 50), 2, "failure ranks last");
  expect_near(pb::median({3, 1, 2}), 2, "odd median");
  expect_near(pb::median({4, 1, 3, 2}), 2.5, "even median");
}

void quartiles() {
  // Values from Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  pb::Quartiles q = pb::quartiles(v);
  expect_near(q.q1, 2.75, "q1 of 1..10");
  expect_near(q.q2, 5.5, "q2 of 1..10");
  expect_near(q.q3, 8.25, "q3 of 1..10");
  // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
  q = pb::quartiles({8, 1, 4, 2});
  expect_near(q.q1, 1.25, "q1 of 1,2,4,8");
  expect_near(q.q2, 3.0, "q2 of 1,2,4,8");
  expect_near(q.q3, 7.0, "q3 of 1,2,4,8");
  // statistics.quantiles([5, 6], n=4) == [4.75, 5.5, 6.25]
  q = pb::quartiles({5, 6});
  expect_near(q.q1, 4.75, "q1 of two");
  expect_near(q.q3, 6.25, "q3 of two");
}

void self_time() {
  // parent [0,10] with children [1,5] and [3,7] that overlap on [3,5]
  // (concurrent calls): the overlap is split between them.
  std::vector<pb::SpanRec> s = {
      {"engine.run", 0, 10, -1},
      {"kernel.run", 1, 5, 0},
      {"tiling.run", 3, 7, 0},
      {"layout.x", 12, 13, -1},  // a root after a gap
  };
  pb::SelfTime st = pb::self_time(s, 0, 15);
  expect_near(st.per_span[0], 4, "parent self = dur - union(children)");
  expect_near(st.per_span[1], 3, "first child: 2 alone + half of overlap");
  expect_near(st.per_span[2], 3, "second child: 2 alone + half of overlap");
  expect_near(st.per_span[3], 1, "late root");
  expect_near(st.uncovered, 4, "gaps [10,12] and [13,15]");
  double sum = st.uncovered;
  for (const auto& kv : st.per_layer) sum += kv.second;
  expect_near(sum, 15, "self times + uncovered = window");
  expect_near(st.per_layer["engine"], 4, "engine layer");

  // A grandchild inside one child: only the innermost span is charged.
  std::vector<pb::SpanRec> n = {
      {"serving.wait", 0, 4, -1},
      {"serving.inner", 1, 2, 0},
      {"kernel.run", 1.5, 2, 1},
  };
  st = pb::self_time(n, 0, 4);
  expect_near(st.per_span[0], 3, "outer self");
  expect_near(st.per_span[1], 0.5, "middle self");
  expect_near(st.per_span[2], 0.5, "leaf self");

  // Spans clipped by the window still add up.
  st = pb::self_time({{"engine.run", -1, 2, -1}}, 0, 3);
  expect_near(st.per_span[0], 2, "clipped span");
  expect_near(st.uncovered, 1, "clipped remainder");
}

void lateness() {
  // A request due at t=1 that the generator only sent at t=1.5 (it was
  // stalled) is charged the stall: latency counts from the due time.
  pb::OpenLoopRecord r;
  r.due = 1.0;
  r.sent = 1.5;
  r.submitted = 1.6;
  r.queue = 0.2;
  r.exec = 0.3;
  r.done = 2.7;
  r.ok = true;
  expect_near(r.lag(), 0.5, "lag");
  expect_near(r.submit(), 0.1, "submit");
  expect_near(r.latency(), 1.7, "latency from due");
  expect_near(r.notify(), 0.6, "notify = latency - lag - submit - queue - exec");

  // Phase summary: a failed request misses the limit, so it ranks last.
  std::vector<pb::OpenLoopRecord> recs;
  for (int i = 0; i < 100; ++i) {
    pb::OpenLoopRecord q;
    q.due = i * 0.01;
    q.sent = q.due + (i == 50 ? 0.004 : 0.0);
    q.submitted = q.sent;
    q.done = q.due + 0.001 * (1 + i % 10);
    q.ok = i != 99;
    recs.push_back(q);
  }
  pb::PhaseSummary s = pb::summarize_phase(recs);
  expect(s.attempted == 100 && s.failed == 1, "phase counts");
  expect_near(s.p50, 0.005, "phase p50");
  expect_near(s.lag_max, 0.004, "generator lateness max");
  expect(std::isinf(pb::percentile({1, 2, INFINITY}, 99)), "failed request is slowest");

  // Windowed summary: a stall confined to one window of three moves the
  // whole-phase p99 but not the median of the window p99s.
  std::vector<pb::OpenLoopRecord> w;
  for (int i = 0; i < 3000; ++i) {
    pb::OpenLoopRecord q;
    q.due = i * 0.001;
    q.sent = q.submitted = q.due;
    q.done = q.due + (i >= 100 && i < 200 ? 0.050 : 0.001 + 1e-6 * (i % 100));
    q.ok = true;
    w.push_back(q);
  }
  expect_near(pb::summarize_phase(w).p99, 0.050, "stall sets the phase p99");
  const pb::PhaseSummary ws = pb::summarize_windows(w, 1000);
  expect_near(ws.p99, 0.001 + 1e-6 * 98, "median of window p99s ignores one stalled window");
  expect(ws.attempted == 3000, "windowed counts cover the phase");

  // Poisson schedule: seeded, sorted, mean gap near 1/rate.
  const auto a = pb::poisson_schedule(1000, 5, 42);
  const auto b = pb::poisson_schedule(1000, 5, 42);
  expect(a == b, "same seed, same schedule");
  expect(std::abs(static_cast<double>(a.size()) - 5000) < 300, "Poisson count");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] > a[i - 1];
  expect(sorted, "due times ascend");

  // Rate ladder: interpolate between the last passing and first failing
  // rung on log p99.
  std::vector<pb::Rung> ladder(3);
  ladder[0].rate = 1000;
  ladder[0].s.p99 = 1e-3;
  ladder[0].s.achieved_rps = 1000;
  ladder[1].rate = 2000;
  ladder[1].s.p99 = 2.5e-3;
  ladder[1].s.achieved_rps = 2000;
  ladder[2].rate = 3000;
  ladder[2].s.p99 = 10e-3;
  ladder[2].s.achieved_rps = 2900;
  expect_near(pb::max_sustainable_rate(ladder, 5e-3), 2500,
              "limit halfway (log) between rungs");
  ladder[2].s.p99 = 4e-3;
  ladder[2].s.tail_p50 = 6e-3;  // growing backlog fails the rung
  expect_near(pb::max_sustainable_rate(ladder, 5e-3), 2000,
              "backlog failure without p99 crossing keeps the passing rung");
  ladder[0].s.failed = 1;
  expect_near(pb::max_sustainable_rate(ladder, 5e-3), 0, "first rung fails");
}

}  // namespace

int main() {
  percentiles();
  quartiles();
  self_time();
  lateness();
  if (failures == 0) std::printf("perfbench helpers: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
