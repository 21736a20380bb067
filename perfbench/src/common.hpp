// Shared pieces of the benchmark workloads: options, the metric report,
// the seeded input generator and small timing/threading helpers.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ceiling.hpp"
#include "grid/field_view.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int reps = 0;  ///< Solve workloads: exactly this many solves (0 = timed).
  std::string trace_out;  ///< Span dump path of a traced run ("" = none).
};

/// Everything one invocation measured. `metrics` holds (name, value, unit);
/// perfbench/run.py picks the end-to-end or per-layer subset named in
/// BENCHMARK.json and refuses a run that lacks any of them.
struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

/// Seconds on the shared run clock (the tracer's).
inline double now() { return Tracer::instance().now(); }

/// Peak resident set of this process, MB (getrusage reports KiB on Linux).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

/// Deterministic input value in [-1, 1) at global cell `idx` of input
/// stream `stream`: a pure function of (seed, stream, idx), so any cell of
/// any input — halo included — can be regenerated for the correctness
/// check without keeping a copy.
inline double input_value(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t idx) {
  std::uint64_t s = seed * 0x2545F4914F6CDD1Dull ^ (stream << 40) ^ idx;
  return 2.0 * unit_uniform(s) - 1.0;
}

/// Coordinate offset/extent of the generator's index space: every cell a
/// grid of up to kGenSpan - 2*kGenPad per axis (halo included) can hold.
constexpr long kGenPad = 64;
constexpr long kGenSpan = 1 << 12;
inline std::uint64_t gen_index(long z, long y, long x) {
  return static_cast<std::uint64_t>(((z + kGenPad) * kGenSpan + (y + kGenPad)) *
                                        kGenSpan +
                                    (x + kGenPad));
}

/// Fills the whole view, halo included, from the generator.
void fill_input(const sf::FieldView1D& v, std::uint64_t seed,
                std::uint64_t stream);
void fill_input(const sf::FieldView2D& v, std::uint64_t seed,
                std::uint64_t stream);
void fill_input(const sf::FieldView3D& v, std::uint64_t seed,
                std::uint64_t stream);

/// Runs fn(lo, hi) over [0, n) in `threads` contiguous chunks on
/// std::threads and joins them.
void parallel_chunks(long n, int threads,
                     const std::function<void(long, long)>& fn);

/// Median wall time of fn() over at least `min_reps` calls and at least
/// `min_seconds` of calls.
double time_median(const std::function<void()>& fn, int min_reps,
                   double min_seconds);

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 9;

/// Absolute tolerance of the output check. Values stay in [-1, 1] (the
/// workloads' weights are non-negative and sum to at most 1); folded
/// kernels reassociate sums, so agreement is to rounding, not bitwise.
constexpr double kCheckTol = 1e-9;

/// Hardware threads the benchmark sizes its pools and probes by.
int nproc();

/// Useful GFLOP/s of `steps` steps over `cells` cells at `flops_per_cell`
/// useful flops each, done in `seconds`.
inline double gflops(double flops_per_cell, double cells, double steps,
                     double seconds) {
  return flops_per_cell * cells * steps / seconds * 1e-9;
}

/// Workload entry points (workloads.cpp, serve.cpp).
Report run_heat3d_llc(const Options& o);
Report run_box2d_1t(const Options& o);
Report run_serve_mix(const Options& o);

}  // namespace pb
