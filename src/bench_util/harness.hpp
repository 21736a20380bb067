// Shared scaffolding for the figure/table reproduction harnesses.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/table.hpp"
#include "core/solver.hpp"

namespace sf::bench {

/// A median-of-reps measurement: the median-time rep plus the spread of
/// the reps around it.
struct Measurement : RunResult {
  double seconds_iqr = 0;  ///< Interquartile range of seconds over the reps.
  double gflops_iqr = 0;   ///< Interquartile range of GFLOP/s over the reps.
};

/// Median-of-reps measurement of one configuration (reps from SF_BENCH_REPS,
/// default 5 fast / 1 full); the IQRs are 0 for a single rep.
Measurement measure(Solver& solver);

/// The method axis the figures sweep: one kernel per method at the widest
/// CPU-supported ISA, enumerated from the registry (registering a new
/// method grows every harness automatically). Pass skip_naive for the
/// single-thread figures, which exclude the scalar baseline.
std::vector<const KernelInfo*> method_axis(int dims, bool skip_naive = false);

/// The named competitor systems of the multicore figures (Fig. 9/10,
/// Table 3): paper label -> registry kernel key + ISA. Shared so the three
/// harnesses cannot drift apart.
struct Competitor {
  const char* label;
  const char* kernel;  // registry string key
  Isa isa;
};
const std::vector<Competitor>& paper_competitors();

/// Builds the Solver for one competitor row: preset + kernel + ISA with the
/// requested tiling policy (default Tiling::On — the paper's Fig. 9/10
/// configuration; tile/time_block auto-negotiated, or tuned under SF_TUNE)
/// and paper-size extents when `full`. Pass Tiling::Auto to exercise the
/// planner's cost-model decision instead of pinning the tiled path (the
/// fig9 "auto" column). Chain `.threads(c)` for the core-scaling sweeps.
Solver competitor_solver(const Competitor& m, const StencilSpec& spec,
                         bool full, Tiling tiling = Tiling::On);

/// Applies the paper-size (SF_BENCH_FULL=1) extents of `spec` to `s`.
void apply_bench_size(Solver& s, const StencilSpec& spec, bool full);

/// Storage-level classification by working-set bytes (two grids), using the
/// cache sizes of the machine the paper targets (32 KB / 1 MB / 24.75 MB);
/// these labels organize Fig. 8 and Table 2 rows.
const char* storage_level(double working_set_bytes);

/// 1-D problem sizes sweeping L1 -> memory (grows by ~4x per point).
std::vector<long> size_sweep_1d(bool full);

/// Prints a table and also writes it as CSV for plotting:
/// $SF_BENCH_OUT/<name>-<run-stamp>.csv (stamp = time + PID; default
/// directory: the working directory; the stamp is fixed per process so one
/// sweep's tables form one family and repeated sweeps never overwrite
/// each other).
void emit(const Table& t, const std::string& name);

/// Machine-readable bench summary: writes $SF_BENCH_OUT/BENCH_<name>.json
/// holding a flat metric->value map plus the run stamp. Unlike the
/// stamped CSVs this path is *fixed*, so successive runs overwrite it and
/// the latest numbers are always at a known location — the per-PR perf
/// trajectory scripts/bench_summary.py merges across checkouts. Metric
/// keys are dotted paths (e.g. "batched.c8.gflops"); values must be
/// finite doubles.
void emit_bench_json(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics);

}  // namespace sf::bench
