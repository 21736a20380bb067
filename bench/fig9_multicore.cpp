// Figure 9: multicore cache-blocking experiments over all nine Table-1
// stencils. The competitor systems are named (label, kernel string key,
// ISA) tuples resolved through the registry: SDSL-like (DLT layout + split
// tiling), Tessellation (split tiling + compiler vectorization), Our
// (register-transpose layout + tiling), Our (2 steps) (+ temporal folding),
// and the AVX-512 gain on the folded method. Speedups are relative to SDSL
// (or Tessellation where SDSL does not support the benchmark, as in the
// paper). A final "our-2step-auto" column runs the folded method under
// Tiling::Auto instead of the pinned Tiling::On, so the planner's
// cost-model decision is exercised (and visible) at these sizes: each cell
// is suffixed with the decision it took (:tiled or :untiled).
#include <iostream>

#include "bench_util/harness.hpp"

int main() {
  using namespace sf;
  const bool full = bench_full();
  const auto& methods = bench::paper_competitors();

  // Every GFLOP/s column is followed by its "<label> iqr" column: the
  // interquartile range over the SF_BENCH_REPS reps.
  std::vector<std::string> header{"Stencil"};
  for (const auto& m : methods) {
    header.push_back(m.label);
    header.push_back(std::string(m.label) + " iqr");
  }
  header.push_back("our-2step-auto");
  header.push_back("our-2step-auto iqr");
  header.push_back("speedup(our2/base)");
  Table t(header);
  std::cout << "Figure 9: multicore cache-blocked GFLOP/s ("
            << (full ? "paper" : "fast") << " sizes, " << hardware_threads()
            << " threads)\n";
  // Machine-readable trajectory: every (stencil, competitor) GFLOP/s lands
  // in BENCH_fig9.json alongside the stamped CSV (scripts/bench_summary.py
  // merges these across runs/PRs).
  std::vector<std::pair<std::string, double>> summary;
  for (const auto& spec : all_presets()) {
    std::vector<std::string> row{spec.name};
    // One GFLOP/s cell plus its IQR cell, in the table and the summary.
    const auto record = [&](const std::string& label,
                            const bench::Measurement& r,
                            const std::string& note) {
      const std::string key = std::string(spec.name) + "." + label;
      summary.emplace_back(key + ".gflops", r.gflops);
      summary.emplace_back(key + ".gflops_iqr", r.gflops_iqr);
      row.push_back(Table::num(r.gflops) + note);
      row.push_back(Table::num(r.gflops_iqr));
    };
    double base = 0, our2 = 0;
    const bench::Competitor* our2_avx2 = nullptr;
    for (const auto& m : methods) {
      if (method_from_name(m.kernel) == Method::Ours2 && m.isa == Isa::Avx2)
        our2_avx2 = &m;
      if (m.isa == Isa::Avx512 && !cpu_has_avx512()) {
        row.insert(row.end(), {"-", "-"});
        continue;
      }
      Solver s = bench::competitor_solver(m, spec, full);
      const bench::Measurement r = bench::measure(s);
      record(m.label, r, "");
      if (base == 0) base = r.gflops;  // first column (sdsl) is the base
      // The speedup column tracks the folded method at AVX-2, keyed on the
      // registry method rather than the display label.
      if (&m == our2_avx2) our2 = r.gflops;
    }
    // Tiling::Auto column: same kernel, but the ExecutionPlan cost model
    // decides tiled-vs-untiled instead of the paper's pinned Tiling::On.
    if (our2_avx2 != nullptr) {
      Solver s =
          bench::competitor_solver(*our2_avx2, spec, full, Tiling::Auto);
      record("our-2step-auto", bench::measure(s),
             s.plan().tiled ? ":tiled" : ":untiled");
    } else {
      row.insert(row.end(), {"-", "-"});
    }
    row.push_back(Table::num(our2 / base) + "x");
    t.add_row(row);
  }
  bench::emit(t, "fig9_multicore");
  bench::emit_bench_json("fig9", summary);
  return 0;
}
