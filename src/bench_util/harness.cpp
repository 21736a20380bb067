#include "bench_util/harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>

namespace sf::bench {

Measurement measure(Solver& solver) {
  const long reps = env_long("SF_BENCH_REPS", bench_full() ? 1 : 5);
  std::vector<RunResult> rs;
  for (long i = 0; i < std::max(1L, reps); ++i) rs.push_back(solver.run());
  std::sort(rs.begin(), rs.end(),
            [](const RunResult& a, const RunResult& b) { return a.seconds < b.seconds; });
  Measurement m;
  static_cast<RunResult&>(m) = rs[rs.size() / 2];
  // Quartile reps (outer nearest ranks) of the seconds-sorted list; every
  // rep does the same flops, so GFLOP/s runs in the opposite order.
  const RunResult& q1 = rs[(rs.size() - 1) / 4];
  const RunResult& q3 = rs[(3 * rs.size() - 1) / 4];
  m.seconds_iqr = q3.seconds - q1.seconds;
  m.gflops_iqr = q1.gflops - q3.gflops;
  return m;
}

std::vector<const KernelInfo*> method_axis(int dims, bool skip_naive) {
  // available_kernels() is sorted by (method, isa); the widest supported
  // ISA of each method is therefore the last entry of its method group.
  std::vector<const KernelInfo*> axis;
  for (const KernelInfo* k : available_kernels(dims, Isa::Auto)) {
    if (skip_naive && k->method == Method::Naive) continue;
    if (!axis.empty() && axis.back()->method == k->method)
      axis.back() = k;
    else
      axis.push_back(k);
  }
  return axis;
}

const std::vector<Competitor>& paper_competitors() {
  static const std::vector<Competitor> v = {
      {"sdsl", "dlt", Isa::Avx2},
      {"tessellation", "naive", Isa::Auto},
      {"our", "ours", Isa::Avx2},
      {"our-2step", "ours-2step", Isa::Avx2},
      {"our-2step-avx512", "ours-2step", Isa::Avx512},
  };
  return v;
}

Solver competitor_solver(const Competitor& m, const StencilSpec& spec,
                         bool full, Tiling tiling) {
  Solver s = Solver::make(spec.id).method(m.kernel).isa(m.isa).tiling(tiling);
  apply_bench_size(s, spec, full);
  return s;
}

void apply_bench_size(Solver& s, const StencilSpec& spec, bool full) {
  if (!full) return;  // fast mode: keep the preset's small-size defaults
  s.size(spec.full_size[0], spec.dims >= 2 ? spec.full_size[1] : 0,
         spec.dims >= 3 ? spec.full_size[2] : 0);
  s.steps(static_cast<int>(spec.full_tsteps));
}

const char* storage_level(double ws) {
  if (ws <= 32.0 * 1024) return "L1";
  if (ws <= 1024.0 * 1024) return "L2";
  if (ws <= 24.75 * 1024 * 1024) return "L3";
  return "Mem";
}

std::vector<long> size_sweep_1d(bool full) {
  // Working set = 2 arrays of n doubles; levels per storage_level().
  if (full)
    return {1000,   2000,    8000,    30000,   60000,    250000,
            500000, 1000000, 1500000, 4000000, 10240000, 20000000};
  return {1000, 8000, 30000, 250000, 1000000, 4000000};
}

namespace {

// One stamp per process: every table of a sweep lands in the same run
// family, and repeated sweeps never overwrite each other (SF_BENCH_OUT +
// the suffix replace the old fixed-name convention). The PID disambiguates
// processes launched within the same second.
const std::string& run_stamp() {
  static const std::string stamp = [] {
    char buf[48];
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    localtime_r(&now, &tm);
    const std::size_t n = std::strftime(buf, sizeof(buf), "%Y%m%d-%H%M%S", &tm);
    std::snprintf(buf + n, sizeof(buf) - n, "-p%ld",
                  static_cast<long>(getpid()));
    return std::string(buf);
  }();
  return stamp;
}

}  // namespace

void emit_bench_json(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::string dir = bench_out_dir();
  if (dir.empty()) {
    dir = ".";
  } else {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) dir = ".";
  }
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::ofstream f(path);
  f << "{\n  \"bench\": \"" << name << "\",\n  \"stamp\": \"" << run_stamp()
    << "\",\n  \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof(num), "%.6g", metrics[i].second);
    f << (i ? "," : "") << "\n    \"" << metrics[i].first << "\": " << num;
  }
  f << "\n  }\n}\n";
  f.flush();
  if (f)
    std::cout << "(json summary written to " << path << ")\n";
  else
    std::cerr << "(failed to write " << path << ")\n";
}

void emit(const Table& t, const std::string& name) {
  std::cout << t.str() << std::flush;
  std::string dir = bench_out_dir();
  if (dir.empty()) {
    dir = ".";
  } else {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::cerr << "(SF_BENCH_OUT: cannot create '" << dir << "': "
                << ec.message() << "; writing to .)\n";
      dir = ".";
    }
  }
  const std::string path = dir + "/" + name + "-" + run_stamp() + ".csv";
  std::ofstream csv(path);
  csv << t.csv();
  csv.flush();
  if (csv)
    std::cout << "(csv written to " << path << ")\n\n";
  else
    std::cerr << "(failed to write " << path << ")\n\n";
}

}  // namespace sf::bench
