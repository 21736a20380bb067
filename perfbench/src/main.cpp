// perfbench: the repository benchmark's measuring binary. Runs one
// workload and prints its metrics, then one JSON line for
// perfbench/run.py. See perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--reps <n>]
//
// Exits 1 on bad arguments or a failed run, 2 when an output is wrong.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

/// JSON has no infinity: a latency percentile that lands on a failed
/// request (infinitely late) is written as 1e300.
double finite(double v) { return std::isfinite(v) ? v : 1e300; }

void print_json(const pb::Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                r.metrics[i].first.c_str(), finite(r.metrics[i].second.first),
                r.metrics[i].second.second.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--trace-out") o.trace_out = v;
    else if (k == "--reps") o.reps = std::atoi(v.c_str());
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 1;
    }
  }
  pb::Tracer::instance().enable(o.trace);
  pb::Report r;
  try {
    if (o.workload == "heat3d-llc") r = pb::run_heat3d_llc(o);
    else if (o.workload == "box2d-1t") r = pb::run_box2d_1t(o);
    else if (o.workload == "serve-mix") r = pb::run_serve_mix(o);
    else {
      std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& m : r.metrics)
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.first.c_str(), m.second.first,
                 m.second.second.c_str());
  print_json(r);
  return r.correct ? 0 : 2;
}
