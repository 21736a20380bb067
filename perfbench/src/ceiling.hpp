// Measured machine ceilings for the roofline fractions of the traced run:
// STREAM-style triad bandwidth and single-core FMA throughput per ISA.
#pragma once

namespace pb {

struct Ceilings {
  double array_mb = 0;      ///< Size of each triad array.
  double llc_mb = 0;        ///< Last-level cache the arrays are sized from.
  double triad_gbs = 0;     ///< a = b + s*c at `threads` threads.
  double triad_gbs_1t = 0;  ///< The same on one thread.
  int threads = 0;
  double fma_gflops_avx2 = 0;    ///< One core; 0 when the ISA is missing.
  double fma_gflops_avx512 = 0;  ///< One core; 0 when the ISA is missing.
};

/// Runs the probes: triad arrays of at least 4x the LLC each (three
/// arrays), median of five passes; FMA loops of independent accumulator
/// chains, median of five.
Ceilings measure_ceilings(int threads);

}  // namespace pb
