#include "ceiling.hpp"

#include <immintrin.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cpu.hpp"
#include "common.hpp"

namespace pb {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median triad bandwidth (GB/s, 24 bytes per element: two reads, one
/// write; write-allocate traffic not counted, as in STREAM).
double triad(double* a, const double* b, const double* c, std::size_t n,
             int threads) {
  std::vector<double> gbs;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    parallel_chunks(static_cast<long>(n), threads, [=](long lo, long hi) {
      for (long i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
    gbs.push_back(24.0 * static_cast<double>(n) / seconds_since(t0) * 1e-9);
  }
  return median(gbs);
}

constexpr long kFmaIters = 20'000'000;

__attribute__((target("avx2,fma"))) double fma_avx2(double seed) {
  __m256d acc[10];
  for (int i = 0; i < 10; ++i) acc[i] = _mm256_set1_pd(seed + i);
  const __m256d m = _mm256_set1_pd(0.9999999), c = _mm256_set1_pd(1e-7);
  for (long it = 0; it < kFmaIters; ++it)
    for (int i = 0; i < 10; ++i) acc[i] = _mm256_fmadd_pd(acc[i], m, c);
  double out[4], s = 0;
  for (int i = 0; i < 10; ++i) {
    _mm256_storeu_pd(out, acc[i]);
    s += out[0] + out[1] + out[2] + out[3];
  }
  return s;
}

__attribute__((target("avx512f"))) double fma_avx512(double seed) {
  __m512d acc[10];
  for (int i = 0; i < 10; ++i) acc[i] = _mm512_set1_pd(seed + i);
  const __m512d m = _mm512_set1_pd(0.9999999), c = _mm512_set1_pd(1e-7);
  for (long it = 0; it < kFmaIters; ++it)
    for (int i = 0; i < 10; ++i) acc[i] = _mm512_fmadd_pd(acc[i], m, c);
  double s = 0;
  for (int i = 0; i < 10; ++i) s += _mm512_reduce_add_pd(acc[i]);
  return s;
}

/// Median GFLOP/s of `fn` (two flops per FMA lane) over five runs.
template <class Fn>
double fma_rate(Fn fn, int lanes) {
  std::vector<double> rate;
  volatile double sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    sink = sink + fn(1.0 + rep);
    rate.push_back(2.0 * lanes * 10.0 * static_cast<double>(kFmaIters) /
                   seconds_since(t0) * 1e-9);
  }
  return median(rate);
}

}  // namespace

Ceilings measure_ceilings(int threads) {
  Ceilings c;
  c.threads = threads;
  const double llc = static_cast<double>(sf::llc_bytes());
  c.llc_mb = llc / 1e6;
  const std::size_t n =
      std::max<std::size_t>(static_cast<std::size_t>(4.0 * llc / 8.0), 1u << 24);
  c.array_mb = 8.0 * static_cast<double>(n) / 1e6;
  {
    sf::AlignedBuffer a(n, false), b(n, false), cc(n, false);
    double* pa = a.data();
    double* pb = b.data();
    double* pc = cc.data();
    // First touch by the thread that later streams each chunk.
    parallel_chunks(static_cast<long>(n), threads, [=](long lo, long hi) {
      for (long i = lo; i < hi; ++i) {
        pa[i] = 0.0;
        pb[i] = 1.0;
        pc[i] = 2.0;
      }
    });
    c.triad_gbs = triad(pa, pb, pc, n, threads);
    c.triad_gbs_1t = triad(pa, pb, pc, n, 1);
  }
  if (sf::cpu_has_avx2()) c.fma_gflops_avx2 = fma_rate(fma_avx2, 4);
  if (sf::cpu_has_avx512()) c.fma_gflops_avx512 = fma_rate(fma_avx512, 8);
  return c;
}

}  // namespace pb
