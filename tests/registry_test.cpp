// Kernel registry: enumeration, string lookup, capability metadata, and the
// declared-minimum-halo regression. Adding a kernel must only require a
// registration in its own translation unit; these tests assert the full
// method x dims x ISA matrix is visible through the registry alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "stencil/presets.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

const Method kMethods[] = {Method::Naive,  Method::MultipleLoads,
                           Method::DataReorg, Method::DLT,
                           Method::Ours,   Method::Ours2};
const Isa kIsas[] = {Isa::Scalar, Isa::Avx2, Isa::Avx512};

TEST(Registry, AllSixMethodsAcrossAllDimsAndIsas) {
  for (int dims = 1; dims <= 3; ++dims)
    for (Method m : kMethods)
      for (Isa isa : kIsas) {
        const KernelInfo* k = find_kernel(m, dims, isa);
        ASSERT_NE(k, nullptr)
            << method_name(m) << " " << dims << "-D " << isa_name(isa);
        EXPECT_EQ(k->method, m);
        EXPECT_EQ(k->dims, dims);
        EXPECT_EQ(k->isa, isa);
        EXPECT_STREQ(k->name, method_name(m));
        // Naive is scalar at every registered level; vector methods carry
        // the ISA's lane count.
        EXPECT_EQ(k->width, m == Method::Naive ? 1 : isa_width(isa));
        // Exactly one executor pointer, matching the dimensionality.
        EXPECT_EQ(k->run1 != nullptr, dims == 1);
        EXPECT_EQ(k->run2 != nullptr, dims == 2);
        EXPECT_EQ(k->run3 != nullptr, dims == 3);
      }
}

TEST(Registry, AvailableEnumeratesOnePerMethodAtConcreteIsa) {
  for (int dims = 1; dims <= 3; ++dims)
    for (Isa isa : kIsas) {
      auto ks = available_kernels(dims, isa);
      EXPECT_EQ(ks.size(), 6u) << dims << "-D " << isa_name(isa);
      std::set<Method> seen;
      for (const KernelInfo* k : ks) {
        EXPECT_EQ(k->isa, isa);
        EXPECT_EQ(k->dims, dims);
        seen.insert(k->method);
      }
      EXPECT_EQ(seen.size(), 6u);
      // Deterministic (method, isa) ordering.
      EXPECT_TRUE(std::is_sorted(ks.begin(), ks.end(),
                                 [](const KernelInfo* a, const KernelInfo* b) {
                                   return a->method < b->method;
                                 }));
    }
}

TEST(Registry, AutoIsaFiltersToCpuSupportedLevels) {
  auto ks = available_kernels(2, Isa::Auto);
  EXPECT_FALSE(ks.empty());
  for (const KernelInfo* k : ks) {
    if (k->isa == Isa::Avx2) EXPECT_TRUE(cpu_has_avx2());
    if (k->isa == Isa::Avx512) EXPECT_TRUE(cpu_has_avx512());
  }
}

TEST(Registry, StringLookupMatchesEnumLookup) {
  for (int dims = 1; dims <= 3; ++dims)
    for (Method m : kMethods) {
      EXPECT_EQ(find_kernel(method_name(m), dims, Isa::Avx2),
                find_kernel(m, dims, Isa::Avx2));
      EXPECT_EQ(method_from_name(method_name(m)), m);
    }
  EXPECT_EQ(find_kernel("no-such-kernel", 2, Isa::Avx2), nullptr);
  EXPECT_EQ(method_from_name("auto"), Method::Auto);
  EXPECT_THROW(method_from_name("bogus"), std::invalid_argument);
  // The throwing lookup names the missing combination instead of returning
  // nullptr.
  EXPECT_EQ(&require_kernel("ours", 2, Isa::Avx2),
            find_kernel(Method::Ours, 2, Isa::Avx2));
  EXPECT_THROW(require_kernel("no-such-kernel", 2, Isa::Avx2),
               std::invalid_argument);
  EXPECT_THROW(require_kernel(Method::Ours2, 4), std::invalid_argument);
}

TEST(Registry, CapabilityMetadata) {
  // Folding doubles the halo; single-step methods need exactly the radius.
  const KernelInfo* naive = find_kernel(Method::Naive, 2, Isa::Avx2);
  EXPECT_EQ(naive->fold_depth, 1);
  EXPECT_EQ(naive->required_halo(1), 1);
  EXPECT_EQ(naive->required_halo(2), 2);

  const KernelInfo* folded = find_kernel(Method::Ours2, 2, Isa::Avx2);
  EXPECT_EQ(folded->fold_depth, 2);
  EXPECT_EQ(folded->required_halo(1), 2);
  EXPECT_EQ(folded->required_halo(2), 4);

  // Data-reorg's aligned L/C/R loads read one full vector beyond the
  // interior: the halo floor is the SIMD width.
  EXPECT_EQ(find_kernel(Method::DataReorg, 1, Isa::Avx2)->required_halo(1), 4);
  EXPECT_EQ(find_kernel(Method::DataReorg, 1, Isa::Avx512)->required_halo(1),
            8);

  // supports(): the folded vector path engages only while 2r fits the
  // folded-radius cap; the scalar fold never engages (it falls back).
  EXPECT_TRUE(find_kernel(Method::Ours2, 1, Isa::Avx512)->supports(4));
  EXPECT_FALSE(find_kernel(Method::Ours2, 1, Isa::Avx2)->supports(3));
  EXPECT_FALSE(find_kernel(Method::Ours2, 2, Isa::Scalar)->supports(1));
  EXPECT_TRUE(find_kernel(Method::Naive, 3, Isa::Scalar)->supports(100));
}

// Registration is global and has no unregister: the probe entry below stays
// for the rest of the binary, so it carries a harmless no-op executor and
// lives in an unused dimensionality (4-D) that every real enumeration
// filters out.
void probe_noop_run1(const Pattern1D&, const FieldView1D&, const FieldView1D&,
                     const Pattern1D*, const FieldView1D*, int) {}

TEST(Registry, AutoLookupFallsBackThroughNarrowerIsaLevels) {
  // A method registered at only a narrow ISA must stay reachable through
  // Isa::Auto on wider machines.
  if (!cpu_has_avx2()) GTEST_SKIP();
  KernelInfo probe =
      kernel1d_info(Method::Naive, Isa::Avx2, 4, 1, &probe_noop_run1);
  probe.dims = 4;
  KernelRegistry::instance().add(probe);
  const KernelInfo* k = find_kernel(Method::Naive, 4, Isa::Auto);
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->isa, Isa::Avx2);
}

// ---------------------------------------------------------------------------
// Declared-minimum-halo regression, driven by the enumeration itself so a
// newly registered kernel is covered automatically: every available kernel
// must reproduce the reference when its grids carry exactly required_halo().
// ---------------------------------------------------------------------------

TEST(Registry, EveryKernelRunsAtDeclaredMinimumHalo1D) {
  const auto& spec = preset(Preset::P1D5);  // radius 2 stresses 2r halos
  const int n = 70, tsteps = 4;
  for (const KernelInfo* k : available_kernels(1)) {
    const int halo = k->required_halo(spec.p1.radius());
    Grid1D a(n, halo), b(n, halo), ra(n, halo), rb(n, halo);
    fill_random(a, 11);
    copy(a, b);
    copy(a, ra);
    copy(a, rb);
    run_reference(spec.p1, ra, rb, tsteps);
    k->run1(spec.p1, a, b, nullptr, nullptr, tsteps);
    EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)))
        << k->name << " " << isa_name(k->isa) << " halo=" << halo;
  }
}

TEST(Registry, EveryKernelRunsAtDeclaredMinimumHalo2D) {
  const auto& spec = preset(Preset::Box2D9);
  const int ny = 36, nx = 44, tsteps = 4;
  for (const KernelInfo* k : available_kernels(2)) {
    const int halo = k->required_halo(spec.p2.radius());
    Grid2D a(ny, nx, halo), b(ny, nx, halo), ra(ny, nx, halo),
        rb(ny, nx, halo);
    fill_random(a, 22);
    copy(a, b);
    copy(a, ra);
    copy(a, rb);
    run_reference(spec.p2, ra, rb, tsteps);
    k->run2(spec.p2, a, b, tsteps);
    EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)))
        << k->name << " " << isa_name(k->isa) << " halo=" << halo;
  }
}

TEST(Registry, EveryKernelRunsAtDeclaredMinimumHalo3D) {
  const auto& spec = preset(Preset::Box3D27);
  const int nz = 12, ny = 10, nx = 20, tsteps = 4;
  for (const KernelInfo* k : available_kernels(3)) {
    const int halo = k->required_halo(spec.p3.radius());
    Grid3D a(nz, ny, nx, halo), b(nz, ny, nx, halo), ra(nz, ny, nx, halo),
        rb(nz, ny, nx, halo);
    fill_random(a, 33);
    copy(a, b);
    copy(a, ra);
    copy(a, rb);
    run_reference(spec.p3, ra, rb, tsteps);
    k->run3(spec.p3, a, b, tsteps);
    EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)))
        << k->name << " " << isa_name(k->isa) << " halo=" << halo;
  }
}

}  // namespace
}  // namespace sf
