// Packed-engine property tests: every forced ISA tier must agree with
// gemm_naive across transposes, alpha/beta, ragged shapes, and non-finite
// inputs — and the parallel engine must be bit-identical to the serial one,
// on any pool. The binary16 operand rounding of the Tensor-Core path must
// give the same bits with F16C as in software.
//
// These pin the kernel-semantics bugs fixed in PR 4: the seed kernels
// skipped `a == 0` terms (dropping 0 * NaN = NaN and 0 * Inf = NaN), and
// beta == 0 semantics differed between tiers when C held garbage.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/half.hpp"
#include "common/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "test_util.hpp"

namespace psml::tensor {
namespace {

using psml::test::random_matrix;

// Restores the process-wide kernel selection on scope exit so a failing
// assertion cannot leak a forced ISA into other suites.
struct IsaGuard {
  ~IsaGuard() { set_gemm_isa(GemmIsa::kAuto); }
};

// NaN-aware elementwise comparison: both NaN, or within tol.
void expect_same_semantics(const MatrixF& ref, const MatrixF& got, double tol,
                           const std::string& what) {
  ASSERT_TRUE(ref.same_shape(got)) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float r = ref.data()[i], g = got.data()[i];
    if (std::isnan(r)) {
      EXPECT_TRUE(std::isnan(g)) << what << " at " << i << ": ref NaN, got " << g;
    } else if (std::isinf(r)) {
      EXPECT_EQ(r, g) << what << " at " << i;
    } else {
      EXPECT_NEAR(r, g, tol) << what << " at " << i;
    }
  }
}

std::vector<GemmIsa> isas_under_test() {
  std::vector<GemmIsa> v{GemmIsa::kScalar};
  if (gemm_simd_available()) v.push_back(GemmIsa::kSimd);
  return v;
}

const char* isa_name(GemmIsa isa) {
  return isa == GemmIsa::kScalar ? "scalar" : "simd";
}

TEST(GemmPacked, AllTransAlphaBetaRaggedShapesMatchNaive) {
  IsaGuard guard;
  struct Shape {
    std::size_t m, k, n;
  };
  // Deliberately straddle the tile plan: MR=6/NR=16 register tiles,
  // MC=72/KC=256/NC=512 cache blocks.
  const Shape shapes[] = {{1, 1, 1},   {6, 16, 16},  {7, 17, 18},
                          {5, 300, 3}, {73, 257, 33}, {64, 64, 513}};
  const float alphas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  const float betas[] = {0.0f, 1.0f, 2.0f, -0.5f};
  for (GemmIsa isa : isas_under_test()) {
    set_gemm_isa(isa);
    for (const auto& s : shapes) {
      for (int ta = 0; ta < 2; ++ta) {
        for (int tb = 0; tb < 2; ++tb) {
          const Trans tta = ta ? Trans::kYes : Trans::kNo;
          const Trans ttb = tb ? Trans::kYes : Trans::kNo;
          const MatrixF a = ta ? random_matrix(s.k, s.m, 1) : random_matrix(s.m, s.k, 1);
          const MatrixF b = tb ? random_matrix(s.n, s.k, 2) : random_matrix(s.k, s.n, 2);
          // Cycle alpha/beta with the shape so the sweep stays cheap but
          // every pair appears against several shapes/transposes.
          for (std::size_t c = 0; c < 4; ++c) {
            const float alpha = alphas[(c + s.m) % 4];
            const float beta = betas[(c + s.n) % 4];
            MatrixF c_ref = random_matrix(s.m, s.n, 7);
            MatrixF c_got = c_ref;
            gemm_naive(alpha, a, tta, b, ttb, beta, c_ref);
            gemm_blocked(alpha, a, tta, b, ttb, beta, c_got);
            expect_same_semantics(
                c_ref, c_got, 1e-3 * static_cast<double>(s.k),
                std::string(isa_name(isa)) + " m" + std::to_string(s.m) + "k" +
                    std::to_string(s.k) + "n" + std::to_string(s.n) + " ta" +
                    std::to_string(ta) + "tb" + std::to_string(tb) + " a" +
                    std::to_string(alpha) + " b" + std::to_string(beta));
          }
        }
      }
    }
  }
}

TEST(GemmPacked, NaNAndInfPropagateThroughZeroRows) {
  // Regression for the seed kernels' `av == 0` skip: a zero row in A times a
  // NaN/Inf column in B must produce NaN (0 * NaN = NaN, 0 * Inf = NaN), as
  // the naive reference computes. The seed blocked kernel silently returned
  // 0 here.
  IsaGuard guard;
  const std::size_t n = 37;  // ragged against every tile size
  MatrixF a = random_matrix(n, n, 3);
  MatrixF b = random_matrix(n, n, 4);
  for (std::size_t j = 0; j < n; ++j) a(5, j) = 0.0f;  // zero row
  b(11, 7) = std::numeric_limits<float>::quiet_NaN();
  b(23, 2) = std::numeric_limits<float>::infinity();
  b(24, 2) = -std::numeric_limits<float>::infinity();

  MatrixF c_ref(n, n), c_got(n, n);
  gemm_naive(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c_ref);
  // The reference must see NaN in the zero row (this is the semantic the
  // seed kernel dropped).
  ASSERT_TRUE(std::isnan(c_ref(5, 7)));
  ASSERT_TRUE(std::isnan(c_ref(5, 2)));
  for (GemmIsa isa : isas_under_test()) {
    set_gemm_isa(isa);
    gemm_blocked(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c_got);
    expect_same_semantics(c_ref, c_got, 1e-2, isa_name(isa));
    gemm_parallel(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c_got);
    expect_same_semantics(c_ref, c_got, 1e-2, isa_name(isa));
  }
}

TEST(GemmPacked, SignedZeroInputsAgreeWithNaive) {
  IsaGuard guard;
  const std::size_t n = 19;
  MatrixF a(n, n, 0.0f), b = random_matrix(n, n, 5);
  for (std::size_t i = 0; i < a.size(); i += 2) a.data()[i] = -0.0f;
  MatrixF c_ref(n, n), c_got(n, n);
  gemm_naive(-1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c_ref);
  for (GemmIsa isa : isas_under_test()) {
    set_gemm_isa(isa);
    gemm_blocked(-1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c_got);
    expect_same_semantics(c_ref, c_got, 0.0, isa_name(isa));
  }
}

TEST(GemmPacked, BetaZeroOverwritesNaNGarbageInC) {
  // BLAS semantics shared by every tier: beta == 0 means "overwrite", so
  // NaN garbage in an uninitialized C never leaks into the product.
  IsaGuard guard;
  const std::size_t n = 23;
  const MatrixF a = random_matrix(n, n, 6);
  const MatrixF b = random_matrix(n, n, 7);
  MatrixF c_ref(n, n, std::numeric_limits<float>::quiet_NaN());
  MatrixF c_got = c_ref;
  gemm_naive(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c_ref);
  for (std::size_t i = 0; i < c_ref.size(); ++i) {
    ASSERT_FALSE(std::isnan(c_ref.data()[i]));
  }
  for (GemmIsa isa : isas_under_test()) {
    set_gemm_isa(isa);
    gemm_blocked(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c_got);
    expect_same_semantics(c_ref, c_got, 1e-3 * n, isa_name(isa));
  }
}

TEST(GemmPacked, SerialAndParallelAreBitIdentical) {
  // The 2-D tile partition gives every C element one owner tile and a fixed
  // k-block order, so thread count cannot perturb float summation order:
  // gemm_blocked and gemm_parallel must agree to the bit, run after run.
  IsaGuard guard;
  struct Shape {
    std::size_t m, k, n;
  };
  // Big enough to clear the parallel cutoff and span several MCxNC tiles.
  const Shape shapes[] = {{150, 300, 520}, {73, 600, 513}};
  for (GemmIsa isa : isas_under_test()) {
    set_gemm_isa(isa);
    for (const auto& s : shapes) {
      const MatrixF a = random_matrix(s.m, s.k, 8);
      const MatrixF b = random_matrix(s.k, s.n, 9);
      MatrixF c_serial(s.m, s.n), c_par(s.m, s.n), c_par2(s.m, s.n);
      gemm_blocked(0.75f, a, Trans::kNo, b, Trans::kNo, 0.0f, c_serial);
      gemm_parallel(0.75f, a, Trans::kNo, b, Trans::kNo, 0.0f, c_par);
      gemm_parallel(0.75f, a, Trans::kNo, b, Trans::kNo, 0.0f, c_par2);
      ASSERT_EQ(0, std::memcmp(c_serial.data(), c_par.data(), c_serial.bytes()))
          << isa_name(isa);
      ASSERT_EQ(0, std::memcmp(c_par.data(), c_par2.data(), c_par.bytes()))
          << isa_name(isa);
    }
  }
}

TEST(GemmPacked, RowMajorEntryMatchesParallelOnAnyPool) {
  // gemm_rowmajor (the simulated device's GEMM) runs gemm_parallel's engine
  // on a caller-named pool; the tile plan ignores the pool, so the bits must
  // not depend on which pool or how many workers it has.
  IsaGuard guard;
  ThreadPool one(1), three(3);
  for (GemmIsa isa : isas_under_test()) {
    set_gemm_isa(isa);
    const std::size_t m = 150, k = 300, n = 520;
    const MatrixF a = random_matrix(m, k, 10);
    const MatrixF b = random_matrix(k, n, 11);
    const MatrixF c0 = random_matrix(m, n, 12);
    MatrixF ref = c0;
    gemm_parallel(0.5f, a, Trans::kNo, b, Trans::kNo, 1.0f, ref);
    for (ThreadPool* pool : {&one, &three}) {
      MatrixF got = c0;
      gemm_rowmajor(0.5f, a.data(), b.data(), 1.0f, got.data(), m, n, k,
                    *pool);
      ASSERT_EQ(0, std::memcmp(ref.data(), got.data(), ref.bytes()))
          << isa_name(isa) << " pool of " << pool->size();
    }
  }
}

TEST(GemmPacked, RoundToHalfF16cMatchesSoftware) {
  // Round-to-nearest-even ties, the subnormal and overflow boundaries,
  // signed zeros, infinities, and a sweep over the whole f32 bit space;
  // 2^16 + 3 values, so the F16C path also runs its scalar tail.
  std::vector<float> src = {
      0.0f, -0.0f, 1.0f + 0x1p-11f, 1.0f + 3 * 0x1p-11f, 65504.0f, 65519.0f,
      65520.0f, -65520.0f, 0x1p-24f, 0x1p-25f, 3 * 0x1p-25f, 0x1p-26f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min()};
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << 32);
       bits += 65537) {
    src.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  }
  IsaGuard guard;
  for (GemmIsa isa : {GemmIsa::kScalar, GemmIsa::kAuto}) {
    set_gemm_isa(isa);
    std::vector<float> got(src.size());
    round_to_half(src.data(), got.data(), src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      const float want = half_bits_to_float(float_to_half_bits(src[i]));
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got[i])) << i;
      } else {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(want),
                  std::bit_cast<std::uint32_t>(got[i]))
            << (isa == GemmIsa::kScalar ? "scalar" : "auto") << " at " << i
            << " src " << src[i];
      }
    }
  }
}

TEST(GemmPacked, KZeroAppliesBetaOnly) {
  IsaGuard guard;
  const MatrixF a(5, 0), b(0, 9);
  MatrixF c_ref(5, 9, 3.0f), c_got = c_ref;
  gemm_naive(1.0f, a, Trans::kNo, b, Trans::kNo, 2.0f, c_ref);
  gemm_blocked(1.0f, a, Trans::kNo, b, Trans::kNo, 2.0f, c_got);
  expect_same_semantics(c_ref, c_got, 0.0, "k=0 beta=2");
  MatrixF z_ref(5, 9, 7.0f), z_got = z_ref;
  gemm_naive(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, z_ref);
  gemm_blocked(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, z_got);
  expect_same_semantics(z_ref, z_got, 0.0, "k=0 beta=0");
}

TEST(GemmPacked, KernelSelectionApi) {
  IsaGuard guard;
  const std::size_t rev0 = gemm_kernel_revision();
  set_gemm_isa(GemmIsa::kScalar);
  EXPECT_EQ(gemm_isa(), GemmIsa::kScalar);
  EXPECT_STREQ(gemm_kernel_name(), "scalar-6x16");
  EXPECT_GT(gemm_kernel_revision(), rev0);
  if (gemm_simd_available()) {
    set_gemm_isa(GemmIsa::kSimd);
    EXPECT_STREQ(gemm_kernel_name(), "avx2fma-6x16");
  }
}

}  // namespace
}  // namespace psml::tensor
