// AVX2/FMA instantiation of the packed-GEMM engine. This TU (and only this
// TU) is built with -mavx2 -mfma -mf16c — see src/tensor/CMakeLists.txt — so
// nothing here may run unless cpu_has_avx2_fma() (and, for the binary16
// rounding, cpu_has_f16c()) reported true; gemm.cpp owns that dispatch.
//
// f32 uses a hand-written 6x16 microkernel: 12 FMA accumulators + 2 B vectors
// + 1 broadcast register, the classic 15-of-16 ymm budget. u64 reuses the
// generic microkernel template — with AVX2 enabled GCC lowers the fixed-bound
// 4x8 accumulator loops to vpmuludq-based 64-bit multiplies, which is where
// the ring kernel's speedup comes from.
#include "tensor/gemm_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace psml::tensor::detail {

#if defined(__AVX2__) && defined(__FMA__)

namespace {

// acc[6][16] over one packed A panel ([kc][6]) and B panel ([kc][16]).
void micro_f32_avx2(std::size_t kc, const float* ap, const float* bp, float* c,
                    std::size_t ldc, std::size_t mr, std::size_t nr,
                    float alpha, float beta) {
  constexpr std::size_t MR = TilePlan<float>::MR;
  constexpr std::size_t NR = TilePlan<float>::NR;
  __m256 acc[MR][2];
  for (std::size_t i = 0; i < MR; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * NR);
    const __m256 b1 = _mm256_loadu_ps(bp + p * NR + 8);
    const float* a = ap + p * MR;
    for (std::size_t i = 0; i < MR; ++i) {
      const __m256 av = _mm256_broadcast_ss(a + i);
      acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
    }
  }
  const __m256 va = _mm256_set1_ps(alpha);
  if (mr == MR && nr == NR) {
    if (beta == 0.0f) {
      for (std::size_t i = 0; i < MR; ++i) {
        float* ci = c + i * ldc;
        _mm256_storeu_ps(ci, _mm256_mul_ps(va, acc[i][0]));
        _mm256_storeu_ps(ci + 8, _mm256_mul_ps(va, acc[i][1]));
      }
    } else {
      const __m256 vb = _mm256_set1_ps(beta);
      for (std::size_t i = 0; i < MR; ++i) {
        float* ci = c + i * ldc;
        const __m256 c0 = _mm256_mul_ps(vb, _mm256_loadu_ps(ci));
        const __m256 c1 = _mm256_mul_ps(vb, _mm256_loadu_ps(ci + 8));
        _mm256_storeu_ps(ci, _mm256_fmadd_ps(va, acc[i][0], c0));
        _mm256_storeu_ps(ci + 8, _mm256_fmadd_ps(va, acc[i][1], c1));
      }
    }
    return;
  }
  // Ragged edge: spill the accumulators and write the live sub-tile.
  alignas(kCacheLineBytes) float buf[MR][NR];
  for (std::size_t i = 0; i < MR; ++i) {
    _mm256_store_ps(buf[i], acc[i][0]);
    _mm256_store_ps(buf[i] + 8, acc[i][1]);
  }
  for (std::size_t i = 0; i < mr; ++i) {
    for (std::size_t j = 0; j < nr; ++j) {
      float& out = c[i * ldc + j];
      out = beta == 0.0f ? alpha * buf[i][j] : alpha * buf[i][j] + beta * out;
    }
  }
}

}  // namespace

void gemm_f32_simd(const GemmArgsF32& g) { packed_gemm<float>(g, micro_f32_avx2); }

void gemm_u64_simd(const GemmArgsU64& g) {
  packed_gemm<std::uint64_t>(
      g, micro_kernel_generic<std::uint64_t, TilePlan<std::uint64_t>::MR,
                              TilePlan<std::uint64_t>::NR>);
}

#else  // non-x86 build (or the ISA flags were stripped): alias the scalar path

void gemm_f32_simd(const GemmArgsF32& g) { gemm_f32_scalar(g); }
void gemm_u64_simd(const GemmArgsU64& g) { gemm_u64_scalar(g); }

#endif

#if defined(__F16C__)

void round_half_f16c(const float* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm256_cvtps_ph(_mm256_loadu_ps(src + i), _MM_FROUND_TO_NEAREST_INT);
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) {
    const __m128i h =
        _mm_cvtps_ph(_mm_set_ss(src[i]), _MM_FROUND_TO_NEAREST_INT);
    dst[i] = _mm_cvtss_f32(_mm_cvtph_ps(h));
  }
}

#else  // no F16C codegen: the software rounding gives the same bits

void round_half_f16c(const float* src, float* dst, std::size_t n) {
  round_half_scalar(src, dst, n);
}

#endif

}  // namespace psml::tensor::detail
