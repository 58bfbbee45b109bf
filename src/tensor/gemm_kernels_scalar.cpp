// Portable instantiation of the packed-GEMM engine: baseline codegen (no ISA
// flags beyond the project defaults), used on CPUs without AVX2/FMA and when
// tests force GemmIsa::kScalar to cross-check the SIMD path.
#include "common/half.hpp"
#include "tensor/gemm_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace psml::tensor::detail {

void gemm_f32_scalar(const GemmArgsF32& g) {
  packed_gemm<float>(
      g, micro_kernel_generic<float, TilePlan<float>::MR, TilePlan<float>::NR>);
}

void gemm_u64_scalar(const GemmArgsU64& g) {
  packed_gemm<std::uint64_t>(
      g, micro_kernel_generic<std::uint64_t, TilePlan<std::uint64_t>::MR,
                              TilePlan<std::uint64_t>::NR>);
}

void round_half_scalar(const float* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = half_bits_to_float(float_to_half_bits(src[i]));
  }
}

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_f16c() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // The F16C forms used here take ymm registers, so also require the AVX
  // state that cpu_has_avx2_fma() checks.
  return cpu_has_avx2_fma() && __get_cpuid(1, &eax, &ebx, &ecx, &edx) &&
         (ecx & bit_F16C) != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512dq() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

}  // namespace psml::tensor::detail
