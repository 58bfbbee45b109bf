// Software IEEE 754 binary16 ("half"): the operand rounding of the simulated
// Tensor Core GEMM (tensor::round_to_half) on CPUs without F16C, and the
// reference the tests hold the F16C path to. Storage is a 16-bit word;
// arithmetic is performed by converting to float, exactly like hardware FP16
// multiply with FP32 accumulate.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace psml {

// Round-to-nearest-even float32 -> binary16 conversion.
inline std::uint16_t float_to_half_bits(float f) {
  std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  x &= 0x7fffffffu;

  if (x >= 0x47800000u) {              // overflow or inf/nan
    if (x > 0x7f800000u) {             // NaN: keep a payload bit
      return static_cast<std::uint16_t>(sign | 0x7e00u);
    }
    return static_cast<std::uint16_t>(sign | 0x7c00u);  // +-inf
  }
  if (x < 0x38800000u) {  // subnormal half or zero
    if (x < 0x33000000u) return static_cast<std::uint16_t>(sign);  // -> 0
    const std::uint32_t exp = x >> 23;
    const std::uint32_t mant = (x & 0x7fffffu) | 0x800000u;
    // Subnormal half value = mant24 * 2^(E-23); expressed in units of the
    // half subnormal ulp 2^-24 that is mant24 >> (126 - exp).
    const std::uint32_t shift = 126 - exp;  // bits dropped
    std::uint32_t half_mant = mant >> shift;
    // round to nearest even
    const std::uint32_t rem = mant & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) ++half_mant;
    return static_cast<std::uint16_t>(sign | half_mant);
  }
  // normal case
  const std::uint32_t exp = (x >> 23) - 112u;
  const std::uint32_t mant = (x >> 13) & 0x3ffu;
  // round to nearest even on the 13 dropped bits
  const std::uint32_t rem = x & 0x1fffu;
  std::uint32_t out = (exp << 10) | mant;
  if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) ++out;  // may carry into exp: fine
  return static_cast<std::uint16_t>(sign | out);
}

inline float half_bits_to_float(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  std::uint32_t out;
  if (exp == 0) {
    if (mant == 0) {
      out = sign;  // zero
    } else {
      // subnormal: normalize
      int e = -1;
      std::uint32_t m = mant;
      while ((m & 0x400u) == 0) {
        m <<= 1;
        ++e;
      }
      m &= 0x3ffu;
      out = sign | ((113u - 1u - static_cast<std::uint32_t>(e)) << 23) | (m << 13);
    }
  } else if (exp == 0x1f) {
    out = sign | 0x7f800000u | (mant << 13);  // inf/nan
  } else {
    out = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(out);
}

}  // namespace psml
