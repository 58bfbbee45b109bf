#include "sgpu/kernels.hpp"

#include <algorithm>
#include <vector>

#include "common/aligned.hpp"
#include "rng/philox.hpp"
#include "sgpu/device.hpp"
#include "tensor/gemm.hpp"

namespace psml::sgpu {

namespace {

template <typename Body>
void device_parallel(Device& dev, std::size_t n, Body&& body) {
  dev.compute_pool().parallel_for(0, n, std::forward<Body>(body),
                                  kFloatsPerCacheLine * 16);
}

}  // namespace

void k_gemm(Device& dev, const float* a, const float* b, float* c,
            std::size_t m, std::size_t n, std::size_t k, float alpha,
            float beta) {
  tensor::gemm_rowmajor(alpha, a, b, beta, c, m, n, k, dev.compute_pool());
}

void k_gemm_tc(Device& dev, const float* a, const float* b, float* c,
               std::size_t m, std::size_t n, std::size_t k, float alpha,
               float beta) {
  std::vector<float, AlignedAllocator<float>> ah(m * k);
  std::vector<float, AlignedAllocator<float>> bh(k * n);
  tensor::round_to_half(a, ah.data(), ah.size());
  tensor::round_to_half(b, bh.data(), bh.size());
  k_gemm(dev, ah.data(), bh.data(), c, m, n, k, alpha, beta);
}

void k_axpby(Device& dev, float alpha, const float* x, const float* y,
             float* out, std::size_t n) {
  device_parallel(dev, n, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out[i] = alpha * x[i] + y[i];
  });
}

void k_add_inplace(Device& dev, const float* x, float* out, std::size_t n) {
  device_parallel(dev, n, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out[i] += x[i];
  });
}

void k_activation_piecewise(Device& dev, const float* x, float* out,
                            std::size_t n) {
  device_parallel(dev, n, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float v = x[i];
      out[i] = v < -0.5f ? 0.0f : (v > 0.5f ? 1.0f : v + 0.5f);
    }
  });
}

void k_activation_piecewise_grad(Device& dev, const float* x, float* out,
                                 std::size_t n) {
  device_parallel(dev, n, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float v = x[i];
      out[i] = (v > -0.5f && v < 0.5f) ? 1.0f : 0.0f;
    }
  });
}

void k_philox_uniform(Device& dev, float* out, std::size_t n, float lo,
                      float hi, std::uint64_t seed) {
  const rng::Philox4x32 gen(seed);
  const float range = hi - lo;
  dev.compute_pool().parallel_for(
      0, (n + 3) / 4,
      [&, out, n](std::size_t blo, std::size_t bhi) {
        for (std::size_t blk_i = blo; blk_i < bhi; ++blk_i) {
          const auto blk = gen.block(blk_i);
          const std::size_t base = blk_i * 4;
          const std::size_t lim = std::min<std::size_t>(4, n - base);
          for (std::size_t j = 0; j < lim; ++j) {
            out[base + j] =
                lo + range * (static_cast<float>(blk[j] >> 8) *
                              (1.0f / 16777216.0f));
          }
        }
      },
      /*grain=*/kFloatsPerCacheLine * 4);
}

}  // namespace psml::sgpu
