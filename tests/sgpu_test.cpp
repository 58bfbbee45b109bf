// Simulated-device tests: memory accounting, stream ordering, events,
// copies, kernel correctness (gemm bitwise equal to the host engine, gemm_tc,
// axpby, activation, philox), transfer throttling, and the activity trace.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/half.hpp"
#include "common/timer.hpp"
#include "rng/philox.hpp"
#include "sgpu/device.hpp"
#include "sgpu/kernels.hpp"
#include "sgpu/ops.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml::sgpu {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;

Device::Config small_config() {
  Device::Config cfg;
  cfg.compute_threads = 2;
  cfg.memory_bytes = 8 << 20;  // 8 MiB
  return cfg;
}

TEST(Device, MemoryAccounting) {
  Device dev(small_config());
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  {
    DeviceBuffer b1 = dev.alloc(1 << 20);
    EXPECT_EQ(dev.allocated_bytes(), std::size_t{1} << 20);
    DeviceBuffer b2 = dev.alloc(2 << 20);
    EXPECT_EQ(dev.allocated_bytes(), std::size_t{3} << 20);
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);  // RAII release
}

TEST(Device, OutOfMemoryThrows) {
  Device dev(small_config());
  EXPECT_THROW(dev.alloc(16 << 20), DeviceError);
  // A failed alloc must not leak accounting.
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(Device, BufferMoveSemantics) {
  Device dev(small_config());
  DeviceBuffer a = dev.alloc(1024);
  void* p = a.raw();
  DeviceBuffer b = std::move(a);
  EXPECT_EQ(b.raw(), p);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(dev.allocated_bytes(), 1024u);
}

TEST(Stream, ExecutesInOrder) {
  Stream s;
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 100; ++i) {
    s.enqueue([&, i] {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(i);
    });
  }
  s.synchronize();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Stream, EventOrdersAcrossStreams) {
  Stream producer, consumer;
  std::atomic<int> value{0};
  producer.enqueue([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    value.store(42);
  });
  Event e = producer.record_event();
  consumer.wait_event(e);
  std::atomic<int> seen{-1};
  consumer.enqueue([&] { seen.store(value.load()); });
  consumer.synchronize();
  EXPECT_EQ(seen.load(), 42);
}

TEST(Stream, HostWaitOnEvent) {
  Stream s;
  s.enqueue([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  Event e = s.record_event();
  EXPECT_FALSE(e.ready());
  e.wait();
  EXPECT_TRUE(e.ready());
}

TEST(Device, CopyRoundTrip) {
  Device dev(small_config());
  const MatrixF src = random_matrix(64, 64, 81);
  Stream& s = dev.default_stream();
  DeviceMatrix d(dev, 64, 64);
  upload_async(dev, s, d, src);
  MatrixF dst(64, 64);
  download_async(dev, s, dst, d);
  s.synchronize();
  expect_near(src, dst, 0.0, "h2d/d2h round trip");
}

TEST(Device, CopyBoundsChecked) {
  Device dev(small_config());
  DeviceBuffer buf = dev.alloc(64);
  std::vector<float> host(1000);
  EXPECT_THROW(
      dev.memcpy_h2d(dev.default_stream(), buf, host.data(), 4000),
      InvalidArgument);
}

// The device's f32 GEMM is the host's packed engine on the device pool, so
// its output must equal tensor::gemm_parallel's bit for bit, not merely
// approximately.
void expect_same_bits(const MatrixF& host, const MatrixF& device,
                      const char* what) {
  ASSERT_TRUE(host.same_shape(device)) << what;
  EXPECT_EQ(std::memcmp(host.data(), device.data(), host.bytes()), 0) << what;
}

class DeviceGemm : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeviceGemm, MatchesCpu) {
  const std::size_t n = GetParam();
  const MatrixF a = random_matrix(n, n + 5, 82);
  const MatrixF b = random_matrix(n + 5, n + 2, 83);
  MatrixF ref(n, n + 2);
  tensor::gemm_parallel(1.0f, a, tensor::Trans::kNo, b, tensor::Trans::kNo,
                        0.0f, ref);
  expect_same_bits(ref, device_matmul(a, b), "device gemm");
}

TEST_P(DeviceGemm, TensorCorePathApproximatesFp32) {
  const std::size_t n = GetParam();
  const MatrixF a = random_matrix(n, n, 84);
  const MatrixF b = random_matrix(n, n, 85);
  const MatrixF ref = tensor::matmul(a, b);
  const MatrixF tc = device_matmul(a, b, /*tensor_core=*/true);
  // fp16 mantissa is 10 bits: relative error ~ 2^-10 per product, grows
  // with sqrt(k); a loose elementwise bound of 0.02 * k covers it.
  expect_near(ref, tc, 2e-3 * static_cast<double>(n) + 0.05, "gemm_tc");
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeviceGemm,
                         ::testing::Values(4, 17, 64, 128, 200));

TEST(DeviceGemmBits, EdgeShapesAndBetaMatchHost) {
  // Ragged edges of the 6x16 register tile and of the 72x256x512 cache
  // blocks, several k blocks, beta 0 / 1 / other, and shapes on both sides
  // of the m*n*k >= 2^18 serial cutoff with more than one tile, so the
  // device pool actually splits the grid.
  struct Shape {
    std::size_t m, k, n;
    float alpha, beta;
  };
  const Shape shapes[] = {
      {6, 16, 16, 1.0f, 0.0f},    {7, 5, 17, 1.0f, 1.0f},
      {13, 300, 35, 1.0f, 1.0f},  {73, 20, 515, 0.5f, 1.0f},
      {80, 51, 64, 1.0f, 1.0f},   // 261120 < 2^18: serial
      {80, 52, 64, 1.0f, 1.0f},   // 266240 >= 2^18: two tile rows on the pool
      {150, 260, 40, -1.0f, 0.25f},
  };
  Device dev(small_config());
  std::uint64_t seed = 400;
  for (const Shape& sh : shapes) {
    const MatrixF a = random_matrix(sh.m, sh.k, ++seed);
    const MatrixF b = random_matrix(sh.k, sh.n, ++seed);
    MatrixF host = random_matrix(sh.m, sh.n, ++seed);
    MatrixF device = host;
    tensor::gemm_parallel(sh.alpha, a, tensor::Trans::kNo, b,
                          tensor::Trans::kNo, sh.beta, host);
    k_gemm(dev, a.data(), b.data(), device.data(), sh.m, sh.n, sh.k, sh.alpha,
           sh.beta);
    const std::string what = std::to_string(sh.m) + "x" +
                             std::to_string(sh.k) + "x" +
                             std::to_string(sh.n) + " beta " +
                             std::to_string(sh.beta);
    expect_same_bits(host, device, what.c_str());
  }
}

TEST(DeviceGemmBits, ZeroTimesNanOrInfPropagates) {
  // 0 * NaN and 0 * Inf are NaN (IEEE 754). A row of zeros in A meeting NaN
  // and Inf in B must poison every output it touches, on the device exactly
  // as on the host; a kernel that skips zero terms returns 0 here.
  for (const std::size_t n : {8u, 96u}) {  // serial and pool-split grids
    MatrixF a = random_matrix(n, n, 500);
    MatrixF b = random_matrix(n, n, 501);
    for (std::size_t j = 0; j < n; ++j) a(0, j) = 0.0f;
    b(0, 1) = std::numeric_limits<float>::quiet_NaN();
    b(2, 3) = std::numeric_limits<float>::infinity();
    MatrixF host(n, n);
    tensor::gemm_parallel(1.0f, a, tensor::Trans::kNo, b, tensor::Trans::kNo,
                          0.0f, host);
    const MatrixF device = device_matmul(a, b);
    EXPECT_TRUE(std::isnan(device(0, 1))) << n;
    EXPECT_TRUE(std::isnan(device(0, 3))) << n;
    EXPECT_TRUE(std::isnan(host(0, 1))) << n;
    EXPECT_TRUE(std::isnan(host(0, 3))) << n;
    expect_same_bits(host, device, "nan/inf propagation");
  }
}

TEST(Kernels, GemmTcExactlyMatchesHalfReference) {
  // The TC path must equal an explicit fp16-quantize + fp32-accumulate
  // reference, not merely approximate fp32.
  Device dev(small_config());
  const std::size_t m = 9, k = 13, n = 11;
  const MatrixF a = random_matrix(m, k, 86);
  const MatrixF b = random_matrix(k, n, 87);
  MatrixF ref(m, n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = half_bits_to_float(float_to_half_bits(a(i, kk)));
        const float bv = half_bits_to_float(float_to_half_bits(b(kk, j)));
        acc += av * bv;
      }
      ref(i, j) = acc;
    }
  }
  MatrixF c(m, n, 0.0f);
  k_gemm_tc(dev, a.data(), b.data(), c.data(), m, n, k, 1.0f, 0.0f);
  expect_near(ref, c, 1e-5, "tc vs half reference");
}

TEST(Kernels, Axpby) {
  Device dev(small_config());
  const MatrixF x = random_matrix(10, 10, 88);
  const MatrixF y = random_matrix(10, 10, 89);
  MatrixF out(10, 10);
  k_axpby(dev, -1.0f, x.data(), y.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_FLOAT_EQ(out.data()[i], -x.data()[i] + y.data()[i]);
  }
}

TEST(Kernels, ActivationPiecewise) {
  Device dev(small_config());
  const MatrixF x{{-2.0f, -0.5f, -0.2f, 0.0f, 0.49f, 0.5f, 3.0f}};
  MatrixF out(1, 7), grad(1, 7);
  k_activation_piecewise(dev, x.data(), out.data(), 7);
  k_activation_piecewise_grad(dev, x.data(), grad.data(), 7);
  const float expect_v[] = {0.0f, 0.0f, 0.3f, 0.5f, 0.99f, 1.0f, 1.0f};
  const float expect_g[] = {0.0f, 0.0f, 1.0f, 1.0f, 1.0f, 0.0f, 0.0f};
  for (int i = 0; i < 7; ++i) {
    EXPECT_NEAR(out.data()[i], expect_v[i], 1e-6) << i;
    EXPECT_FLOAT_EQ(grad.data()[i], expect_g[i]) << i;
  }
}

TEST(Kernels, PhiloxKernelMatchesHostPhilox) {
  // [-1, 1) alone cannot catch a fused multiply-add in the device kernel:
  // lo + range * u rounds the same either way there. [-3, 5.5) does not.
  Device dev(small_config());
  for (const auto& [lo, hi] :
       {std::pair{-1.0f, 1.0f}, std::pair{-3.0f, 5.5f}}) {
    MatrixF dev_out(33, 17), host_out(33, 17);
    k_philox_uniform(dev, dev_out.data(), dev_out.size(), lo, hi, 4242);
    rng::philox_fill_uniform(host_out, lo, hi, 4242);
    expect_same_bits(host_out, dev_out, "philox kernel");
  }
}

TEST(Device, PipelineOverlapsCopiesAndCompute) {
  // With a throttled copy engine, two streams (copy || compute) must finish
  // faster than the same work serialized on one stream.
  Device::Config cfg = small_config();
  cfg.pcie_gbps = 0.5;  // slow PCIe so copies dominate
  Device dev(cfg);
  const std::size_t n = 256;
  const MatrixF a = random_matrix(n, n, 90);

  auto run = [&](bool overlapped) {
    auto copy_s = dev.create_stream();
    auto comp_s = dev.create_stream();
    Stream& cs = overlapped ? *copy_s : *comp_s;
    Timer t;
    std::vector<DeviceMatrix> bufs;
    for (int i = 0; i < 4; ++i) {
      bufs.emplace_back(dev, n, n);
      upload_async(dev, cs, bufs.back(), a);
      Event e = cs.record_event();
      comp_s->wait_event(e);
      dev.launch(*comp_s, "spin", [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
      });
    }
    comp_s->synchronize();
    copy_s->synchronize();
    return t.seconds();
  };

  // Best-of-3 per mode: wall-clock under ctest -j load is noisy.
  double serial = 1e100, overlapped = 1e100;
  for (int i = 0; i < 3; ++i) {
    serial = std::min(serial, run(false));
    overlapped = std::min(overlapped, run(true));
  }
  EXPECT_LT(overlapped, serial);
}

TEST(Trace, RecordsActivities) {
  Device dev(small_config());
  dev.trace().clear();
  const MatrixF a = random_matrix(32, 32, 91);
  (void)device_matmul(dev, a, a);
  const auto summary = dev.trace().summary();
  EXPECT_EQ(summary.at("memcpy_h2d").count, 2u);
  EXPECT_EQ(summary.at("memcpy_d2h").count, 1u);
  EXPECT_EQ(summary.at("kernel:gemm").count, 1u);
  EXPECT_GT(summary.at("kernel:gemm").total_sec, 0.0);
  EXPECT_EQ(summary.at("memcpy_h2d").bytes, 2 * a.bytes());
}

TEST(Trace, DisableStopsRecording) {
  Device dev(small_config());
  dev.trace().clear();
  dev.trace().set_enabled(false);
  const MatrixF a = random_matrix(8, 8, 92);
  (void)device_matmul(dev, a, a);
  EXPECT_TRUE(dev.trace().snapshot().empty());
  dev.trace().set_enabled(true);
}

TEST(Device, ThrottleEnforcesBandwidth) {
  Device::Config cfg = small_config();
  cfg.pcie_gbps = 1.0;  // 1 GB/s
  Device dev(cfg);
  const std::size_t bytes = 4 << 20;  // 4 MiB -> >= 4 ms at 1 GB/s
  DeviceBuffer buf = dev.alloc(bytes);
  std::vector<float> host(bytes / sizeof(float), 1.0f);
  Timer t;
  dev.memcpy_h2d(dev.default_stream(), buf, host.data(), bytes);
  dev.default_stream().synchronize();
  EXPECT_GE(t.seconds(), 0.003);
}

TEST(Device, GlobalDeviceIsSingleton) {
  EXPECT_EQ(&Device::global(), &Device::global());
}

}  // namespace
}  // namespace psml::sgpu
