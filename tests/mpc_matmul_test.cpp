// Two-party secure matmul tests: correctness of the triplet protocol across
// every execution mode (Eq. 6 naive, Eq. 8 CPU, Eq. 8 GPU pipelined, Tensor
// Core, compression on/off) and the elementwise protocol.
#include <gtest/gtest.h>

#include <ostream>

#include "mpc/secure_matmul.hpp"
#include "mpc/secure_mul.hpp"
#include "mpc/share.hpp"
#include "mpc/triplet.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml::mpc {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;
using psml::test::run_parties;

// Tolerance: float shares carry mask radius ~16, so reconstruction noise is
// ~16 * k * eps per output element.
double tol(std::size_t k) { return 2e-4 * static_cast<double>(k) + 1e-4; }

struct ModeCase {
  const char* name;
  PartyOptions opts;
};

// gtest's default printer dumps the raw bytes, i.e. the address of `name`
// (randomised per process) and the struct's padding, into the listed test
// name; print the mode name so ctest's discovered names are stable.
void PrintTo(const ModeCase& mode, std::ostream* os) { *os << mode.name; }

std::vector<ModeCase> all_modes() {
  std::vector<ModeCase> modes;
  modes.push_back({"secureml_baseline", PartyOptions::secureml_baseline()});
  modes.push_back({"parsecureml_full", PartyOptions::parsecureml()});

  PartyOptions cpu_eq8 = PartyOptions::parsecureml();
  cpu_eq8.use_gpu = false;
  cpu_eq8.adaptive = false;
  modes.push_back({"cpu_eq8", cpu_eq8});

  PartyOptions gpu_nopipe = PartyOptions::parsecureml();
  gpu_nopipe.use_pipeline = false;
  gpu_nopipe.adaptive = false;
  modes.push_back({"gpu_no_pipeline", gpu_nopipe});

  PartyOptions gpu_pipe = PartyOptions::parsecureml();
  gpu_pipe.adaptive = false;  // force GPU even for small matrices
  modes.push_back({"gpu_pipelined", gpu_pipe});

  PartyOptions gpu_no_tc = PartyOptions::parsecureml();
  gpu_no_tc.adaptive = false;
  gpu_no_tc.use_tensor_core = false;
  modes.push_back({"gpu_fp32", gpu_no_tc});

  PartyOptions no_comp = PartyOptions::parsecureml();
  no_comp.use_compression = false;
  modes.push_back({"no_compression", no_comp});

  PartyOptions eq6_parallel = PartyOptions::parsecureml();
  eq6_parallel.use_gpu = false;
  eq6_parallel.adaptive = false;
  eq6_parallel.fuse_eq8 = false;
  modes.push_back({"cpu_eq6", eq6_parallel});
  return modes;
}

class SecureMatmulModes : public ::testing::TestWithParam<ModeCase> {};

TEST_P(SecureMatmulModes, ReconstructsToPlainProduct) {
  const auto& mode = GetParam();
  const std::size_t m = 24, k = 40, n = 16;
  const MatrixF a = random_matrix(m, k, 201);
  const MatrixF b = random_matrix(k, n, 202);
  const MatrixF expected = tensor::matmul(a, b);

  sgpu::Device* dev =
      mode.opts.use_gpu ? &sgpu::Device::global() : nullptr;
  TripletDealer dealer(dev, {mode.opts.use_gpu, false, 77});
  auto [t0, t1] = dealer.make_matmul(m, k, n);
  const auto sa = share_float(a, 11);
  const auto sb = share_float(b, 12);

  MatrixF c0, c1;
  run_parties(
      mode.opts,
      [&](PartyContext& ctx) { c0 = secure_matmul(ctx, sa.s0, sb.s0, t0); },
      [&](PartyContext& ctx) { c1 = secure_matmul(ctx, sa.s1, sb.s1, t1); });

  // The tensor-core mode quantizes E/F/A/B to fp16 on the device, so allow a
  // proportionally larger tolerance there.
  const double t = mode.opts.use_tensor_core && mode.opts.use_gpu
                       ? 0.3
                       : tol(k);
  expect_near(reconstruct_float(c0, c1), expected, t, mode.name);
}

TEST_P(SecureMatmulModes, SequenceOfMultiplications) {
  // Chained products (the shape of a forward pass) stay correct.
  const auto& mode = GetParam();
  const std::size_t n = 12;
  const MatrixF a = random_matrix(n, n, 203);
  const MatrixF b = random_matrix(n, n, 204);
  const MatrixF c = random_matrix(n, n, 205);
  const MatrixF expected = tensor::matmul(tensor::matmul(a, b), c);

  sgpu::Device* dev =
      mode.opts.use_gpu ? &sgpu::Device::global() : nullptr;
  TripletDealer dealer(dev, {mode.opts.use_gpu, false, 78});
  auto [t0a, t1a] = dealer.make_matmul(n, n, n);
  auto [t0b, t1b] = dealer.make_matmul(n, n, n);
  const auto sa = share_float(a, 13);
  const auto sb = share_float(b, 14);
  const auto sc = share_float(c, 15);

  MatrixF r0, r1;
  run_parties(
      mode.opts,
      [&](PartyContext& ctx) {
        MatrixF ab = secure_matmul(ctx, sa.s0, sb.s0, t0a);
        r0 = secure_matmul(ctx, ab, sc.s0, t0b);
      },
      [&](PartyContext& ctx) {
        MatrixF ab = secure_matmul(ctx, sa.s1, sb.s1, t1a);
        r1 = secure_matmul(ctx, ab, sc.s1, t1b);
      });

  const double t = mode.opts.use_tensor_core && mode.opts.use_gpu
                       ? 0.6
                       : 10 * tol(n);
  expect_near(reconstruct_float(r0, r1), expected, t, mode.name);
}

INSTANTIATE_TEST_SUITE_P(Modes, SecureMatmulModes,
                         ::testing::ValuesIn(all_modes()),
                         [](const auto& info) { return info.param.name; });

TEST(SecureMatmul, CoalescedExchangeIsOneMessagePerParty) {
  // The E/F reconstruction sends both masked operands in ONE coalesced
  // channel message per direction (half the frames, half the syscalls).
  const std::size_t m = 8, k = 8, n = 8;
  const MatrixF a = random_matrix(m, k, 301);
  const MatrixF b = random_matrix(k, n, 302);

  PartyOptions opts = PartyOptions::parsecureml();
  opts.use_gpu = false;
  opts.adaptive = false;

  TripletDealer dealer(nullptr, {false, false, 77});
  auto [t0, t1] = dealer.make_matmul(m, k, n);
  const auto sa = share_float(a, 21);
  const auto sb = share_float(b, 22);

  MatrixF c0, c1;
  std::uint64_t sent0 = 0, sent1 = 0;
  run_parties(
      opts,
      [&](PartyContext& ctx) {
        c0 = secure_matmul(ctx, sa.s0, sb.s0, t0);
        sent0 = ctx.peer().stats().messages_sent.load();
      },
      [&](PartyContext& ctx) {
        c1 = secure_matmul(ctx, sa.s1, sb.s1, t1);
        sent1 = ctx.peer().stats().messages_sent.load();
      });

  EXPECT_EQ(sent0, 1u);
  EXPECT_EQ(sent1, 1u);
  expect_near(reconstruct_float(c0, c1), tensor::matmul(a, b), tol(k));
}

TEST(SecureMatmul, NonSquareShapes) {
  const std::size_t m = 3, k = 57, n = 21;
  const MatrixF a = random_matrix(m, k, 206);
  const MatrixF b = random_matrix(k, n, 207);
  TripletDealer dealer(nullptr, {false, false, 79});
  auto [t0, t1] = dealer.make_matmul(m, k, n);
  const auto sa = share_float(a, 16);
  const auto sb = share_float(b, 17);
  PartyOptions opts = PartyOptions::parsecureml();
  opts.use_gpu = false;
  opts.adaptive = false;
  MatrixF c0, c1;
  run_parties(
      opts,
      [&](PartyContext& ctx) { c0 = secure_matmul(ctx, sa.s0, sb.s0, t0); },
      [&](PartyContext& ctx) { c1 = secure_matmul(ctx, sa.s1, sb.s1, t1); });
  expect_near(reconstruct_float(c0, c1), tensor::matmul(a, b), tol(k),
              "non-square");
}

TEST(SecureMatmul, TripletShapeMismatchThrows) {
  TripletDealer dealer(nullptr, {false, false, 80});
  auto [t0, t1] = dealer.make_matmul(4, 4, 4);
  PartyOptions opts = PartyOptions::secureml_baseline();
  const MatrixF wrong = random_matrix(5, 4, 208);
  const MatrixF b = random_matrix(4, 4, 209);
  EXPECT_THROW(
      run_parties(
          opts,
          [&](PartyContext& ctx) { secure_matmul(ctx, wrong, b, t0); },
          [&](PartyContext& ctx) { secure_matmul(ctx, wrong, b, t1); }),
      InvalidArgument);
}

TEST(SecureMatmul, StorePopsInOrder) {
  TripletDealer dealer(nullptr, {false, false, 81});
  auto [st0, st1] = dealer.generate({{TripletKind::kMatMul, 4, 6, 5},
                                     {TripletKind::kMatMul, 2, 3, 2}});
  EXPECT_EQ(st0.matmul_size(), 2u);
  const TripletShare first = st0.pop_matmul();
  EXPECT_EQ(first.u.rows(), 4u);
  EXPECT_EQ(first.u.cols(), 6u);
  const TripletShare second = st0.pop_matmul();
  EXPECT_EQ(second.u.rows(), 2u);
  EXPECT_THROW(st0.pop_matmul(), Error);
}

TEST(SecureMatmul, DealerTripletsAreConsistent) {
  // U, V, Z reconstruct to a valid Beaver triple: Z = U x V.
  sgpu::Device& dev = sgpu::Device::global();
  TripletDealer dealer(&dev, {true, false, 82});
  auto [t0, t1] = dealer.make_matmul(13, 9, 7);
  const MatrixF u = reconstruct_float(t0.u, t1.u);
  const MatrixF v = reconstruct_float(t0.v, t1.v);
  const MatrixF z = reconstruct_float(t0.z, t1.z);
  expect_near(z, tensor::matmul(u, v), tol(9), "dealer invariant");
}

TEST(SecureMul, ElementwiseReconstructs) {
  const std::size_t m = 15, n = 33;
  const MatrixF x = random_matrix(m, n, 210);
  const MatrixF y = random_matrix(m, n, 211);
  MatrixF expected;
  tensor::hadamard(x, y, expected);

  TripletDealer dealer(nullptr, {false, false, 83});
  auto [t0, t1] = dealer.make_elementwise(m, n);
  const auto sx = share_float(x, 18);
  const auto sy = share_float(y, 19);
  PartyOptions opts = PartyOptions::parsecureml();
  opts.use_gpu = false;
  MatrixF c0, c1;
  run_parties(
      opts,
      [&](PartyContext& ctx) { c0 = secure_mul(ctx, sx.s0, sy.s0, t0); },
      [&](PartyContext& ctx) { c1 = secure_mul(ctx, sx.s1, sy.s1, t1); });
  expect_near(reconstruct_float(c0, c1), expected, 1e-3, "secure_mul");
}

TEST(SecureMul, ShapeMismatchThrows) {
  TripletDealer dealer(nullptr, {false, false, 84});
  auto [t0, t1] = dealer.make_elementwise(3, 3);
  PartyOptions opts = PartyOptions::secureml_baseline();
  const MatrixF x = random_matrix(3, 3, 212);
  const MatrixF y = random_matrix(3, 4, 213);
  EXPECT_THROW(
      run_parties(
          opts, [&](PartyContext& ctx) { secure_mul(ctx, x, y, t0); },
          [&](PartyContext& ctx) { secure_mul(ctx, x, y, t1); }),
      InvalidArgument);
}

TEST(SecureMatmul, CompressionAcrossEpochsReducesTraffic) {
  // Same operands re-multiplied epoch after epoch (stable comm keys): the
  // E/F deltas are zero, so compressed mode sends far fewer bytes.
  const std::size_t n = 48;
  const MatrixF a = random_matrix(n, n, 214);
  const MatrixF b = random_matrix(n, n, 215);
  const auto sa = share_float(a, 20);
  const auto sb = share_float(b, 21);

  auto run_epochs = [&](bool compression) {
    PartyOptions opts = PartyOptions::parsecureml();
    opts.use_gpu = false;
    opts.adaptive = false;
    opts.use_compression = compression;
    TripletDealer dealer(nullptr, {false, false, 85});
    constexpr int kEpochs = 5;
    std::vector<std::pair<TripletShare, TripletShare>> triplets;
    for (int e = 0; e < kEpochs; ++e) triplets.push_back(dealer.make_matmul(n, n, n));
    std::uint64_t total_sent = 0;
    run_parties(
        opts,
        [&](PartyContext& ctx) {
          for (int e = 0; e < kEpochs; ++e) {
            // NOTE: the triplet changes per epoch, so E/F change too; but
            // re-using the *same* triplet each epoch models the all-zero
            // delta case. Use triplets[0] deliberately.
            (void)secure_matmul(ctx, sa.s0, sb.s0, triplets[0].first, 4242);
          }
          total_sent = ctx.peer().stats().bytes_sent.load();
        },
        [&](PartyContext& ctx) {
          for (int e = 0; e < kEpochs; ++e) {
            (void)secure_matmul(ctx, sa.s1, sb.s1, triplets[0].second, 4242);
          }
        });
    return total_sent;
  };

  const std::uint64_t with = run_epochs(true);
  const std::uint64_t without = run_epochs(false);
  EXPECT_LT(with, without / 2);
}

}  // namespace
}  // namespace psml::mpc
