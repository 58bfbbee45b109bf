// Triplet dealer tests: Beaver invariants, determinism, store accounting,
// recycle semantics, plan generation.
#include <gtest/gtest.h>

#include "mpc/triplet.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml::mpc {
namespace {

using psml::test::expect_near;

TEST(Dealer, MatmulTripletInvariant) {
  TripletDealer dealer(nullptr, {false, false, 801});
  for (const auto& [m, k, n] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{1, 1, 1},
        {5, 9, 3},
        {32, 64, 16}}) {
    auto [t0, t1] = dealer.make_matmul(m, k, n);
    const MatrixF u = reconstruct_float(t0.u, t1.u);
    const MatrixF v = reconstruct_float(t0.v, t1.v);
    const MatrixF z = reconstruct_float(t0.z, t1.z);
    expect_near(z, tensor::matmul(u, v), 1e-3 * static_cast<double>(k) + 1e-3,
                "Z = U x V");
  }
}

TEST(Dealer, LayerMaterialInvariant) {
  // Reconstructed Z, Z_dw and Z_dx are U x V, U^T x V2 and V2 x V^T: the
  // Beaver products of forward, dW and dX on the layer's three masks.
  TripletDealer dealer(nullptr, {false, false, 814});
  const std::size_t b = 6, in = 9, out = 4;
  auto [l0, l1] = dealer.make_layer(b, in, out);
  const MatrixF u = reconstruct_float(l0.u, l1.u);
  const MatrixF v = reconstruct_float(l0.v, l1.v);
  const MatrixF v2 = reconstruct_float(l0.v2, l1.v2);
  EXPECT_EQ(u.rows(), b);
  EXPECT_EQ(u.cols(), in);
  EXPECT_EQ(v.cols(), out);
  EXPECT_EQ(v2.rows(), b);
  EXPECT_EQ(v2.cols(), out);
  expect_near(reconstruct_float(l0.z, l1.z), tensor::matmul(u, v), 1e-2,
              "Z = U x V");
  expect_near(reconstruct_float(l0.z_dw, l1.z_dw),
              tensor::matmul(tensor::transpose(u), v2), 1e-2,
              "Z_dw = U^T x V2");
  expect_near(reconstruct_float(l0.z_dx, l1.z_dx),
              tensor::matmul(v2, tensor::transpose(v)), 1e-2,
              "Z_dx = V2 x V^T");
}

TEST(Dealer, ElementwiseTripletInvariant) {
  TripletDealer dealer(nullptr, {false, false, 802});
  auto [t0, t1] = dealer.make_elementwise(7, 11);
  const MatrixF u = reconstruct_float(t0.u, t1.u);
  const MatrixF v = reconstruct_float(t0.v, t1.v);
  const MatrixF z = reconstruct_float(t0.z, t1.z);
  MatrixF expected;
  tensor::hadamard(u, v, expected);
  expect_near(z, expected, 1e-3, "Z = U .* V");
}

TEST(Dealer, ActivationMasksArePositive) {
  TripletDealer dealer(nullptr, {false, false, 803});
  auto [a0, a1] = dealer.make_activation(9, 9);
  const MatrixF s_lo = reconstruct_float(a0.s_lo, a1.s_lo);
  const MatrixF s_hi = reconstruct_float(a0.s_hi, a1.s_hi);
  for (std::size_t i = 0; i < s_lo.size(); ++i) {
    ASSERT_GE(s_lo.data()[i], 0.5f - 1e-3f);
    ASSERT_LE(s_lo.data()[i], 2.0f + 1e-3f);
    ASSERT_GT(s_hi.data()[i], 0.0f);
  }
}

TEST(Dealer, DeterministicInSeed) {
  TripletDealer d1(nullptr, {false, false, 804});
  TripletDealer d2(nullptr, {false, false, 804});
  auto [a0, a1] = d1.make_matmul(4, 4, 4);
  auto [b0, b1] = d2.make_matmul(4, 4, 4);
  EXPECT_TRUE(a0.u == b0.u);
  EXPECT_TRUE(a1.z == b1.z);
  TripletDealer d3(nullptr, {false, false, 805});
  auto [c0, c1] = d3.make_matmul(4, 4, 4);
  EXPECT_FALSE(a0.u == c0.u);
}

TEST(Dealer, GpuAndCpuDealersAgreeOnAlgebra) {
  // Same seed, different engines: the triplets differ only in Z rounding.
  TripletDealer cpu(nullptr, {false, false, 806});
  TripletDealer gpu(&sgpu::Device::global(), {true, false, 806});
  auto [c0, c1] = cpu.make_matmul(64, 96, 64);
  auto [g0, g1] = gpu.make_matmul(64, 96, 64);
  EXPECT_TRUE(c0.u == g0.u);  // same RNG stream
  expect_near(reconstruct_float(c0.z, c1.z), reconstruct_float(g0.z, g1.z),
              1e-2, "Z agree across engines");
}

TEST(Store, BytesAccounting) {
  TripletDealer dealer(nullptr, {false, false, 807});
  auto [st0, st1] = dealer.generate({{TripletKind::kMatMul, 4, 8, 2}});
  // u 4x8 + v 8x2 + z 4x2 = 32+16+8 floats = 224 bytes.
  EXPECT_EQ(st0.bytes(), 224u);
  EXPECT_EQ(st1.bytes(), 224u);

  auto [l0, l1] = dealer.generate({{TripletKind::kLayer, 4, 8, 2}});
  // + v2 4x2 + z_dw 8x2 + z_dx 4x8 = 112 floats = 448 bytes.
  EXPECT_EQ(l0.layer_size(), 1u);
  EXPECT_EQ(l0.bytes(), 448u);
  EXPECT_EQ(l1.bytes(), 448u);
}

TEST(Store, LayerRetainMarkRewindAndRecycle) {
  TripletDealer dealer(nullptr, {false, false, 817});
  const std::vector<TripletSpec> plan{{TripletKind::kLayer, 2, 3, 4},
                                      {TripletKind::kMatMul, 2, 2, 2},
                                      {TripletKind::kLayer, 5, 3, 4}};
  auto [st0, st1] = dealer.generate(plan);
  st0.set_retain(true);
  EXPECT_EQ(st0.pop_layer().u.rows(), 2u);
  const TripletStore::Mark m = st0.mark();
  EXPECT_EQ(m.layer, 1u);
  EXPECT_EQ(m.matmul, 0u);
  const LayerShare second = st0.pop_layer();
  EXPECT_EQ(second.u.rows(), 5u);
  (void)st0.pop_matmul();
  EXPECT_THROW(st0.pop_layer(), Error);  // retain: no wrap-around
  st0.rewind(m);
  EXPECT_TRUE(st0.pop_layer().z_dx == second.z_dx);  // same material again
  EXPECT_EQ(st0.mark().matmul, 0u);
  EXPECT_EQ(st0.layer_size(), 2u);  // retained, not consumed

  st1.set_recycle(true);
  EXPECT_EQ(st1.pop_layer().u.rows(), 2u);
  EXPECT_EQ(st1.pop_layer().u.rows(), 5u);
  EXPECT_EQ(st1.pop_layer().u.rows(), 2u);  // recycle wraps to the front

  auto [st2, st3] = dealer.generate(plan);
  (void)st2.pop_layer();  // consuming pop
  EXPECT_EQ(st2.layer_size(), 1u);
  EXPECT_THROW(st2.mark(), Error);
}

TEST(Store, GenerateHonorsPlanOrderAndKinds) {
  TripletDealer dealer(nullptr, {false, false, 808});
  auto [st0, st1] = dealer.generate({{TripletKind::kMatMul, 2, 3, 4},
                                     {TripletKind::kElementwise, 5, 0, 6},
                                     {TripletKind::kMatMul, 7, 8, 9},
                                     {TripletKind::kActivation, 2, 0, 2}});
  EXPECT_EQ(st0.matmul_size(), 2u);
  EXPECT_EQ(st0.elementwise_size(), 1u);
  EXPECT_EQ(st0.activation_size(), 1u);
  EXPECT_EQ(st0.pop_matmul().u.rows(), 2u);
  EXPECT_EQ(st0.pop_matmul().u.rows(), 7u);
  EXPECT_EQ(st0.pop_elementwise().u.rows(), 5u);
  EXPECT_TRUE(st0.empty() == false);  // activation still present
  (void)st0.pop_activation();
  EXPECT_TRUE(st0.empty());
}

TEST(Store, RecycleSameValueIsNoOpAfterPop) {
  // Regression: re-calling the setter with the current value used to reset
  // the cursors mid-stream, silently desynchronizing the two parties' SPMD
  // consumption. It must be a pure no-op.
  TripletDealer dealer(nullptr, {false, false, 809});
  auto [st0, st1] = dealer.generate({{TripletKind::kMatMul, 2, 2, 2},
                                     {TripletKind::kMatMul, 3, 3, 3}});
  st0.set_recycle(true);
  EXPECT_TRUE(st0.recycle());
  EXPECT_EQ(st0.pop_matmul().u.rows(), 2u);
  st0.set_recycle(true);  // no-op: cursor stays where it was
  EXPECT_EQ(st0.pop_matmul().u.rows(), 3u);
  EXPECT_EQ(st0.pop_matmul().u.rows(), 2u);  // recycle wraps to the front
}

TEST(Store, ModeSwitchAfterFirstPopRejected) {
  // Regression: switching modes after consumption has begun would reset
  // cursors and desynchronize the parties — now a hard contract violation.
  TripletDealer dealer(nullptr, {false, false, 812});
  auto [st0, st1] = dealer.generate({{TripletKind::kMatMul, 2, 2, 2},
                                     {TripletKind::kMatMul, 3, 3, 3}});
  st0.set_recycle(true);
  (void)st0.pop_matmul();
  EXPECT_THROW(st0.set_recycle(false), Error);
  EXPECT_TRUE(st0.recycle());  // rejected switch left the mode untouched

  auto [st2, st3] = dealer.generate({{TripletKind::kMatMul, 2, 2, 2}});
  (void)st2.pop_matmul();  // consuming pop counts too
  EXPECT_THROW(st2.set_retain(true), Error);
  EXPECT_THROW(st2.set_recycle(true), Error);
}

TEST(Store, RecycleAndRetainMutuallyExclusive) {
  TripletStore a;
  a.set_recycle(true);
  EXPECT_THROW(a.set_retain(true), Error);
  TripletStore b;
  b.set_retain(true);
  EXPECT_THROW(b.set_recycle(true), Error);
  // Disable one first, then the other may be enabled.
  b.set_retain(false);
  b.set_recycle(true);
  EXPECT_TRUE(b.recycle());
}

TEST(Store, ModeSwitchBeforeFirstPopAllowed) {
  TripletStore st;
  st.set_recycle(true);
  st.set_recycle(false);
  st.set_retain(true);
  st.set_retain(false);
  st.set_recycle(true);
  EXPECT_TRUE(st.recycle());
}

TEST(Dealer, GpuWithoutDeviceRejected) {
  EXPECT_THROW(TripletDealer(nullptr, {true, false, 810}), InvalidArgument);
}

TEST(Dealer, ConflictingEngineOptionsRejected) {
  // Regression: use_gpu + naive_cpu used to be silently honored only for
  // shapes below the adaptive GPU threshold, mixing engines mid-plan.
  EXPECT_THROW(TripletDealer(&sgpu::Device::global(), {true, true, 813}),
               InvalidArgument);
}

TEST(Dealer, SharesOfTripletLookIndependent) {
  // Each share alone must be decorrelated from U: correlation over many
  // entries close to zero relative to share scale.
  TripletDealer dealer(nullptr, {false, false, 811});
  auto [t0, t1] = dealer.make_matmul(64, 64, 4);
  const MatrixF u = reconstruct_float(t0.u, t1.u);
  double dot = 0, nu = 0, ns = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    dot += static_cast<double>(u.data()[i]) * t0.u.data()[i];
    nu += static_cast<double>(u.data()[i]) * u.data()[i];
    ns += static_cast<double>(t0.u.data()[i]) * t0.u.data()[i];
  }
  const double corr = dot / std::sqrt(nu * ns);
  EXPECT_LT(std::abs(corr), 0.1);
}

}  // namespace
}  // namespace psml::mpc
