// Secure ML stack tests: secure layers reconstruct to the plaintext
// computation, secure training matches plaintext training, pipeline on/off
// and device/host placement equivalence, secure RNN.
#include <gtest/gtest.h>

#include <sstream>

#include "data/datasets.hpp"
#include "tensor/gemm.hpp"
#include "ml/checkpoint.hpp"
#include "ml/models.hpp"
#include "ml/secure/secure_model.hpp"
#include "mpc/triplet_io.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml::ml {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;
using psml::test::random_sequence;
using psml::test::run_parties;

mpc::PartyOptions cpu_opts(bool pipeline = false) {
  mpc::PartyOptions opts = mpc::PartyOptions::parsecureml();
  opts.use_gpu = false;
  opts.adaptive = false;
  opts.use_pipeline = pipeline;
  return opts;
}

// Generates the offline stores for one plan on both parties.
std::pair<mpc::TripletStore, mpc::TripletStore> gen_stores(
    const std::vector<mpc::TripletSpec>& plan, std::uint64_t seed) {
  mpc::TripletDealer dealer(nullptr, {false, false, seed});
  return dealer.generate(plan);
}

TEST(SecureDense, ForwardMatchesPlain) {
  const std::size_t batch = 8, in = 12, out = 6;
  const MatrixF w = xavier_init(in, out, 71);
  const MatrixF x = random_matrix(batch, in, 601);
  const MatrixF expected = tensor::matmul(x, w);

  auto ws = mpc::share_float(w, 72);
  auto xs = mpc::share_float(x, 73);
  auto bs = mpc::share_float(MatrixF(1, out, 0.0f), 74);
  SecureDense l0(ws.s0, bs.s0), l1(ws.s1, bs.s1);
  l0.set_layer_id(1);
  l1.set_layer_id(1);
  std::vector<mpc::TripletSpec> plan;
  l0.plan(plan, batch, /*training=*/false);
  auto [st0, st1] = gen_stores(plan, 74);

  MatrixF y0, y1;
  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, false};
        y0 = l0.forward(env, xs.s0);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, false};
        y1 = l1.forward(env, xs.s1);
      });
  expect_near(mpc::reconstruct_float(y0, y1), expected, 1e-2,
              "secure dense forward");
}

// Full train-batch equivalence: run one SGD step securely and in plaintext
// from identical weights; the reconstructed secure weights must match the
// plaintext weights.
constexpr std::size_t kStepBatch = 16;

data::Dataset sgd_step_data() {
  return data::make_dataset(data::DatasetKind::kMnist,
                            data::LabelScheme::kOneHot10, kStepBatch, 75);
}

ModelConfig sgd_step_config(const data::Dataset& ds) {
  ModelConfig mc;
  mc.kind = ModelKind::kMlp;
  mc.input_dim = ds.geometry.features();
  mc.classes = 10;
  mc.seed = 76;
  return mc;
}

// One secure SGD step of the MLP from the shared init, triplets and input
// shares, in `opts`' execution mode. Returns the trained share pair.
SecurePair secure_sgd_step(const mpc::PartyOptions& opts) {
  const auto ds = sgd_step_data();
  const ModelConfig mc = sgd_step_config(ds);
  auto pair = build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, kStepBatch, LossKind::kMse, 10, true);
  auto [st0, st1] = gen_stores(plan, 77);
  auto xs = mpc::share_float(ds.x, 78);
  auto ys = mpc::share_float(ds.y, 79);

  run_parties(
      opts,
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true};
        secure_train_batch(env, pair.m0, LossKind::kMse, xs.s0, ys.s0, 0.25f);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true};
        secure_train_batch(env, pair.m1, LossKind::kMse, xs.s1, ys.s1, 0.25f);
      });
  return pair;
}

class SecureVsPlain : public ::testing::TestWithParam<bool> {};

TEST_P(SecureVsPlain, OneSgdStepMatchesPlaintext) {
  const bool pipeline = GetParam();
  const auto ds = sgd_step_data();
  const ModelConfig mc = sgd_step_config(ds);

  // Plaintext step.
  auto plain = build_plain(mc);
  train_batch(plain, LossKind::kMse, ds.x, ds.y, 0.25f);

  // Secure step from the same init.
  auto pair = secure_sgd_step(cpu_opts(pipeline));

  auto secure_as_plain = reconstruct_plain(mc, pair.m0, pair.m1);
  // Compare layer-by-layer weights. The activation-region mask can differ on
  // measure-zero boundaries; tolerance covers share noise only.
  for (std::size_t i = 0; i < plain.size(); ++i) {
    auto* dp = dynamic_cast<Dense*>(&plain.layer(i));
    if (dp == nullptr) continue;
    auto* ds_layer = dynamic_cast<Dense*>(&secure_as_plain.layer(i));
    ASSERT_NE(ds_layer, nullptr);
    expect_near(ds_layer->weights(), dp->weights(), 5e-2,
                ("layer " + std::to_string(i)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(PipelineOnOff, SecureVsPlain, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "pipelined" : "serial";
                         });

TEST(PipelineModes, SerialAndPipelinedStepsAreBitIdentical) {
  // Both modes push the same op graph; only the executor of the staged
  // opens differs (the engine's lane vs. inline at push). With deterministic
  // refresh masks and exact (uncompressed) exchanges, the trained weights
  // must therefore agree bit for bit, not merely within share noise.
  auto opts = [](bool pipeline) {
    mpc::PartyOptions o = cpu_opts(pipeline);
    o.use_compression = false;
    o.mask_seed = 0x5eed;
    return o;
  };
  auto serial = secure_sgd_step(opts(false));
  auto pipelined = secure_sgd_step(opts(true));

  const ModelConfig mc = sgd_step_config(sgd_step_data());
  auto serial_plain = reconstruct_plain(mc, serial.m0, serial.m1);
  auto pipelined_plain = reconstruct_plain(mc, pipelined.m0, pipelined.m1);
  std::size_t dense_layers = 0;
  for (std::size_t i = 0; i < serial_plain.size(); ++i) {
    auto* a = dynamic_cast<Dense*>(&serial_plain.layer(i));
    if (a == nullptr) continue;
    auto* b = dynamic_cast<Dense*>(&pipelined_plain.layer(i));
    ASSERT_NE(b, nullptr);
    ++dense_layers;
    EXPECT_EQ(tensor::max_abs_diff(a->weights(), b->weights()), 0.0f)
        << "layer " << i;
    EXPECT_EQ(tensor::max_abs_diff(a->bias(), b->bias()), 0.0f)
        << "layer " << i;
  }
  EXPECT_EQ(dense_layers, 3u);
}

// Trains `mc` for `steps` SGD steps on (x, y) from the shared init, one
// dealer's triplets and fixed input shares, in `opts`' execution mode, and
// returns the reconstructed model as checkpoint bytes: every parameter of
// every layer, bit for bit.
std::string train_to_checkpoint(const ModelConfig& mc, const MatrixF& x,
                                const MatrixF& y,
                                const mpc::PartyOptions& opts, int steps,
                                float lr) {
  auto pair = build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  for (int s = 0; s < steps; ++s) {
    pair.m0.plan_batch(plan, x.rows(), LossKind::kMse, mc.classes, true);
  }
  auto [st0, st1] = gen_stores(plan, 95);
  auto xs = mpc::share_float(x, 96);
  auto ys = mpc::share_float(y, 97);
  run_parties(
      opts,
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true};
        for (int s = 0; s < steps; ++s) {
          secure_train_batch(env, pair.m0, LossKind::kMse, xs.s0, ys.s0, lr);
        }
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true};
        for (int s = 0; s < steps; ++s) {
          secure_train_batch(env, pair.m1, LossKind::kMse, xs.s1, ys.s1, lr);
        }
      });
  auto trained = reconstruct_plain(mc, pair.m0, pair.m1);
  std::ostringstream os;
  save_model(os, trained);
  return os.str();
}

// Exact modes only: deterministic refresh masks, uncompressed exchanges, and
// f32 numerics on the device (no Tensor-Core rounding, no adaptive
// placement), so the only difference is where each online GEMM runs.
mpc::PartyOptions placement_opts(bool gpu) {
  mpc::PartyOptions o = mpc::PartyOptions::parsecureml();
  o.use_gpu = gpu;
  o.use_tensor_core = false;
  o.use_compression = false;
  o.adaptive = false;
  o.mask_seed = 0x91ace;
  return o;
}

TEST(PlacementModes, DeviceAndHostStepsAreBitIdentical) {
  // The device's f32 GEMM is the host engine on the device pool, and its
  // axpby/add kernels round like the host's, so moving every online GEMM to
  // the device must not change one bit of the trained model.
  const auto ds = sgd_step_data();
  const ModelConfig mlp = sgd_step_config(ds);
  const std::string mlp_host =
      train_to_checkpoint(mlp, ds.x, ds.y, placement_opts(false), 2, 0.25f);
  const std::string mlp_device =
      train_to_checkpoint(mlp, ds.x, ds.y, placement_opts(true), 2, 0.25f);
  EXPECT_TRUE(mlp_host == mlp_device) << "MLP weights differ";

  ModelConfig cnn;
  cnn.kind = ModelKind::kCnn;
  cnn.image_h = 10;
  cnn.image_w = 10;
  cnn.channels = 1;
  cnn.input_dim = 100;
  cnn.classes = 10;
  cnn.seed = 98;
  const std::size_t batch = 4;
  const MatrixF x = random_matrix(batch, 100, 99, 0.0f, 1.0f);
  MatrixF y(batch, 10, 0.0f);
  for (std::size_t r = 0; r < batch; ++r) y(r, r % 10) = 1.0f;
  const std::string cnn_host =
      train_to_checkpoint(cnn, x, y, placement_opts(false), 2, 0.2f);
  const std::string cnn_device =
      train_to_checkpoint(cnn, x, y, placement_opts(true), 2, 0.2f);
  EXPECT_TRUE(cnn_host == cnn_device) << "CNN weights differ";
}

TEST(PlacementModes, DealerStoresAreByteIdentical) {
  // The offline twin: one seed and plan give the same triplet stores whether
  // the dealer computes Z = U x V on the device or on the host. The MLP's
  // first-layer triplets clear the dealer's 2^21-flop device gate, so the
  // device path really runs.
  const auto ds = sgd_step_data();
  auto pair = build_secure_pair(sgd_step_config(ds));
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, kStepBatch, LossKind::kMse, 10, true);
  bool device_sized = false;
  for (const auto& spec : plan) {
    device_sized |= spec.kind == mpc::TripletKind::kMatMul &&
                    2.0 * static_cast<double>(spec.m) * spec.k * spec.n >=
                        static_cast<double>(1 << 21);
  }
  ASSERT_TRUE(device_sized);

  mpc::TripletDealer host(nullptr, {false, false, 0xdea1});
  mpc::TripletDealer device(&sgpu::Device::global(), {true, false, 0xdea1});
  auto [h0, h1] = host.generate(plan);
  auto [d0, d1] = device.generate(plan);
  EXPECT_TRUE(mpc::encode_store(h0) == mpc::encode_store(d0));
  EXPECT_TRUE(mpc::encode_store(h1) == mpc::encode_store(d1));
}

TEST(SecureInference, ThrowingForwardRestoresTrainingFlag) {
  // secure_infer_batch switches the env to forward-only for the call. A
  // forward that throws (here: an input-width mismatch, caught before any
  // message is sent) must still hand the caller back its training env, or
  // the next training step would skip the backward triplets.
  ModelConfig mc;
  mc.kind = ModelKind::kMlp;
  mc.input_dim = 20;
  mc.classes = 10;
  mc.seed = 101;
  auto pair = build_secure_pair(mc);
  auto chans = net::LocalChannel::make_pair();
  mpc::PartyContext ctx(0, chans.a, nullptr, cpu_opts());
  SecureEnv env{&ctx, true};
  EXPECT_THROW(secure_infer_batch(env, pair.m0, random_matrix(4, 21, 102)),
               InvalidArgument);
  EXPECT_TRUE(env.training);
}

TEST(SecureTraining, MlpConvergesOnSeparableData) {
  const std::size_t n = 64;
  const auto ds = data::make_dataset(data::DatasetKind::kMnist,
                                     data::LabelScheme::kOneHot10, n, 80);
  ModelConfig mc;
  mc.kind = ModelKind::kMlp;
  mc.input_dim = ds.geometry.features();
  mc.classes = 10;
  mc.seed = 81;
  auto pair = build_secure_pair(mc);

  constexpr int kEpochs = 20;
  std::vector<mpc::TripletSpec> plan;
  for (int e = 0; e < kEpochs; ++e) {
    pair.m0.plan_batch(plan, n, LossKind::kMse, 10, true);
  }
  auto [st0, st1] = gen_stores(plan, 82);
  auto xs = mpc::share_float(ds.x, 83);
  auto ys = mpc::share_float(ds.y, 84);

  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true};
        for (int e = 0; e < kEpochs; ++e) {
          secure_train_batch(env, pair.m0, LossKind::kMse, xs.s0, ys.s0,
                             0.05f);
        }
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true};
        for (int e = 0; e < kEpochs; ++e) {
          secure_train_batch(env, pair.m1, LossKind::kMse, xs.s1, ys.s1,
                             0.05f);
        }
      });

  auto trained = reconstruct_plain(mc, pair.m0, pair.m1);
  EXPECT_GT(accuracy(trained.forward(ds.x), ds.y), 0.55);
}

TEST(SecureTraining, SvmHingeLossStep) {
  const std::size_t n = 32;
  const auto ds = data::make_dataset(data::DatasetKind::kMnist,
                                     data::LabelScheme::kBinaryPm1, n, 85);
  ModelConfig mc;
  mc.kind = ModelKind::kSvm;
  mc.input_dim = ds.geometry.features();
  mc.classes = 1;
  mc.seed = 86;

  auto plain = build_plain(mc);
  for (int e = 0; e < 3; ++e) {
    train_batch(plain, LossKind::kHinge, ds.x, ds.y, 0.3f);
  }

  auto pair = build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  for (int e = 0; e < 3; ++e) {
    pair.m0.plan_batch(plan, n, LossKind::kHinge, 1, true);
  }
  auto [st0, st1] = gen_stores(plan, 87);
  auto xs = mpc::share_float(ds.x, 88);
  auto ys = mpc::share_float(ds.y, 89);
  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true};
        for (int e = 0; e < 3; ++e) {
          secure_train_batch(env, pair.m0, LossKind::kHinge, xs.s0, ys.s0,
                             0.3f);
        }
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true};
        for (int e = 0; e < 3; ++e) {
          secure_train_batch(env, pair.m1, LossKind::kHinge, xs.s1, ys.s1,
                             0.3f);
        }
      });
  auto trained = reconstruct_plain(mc, pair.m0, pair.m1);
  auto* dp = dynamic_cast<Dense*>(&plain.layer(0));
  auto* dsec = dynamic_cast<Dense*>(&trained.layer(0));
  ASSERT_NE(dp, nullptr);
  ASSERT_NE(dsec, nullptr);
  expect_near(dsec->weights(), dp->weights(), 5e-2, "svm weights");
}

TEST(SecureCnn, OneStepMatchesPlain) {
  const std::size_t batch = 4;
  ModelConfig mc;
  mc.kind = ModelKind::kCnn;
  mc.image_h = 10;
  mc.image_w = 10;
  mc.channels = 1;
  mc.input_dim = 100;
  mc.classes = 10;
  mc.seed = 90;

  const MatrixF x = random_matrix(batch, 100, 602, 0.0f, 1.0f);
  MatrixF y(batch, 10, 0.0f);
  for (std::size_t r = 0; r < batch; ++r) y(r, r % 10) = 1.0f;

  auto plain = build_plain(mc);
  train_batch(plain, LossKind::kMse, x, y, 0.2f);

  auto pair = build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, batch, LossKind::kMse, 10, true);
  auto [st0, st1] = gen_stores(plan, 91);
  auto xs = mpc::share_float(x, 92);
  auto ys = mpc::share_float(y, 93);
  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true};
        secure_train_batch(env, pair.m0, LossKind::kMse, xs.s0, ys.s0, 0.2f);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true};
        secure_train_batch(env, pair.m1, LossKind::kMse, xs.s1, ys.s1, 0.2f);
      });
  auto trained = reconstruct_plain(mc, pair.m0, pair.m1);
  auto* cp = dynamic_cast<Conv2D*>(&plain.layer(0));
  auto* cs = dynamic_cast<Conv2D*>(&trained.layer(0));
  ASSERT_NE(cp, nullptr);
  ASSERT_NE(cs, nullptr);
  expect_near(cs->weights(), cp->weights(), 5e-2, "conv weights");
}

TEST(SecureRnn, ForwardMatchesPlainRnn) {
  ModelConfig mc;
  mc.kind = ModelKind::kRnn;
  mc.input_dim = 8;
  mc.rnn_hidden = 6;
  mc.classes = 1;
  mc.rnn_steps = 3;
  mc.seed = 94;

  auto plain = build_plain(mc);
  auto pair = build_secure_pair(mc);

  const std::size_t batch = 5;
  const MatrixF x = random_sequence(batch, 3, 8, 610, -0.4f, 0.4f);
  const MatrixF expected = plain.forward(x);

  auto xs = mpc::share_float(x, 95);
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, batch, LossKind::kMse, 1, /*training=*/false);
  auto [st0, st1] = gen_stores(plan, 96);

  MatrixF o0, o1;
  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true};
        o0 = secure_infer_batch(env, pair.m0, xs.s0);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true};
        o1 = secure_infer_batch(env, pair.m1, xs.s1);
      });
  expect_near(mpc::reconstruct_float(o0, o1), expected, 5e-2,
              "secure rnn forward");
}

TEST(SecureRnn, TrainingStepMatchesPlain) {
  ModelConfig mc;
  mc.kind = ModelKind::kRnn;
  mc.input_dim = 6;
  mc.rnn_hidden = 4;
  mc.classes = 1;
  mc.rnn_steps = 2;
  mc.seed = 97;

  auto plain = build_plain(mc);
  auto pair = build_secure_pair(mc);

  const std::size_t batch = 6;
  const MatrixF x = random_sequence(batch, 2, 6, 620, -0.4f, 0.4f);
  const MatrixF y = random_matrix(batch, 1, 630, 0.0f, 1.0f);

  train_batch(plain, LossKind::kMse, x, y, 0.3f);

  auto xs = mpc::share_float(x, 98);
  auto ys = mpc::share_float(y, 99);
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, batch, LossKind::kMse, 1, /*training=*/true);
  auto [st0, st1] = gen_stores(plan, 100);

  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true};
        secure_train_batch(env, pair.m0, LossKind::kMse, xs.s0, ys.s0, 0.3f);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true};
        secure_train_batch(env, pair.m1, LossKind::kMse, xs.s1, ys.s1, 0.3f);
      });

  auto trained = reconstruct_plain(mc, pair.m0, pair.m1);
  const auto& want = dynamic_cast<RnnLayer&>(plain.layer(0));
  const auto& got = dynamic_cast<RnnLayer&>(trained.layer(0));
  expect_near(got.wx(), want.wx(), 5e-2, "wx");
  expect_near(got.wh(), want.wh(), 5e-2, "wh");
  expect_near(got.wo(), want.wo(), 5e-2, "wo");
}

TEST(SecurePlan, InferencePlanSmallerThanTraining) {
  ModelConfig mc;
  mc.kind = ModelKind::kMlp;
  mc.input_dim = 50;
  mc.classes = 10;
  auto pair = build_secure_pair(mc);
  std::vector<mpc::TripletSpec> train_plan, infer_plan;
  pair.m0.plan_batch(train_plan, 8, LossKind::kMse, 10, true);
  pair.m0.plan_batch(infer_plan, 8, LossKind::kMse, 10, false);
  EXPECT_GT(train_plan.size(), infer_plan.size());
  // Inference: one matmul per dense + activations, no backward triplets.
  std::size_t matmuls = 0;
  for (const auto& s : infer_plan) {
    if (s.kind == mpc::TripletKind::kMatMul) ++matmuls;
  }
  EXPECT_EQ(matmuls, 3u);
}

}  // namespace
}  // namespace psml::ml
