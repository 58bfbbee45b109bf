// Plaintext ML stack tests: numerical gradient checks per layer, loss
// functions, engine equivalence, training convergence.
#include <gtest/gtest.h>

#include "data/datasets.hpp"
#include "ml/models.hpp"
#include "ml/plain/layers.hpp"
#include "ml/plain/model.hpp"
#include "sgpu/device.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml::ml {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;
using psml::test::random_sequence;

// Central-difference gradient check for a Dense layer through MSE loss.
TEST(Dense, NumericalGradientCheck) {
  const std::size_t batch = 4, in = 6, out = 3;
  Dense layer(in, out, Engine::kCpuParallel, 55);
  const MatrixF x = random_matrix(batch, in, 501);
  const MatrixF target = random_matrix(batch, out, 502);

  auto loss_at = [&](const MatrixF& w) {
    Dense probe(in, out, Engine::kCpuParallel, 55);
    probe.weights() = w;
    const MatrixF pred = probe.forward(x);
    return compute_loss(LossKind::kMse, pred, target).value;
  };

  // Analytic gradient: forward + backward accumulates dW internally, read it
  // back via an SGD step of known lr.
  Dense probe(in, out, Engine::kCpuParallel, 55);
  const MatrixF w0 = probe.weights();
  const MatrixF pred = probe.forward(x);
  const auto lr_res = compute_loss(LossKind::kMse, pred, target);
  probe.backward(lr_res.grad);
  MatrixF w_after = probe.weights();
  probe.update(1.0f);
  MatrixF analytic(in, out);
  tensor::sub(w_after, probe.weights(), analytic);  // = 1.0 * dW

  const float eps = 1e-3f;
  for (std::size_t r = 0; r < in; r += 2) {
    for (std::size_t c = 0; c < out; c += 2) {
      MatrixF wp = w0, wm = w0;
      wp(r, c) += eps;
      wm(r, c) -= eps;
      const float numeric = (loss_at(wp) - loss_at(wm)) / (2 * eps);
      // MSE in compute_loss averages over rows but sums the 0.5*d^2 terms —
      // the numeric and analytic derivative use the identical definition.
      EXPECT_NEAR(numeric, analytic(r, c), 5e-2 * std::abs(numeric) + 1e-3)
          << r << "," << c;
    }
  }
}

TEST(Dense, BackwardInputGradientCheck) {
  const std::size_t batch = 3, in = 5, out = 4;
  Dense layer(in, out, Engine::kCpuParallel, 56);
  MatrixF x = random_matrix(batch, in, 503);
  const MatrixF target = random_matrix(batch, out, 504);

  const MatrixF pred = layer.forward(x);
  const auto lr_res = compute_loss(LossKind::kMse, pred, target);
  const MatrixF dx = layer.backward(lr_res.grad);

  const float eps = 1e-3f;
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < in; c += 2) {
      MatrixF xp = x, xm = x;
      xp(r, c) += eps;
      xm(r, c) -= eps;
      Dense probe(in, out, Engine::kCpuParallel, 56);
      const float lp =
          compute_loss(LossKind::kMse, probe.forward(xp), target).value;
      const float lm =
          compute_loss(LossKind::kMse, probe.forward(xm), target).value;
      const float numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(numeric, dx(r, c), 5e-2 * std::abs(numeric) + 1e-3);
    }
  }
}

TEST(Conv2D, GradientCheckThroughLoss) {
  tensor::ConvShape shape;
  shape.in_h = 6;
  shape.in_w = 6;
  shape.kernel = 3;
  shape.out_c = 2;
  Conv2D layer(shape, Engine::kCpuParallel, 57);
  const MatrixF x = random_matrix(2, 36, 505);
  const MatrixF target = random_matrix(2, layer.out_features(36), 506);

  const MatrixF pred = layer.forward(x);
  const auto lr_res = compute_loss(LossKind::kMse, pred, target);
  layer.backward(lr_res.grad);
  const MatrixF w0 = layer.weights();
  layer.update(1.0f);
  MatrixF analytic(w0.rows(), w0.cols());
  tensor::sub(w0, layer.weights(), analytic);

  const float eps = 1e-3f;
  for (std::size_t r = 0; r < w0.rows(); r += 3) {
    for (std::size_t c = 0; c < w0.cols(); ++c) {
      Conv2D probe(shape, Engine::kCpuParallel, 57);
      MatrixF wp = w0;
      wp(r, c) += eps;
      probe.weights() = wp;
      const float lp =
          compute_loss(LossKind::kMse, probe.forward(x), target).value;
      MatrixF wm = w0;
      wm(r, c) -= eps;
      probe.weights() = wm;
      const float lm =
          compute_loss(LossKind::kMse, probe.forward(x), target).value;
      const float numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(numeric, analytic(r, c), 5e-2 * std::abs(numeric) + 1e-3);
    }
  }
}

TEST(Activations, ForwardBackward) {
  PiecewiseActivation act;
  const MatrixF x{{-1.0f, 0.0f, 1.0f}};
  const MatrixF y = act.forward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 1), 0.5f);
  EXPECT_FLOAT_EQ(y(0, 2), 1.0f);
  const MatrixF dy{{1.0f, 1.0f, 1.0f}};
  const MatrixF dx = act.backward(dy);
  EXPECT_FLOAT_EQ(dx(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(dx(0, 2), 0.0f);

  ReLU relu;
  const MatrixF ry = relu.forward(x);
  EXPECT_FLOAT_EQ(ry(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(ry(0, 2), 1.0f);
  const MatrixF rdx = relu.backward(dy);
  EXPECT_FLOAT_EQ(rdx(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(rdx(0, 2), 1.0f);
}

TEST(Loss, MseValueAndGrad) {
  const MatrixF pred{{1.0f, 2.0f}};
  const MatrixF target{{0.0f, 4.0f}};
  const auto r = compute_loss(LossKind::kMse, pred, target);
  EXPECT_NEAR(r.value, 0.5f * (1.0f + 4.0f) / 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(r.grad(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(r.grad(0, 1), -2.0f);
}

TEST(Loss, HingeValueAndGrad) {
  const MatrixF pred{{0.5f}, {2.0f}};
  const MatrixF target{{1.0f}, {1.0f}};
  const auto r = compute_loss(LossKind::kHinge, pred, target);
  // Row 0 violates the margin (1 - 0.5 = 0.5); row 1 satisfies it.
  EXPECT_NEAR(r.value, 0.5f / 2.0f, 1e-6);
  EXPECT_FLOAT_EQ(r.grad(0, 0), -0.5f);
  EXPECT_FLOAT_EQ(r.grad(1, 0), 0.0f);
}

TEST(Accuracy, ArgmaxAndBinary) {
  const MatrixF pred{{0.9f, 0.1f}, {0.2f, 0.8f}};
  const MatrixF target{{1.0f, 0.0f}, {1.0f, 0.0f}};
  EXPECT_DOUBLE_EQ(accuracy(pred, target), 0.5);

  const MatrixF bp{{0.7f}, {0.2f}};
  const MatrixF bt{{1.0f}, {0.0f}};
  EXPECT_DOUBLE_EQ(accuracy(bp, bt), 1.0);

  const MatrixF sp{{0.4f}, {-3.0f}};
  const MatrixF st{{1.0f}, {-1.0f}};
  EXPECT_DOUBLE_EQ(accuracy(sp, st), 1.0);
}

TEST(Engines, AllEnginesAgreeOnForward) {
  const MatrixF x = random_matrix(8, 20, 507);
  MatrixF outs[3], rnn_outs[3];
  auto& trace = sgpu::Device::global().trace();
  int i = 0;
  for (const auto engine :
       {Engine::kCpuNaive, Engine::kCpuParallel, Engine::kGpu}) {
    Dense layer(20, 10, engine, 58);
    outs[i] = layer.forward(x);
    trace.clear();
    RnnLayer rnn(5, 6, 3, /*steps=*/4, engine, 59);  // 4 steps x 5 features
    rnn_outs[i++] = rnn.forward(x);
  }
  expect_near(outs[0], outs[1], 1e-4, "naive vs parallel");
  expect_near(outs[0], outs[2], 1e-4, "naive vs gpu");
  expect_near(rnn_outs[0], rnn_outs[1], 1e-4, "rnn naive vs parallel");
  expect_near(rnn_outs[0], rnn_outs[2], 1e-4, "rnn naive vs gpu");
  // The kGpu RNN ran every product on the device: x W_x and h W_h per step,
  // then h_T W_o.
  const auto kernels = trace.summary();
  ASSERT_EQ(kernels.count("kernel:gemm"), 1u);
  EXPECT_EQ(kernels.at("kernel:gemm").count, 2u * 4u + 1u);
}

class ModelTraining : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelTraining, ConvergesOnSeparableData) {
  const ModelKind kind = GetParam();
  const auto scheme = kind == ModelKind::kSvm
                          ? data::LabelScheme::kBinaryPm1
                          : (kind == ModelKind::kCnn || kind == ModelKind::kMlp
                                 ? data::LabelScheme::kOneHot10
                                 : data::LabelScheme::kBinary01);
  const auto ds = data::make_dataset(data::DatasetKind::kMnist, scheme, 128,
                                     61);
  ModelConfig mc;
  mc.kind = kind;
  mc.input_dim = ds.geometry.features();
  mc.image_h = ds.geometry.h;
  mc.image_w = ds.geometry.w;
  mc.channels = ds.geometry.c;
  mc.classes = ds.y.cols() == 10 ? 10 : 1;
  auto model = build_plain(mc);
  const auto loss = loss_for(kind);

  // Full-batch GD on ~800-dim inputs needs a conservative step size; large
  // rates diverge (grad ~ X^T X w with eigenvalues ~ tens). The CNN is the
  // touchiest: its conv gradient sums over every spatial position, so the
  // effective step is ~out_h*out_w times larger and the Eq. 9 activation
  // saturates irrecoverably if pushed — hence the smaller rate and the
  // more modest accuracy bar.
  const bool is_cnn = kind == ModelKind::kCnn;
  const float lr = is_cnn ? 0.005f : (kind == ModelKind::kMlp ? 0.05f : 0.02f);
  const int epochs = is_cnn ? 120 : 80;
  const double bar = is_cnn ? 0.3 : 0.6;
  const double acc_before = accuracy(model.forward(ds.x), ds.y);
  float last_loss = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    last_loss = train_batch(model, loss, ds.x, ds.y, lr);
  }
  const double acc_after = accuracy(model.forward(ds.x), ds.y);
  EXPECT_GT(acc_after, std::max(bar, acc_before)) << "loss=" << last_loss;
}

INSTANTIATE_TEST_SUITE_P(Kinds, ModelTraining,
                         ::testing::Values(ModelKind::kMlp, ModelKind::kCnn,
                                           ModelKind::kLinear,
                                           ModelKind::kLogistic,
                                           ModelKind::kSvm),
                         [](const auto& info) { return to_string(info.param); });

ModelConfig rnn_config(std::size_t in, std::size_t hidden, std::size_t steps,
                       std::uint64_t seed) {
  ModelConfig mc;
  mc.kind = ModelKind::kRnn;
  mc.input_dim = in;
  mc.rnn_hidden = hidden;
  mc.rnn_steps = steps;
  mc.classes = 1;
  mc.seed = seed;
  return mc;
}

TEST(Rnn, ForwardShapesAndBackwardRuns) {
  auto rnn = build_plain(rnn_config(16, 8, 4, 62));
  const MatrixF x = random_sequence(6, 4, 16, 510);
  const MatrixF out = rnn.forward(x);
  EXPECT_EQ(out.rows(), 6u);
  EXPECT_EQ(out.cols(), 1u);
  const MatrixF target = random_matrix(6, 1, 520);
  const auto lr_res = compute_loss(LossKind::kMse, out, target);
  rnn.backward(lr_res.grad);
  rnn.update(0.1f);
}

TEST(Rnn, LearnsSimpleTarget) {
  // Learn to regress the mean of the last step's inputs.
  const std::size_t batch = 64, d = 8, steps = 3;
  const MatrixF x = random_sequence(batch, steps, d, 530, 0.0f, 1.0f);
  MatrixF target(batch, 1);
  for (std::size_t r = 0; r < batch; ++r) {
    float mean = 0;
    for (std::size_t c = 0; c < d; ++c) mean += x(r, (steps - 1) * d + c);
    target(r, 0) = mean / static_cast<float>(d);
  }
  auto rnn = build_plain(rnn_config(d, 16, steps, 63));
  float first_loss = 0, last_loss = 0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    last_loss = train_batch(rnn, LossKind::kMse, x, target, 0.05f);
    if (epoch == 0) first_loss = last_loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.7f);
}

TEST(Models, FactoriesProduceExpectedArchitectures) {
  ModelConfig mc;
  mc.kind = ModelKind::kMlp;
  mc.input_dim = 100;
  auto mlp = build_plain(mc);
  EXPECT_EQ(mlp.size(), 5u);  // dense, act, dense, act, dense

  mc.kind = ModelKind::kLinear;
  mc.classes = 1;
  EXPECT_EQ(build_plain(mc).size(), 1u);

  mc.kind = ModelKind::kLogistic;
  EXPECT_EQ(build_plain(mc).size(), 2u);

  mc.kind = ModelKind::kCnn;
  mc.image_h = 12;
  mc.image_w = 12;
  mc.channels = 1;
  mc.input_dim = 144;
  mc.classes = 10;
  auto cnn = build_plain(mc);
  EXPECT_EQ(cnn.size(), 5u);  // conv, act, dense, act, dense

  EXPECT_EQ(build_plain(rnn_config(8, 4, 2, 7)).size(), 1u);  // one RnnLayer
}

}  // namespace
}  // namespace psml::ml
