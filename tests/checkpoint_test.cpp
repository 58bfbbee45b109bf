// Model checkpoint save/load round trips and mismatch rejection.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ml/checkpoint.hpp"
#include "ml/models.hpp"
#include "test_util.hpp"

namespace psml::ml {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;

ModelConfig mlp_config() {
  ModelConfig mc;
  mc.kind = ModelKind::kMlp;
  mc.input_dim = 40;
  mc.classes = 10;
  mc.seed = 501;
  return mc;
}

TEST(Checkpoint, SequentialRoundTrip) {
  auto model = build_plain(mlp_config());
  // Perturb so we are not just re-reading the deterministic init.
  const MatrixF x = random_matrix(8, 40, 1);
  MatrixF y(8, 10, 0.0f);
  for (int r = 0; r < 8; ++r) y(r, r % 10) = 1.0f;
  train_batch(model, LossKind::kMse, x, y, 0.1f);

  std::stringstream ss;
  save_model(ss, model);

  auto mc2 = mlp_config();
  mc2.seed = 999;  // different init — must be fully overwritten
  auto restored = build_plain(mc2);
  load_model(ss, restored);

  expect_near(restored.forward(x), model.forward(x), 1e-6,
              "restored model forward");
}

TEST(Checkpoint, CnnRoundTrip) {
  ModelConfig mc;
  mc.kind = ModelKind::kCnn;
  mc.image_h = 10;
  mc.image_w = 10;
  mc.channels = 1;
  mc.input_dim = 100;
  mc.classes = 10;
  auto model = build_plain(mc);

  std::stringstream ss;
  save_model(ss, model);
  mc.seed = 77;
  auto restored = build_plain(mc);
  load_model(ss, restored);

  const MatrixF x = random_matrix(4, 100, 2);
  expect_near(restored.forward(x), model.forward(x), 1e-6, "cnn restored");
}

TEST(Checkpoint, RnnRoundTrip) {
  ModelConfig mc;
  mc.kind = ModelKind::kRnn;
  mc.input_dim = 6;
  mc.rnn_hidden = 5;
  mc.classes = 1;
  mc.seed = 503;
  auto model = build_plain(mc);
  std::stringstream ss;
  save_model(ss, model);

  // The layout RNN checkpoints have always had: magic, version 1, one
  // layer tagged 100, then W_x, W_h, W_o.
  const auto& rnn = dynamic_cast<RnnLayer&>(model.layer(0));
  std::string want;
  auto put_u32 = [&](std::uint32_t v) {
    want.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_matrix = [&](const MatrixF& m) {
    put_u32(static_cast<std::uint32_t>(m.rows()));
    put_u32(static_cast<std::uint32_t>(m.cols()));
    want.append(reinterpret_cast<const char*>(m.data()), m.bytes());
  };
  put_u32(0x50534d43);
  put_u32(1);
  put_u32(1);
  put_u32(100);
  put_matrix(rnn.wx());
  put_matrix(rnn.wh());
  put_matrix(rnn.wo());
  EXPECT_EQ(ss.str(), want);

  mc.seed = 999;
  auto restored = build_plain(mc);
  load_model(ss, restored);
  const auto& back = dynamic_cast<RnnLayer&>(restored.layer(0));
  expect_near(back.wx(), rnn.wx(), 0.0, "wx");
  expect_near(back.wh(), rnn.wh(), 0.0, "wh");
  expect_near(back.wo(), rnn.wo(), 0.0, "wo");
}

TEST(Checkpoint, FileRoundTrip) {
  auto model = build_plain(mlp_config());
  const std::string path = "/tmp/psml_ckpt_test.bin";
  save_model(path, model);
  auto mc2 = mlp_config();
  mc2.seed = 31337;
  auto restored = build_plain(mc2);
  load_model(path, restored);
  const MatrixF x = random_matrix(3, 40, 3);
  expect_near(restored.forward(x), model.forward(x), 1e-6, "file round trip");
  std::remove(path.c_str());
}

TEST(Checkpoint, ArchitectureMismatchRejected) {
  auto mlp = build_plain(mlp_config());
  std::stringstream ss;
  save_model(ss, mlp);

  ModelConfig lin;
  lin.kind = ModelKind::kLinear;
  lin.input_dim = 40;
  lin.classes = 1;
  auto linear = build_plain(lin);
  EXPECT_THROW(load_model(ss, linear), InvalidArgument);
}

TEST(Checkpoint, ShapeMismatchRejected) {
  auto model = build_plain(mlp_config());
  std::stringstream ss;
  save_model(ss, model);

  auto mc2 = mlp_config();
  mc2.input_dim = 41;  // same layer kinds, different first-layer shape
  auto other = build_plain(mc2);
  EXPECT_THROW(load_model(ss, other), InvalidArgument);
}

TEST(Checkpoint, GarbageRejected) {
  auto model = build_plain(mlp_config());
  std::stringstream ss("this is not a checkpoint at all");
  EXPECT_THROW(load_model(ss, model), InvalidArgument);
  std::stringstream empty;
  EXPECT_THROW(load_model(empty, model), InvalidArgument);
}

TEST(Checkpoint, TruncatedRejected) {
  auto model = build_plain(mlp_config());
  std::stringstream ss;
  save_model(ss, model);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_THROW(load_model(truncated, model), InvalidArgument);
}

TEST(Checkpoint, MissingFileRejected) {
  // Path-level loads report storage problems as IOError (vs InvalidArgument
  // for architecture mismatches inside an intact file).
  auto model = build_plain(mlp_config());
  EXPECT_THROW(load_model("/nonexistent/psml.bin", model), IOError);
}

TEST(Checkpoint, SecureTrainingResume) {
  // Reconstructed secure model -> checkpoint -> reload -> re-share: the
  // full deployment loop for resuming secure training.
  auto mc = mlp_config();
  auto pair = build_secure_pair(mc);
  auto reconstructed = reconstruct_plain(mc, pair.m0, pair.m1);
  std::stringstream ss;
  save_model(ss, reconstructed);
  auto mc2 = mlp_config();
  mc2.seed = 12345;
  auto reloaded = build_plain(mc2);
  load_model(ss, reloaded);
  const MatrixF x = random_matrix(5, 40, 4);
  expect_near(reloaded.forward(x), reconstructed.forward(x), 1e-6,
              "secure resume chain");
}

}  // namespace
}  // namespace psml::ml
