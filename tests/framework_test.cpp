// End-to-end framework tests: run_training / run_inference across modes and
// models, phase accounting, compression stats, and accuracy.
#include <gtest/gtest.h>

#include "common/durable_io.hpp"
#include "mpc/triplet_io.hpp"
#include "parsecureml/framework.hpp"
#include "parsecureml/store_transfer.hpp"
#include "net/local_channel.hpp"

#include <cstdio>
#include <fstream>
#include <thread>

namespace psml::parsecureml {
namespace {

RunConfig small_config(ml::ModelKind model, Mode mode) {
  RunConfig cfg;
  cfg.model = model;
  cfg.dataset = data::DatasetKind::kMnist;
  cfg.samples = 32;
  cfg.batch = 16;
  cfg.epochs = 1;
  cfg.lr = 0.2f;
  cfg.mode = mode;
  cfg.seed = 1234;
  return cfg;
}

class AllModelsSecure : public ::testing::TestWithParam<ml::ModelKind> {};

TEST_P(AllModelsSecure, ParSecureMLTrainingRuns) {
  RunConfig cfg = small_config(GetParam(), Mode::kParSecureML);
  if (GetParam() == ml::ModelKind::kRnn) {
    cfg.dataset = data::DatasetKind::kSynthetic;
  }
  const RunResult r = run_training(cfg);
  EXPECT_GT(r.online_sec, 0.0);
  EXPECT_GT(r.offline_generate_sec, 0.0);
  EXPECT_GT(r.total_sec, r.online_sec);
  EXPECT_GT(r.server_to_server_bytes, 0u);
  EXPECT_GT(r.offline_bytes, 0u);
  EXPECT_GT(r.online_phases.count("online.communicate"), 0u);
  EXPECT_GT(r.online_phases.count("online.compute2"), 0u);
}

TEST_P(AllModelsSecure, SecureMLBaselineTrainingRuns) {
  RunConfig cfg = small_config(GetParam(), Mode::kSecureML);
  if (GetParam() == ml::ModelKind::kRnn) {
    cfg.dataset = data::DatasetKind::kSynthetic;
  }
  const RunResult r = run_training(cfg);
  EXPECT_GT(r.online_sec, 0.0);
  EXPECT_EQ(r.compression.compressed_messages, 0u);  // disabled in baseline
}

INSTANTIATE_TEST_SUITE_P(
    Models, AllModelsSecure,
    ::testing::Values(ml::ModelKind::kMlp, ml::ModelKind::kCnn,
                      ml::ModelKind::kLinear, ml::ModelKind::kLogistic,
                      ml::ModelKind::kSvm, ml::ModelKind::kRnn),
    [](const auto& info) { return ml::to_string(info.param); });

TEST(Framework, PlainModesRun) {
  for (const Mode mode : {Mode::kPlainCpu, Mode::kPlainGpu}) {
    const RunResult r =
        run_training(small_config(ml::ModelKind::kLogistic, mode));
    EXPECT_GT(r.online_sec, 0.0) << to_string(mode);
    EXPECT_EQ(r.server_to_server_bytes, 0u) << to_string(mode);
  }
}

TEST(Framework, SecureTrainingLearns) {
  RunConfig cfg = small_config(ml::ModelKind::kLogistic, Mode::kParSecureML);
  cfg.samples = 64;
  cfg.batch = 64;
  cfg.epochs = 25;
  cfg.lr = 0.05f;
  const RunResult r = run_training(cfg);
  // Threshold leaves headroom for the (intentionally random) refresh-mask
  // noise; typical runs land well above 0.85.
  EXPECT_GT(r.accuracy, 0.75) << "secure logistic regression must learn";
}

TEST(Framework, SecureMatchesPlainAccuracyApproximately) {
  RunConfig cfg = small_config(ml::ModelKind::kLinear, Mode::kParSecureML);
  cfg.samples = 64;
  cfg.batch = 64;
  cfg.epochs = 8;
  cfg.lr = 0.02f;
  const RunResult secure = run_training(cfg);
  cfg.mode = Mode::kPlainCpu;
  const RunResult plain = run_training(cfg);
  EXPECT_NEAR(secure.accuracy, plain.accuracy, 0.15);
}

TEST(Framework, InferenceRunsAndScores) {
  RunConfig cfg = small_config(ml::ModelKind::kMlp, Mode::kParSecureML);
  const RunResult r = run_inference(cfg);
  EXPECT_GT(r.online_sec, 0.0);
  EXPECT_GE(r.accuracy, 0.0);
  EXPECT_LE(r.accuracy, 1.0);
}

TEST(Framework, InferenceCheaperThanTraining) {
  RunConfig cfg = small_config(ml::ModelKind::kMlp, Mode::kParSecureML);
  cfg.evaluate = false;
  const RunResult train = run_training(cfg);
  const RunResult infer = run_inference(cfg);
  EXPECT_LT(infer.server_to_server_bytes, train.server_to_server_bytes);
  EXPECT_LT(infer.offline_bytes, train.offline_bytes);
}

TEST(Framework, CustomModeAblation) {
  RunConfig cfg = small_config(ml::ModelKind::kMlp, Mode::kCustom);
  cfg.custom_opts = mpc::PartyOptions::parsecureml();
  cfg.custom_opts.use_compression = false;
  const RunResult without = run_training(cfg);
  EXPECT_EQ(without.compression.compressed_messages, 0u);

  cfg.custom_opts.use_compression = true;
  cfg.epochs = 3;  // deltas need history to compress
  const RunResult with = run_training(cfg);
  EXPECT_GE(with.compression.messages, 1u);
}

TEST(Framework, MultiEpochCompressionSavesBytes) {
  RunConfig cfg = small_config(ml::ModelKind::kLinear, Mode::kCustom);
  cfg.samples = 32;
  cfg.batch = 32;
  cfg.epochs = 6;
  cfg.evaluate = false;
  cfg.custom_opts = mpc::PartyOptions::parsecureml();
  cfg.custom_opts.use_gpu = false;
  cfg.custom_opts.adaptive = false;

  cfg.custom_opts.use_compression = true;
  const RunResult with = run_training(cfg);
  cfg.custom_opts.use_compression = false;
  const RunResult without = run_training(cfg);
  // The X operand repeats every epoch (same batch), so E-deltas are zero and
  // compressed traffic must be clearly smaller.
  EXPECT_LT(with.server_to_server_bytes, without.server_to_server_bytes);
  EXPECT_GT(with.compression.savings(), 0.05);
}

TEST(Framework, OfflinePhaseBreakdownPopulated) {
  const RunResult r =
      run_training(small_config(ml::ModelKind::kMlp, Mode::kParSecureML));
  EXPECT_GT(r.offline_generate_sec, 0.0);
  EXPECT_GT(r.offline_transmit_sec, 0.0);
  // Sanity: offline phases are part of total.
  EXPECT_LE(r.offline_generate_sec + r.offline_transmit_sec + r.online_sec,
            r.total_sec * 1.01);
}

TEST(StoreTransfer, RoundTripsAllKinds) {
  // One entry of every kind comes back bit-identical through the
  // client-to-server transfer and through the durable store file.
  mpc::TripletDealer dealer(nullptr, {false, false, 1010});
  auto [st0, st1] = dealer.generate({{mpc::TripletKind::kMatMul, 4, 6, 5},
                                     {mpc::TripletKind::kElementwise, 3, 0, 7},
                                     {mpc::TripletKind::kActivation, 2, 0, 9},
                                     {mpc::TripletKind::kLayer, 3, 4, 2}});
  auto chans = net::LocalChannel::make_pair();
  std::thread sender([&] { send_store(*chans.a, st0); });
  mpc::TripletStore received = recv_store(*chans.b);
  sender.join();
  ASSERT_EQ(received.matmul_size(), 1u);
  ASSERT_EQ(received.elementwise_size(), 1u);
  ASSERT_EQ(received.activation_size(), 1u);
  ASSERT_EQ(received.layer_size(), 1u);
  EXPECT_TRUE(mpc::encode_store(received) == mpc::encode_store(st0));
  const auto a = received.pop_activation();
  const auto& want = st0.activations()[0];
  EXPECT_TRUE(a.u == want.u && a.s_lo == want.s_lo && a.s_hi == want.s_hi &&
              a.z_lo == want.z_lo && a.z_hi == want.z_hi);

  const std::string path = "/tmp/psml_store_transfer_kinds.psmd";
  mpc::save_store(path, st0);
  EXPECT_TRUE(mpc::encode_store(mpc::load_store(path)) ==
              mpc::encode_store(st0));
  durable::remove_file(path);

  // bytes() is the sum of every matrix, each kind's members listed here
  // independently of the store's own matrix lists.
  std::size_t sum = 0;
  const auto& t = st0.matmuls()[0];
  sum += t.u.bytes() + t.v.bytes() + t.z.bytes();
  const auto& e = st0.elementwises()[0];
  sum += e.u.bytes() + e.v.bytes() + e.z.bytes();
  sum += want.u.bytes() + want.s_lo.bytes() + want.s_hi.bytes() +
         want.z_lo.bytes() + want.z_hi.bytes();
  const auto& l = st0.layers()[0];
  sum += l.u.bytes() + l.v.bytes() + l.z.bytes() + l.v2.bytes() +
         l.z_dw.bytes() + l.z_dx.bytes();
  EXPECT_EQ(st0.bytes(), sum);
}

TEST(Framework, MiniBatchSecureMatchesPlain) {
  // Multiple batches per epoch: the secure schedule (per-batch stream salts,
  // per-batch triplets, recycled across epochs) must track plaintext SGD.
  RunConfig cfg = small_config(ml::ModelKind::kLogistic, Mode::kParSecureML);
  cfg.samples = 48;
  cfg.batch = 16;  // 3 batches per epoch
  cfg.epochs = 6;
  cfg.lr = 0.05f;
  const RunResult secure = run_training(cfg);
  cfg.mode = Mode::kPlainCpu;
  const RunResult plain = run_training(cfg);
  EXPECT_NEAR(secure.accuracy, plain.accuracy, 0.15);
}

TEST(Framework, CheckpointPathWritesModel) {
  RunConfig cfg = small_config(ml::ModelKind::kLinear, Mode::kParSecureML);
  cfg.checkpoint_path = "/tmp/psml_framework_ckpt.bin";
  const RunResult r = run_training(cfg);
  (void)r;
  std::ifstream is(cfg.checkpoint_path, std::ios::binary);
  EXPECT_TRUE(is.good());
  is.close();
  std::remove(cfg.checkpoint_path.c_str());
}

TEST(Framework, InvalidConfigsRejected) {
  RunConfig cfg = small_config(ml::ModelKind::kMlp, Mode::kParSecureML);
  cfg.samples = 0;
  EXPECT_THROW(run_training(cfg), InvalidArgument);
  cfg = small_config(ml::ModelKind::kMlp, Mode::kParSecureML);
  cfg.batch = 0;
  EXPECT_THROW(run_training(cfg), InvalidArgument);
  cfg = small_config(ml::ModelKind::kMlp, Mode::kParSecureML);
  cfg.epochs = 0;
  EXPECT_THROW(run_inference(cfg), InvalidArgument);
  cfg = small_config(ml::ModelKind::kMlp, Mode::kParSecureML);
  cfg.lr = -1.0f;
  EXPECT_THROW(run_training(cfg), InvalidArgument);
  cfg = small_config(ml::ModelKind::kRnn, Mode::kParSecureML);
  cfg.dataset = data::DatasetKind::kSynthetic;
  cfg.rnn_steps = 7;  // 2048 features not divisible by 7
  EXPECT_THROW(run_training(cfg), InvalidArgument);
}

TEST(Framework, ModeNames) {
  EXPECT_EQ(to_string(Mode::kParSecureML), "ParSecureML");
  EXPECT_EQ(to_string(Mode::kSecureML), "SecureML");
}

}  // namespace
}  // namespace psml::parsecureml
