// Chaos suite for training with the pipeline on: the party's dependency
// engine schedules the step's device work while every send and recv runs on
// the training thread. These tests pin down that (a) a reconnect-and-resume
// TCP session heals an injected disconnect transparently underneath the
// step, and (b) the resilient retry loop still recovers when a transport
// fault fails a pipelined step — rollback drains the engine, resyncs,
// retries, and the final model matches the plaintext reference.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "data/datasets.hpp"
#include "ml/models.hpp"
#include "ml/secure/resilient.hpp"
#include "ml/secure/secure_model.hpp"
#include "mpc/party.hpp"
#include "mpc/share.hpp"
#include "net/fault_inject.hpp"
#include "net/local_channel.hpp"
#include "net/tcp_channel.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml {
namespace {

using psml::test::expect_near;

mpc::PartyOptions cpu_opts() {
  mpc::PartyOptions opts = mpc::PartyOptions::parsecureml();
  opts.use_gpu = false;
  opts.adaptive = false;
  // The pipelined mode (CPU compute keeps the streams out of the picture).
  opts.use_pipeline = true;
  return opts;
}

std::pair<mpc::TripletStore, mpc::TripletStore> gen_stores(
    const std::vector<mpc::TripletSpec>& plan, std::uint64_t seed) {
  mpc::TripletDealer dealer(nullptr, {false, false, seed});
  return dealer.generate(plan);
}

void expect_matches_plain(const ml::ModelConfig& mc, ml::SecurePair& pair,
                          ml::Sequential& plain) {
  auto secure_as_plain = ml::reconstruct_plain(mc, pair.m0, pair.m1);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    auto* dp = dynamic_cast<ml::Dense*>(&plain.layer(i));
    if (dp == nullptr) continue;
    auto* dsec = dynamic_cast<ml::Dense*>(&secure_as_plain.layer(i));
    ASSERT_NE(dsec, nullptr);
    expect_near(dsec->weights(), dp->weights(), 5e-2,
                ("layer " + std::to_string(i)).c_str());
  }
}

TEST(EngineChaos, TrainingSurvivesInjectedDisconnect) {
  // One pipelined SGD step over a resume-enabled TCP session, with the
  // connection broken at a deterministic protocol point: party 0 injects
  // the disconnect just before its step, while party 1 is already blocked in
  // a mid-protocol recv. The session layer must heal the break without the
  // engine (or the training loop) ever seeing an error, every reconstruct
  // must flow over the resumed session, and the result must match the
  // plaintext reference at the standard share-noise tolerance.
  // (Run-to-run bit-identity is deliberately NOT asserted: refresh_share
  // draws fresh mask randomness per process — see rng.cpp.)
  const std::size_t batch = 8;
  const auto ds = data::make_dataset(data::DatasetKind::kMnist,
                                     data::LabelScheme::kOneHot10, batch, 55);
  ml::ModelConfig mc;
  mc.kind = ml::ModelKind::kMlp;
  mc.input_dim = ds.geometry.features();
  mc.classes = 10;
  mc.seed = 56;

  auto plain = ml::build_plain(mc);
  ml::train_batch(plain, ml::LossKind::kMse, ds.x, ds.y, 0.25f);

  auto pair = ml::build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, batch, ml::LossKind::kMse, 10, true);
  auto [st0, st1] = gen_stores(plan, 57);
  auto xs = mpc::share_float(ds.x, 58);
  auto ys = mpc::share_float(ds.y, 59);

  const std::uint16_t port = 39271;
  net::TcpOptions topts;
  topts.resume = true;
  topts.backoff_base_ms = 5.0;
  topts.backoff_max_ms = 100.0;
  std::shared_ptr<net::Channel> server_ch;
  std::thread listener(
      [&] { server_ch = net::TcpChannel::listen(port, topts); });
  std::shared_ptr<net::Channel> client_ch =
      net::TcpChannel::connect("127.0.0.1", port, topts);
  listener.join();
  auto* tcp_client = dynamic_cast<net::TcpChannel*>(client_ch.get());
  ASSERT_NE(tcp_client, nullptr);

  const auto opts = cpu_opts();
  mpc::PartyContext ctx0(0, client_ch, nullptr, opts);
  mpc::PartyContext ctx1(1, server_ch, nullptr, opts);
  ctx0.set_triplets(std::move(st0));
  ctx1.set_triplets(std::move(st1));

  std::exception_ptr err0, err1;
  std::thread t0([&] {
    try {
      // Give party 1 time to start its step and block in the first recv,
      // then cut the connection out from under it. Everything this party
      // subsequently sends redials; everything party 1 has pending resumes.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      tcp_client->inject_disconnect();
      ml::SecureEnv env{&ctx0, true};
      ml::secure_train_batch(env, pair.m0, ml::LossKind::kMse, xs.s0, ys.s0,
                             0.25f);
    } catch (...) {
      err0 = std::current_exception();
    }
  });
  std::thread t1([&] {
    try {
      ml::SecureEnv env{&ctx1, true};
      ml::secure_train_batch(env, pair.m1, ml::LossKind::kMse, xs.s1, ys.s1,
                             0.25f);
    } catch (...) {
      err1 = std::current_exception();
    }
  });
  t0.join();
  t1.join();
  if (err0) std::rethrow_exception(err0);
  if (err1) std::rethrow_exception(err1);

  EXPECT_GE(tcp_client->reconnect_count(), 1);
  expect_matches_plain(mc, pair, plain);
}

TEST(EngineChaos, ResilientTrainingRecoversWithEngineScheduling) {
  // Mirror of ResilientTraining.RecoversFromTransientBitFlip with the
  // pipeline on: the corrupted frame fails the first activation's first
  // comparison product, the retry loop drains the engine, rolls back,
  // resyncs, and the retried step matches plaintext.
  const std::size_t batch = 8;
  const auto ds = data::make_dataset(data::DatasetKind::kMnist,
                                     data::LabelScheme::kOneHot10, batch, 65);
  ml::ModelConfig mc;
  mc.kind = ml::ModelKind::kMlp;
  mc.input_dim = ds.geometry.features();
  mc.classes = 10;
  mc.seed = 66;

  auto plain = ml::build_plain(mc);
  ml::train_batch(plain, ml::LossKind::kMse, ds.x, ds.y, 0.25f);

  auto pair = ml::build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, batch, ml::LossKind::kMse, 10, true);
  auto [st0, st1] = gen_stores(plan, 67);
  auto xs = mpc::share_float(ds.x, 68);
  auto ys = mpc::share_float(ds.y, 69);

  // Send 1 is that comparison product (after layer 1's E/F pair; pinned by
  // ChaosPlanPositions.MlpFirstLayerAndActivation in wire_order_test.cpp).
  auto chans = net::FaultInjectChannel::wrap_pair(
      net::LocalChannel::make_pair(), net::FaultPlan::parse("flip@1"),
      net::FaultPlan{}, 71);

  ml::RetryPolicy pol;
  pol.max_attempts = 4;
  pol.recv_timeout = std::chrono::milliseconds(500);
  pol.backoff_base_ms = 2.0;
  pol.backoff_max_ms = 20.0;

  const auto opts = cpu_opts();
  mpc::PartyContext ctx0(0, chans.a, nullptr, opts);
  mpc::PartyContext ctx1(1, chans.b, nullptr, opts);

  ml::ResilientStats s0, s1;
  auto party = [&](mpc::PartyContext& ctx, ml::SecureSequential& model,
                   const MatrixF& x, const MatrixF& y, mpc::TripletStore&& st,
                   ml::ResilientStats& out) {
    ctx.set_triplets(std::move(st));
    ctx.triplets().set_retain(true);
    ml::SecureEnv env{&ctx, true};
    out = ml::secure_train_batch_resilient(env, model, ml::LossKind::kMse, x,
                                           y, 0.25f, pol);
  };
  std::exception_ptr err0, err1;
  std::thread t0([&] {
    try {
      party(ctx0, pair.m0, xs.s0, ys.s0, std::move(st0), s0);
    } catch (...) {
      err0 = std::current_exception();
    }
  });
  std::thread t1([&] {
    try {
      party(ctx1, pair.m1, xs.s1, ys.s1, std::move(st1), s1);
    } catch (...) {
      err1 = std::current_exception();
    }
  });
  t0.join();
  t1.join();
  if (err0) std::rethrow_exception(err0);
  if (err1) std::rethrow_exception(err1);

  EXPECT_TRUE(s0.completed);
  EXPECT_TRUE(s1.completed);
  EXPECT_GE(s0.rollbacks + s1.rollbacks, 1);

  expect_matches_plain(mc, pair, plain);
}

}  // namespace
}  // namespace psml
