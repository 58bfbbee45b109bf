// Chaos suite: scripted transport faults driven through the secure
// protocols. Every run must either complete with results identical to a
// clean run (benign faults: delays, duplicates, healed partitions) or fail
// fast with the correct typed error (TimeoutError / NetworkError) — never
// hang, never silently corrupt. The resilient training tests additionally
// require full recovery: rollback to the pre-step snapshot, sequence
// resync, retry, and a final model that matches the plaintext reference.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "data/datasets.hpp"
#include "ml/checkpoint.hpp"
#include "ml/models.hpp"
#include "ml/secure/resilient.hpp"
#include "ml/secure/secure_model.hpp"
#include "mpc/secure_matmul.hpp"
#include "mpc/share.hpp"
#include "net/fault_inject.hpp"
#include "net/local_channel.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> init) {
  return std::vector<std::uint8_t>(init);
}

mpc::PartyOptions cpu_opts() {
  mpc::PartyOptions opts = mpc::PartyOptions::parsecureml();
  opts.use_gpu = false;
  opts.adaptive = false;
  opts.use_pipeline = false;
  return opts;
}

std::pair<mpc::TripletStore, mpc::TripletStore> gen_stores(
    const std::vector<mpc::TripletSpec>& plan, std::uint64_t seed) {
  mpc::TripletDealer dealer(nullptr, {false, false, seed});
  return dealer.generate(plan);
}

// run_parties over caller-provided (fault-injected) channels.
void run_chaos_parties(
    const mpc::PartyOptions& opts, net::ChannelPair chans,
    const std::function<void(mpc::PartyContext&)>& party0,
    const std::function<void(mpc::PartyContext&)>& party1) {
  sgpu::Device* dev = opts.use_gpu ? &sgpu::Device::global() : nullptr;
  mpc::PartyContext ctx0(0, chans.a, dev, opts);
  mpc::PartyContext ctx1(1, chans.b, dev, opts);

  std::exception_ptr err0, err1;
  std::thread t0([&] {
    try {
      party0(ctx0);
    } catch (...) {
      err0 = std::current_exception();
    }
  });
  std::thread t1([&] {
    try {
      party1(ctx1);
    } catch (...) {
      err1 = std::current_exception();
    }
  });
  t0.join();
  t1.join();
  if (err0) std::rethrow_exception(err0);
  if (err1) std::rethrow_exception(err1);
}

TEST(FaultPlan, ParseAndPrintRoundTrip) {
  const std::string spec =
      "delay@0:50;drop@2;flip@3:7;trunc@4:2;dup@5;part@6:3;close@9";
  const net::FaultPlan plan = net::FaultPlan::parse(spec);
  ASSERT_EQ(plan.actions.size(), 7u);
  EXPECT_EQ(plan.actions[0].kind, net::FaultAction::Kind::kDelay);
  EXPECT_EQ(plan.actions[0].index, 0u);
  EXPECT_EQ(plan.actions[0].arg, 50u);
  EXPECT_EQ(plan.actions[1].kind, net::FaultAction::Kind::kDrop);
  EXPECT_FALSE(plan.actions[1].has_arg);
  EXPECT_EQ(plan.actions[6].kind, net::FaultAction::Kind::kClose);
  EXPECT_EQ(plan.to_string(), spec);
  EXPECT_TRUE(net::FaultPlan::parse("").empty());
  EXPECT_TRUE(net::FaultPlan::parse(" ; ; ").empty());
}

TEST(FaultPlan, MalformedSpecThrows) {
  EXPECT_THROW(net::FaultPlan::parse("delay"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("wat@1"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("flip@x"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("drop@1:zz"), InvalidArgument);
}

TEST(ChaosChannel, BenignFaultsPreserveDelivery) {
  // Delay, duplicate, and a healed partition must all be invisible to the
  // application: every message arrives once, in order.
  auto chans = net::FaultInjectChannel::wrap_pair(
      net::LocalChannel::make_pair(),
      net::FaultPlan::parse("delay@0:20;dup@1;part@2:2"), net::FaultPlan{},
      7);
  for (std::uint8_t i = 0; i < 4; ++i) {
    chans.a->send(10u + i, bytes({i}));
  }
  for (std::uint8_t i = 0; i < 4; ++i) {
    const net::Message m = chans.b->recv(10u + i);
    EXPECT_EQ(m.payload, bytes({i}));
  }
  auto* fic = dynamic_cast<net::FaultInjectChannel*>(chans.a.get());
  ASSERT_NE(fic, nullptr);
  EXPECT_EQ(fic->faults_fired(), 3u);
}

TEST(ChaosChannel, BitFlipSurfacesNetworkError) {
  auto chans = net::FaultInjectChannel::wrap_pair(
      net::LocalChannel::make_pair(), net::FaultPlan::parse("flip@0"),
      net::FaultPlan{}, 7);
  chans.a->send(1, bytes({1, 2, 3}));
  EXPECT_THROW(chans.b->recv(1), NetworkError);
}

TEST(ChaosChannel, TruncationSurfacesNetworkError) {
  auto chans = net::FaultInjectChannel::wrap_pair(
      net::LocalChannel::make_pair(), net::FaultPlan::parse("trunc@0:5"),
      net::FaultPlan{}, 7);
  chans.a->send(1, bytes({1, 2, 3}));
  EXPECT_THROW(chans.b->recv(1), NetworkError);
}

TEST(ChaosChannel, DroppedMessageSurfacesTimeout) {
  auto chans = net::FaultInjectChannel::wrap_pair(
      net::LocalChannel::make_pair(), net::FaultPlan::parse("drop@0"),
      net::FaultPlan{}, 7);
  chans.a->send(1, bytes({1}));
  EXPECT_THROW(
      chans.b->recv(1, net::deadline_after(std::chrono::milliseconds(80))),
      TimeoutError);
  // The drop is permanent but the channel is not: later traffic flows.
  chans.a->send(2, bytes({2}));
  EXPECT_EQ(chans.b->recv(2).payload, bytes({2}));
}

TEST(ChaosMatmul, BenignPlanMatchesCleanRun) {
  const std::size_t m = 16, k = 24, n = 12;
  const MatrixF a = random_matrix(m, k, 301);
  const MatrixF b = random_matrix(k, n, 302);
  const auto sa = mpc::share_float(a, 31);
  const auto sb = mpc::share_float(b, 32);

  // Same triplet seed for both runs, so a clean run and a benign-chaos run
  // must produce bit-identical shares. Two sequential matmuls per run: the
  // coalesced E/F exchange sends ONE frame per direction per step, so the
  // two-send partition window (part@0:2) spans both steps and heals when
  // step 2's frame goes out.
  auto run = [&](net::ChannelPair chans, MatrixF& c0, MatrixF& c1,
                 MatrixF& d0, MatrixF& d1) {
    mpc::TripletDealer dealer(nullptr, {false, false, 33});
    auto [t0, t1] = dealer.make_matmul(m, k, n);
    auto [u0, u1] = dealer.make_matmul(m, k, n);
    run_chaos_parties(
        cpu_opts(), std::move(chans),
        [&](mpc::PartyContext& ctx) {
          c0 = mpc::secure_matmul(ctx, sa.s0, sb.s0, t0);
          d0 = mpc::secure_matmul(ctx, sa.s0, sb.s0, u0);
        },
        [&](mpc::PartyContext& ctx) {
          c1 = mpc::secure_matmul(ctx, sa.s1, sb.s1, t1);
          d1 = mpc::secure_matmul(ctx, sa.s1, sb.s1, u1);
        });
  };

  MatrixF clean0, clean1, clean_d0, clean_d1;
  run(net::LocalChannel::make_pair(), clean0, clean1, clean_d0, clean_d1);

  MatrixF chaos0, chaos1, chaos_d0, chaos_d1;
  run(net::FaultInjectChannel::wrap_pair(
          net::LocalChannel::make_pair(),
          net::FaultPlan::parse("delay@0:15;dup@1"),
          net::FaultPlan::parse("part@0:2"), 9),
      chaos0, chaos1, chaos_d0, chaos_d1);

  EXPECT_EQ(tensor::max_abs_diff(clean0, chaos0), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(clean1, chaos1), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(clean_d0, chaos_d0), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(clean_d1, chaos_d1), 0.0f);
  expect_near(mpc::reconstruct_float(chaos0, chaos1), tensor::matmul(a, b),
              1e-2, "chaos matmul");
  expect_near(mpc::reconstruct_float(chaos_d0, chaos_d1),
              tensor::matmul(a, b), 1e-2, "chaos matmul step 2");
}

TEST(ChaosMatmul, CorruptionFailsFastWithTypedError) {
  const std::size_t m = 8, k = 8, n = 8;
  const auto sa = mpc::share_float(random_matrix(m, k, 303), 34);
  const auto sb = mpc::share_float(random_matrix(k, n, 304), 35);
  mpc::TripletDealer dealer(nullptr, {false, false, 36});
  auto [t0, t1] = dealer.make_matmul(m, k, n);

  auto chans = net::FaultInjectChannel::wrap_pair(
      net::LocalChannel::make_pair(), net::FaultPlan::parse("flip@0"),
      net::FaultPlan{}, 11);
  // The party that never sees the corrupt frame must not hang: it times
  // out waiting for its dead peer. TimeoutError is a NetworkError, so both
  // failure shapes satisfy the typed-error contract.
  chans.a->set_default_timeout(std::chrono::milliseconds(400));
  chans.b->set_default_timeout(std::chrono::milliseconds(400));

  EXPECT_THROW(run_chaos_parties(
                   cpu_opts(), std::move(chans),
                   [&](mpc::PartyContext& ctx) {
                     mpc::secure_matmul(ctx, sa.s0, sb.s0, t0);
                   },
                   [&](mpc::PartyContext& ctx) {
                     mpc::secure_matmul(ctx, sa.s1, sb.s1, t1);
                   }),
               NetworkError);
}

TEST(StepRollback, TripletRewindReplaysIdentically) {
  mpc::TripletDealer dealer(nullptr, {false, false, 41});
  auto [st0, st1] = dealer.generate({{mpc::TripletKind::kMatMul, 4, 4, 4},
                                     {mpc::TripletKind::kMatMul, 4, 4, 4},
                                     {mpc::TripletKind::kElementwise, 4, 0, 4}});
  st0.set_retain(true);
  (void)st0.pop_matmul();
  const mpc::TripletStore::Mark mark = st0.mark();
  const mpc::TripletShare first = st0.pop_matmul();
  const mpc::TripletShare elem = st0.pop_elementwise();
  st0.rewind(mark);
  const mpc::TripletShare replay = st0.pop_matmul();
  EXPECT_EQ(tensor::max_abs_diff(first.u, replay.u), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(first.z, replay.z), 0.0f);
  const mpc::TripletShare elem_replay = st0.pop_elementwise();
  EXPECT_EQ(tensor::max_abs_diff(elem.z, elem_replay.z), 0.0f);
  // Retain mode still detects exhaustion instead of wrapping: both deques
  // are fully consumed at this point.
  EXPECT_ANY_THROW(st0.pop_matmul());
  EXPECT_ANY_THROW(st0.pop_elementwise());
}

TEST(StepRollback, ShareSnapshotRestoresParameters) {
  ml::ModelConfig mc;
  mc.kind = ml::ModelKind::kMlp;
  mc.input_dim = 20;
  mc.classes = 10;
  mc.seed = 42;
  auto pair = ml::build_secure_pair(mc);

  std::stringstream snap;
  ml::save_share_snapshot(snap, pair.m0);

  std::vector<MatrixF*> state = pair.m0.collect_state();
  ASSERT_FALSE(state.empty());
  std::vector<MatrixF> before;
  for (MatrixF* p : state) before.push_back(*p);
  for (MatrixF* p : state) {
    for (std::size_t i = 0; i < p->size(); ++i) p->data()[i] += 1.0f;
  }

  ml::load_share_snapshot(snap, pair.m0);
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(*state[i], before[i]), 0.0f);
  }

  // A snapshot from a different architecture is rejected, not applied.
  ml::ModelConfig other = mc;
  other.input_dim = 21;
  auto other_pair = ml::build_secure_pair(other);
  snap.clear();
  snap.seekg(0);
  EXPECT_THROW(ml::load_share_snapshot(snap, other_pair.m0), InvalidArgument);
}

// One resilient secure training step of `mc` on (x, y) with one corrupted
// frame mid-forward: party 1 sees a CRC failure at once, party 0 only
// notices when its recv deadline expires — recovery must bridge that
// asymmetry. The recovered step must match the plaintext reference exactly
// as a clean secure step would (same bound as SecureVsPlain).
void expect_recovery_from_bit_flip(const ml::ModelConfig& mc, const MatrixF& x,
                                   const MatrixF& y, const char* fault_plan) {
  auto plain = ml::build_plain(mc);
  ml::train_batch(plain, ml::LossKind::kMse, x, y, 0.25f);

  auto pair = ml::build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, x.rows(), ml::LossKind::kMse, mc.classes, true);
  auto [st0, st1] = gen_stores(plan, 77);
  auto xs = mpc::share_float(x, 78);
  auto ys = mpc::share_float(y, 79);

  auto chans = net::FaultInjectChannel::wrap_pair(
      net::LocalChannel::make_pair(), net::FaultPlan::parse(fault_plan),
      net::FaultPlan{}, 99);

  ml::RetryPolicy pol;
  pol.max_attempts = 4;
  pol.recv_timeout = std::chrono::milliseconds(500);
  pol.backoff_base_ms = 2.0;
  pol.backoff_max_ms = 20.0;

  ml::ResilientStats s0, s1;
  run_chaos_parties(
      cpu_opts(), std::move(chans),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        ctx.triplets().set_retain(true);
        ml::SecureEnv env{&ctx, true};
        s0 = ml::secure_train_batch_resilient(env, pair.m0, ml::LossKind::kMse,
                                              xs.s0, ys.s0, 0.25f, pol);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        ctx.triplets().set_retain(true);
        ml::SecureEnv env{&ctx, true};
        s1 = ml::secure_train_batch_resilient(env, pair.m1, ml::LossKind::kMse,
                                              xs.s1, ys.s1, 0.25f, pol);
      });

  EXPECT_TRUE(s0.completed);
  EXPECT_TRUE(s1.completed);
  EXPECT_GE(s0.rollbacks, 1);
  EXPECT_GE(s1.rollbacks, 1);

  auto secure_as_plain = ml::reconstruct_plain(mc, pair.m0, pair.m1);
  const std::vector<MatrixF*> want = plain.collect_state();
  const std::vector<MatrixF*> got = secure_as_plain.collect_state();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_near(*got[i], *want[i], 5e-2,
                ("parameter " + std::to_string(i)).c_str());
  }
}

TEST(ResilientTraining, RecoversFromTransientBitFlip) {
  const std::size_t batch = 8;
  const auto ds = data::make_dataset(data::DatasetKind::kMnist,
                                     data::LabelScheme::kOneHot10, batch, 75);
  ml::ModelConfig mc;
  mc.kind = ml::ModelKind::kMlp;
  mc.input_dim = ds.geometry.features();
  mc.classes = 10;
  mc.seed = 76;
  // Send 3 is the first activation's open (after layer 1's E/F pair and
  // the activation's two comparison products; pinned by
  // ChaosPlanPositions.MlpFirstLayerAndActivation in wire_order_test.cpp).
  expect_recovery_from_bit_flip(mc, ds.x, ds.y, "flip@3");
}

TEST(ResilientTraining, RnnRecoversFromTransientBitFlip) {
  ml::ModelConfig mc;
  mc.kind = ml::ModelKind::kRnn;
  mc.input_dim = 6;
  mc.rnn_steps = 3;
  mc.rnn_hidden = 8;
  mc.classes = 1;
  mc.seed = 76;
  const MatrixF x = random_matrix(8, 3 * 6, 75, -0.4f, 0.4f);
  const MatrixF y = random_matrix(8, 1, 76, 0.0f, 1.0f);
  // Send 4 is the first timestep's activation open (after the E/F pairs of
  // x_0 W_x and h_0 W_h and the activation's two comparison products;
  // pinned by ChaosPlanPositions.RnnFirstStepActivation).
  expect_recovery_from_bit_flip(mc, x, y, "flip@4");
}

TEST(ResilientTraining, ExhaustedRetriesRethrowAndRollBack) {
  const std::size_t batch = 4;
  const auto ds = data::make_dataset(data::DatasetKind::kMnist,
                                     data::LabelScheme::kOneHot10, batch, 85);
  ml::ModelConfig mc;
  mc.kind = ml::ModelKind::kMlp;
  mc.input_dim = ds.geometry.features();
  mc.classes = 10;
  mc.seed = 86;

  auto pair = ml::build_secure_pair(mc);
  auto reference = ml::reconstruct_plain(mc, pair.m0, pair.m1);

  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, batch, ml::LossKind::kMse, 10, true);
  auto [st0, st1] = gen_stores(plan, 87);
  auto xs = mpc::share_float(ds.x, 88);
  auto ys = mpc::share_float(ds.y, 89);

  // close@2 (the first activation's second comparison product) kills the
  // transport for good: no amount of retries can succeed, so the policy
  // must give up with the typed error after max_attempts.
  auto chans = net::FaultInjectChannel::wrap_pair(
      net::LocalChannel::make_pair(), net::FaultPlan::parse("close@2"),
      net::FaultPlan{}, 13);

  ml::RetryPolicy pol;
  pol.max_attempts = 2;
  pol.recv_timeout = std::chrono::milliseconds(250);
  pol.backoff_base_ms = 1.0;
  pol.backoff_max_ms = 5.0;

  auto step = [&](mpc::PartyContext& ctx, ml::SecureSequential& model,
                  const MatrixF& x, const MatrixF& y,
                  mpc::TripletStore&& st) {
    ctx.set_triplets(std::move(st));
    ctx.triplets().set_retain(true);
    ml::SecureEnv env{&ctx, true};
    ml::secure_train_batch_resilient(env, model, ml::LossKind::kMse, x, y,
                                     0.25f, pol);
  };

  EXPECT_THROW(run_chaos_parties(
                   cpu_opts(), std::move(chans),
                   [&](mpc::PartyContext& ctx) {
                     step(ctx, pair.m0, xs.s0, ys.s0, std::move(st0));
                   },
                   [&](mpc::PartyContext& ctx) {
                     step(ctx, pair.m1, xs.s1, ys.s1, std::move(st1));
                   }),
               NetworkError);

  // Both parties were left at the pre-step snapshot: the reconstruction is
  // bit-identical to the initial model.
  auto after = ml::reconstruct_plain(mc, pair.m0, pair.m1);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    auto* d0 = dynamic_cast<ml::Dense*>(&reference.layer(i));
    if (d0 == nullptr) continue;
    auto* d1 = dynamic_cast<ml::Dense*>(&after.layer(i));
    ASSERT_NE(d1, nullptr);
    EXPECT_EQ(tensor::max_abs_diff(d0->weights(), d1->weights()), 0.0f);
  }
}

}  // namespace
}  // namespace psml
