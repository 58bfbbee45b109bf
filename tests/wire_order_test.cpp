// Wire order. Every channel op of a training step runs on the party's
// training thread in program order — no engine op sends or receives — so
// each party's sent sequence is a pure function of the model, and the two
// parties' sequences mirror each other message for message (party 0
// additionally sends the one-way share refreshes). That holds with the
// pipeline off, with it on, and with compression on. A recording decorator
// on both endpoints pins it, pins the per-step send counts, and pins the
// send positions the positional fault plans of chaos_test.cpp and
// engine_chaos_test.cpp aim at.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "ml/models.hpp"
#include "ml/secure/secure_model.hpp"
#include "mpc/activation.hpp"
#include "mpc/party.hpp"
#include "mpc/share.hpp"
#include "net/local_channel.hpp"
#include "net/serialize.hpp"
#include "test_util.hpp"

namespace psml {
namespace {

using psml::test::random_matrix;

struct Sent {
  net::Tag tag = 0;
  std::size_t bytes = 0;
  bool operator==(const Sent&) const = default;
};

void PrintTo(const Sent& s, std::ostream* os) {
  *os << "{tag 0x" << std::hex << s.tag << std::dec << ", " << s.bytes
      << " B}";
}

// Records the (tag, payload bytes) of every message sent through it.
// Channel::send serializes send_impl calls, and the test reads the record
// only after the party threads have joined.
class RecordingChannel final : public net::Channel {
 public:
  explicit RecordingChannel(std::shared_ptr<net::Channel> inner)
      : inner_(std::move(inner)) {}

  void close() override { inner_->close(); }
  bool send_may_block() const override { return inner_->send_may_block(); }
  const std::vector<Sent>& sent() const { return sent_; }

 protected:
  void send_impl(net::Tag tag, net::WireBuf&& payload) override {
    sent_.push_back({tag, payload.size()});
    inner_->send(tag, std::move(payload));
  }
  net::Message recv_impl(net::Deadline deadline) override {
    return inner_->recv_any(deadline);
  }

 private:
  std::shared_ptr<net::Channel> inner_;
  std::vector<Sent> sent_;
};

net::Tag family(net::Tag tag) { return tag & 0xff000000u; }

// refresh_share's tag block (kControl + 0x200000 + seq, secure_matmul.cpp).
bool is_refresh(net::Tag tag) {
  return tag >= mpc::tags::kControl + 0x200000u &&
         tag < mpc::tags::kControl + 0x300000u;
}

mpc::PartyOptions wire_opts(bool pipeline, bool compression) {
  mpc::PartyOptions o = mpc::PartyOptions::parsecureml();
  o.use_gpu = false;
  o.adaptive = false;
  o.use_pipeline = pipeline;
  o.use_compression = compression;
  o.mask_seed = 0x5eed;
  return o;
}

mpc::PartyOptions serial_opts() { return wire_opts(false, false); }

struct Wire {
  std::vector<Sent> p0, p1;
};

// Runs party 0 and party 1 on their own threads over one recorded pair.
Wire record(const mpc::PartyOptions& opts,
            const std::function<void(mpc::PartyContext&)>& party0,
            const std::function<void(mpc::PartyContext&)>& party1) {
  auto inner = net::LocalChannel::make_pair();
  auto r0 = std::make_shared<RecordingChannel>(inner.a);
  auto r1 = std::make_shared<RecordingChannel>(inner.b);
  {
    mpc::PartyContext ctx0(0, r0, nullptr, opts);
    mpc::PartyContext ctx1(1, r1, nullptr, opts);
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
  return {r0->sent(), r1->sent()};
}

std::pair<mpc::TripletStore, mpc::TripletStore> gen_stores(
    const std::vector<mpc::TripletSpec>& plan) {
  mpc::TripletDealer dealer(nullptr, {false, false, 41});
  return dealer.generate(plan);
}

// One training step through secure_train_batch — the step
// parsecureml::run_training drives for every model.
Wire train_step(ml::ModelKind kind,
                const mpc::PartyOptions& opts = serial_opts()) {
  ml::ModelConfig mc;
  mc.kind = kind;
  mc.seed = 42;
  std::size_t batch = 8;
  mc.input_dim = 20;
  if (kind == ml::ModelKind::kCnn) {
    mc.image_h = mc.image_w = 10;
    mc.input_dim = 100;
    batch = 4;
  } else if (kind == ml::ModelKind::kRnn) {
    mc.input_dim = 6;
    mc.rnn_steps = 2;
    mc.rnn_hidden = 4;
    batch = 6;
  }
  const std::size_t features = kind == ml::ModelKind::kRnn
                                   ? mc.rnn_steps * mc.input_dim
                                   : mc.input_dim;
  mc.classes = kind == ml::ModelKind::kMlp || kind == ml::ModelKind::kCnn
                   ? 10
                   : 1;
  const ml::LossKind loss = ml::loss_for(kind);

  const MatrixF x = random_matrix(batch, features, 43, 0.0f, 1.0f);
  MatrixF y(batch, mc.classes, 0.0f);
  for (std::size_t r = 0; r < batch; ++r) {
    if (loss == ml::LossKind::kHinge) {
      y(r, 0) = r % 2 == 0 ? 1.0f : -1.0f;
    } else {
      y(r, r % mc.classes) = 1.0f;
    }
  }

  auto pair = ml::build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, batch, loss, mc.classes, true);
  auto [st0, st1] = gen_stores(plan);
  const auto xs = mpc::share_float(x, 44);
  const auto ys = mpc::share_float(y, 45);

  auto party = [loss](ml::SecureSequential* model, mpc::TripletStore* st,
                       const MatrixF* xi, const MatrixF* yi) {
    return [=](mpc::PartyContext& ctx) {
      ctx.set_triplets(std::move(*st));
      ml::SecureEnv env{&ctx, true};
      ml::secure_train_batch(env, *model, loss, *xi, *yi, 0.1f);
    };
  };
  return record(opts, party(&pair.m0, &st0, &xs.s0, &ys.s0),
                party(&pair.m1, &st1, &xs.s1, &ys.s1));
}

// The wire-order property for one model in one mode.
void expect_mirrored_and_repeatable(ml::ModelKind kind,
                                    const mpc::PartyOptions& opts) {
  const Wire first = train_step(kind, opts);

  // Party 0's sequence minus its one-way refreshes is party 1's sequence.
  std::vector<Sent> p0_exchanges;
  std::size_t refreshes = 0;
  for (const Sent& s : first.p0) {
    if (is_refresh(s.tag)) {
      ++refreshes;
    } else {
      p0_exchanges.push_back(s);
    }
  }
  EXPECT_GT(refreshes, 0u);
  for (const Sent& s : first.p1) EXPECT_FALSE(is_refresh(s.tag));
  ASSERT_EQ(p0_exchanges.size(), first.p1.size());
  for (std::size_t i = 0; i < first.p1.size(); ++i) {
    EXPECT_EQ(p0_exchanges[i], first.p1[i]) << "message " << i;
  }

  // The schedule is deterministic: a second run sends the identical
  // sequences.
  const Wire second = train_step(kind, opts);
  EXPECT_EQ(second.p0, first.p0);
  EXPECT_EQ(second.p1, first.p1);
}

class SerialWireOrder : public ::testing::TestWithParam<ml::ModelKind> {};
class PipelinedWireOrder : public ::testing::TestWithParam<ml::ModelKind> {};
class CompressedWireOrder : public ::testing::TestWithParam<ml::ModelKind> {
};

TEST_P(SerialWireOrder, PartiesMirrorAndRunsRepeat) {
  expect_mirrored_and_repeatable(GetParam(), wire_opts(false, false));
}

TEST_P(PipelinedWireOrder, PartiesMirrorAndRunsRepeat) {
  expect_mirrored_and_repeatable(GetParam(), wire_opts(true, false));
}

TEST_P(CompressedWireOrder, PartiesMirrorAndRunsRepeat) {
  expect_mirrored_and_repeatable(GetParam(), wire_opts(true, true));
}

const auto kWireModels =
    ::testing::Values(ml::ModelKind::kMlp, ml::ModelKind::kCnn,
                      ml::ModelKind::kLogistic, ml::ModelKind::kSvm,
                      ml::ModelKind::kRnn);
const auto kWireModelName = [](const auto& info) {
  return ml::to_string(info.param);
};

INSTANTIATE_TEST_SUITE_P(Models, SerialWireOrder, kWireModels,
                         kWireModelName);
INSTANTIATE_TEST_SUITE_P(Models, PipelinedWireOrder, kWireModels,
                         kWireModelName);
INSTANTIATE_TEST_SUITE_P(Models, CompressedWireOrder, kWireModels,
                         kWireModelName);

TEST(StepSends, PinnedPerModel) {
  // Messages each party sends in one training step. A dense or conv layer
  // sends its forward E/F pair and its backward F' = dY - V2; an
  // activation opens E = X - U and then both masked products in one frame;
  // party 0 also sends one refresh per parameter gradient. The RNN keeps
  // independent triplets: one E/F pair per product.
  struct Want {
    ml::ModelKind kind;
    std::size_t p0, p1;
  };
  for (const Want& w : {Want{ml::ModelKind::kMlp, 16, 10},
                        Want{ml::ModelKind::kCnn, 15, 10},
                        Want{ml::ModelKind::kLogistic, 6, 4},
                        Want{ml::ModelKind::kSvm, 7, 5},
                        Want{ml::ModelKind::kRnn, 20, 17}}) {
    const Wire wire = train_step(w.kind, wire_opts(true, true));
    EXPECT_EQ(wire.p0.size(), w.p0) << ml::to_string(w.kind);
    EXPECT_EQ(wire.p1.size(), w.p1) << ml::to_string(w.kind);
  }
}

TEST(StepSends, ActivationIsTwoRounds) {
  // One activation: each party sends E = X - U (kExchangeE, b x w) and then
  // C_lo and C_hi together (kOpenMasked, 2 x b x w), nothing else.
  const std::size_t b = 5, w = 7;
  auto [a0, a1] = mpc::TripletDealer(nullptr, {false, false, 46})
                      .make_activation(b, w);
  const auto xs = mpc::share_float(random_matrix(b, w, 47), 48);
  const Wire wire = record(
      wire_opts(true, true),
      [&](mpc::PartyContext& ctx) { mpc::secure_activation(ctx, xs.s0, a0); },
      [&](mpc::PartyContext& ctx) { mpc::secure_activation(ctx, xs.s1, a1); });
  const std::size_t e_bytes = net::encode_matrix(MatrixF(b, w)).size();
  const std::size_t c_bytes = net::encode_matrix(MatrixF(2 * b, w)).size();
  for (const std::vector<Sent>* sent : {&wire.p0, &wire.p1}) {
    ASSERT_EQ(sent->size(), 2u);
    EXPECT_EQ(family((*sent)[0].tag), mpc::tags::kExchangeE);
    EXPECT_EQ((*sent)[0].bytes, e_bytes);
    EXPECT_EQ(family((*sent)[1].tag), mpc::tags::kOpenMasked);
    EXPECT_EQ((*sent)[1].bytes, c_bytes);
  }
}

// Index of party 0's first kOpenMasked send.
std::size_t first_open(const std::vector<Sent>& sent) {
  std::size_t i = 0;
  while (i < sent.size() && family(sent[i].tag) != mpc::tags::kOpenMasked) {
    ++i;
  }
  return i;
}

TEST(ChaosPlanPositions, MlpFirstLayerAndActivation) {
  // chaos_test's resilient-training plans index party 0's sends in a serial
  // MLP step, and engine_chaos_test's plan the same step pipelined (the
  // same sequence, per PipelinedWireOrder). Dense layer 1 sends its forward
  // E/F pair; activation 1 then opens E = X - U and its two masked products.
  for (const bool pipeline : {false, true}) {
    const Wire w = train_step(ml::ModelKind::kMlp, wire_opts(pipeline, false));
    ASSERT_GE(w.p0.size(), 3u);
    // [0]: layer 1's E/F pair, the widest forward message.
    EXPECT_EQ(family(w.p0[0].tag), mpc::tags::kExchangeE);
    EXPECT_GT(w.p0[0].bytes, w.p0[1].bytes);
    // [1]: the activation's E open — engine_chaos_test's flip@1 corrupts it.
    EXPECT_EQ(family(w.p0[1].tag), mpc::tags::kExchangeE);
    // [2]: the activation's paired open of C_lo and C_hi (twice E's
    // payload), the first open of the step — chaos_test's flip@2 corrupts
    // it and close@2 cuts the transport there.
    EXPECT_EQ(family(w.p0[2].tag), mpc::tags::kOpenMasked);
    EXPECT_GT(w.p0[2].bytes, w.p0[1].bytes);
    EXPECT_EQ(first_open(w.p0), 2u);
  }
}

TEST(ChaosPlanPositions, RnnFirstStepActivation) {
  // chaos_test's RNN plan indexes party 0's sends in a serial RNN step.
  // Timestep 0 sends the E/F pairs of x_0 W_x and h_0 W_h, then its
  // activation opens E = X - U and its two masked products.
  const Wire w = train_step(ml::ModelKind::kRnn);
  ASSERT_GE(w.p0.size(), 4u);
  // [0], [1]: the two products' E/F pairs (x_0 is 6 features wide, h_0 4).
  EXPECT_EQ(family(w.p0[0].tag), mpc::tags::kExchangeE);
  EXPECT_EQ(family(w.p0[1].tag), mpc::tags::kExchangeE);
  EXPECT_GT(w.p0[0].bytes, w.p0[1].bytes);
  // [2]: the activation's E open.
  EXPECT_EQ(family(w.p0[2].tag), mpc::tags::kExchangeE);
  // [3]: its paired open, the first open of the step — flip@3's target.
  EXPECT_EQ(family(w.p0[3].tag), mpc::tags::kOpenMasked);
  EXPECT_EQ(first_open(w.p0), 3u);
}

}  // namespace
}  // namespace psml
