// Serial wire order. With the pipeline off, every channel op of a training
// step runs on the party's training thread in program order: the staged
// backward opens run inline at push, during forward. So each party's sent
// sequence is a pure function of the model, and the two parties' sequences
// mirror each other message for message (party 0 additionally sends the
// one-way share refreshes). A recording decorator on both endpoints pins
// that, and pins the send positions the positional fault plans of
// chaos_test.cpp aim at.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "ml/models.hpp"
#include "ml/secure/secure_model.hpp"
#include "ml/secure/secure_rnn.hpp"
#include "mpc/party.hpp"
#include "mpc/share.hpp"
#include "net/local_channel.hpp"
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

mpc::PartyOptions serial_opts() {
  mpc::PartyOptions o = mpc::PartyOptions::parsecureml();
  o.use_gpu = false;
  o.adaptive = false;
  o.use_pipeline = false;
  o.use_compression = false;
  o.mask_seed = 0x5eed;
  return o;
}

struct Wire {
  std::vector<Sent> p0, p1;
};

// Runs party 0 and party 1 on their own threads over one recorded pair.
Wire record(const std::function<void(mpc::PartyContext&)>& party0,
            const std::function<void(mpc::PartyContext&)>& party1) {
  auto inner = net::LocalChannel::make_pair();
  auto r0 = std::make_shared<RecordingChannel>(inner.a);
  auto r1 = std::make_shared<RecordingChannel>(inner.b);
  {
    mpc::PartyContext ctx0(0, r0, nullptr, serial_opts());
    mpc::PartyContext ctx1(1, r1, nullptr, serial_opts());
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

// One training step of a Sequential model (MLP, CNN, logistic, SVM).
Wire sequential_step(ml::ModelKind kind) {
  ml::ModelConfig mc;
  mc.kind = kind;
  mc.seed = 42;
  std::size_t batch = 8;
  if (kind == ml::ModelKind::kCnn) {
    mc.image_h = mc.image_w = 10;
    mc.input_dim = 100;
    batch = 4;
  } else {
    mc.input_dim = 20;
  }
  mc.classes = kind == ml::ModelKind::kMlp || kind == ml::ModelKind::kCnn
                   ? 10
                   : 1;
  const ml::LossKind loss = ml::loss_for(kind);

  const MatrixF x = random_matrix(batch, mc.input_dim, 43, 0.0f, 1.0f);
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
  return record(party(&pair.m0, &st0, &xs.s0, &ys.s0),
                party(&pair.m1, &st1, &xs.s1, &ys.s1));
}

// One training step of the RNN (forward, MSE gradient, backward, update —
// the step parsecureml::run_training drives).
Wire rnn_step() {
  ml::ModelConfig mc;
  mc.kind = ml::ModelKind::kRnn;
  mc.input_dim = 6;
  mc.rnn_hidden = 4;
  mc.rnn_steps = 2;
  mc.classes = 1;
  mc.seed = 46;
  const std::size_t batch = 6;

  auto pair = ml::build_secure_rnn_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  pair.m0->plan(plan, batch, mc.rnn_steps, /*training=*/true);
  auto [st0, st1] = gen_stores(plan);
  std::vector<MatrixF> xs0, xs1;
  for (std::size_t t = 0; t < mc.rnn_steps; ++t) {
    auto s = mpc::share_float(random_matrix(batch, 6, 47 + t), 48);
    xs0.push_back(std::move(s.s0));
    xs1.push_back(std::move(s.s1));
  }
  const auto ys = mpc::share_float(random_matrix(batch, 1, 49), 50);

  auto party = [](ml::SecureRnn* rnn, mpc::TripletStore* st,
                  const std::vector<MatrixF>* xs, const MatrixF* yi) {
    return [=](mpc::PartyContext& ctx) {
      ctx.set_triplets(std::move(*st));
      ml::SecureEnv env{&ctx, true};
      const MatrixF pred = rnn->forward(env, *xs);
      MatrixF grad(pred.rows(), pred.cols());
      const float inv_n = 1.0f / static_cast<float>(pred.rows());
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad.data()[i] = (pred.data()[i] - yi->data()[i]) * inv_n;
      }
      rnn->backward(env, grad);
      rnn->update(0.1f);
    };
  };
  return record(party(pair.m0.get(), &st0, &xs0, &ys.s0),
                party(pair.m1.get(), &st1, &xs1, &ys.s1));
}

Wire train_step(ml::ModelKind kind) {
  return kind == ml::ModelKind::kRnn ? rnn_step() : sequential_step(kind);
}

class SerialWireOrder : public ::testing::TestWithParam<ml::ModelKind> {};

TEST_P(SerialWireOrder, PartiesMirrorAndRunsRepeat) {
  const Wire first = train_step(GetParam());

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

  // The serial schedule is deterministic: a second run sends the identical
  // sequences.
  const Wire second = train_step(GetParam());
  EXPECT_EQ(second.p0, first.p0);
  EXPECT_EQ(second.p1, first.p1);
}

INSTANTIATE_TEST_SUITE_P(
    Models, SerialWireOrder,
    ::testing::Values(ml::ModelKind::kMlp, ml::ModelKind::kCnn,
                      ml::ModelKind::kLogistic, ml::ModelKind::kSvm,
                      ml::ModelKind::kRnn),
    [](const auto& info) { return ml::to_string(info.param); });

TEST(ChaosPlanPositions, MlpFirstLayerAndActivation) {
  // chaos_test's resilient-training plans index party 0's sends in a serial
  // MLP step. Dense layer 1 sends its forward E/F pair and then, inline at
  // push, its staged e_dw and f_dx opens; activation 1 then sends its two
  // comparison products and opens them.
  const Wire w = train_step(ml::ModelKind::kMlp);
  ASSERT_GE(w.p0.size(), 6u);
  // [1], [2]: the staged opens (f_dx is the only forward send on the
  // kExchangeF family).
  EXPECT_EQ(family(w.p0[1].tag), mpc::tags::kExchangeE);
  EXPECT_EQ(family(w.p0[2].tag), mpc::tags::kExchangeF);
  // [3], [4]: the activation's two comparison products (same shapes) —
  // close@4 cuts the transport at the second one.
  EXPECT_EQ(family(w.p0[3].tag), mpc::tags::kExchangeE);
  EXPECT_EQ(family(w.p0[4].tag), mpc::tags::kExchangeE);
  EXPECT_EQ(w.p0[3].bytes, w.p0[4].bytes);
  // [5]: the first open of the step, the activation's — flip@5's target.
  std::size_t first_open = 0;
  while (first_open < w.p0.size() &&
         family(w.p0[first_open].tag) != mpc::tags::kOpenMasked) {
    ++first_open;
  }
  EXPECT_EQ(first_open, 5u);
}

}  // namespace
}  // namespace psml
