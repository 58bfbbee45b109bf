#include "parsecureml/framework.hpp"

#include <cmath>
#include <thread>
#include <tuple>

#include "common/env.hpp"
#include "common/taint.hpp"
#include "common/timer.hpp"
#include "mpc/triplet_factory.hpp"
#include "ml/checkpoint.hpp"
#include "net/local_channel.hpp"
#include "parsecureml/store_transfer.hpp"
#include "profile/adaptive.hpp"
#include "profile/profiler.hpp"
#include "tensor/ops.hpp"

namespace psml::parsecureml {

std::string to_string(Mode mode) {
  switch (mode) {
    case Mode::kPlainCpu: return "plain-cpu";
    case Mode::kPlainGpu: return "plain-gpu";
    case Mode::kSecureML: return "SecureML";
    case Mode::kParSecureML: return "ParSecureML";
    case Mode::kCustom: return "custom";
  }
  return "?";
}

mpc::PartyOptions options_for_mode(Mode mode) {
  switch (mode) {
    case Mode::kSecureML:
      return mpc::PartyOptions::secureml_baseline();
    case Mode::kParSecureML:
      return mpc::PartyOptions::parsecureml();
    default:
      return mpc::PartyOptions::parsecureml();
  }
}

data::LabelScheme scheme_for_model(ml::ModelKind kind) {
  switch (kind) {
    case ml::ModelKind::kCnn:
    case ml::ModelKind::kMlp:
      return data::LabelScheme::kOneHot10;
    case ml::ModelKind::kSvm:
      return data::LabelScheme::kBinaryPm1;
    default:
      return data::LabelScheme::kBinary01;
  }
}

ml::ModelConfig model_config_for(const RunConfig& cfg,
                                 const data::Geometry& geometry) {
  ml::ModelConfig mc;
  mc.kind = cfg.model;
  mc.seed = cfg.seed;
  mc.classes = scheme_for_model(cfg.model) == data::LabelScheme::kOneHot10
                   ? 10
                   : 1;
  if (cfg.model == ml::ModelKind::kCnn) {
    mc.image_h = geometry.h;
    mc.image_w = geometry.w;
    mc.channels = geometry.c;
    mc.input_dim = geometry.features();
  } else if (cfg.model == ml::ModelKind::kRnn) {
    PSML_REQUIRE(geometry.features() % cfg.rnn_steps == 0,
                 "RNN: features not divisible by steps");
    mc.rnn_steps = cfg.rnn_steps;
    mc.input_dim = geometry.features() / cfg.rnn_steps;
    mc.rnn_hidden = 32;
  } else {
    mc.input_dim = geometry.features();
  }
  return mc;
}

namespace {

std::size_t batch_count(const RunConfig& cfg) {
  const std::size_t b = std::min(cfg.batch, cfg.samples);
  return std::max<std::size_t>(1, cfg.samples / b);
}

std::size_t effective_batch(const RunConfig& cfg) {
  return std::min(cfg.batch, cfg.samples);
}

// ---- plain (non-secure) runs ------------------------------------------------

ml::Engine engine_for_mode(Mode mode) {
  return mode == Mode::kPlainGpu ? ml::Engine::kGpu : ml::Engine::kCpuNaive;
}

RunResult run_plain(const RunConfig& cfg, bool training) {
  RunResult result;
  const auto scheme = scheme_for_model(cfg.model);
  auto ds = data::make_dataset(cfg.dataset, scheme, cfg.samples, cfg.seed);
  auto mc = model_config_for(cfg, ds.geometry);
  mc.engine = engine_for_mode(cfg.mode);

  const std::size_t batch = effective_batch(cfg);
  const std::size_t n_batches = batch_count(cfg);
  Timer total;

  if (cfg.model == ml::ModelKind::kRnn) {
    auto model = ml::build_plain_rnn(mc);
    Timer online;
    for (std::size_t e = 0; e < cfg.epochs; ++e) {
      for (std::size_t b = 0; b < n_batches; ++b) {
        const MatrixF xb = data::slice_rows(ds.x, b * batch, batch);
        const MatrixF yb = data::slice_rows(ds.y, b * batch, batch);
        const auto xs = data::sequence_view(xb, cfg.rnn_steps);
        const MatrixF pred = training ? model.forward(xs) : model.forward(xs);
        if (training) {
          const auto loss = ml::compute_loss(ml::LossKind::kMse, pred, yb);
          model.backward(loss.grad);
          model.update(cfg.lr);
        }
      }
    }
    result.online_sec = online.seconds();
    if (cfg.evaluate) {
      const auto xs = data::sequence_view(ds.x, cfg.rnn_steps);
      result.accuracy = ml::accuracy(model.forward(xs), ds.y);
    }
    if (training && !cfg.checkpoint_path.empty()) {
      ml::save_model(cfg.checkpoint_path, model);
    }
  } else {
    auto model = ml::build_plain(mc);
    const auto loss_kind = ml::loss_for(cfg.model);
    Timer online;
    for (std::size_t e = 0; e < cfg.epochs; ++e) {
      for (std::size_t b = 0; b < n_batches; ++b) {
        const MatrixF xb = data::slice_rows(ds.x, b * batch, batch);
        const MatrixF yb = data::slice_rows(ds.y, b * batch, batch);
        if (training) {
          ml::train_batch(model, loss_kind, xb, yb, cfg.lr);
        } else {
          (void)model.forward(xb);
        }
      }
    }
    result.online_sec = online.seconds();
    if (cfg.evaluate) {
      result.accuracy = ml::accuracy(model.forward(ds.x), ds.y);
    }
    if (training && !cfg.checkpoint_path.empty()) {
      ml::save_model(cfg.checkpoint_path, model);
    }
  }
  result.total_sec = total.seconds();
  return result;
}

// ---- secure runs --------------------------------------------------------------

struct SecureHarness {
  net::ChannelPair s0s1;  // server <-> server
  net::ChannelPair cs0;   // client <-> server0
  net::ChannelPair cs1;   // client <-> server1

  SecureHarness() {
    s0s1 = net::LocalChannel::make_pair();
    cs0 = net::LocalChannel::make_pair();
    cs1 = net::LocalChannel::make_pair();
  }
};

// Runs f0/f1 on two threads, rethrowing the first exception.
void run_two_parties(const std::function<void()>& f0,
                     const std::function<void()>& f1) {
  std::exception_ptr err0, err1;
  std::thread t0([&] {
    try {
      f0();
    } catch (...) {
      err0 = std::current_exception();
    }
  });
  std::thread t1([&] {
    try {
      f1();
    } catch (...) {
      err1 = std::current_exception();
    }
  });
  t0.join();
  t1.join();
  if (err0) std::rethrow_exception(err0);
  if (err1) std::rethrow_exception(err1);
}

RunResult run_secure(const RunConfig& cfg, bool training) {
  RunResult result;
  const mpc::PartyOptions opts = cfg.mode == Mode::kCustom
                                     ? cfg.custom_opts
                                     : options_for_mode(cfg.mode);
  sgpu::Device* device = opts.use_gpu ? &sgpu::Device::global() : nullptr;
  if (opts.adaptive) {
    // Calibrate the dispatcher outside the timed region (one-time profiling
    // run, Sec. 4.2).
    (void)profile::AdaptiveDispatch::global();
  }

  const auto scheme = scheme_for_model(cfg.model);
  auto ds = data::make_dataset(cfg.dataset, scheme, cfg.samples, cfg.seed);
  const auto mc = model_config_for(cfg, ds.geometry);
  const std::size_t batch = effective_batch(cfg);
  const std::size_t n_batches = batch_count(cfg);
  const auto loss_kind = ml::loss_for(cfg.model);

  Timer total;
  auto& prof = profile::Profiler::global();
  prof.reset();

  // ---- offline phase: dealer generates triplets and shares the data ----
  mpc::DealerOptions dopts;
  dopts.use_gpu = opts.use_gpu;
  // naive_cpu is the no-GPU SecureML baseline engine; in GPU mode the
  // small-shape fallback is the packed engine, and the dealer ctor rejects
  // use_gpu + naive_cpu as contradictory.
  dopts.naive_cpu = !opts.use_gpu && !opts.cpu_parallel;
  dopts.seed = cfg.seed ^ 0xD5A1;

  const bool is_rnn = cfg.model == ml::ModelKind::kRnn;
  ml::SecurePair pair;
  ml::SecureRnnPair rnn_pair;
  std::vector<mpc::TripletSpec> plan;
  // One epoch's worth of triplets; epochs recycle them so the masks U/V of
  // each (layer, operand) stay fixed across epochs — the precondition of the
  // Eq. 11-12 delta compression (see TripletStore::set_recycle).
  if (is_rnn) {
    rnn_pair = ml::build_secure_rnn_pair(mc);
    for (std::size_t i = 0; i < n_batches; ++i) {
      rnn_pair.m0->plan(plan, batch, cfg.rnn_steps, training);
    }
  } else {
    pair = ml::build_secure_pair(mc);
    plan = ml::epoch_plan(pair.m0, n_batches, batch, loss_kind,
                          mc.output_dim(), training);
  }

  const bool use_factory =
      cfg.use_triplet_factory || env_bool("PSML_TRIPLET_FACTORY", false);
  mpc::TripletStore st0, st1;
  Timer gen_timer;
  if (use_factory) {
    // Pooled offline phase: announce the whole plan, then drain it. On a
    // warm pool this is pure deque moves; the background factory absorbs
    // the Z = U x V cost off the run's critical path.
    mpc::TripletFactory& factory = mpc::TripletFactory::global();
    factory.reserve(plan);
    factory.fill_stores(plan, st0, st1);
  } else {
    mpc::TripletDealer dealer(device, dopts);
    std::tie(st0, st1) = dealer.generate(plan);
  }
  auto x_shares = mpc::share_float(ds.x, cfg.seed ^ 0x11);
  auto y_shares = mpc::share_float(ds.y, cfg.seed ^ 0x22);
  result.offline_generate_sec = gen_timer.seconds();
  result.offline_bytes = st0.bytes() + x_shares.s0.bytes() + y_shares.s0.bytes();

  // ---- offline transmit: client -> servers over the channels ----
  SecureHarness harness;
  mpc::TripletStore recv_st0, recv_st1;
  MatrixF x0, x1, y0, y1;
  Timer tx_timer;
  {
    std::thread c([&] {
      // declassify(): the client hands each server its own additive share of
      // the inputs/labels — the single party entitled to those words (same
      // dealer-to-owner handoff as store_transfer.cpp).
      send_store(*harness.cs0.a, st0);
      net::send_matrix(*harness.cs0.a, mpc::tags::kClientData,
                       psml::declassify(x_shares.s0));
      net::send_matrix(*harness.cs0.a, mpc::tags::kClientData + 1,
                       psml::declassify(y_shares.s0));
      send_store(*harness.cs1.a, st1);
      net::send_matrix(*harness.cs1.a, mpc::tags::kClientData,
                       psml::declassify(x_shares.s1));
      net::send_matrix(*harness.cs1.a, mpc::tags::kClientData + 1,
                       psml::declassify(y_shares.s1));
    });
    run_two_parties(
        [&] {
          recv_st0 = recv_store(*harness.cs0.b);
          x0 = net::recv_matrix_f32(*harness.cs0.b, mpc::tags::kClientData);
          y0 = net::recv_matrix_f32(*harness.cs0.b,
                                    mpc::tags::kClientData + 1);
        },
        [&] {
          recv_st1 = recv_store(*harness.cs1.b);
          x1 = net::recv_matrix_f32(*harness.cs1.b, mpc::tags::kClientData);
          y1 = net::recv_matrix_f32(*harness.cs1.b,
                                    mpc::tags::kClientData + 1);
        });
    c.join();
  }
  result.offline_transmit_sec = tx_timer.seconds();

  // ---- online phase: the two servers train / infer on shares ----
  mpc::PartyContext ctx0(0, harness.s0s1.a, device, opts);
  mpc::PartyContext ctx1(1, harness.s0s1.b, device, opts);
  recv_st0.set_recycle(true);
  recv_st1.set_recycle(true);
  ctx0.set_triplets(std::move(recv_st0));
  ctx1.set_triplets(std::move(recv_st1));

  // Per-server reconstructed predictions (inference runs only).
  std::vector<MatrixF> preds0, preds1;

  auto server_loop = [&](int id) {
    mpc::PartyContext& ctx = id == 0 ? ctx0 : ctx1;
    const MatrixF& x = id == 0 ? x0 : x1;
    const MatrixF& y = id == 0 ? y0 : y1;
    auto& model = id == 0 ? pair.m0 : pair.m1;
    auto& rnn = id == 0 ? rnn_pair.m0 : rnn_pair.m1;
    auto& preds = id == 0 ? preds0 : preds1;

    // The layer loop emits its op graphs into the party's dependency
    // engine; secure_train_batch barriers it every step, and the final
    // wait_all below covers inference-only runs.
    ml::SecureEnv env{&ctx, training};

    for (std::size_t e = 0; e < cfg.epochs; ++e) {
      for (std::size_t b = 0; b < n_batches; ++b) {
        ctx.set_stream_salt(b);  // per-batch-slot compression baselines
        const MatrixF xb = data::slice_rows(x, b * batch, batch);
        const MatrixF yb = data::slice_rows(y, b * batch, batch);
        if (is_rnn) {
          const auto xs = data::sequence_view(xb, cfg.rnn_steps);
          MatrixF pred = rnn->forward(env, xs);
          if (training) {
            MatrixF grad(pred.rows(), pred.cols());
            const float inv_n = 1.0f / static_cast<float>(pred.rows());
            for (std::size_t i = 0; i < grad.size(); ++i) {
              grad.data()[i] = (pred.data()[i] - yb.data()[i]) * inv_n;
            }
            rnn->backward(env, grad);
            rnn->update(cfg.lr);
          } else {
            preds.push_back(std::move(pred));
          }
        } else if (training) {
          ml::secure_train_batch(env, model, loss_kind, xb, yb, cfg.lr);
        } else {
          preds.push_back(ml::secure_infer_batch(env, model, xb));
        }
      }
    }
    ctx.engine().wait_all();
  };

  Timer online;
  run_two_parties([&] { server_loop(0); }, [&] { server_loop(1); });
  result.online_sec = online.seconds();

  // ---- wrap-up: stats + client-side evaluation ----
  for (const auto& [name, stat] : prof.report()) {
    result.online_phases[name] += stat.total_sec;
  }
  const auto& st_a = harness.s0s1.a->stats();
  const auto& st_b = harness.s0s1.b->stats();
  result.server_to_server_bytes = st_a.bytes_sent.load() + st_b.bytes_sent.load();
  const auto& c0 = ctx0.compressed().stats();
  const auto& c1 = ctx1.compressed().stats();
  result.compression.messages = c0.messages + c1.messages;
  result.compression.compressed_messages =
      c0.compressed_messages + c1.compressed_messages;
  result.compression.dense_bytes = c0.dense_bytes + c1.dense_bytes;
  result.compression.sent_bytes = c0.sent_bytes + c1.sent_bytes;

  if (cfg.evaluate) {
    if (training) {
      if (is_rnn) {
        auto plain = ml::reconstruct_plain_rnn(mc, *rnn_pair.m0, *rnn_pair.m1);
        const auto xs = data::sequence_view(ds.x, cfg.rnn_steps);
        result.accuracy = ml::accuracy(plain.forward(xs), ds.y);
        if (!cfg.checkpoint_path.empty()) {
          ml::save_model(cfg.checkpoint_path, plain);
        }
      } else {
        auto plain = ml::reconstruct_plain(mc, pair.m0, pair.m1);
        result.accuracy = ml::accuracy(plain.forward(ds.x), ds.y);
        if (!cfg.checkpoint_path.empty()) {
          ml::save_model(cfg.checkpoint_path, plain);
        }
      }
    } else {
      // Client reconstructs the prediction shares batch by batch.
      std::size_t correct_rows = 0, total_rows = 0;
      for (std::size_t b = 0; b < preds0.size(); ++b) {
        const MatrixF pred = mpc::reconstruct_float(preds0[b], preds1[b]);
        const MatrixF yb = data::slice_rows(
            ds.y, (b % n_batches) * batch, batch);
        correct_rows += static_cast<std::size_t>(
            ml::accuracy(pred, yb) * static_cast<double>(pred.rows()) + 0.5);
        total_rows += pred.rows();
      }
      result.accuracy = total_rows == 0
                            ? 0.0
                            : static_cast<double>(correct_rows) / total_rows;
    }
  }
  result.total_sec = total.seconds();
  return result;
}

}  // namespace

namespace {

void validate(const RunConfig& cfg) {
  PSML_REQUIRE(cfg.samples > 0, "RunConfig: samples must be positive");
  PSML_REQUIRE(cfg.batch > 0, "RunConfig: batch must be positive");
  PSML_REQUIRE(cfg.epochs > 0, "RunConfig: epochs must be positive");
  PSML_REQUIRE(cfg.lr > 0.0f && std::isfinite(cfg.lr),
               "RunConfig: learning rate must be positive and finite");
  if (cfg.model == ml::ModelKind::kRnn) {
    PSML_REQUIRE(cfg.rnn_steps > 0, "RunConfig: rnn_steps must be positive");
    const auto geometry = data::dataset_geometry(cfg.dataset);
    PSML_REQUIRE(geometry.features() % cfg.rnn_steps == 0,
                 "RunConfig: dataset features not divisible by rnn_steps");
  }
}

}  // namespace

RunResult run_training(const RunConfig& cfg) {
  validate(cfg);
  if (cfg.mode == Mode::kPlainCpu || cfg.mode == Mode::kPlainGpu) {
    return run_plain(cfg, /*training=*/true);
  }
  return run_secure(cfg, /*training=*/true);
}

RunResult run_inference(const RunConfig& cfg) {
  validate(cfg);
  if (cfg.mode == Mode::kPlainCpu || cfg.mode == Mode::kPlainGpu) {
    return run_plain(cfg, /*training=*/false);
  }
  return run_secure(cfg, /*training=*/false);
}

}  // namespace psml::parsecureml
