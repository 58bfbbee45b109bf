#include "ml/models.hpp"

#include "mpc/share.hpp"

namespace psml::ml {

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kCnn: return "CNN";
    case ModelKind::kMlp: return "MLP";
    case ModelKind::kRnn: return "RNN";
    case ModelKind::kLinear: return "linear";
    case ModelKind::kLogistic: return "logistic";
    case ModelKind::kSvm: return "SVM";
  }
  return "?";
}

LossKind loss_for(ModelKind kind) {
  return kind == ModelKind::kSvm ? LossKind::kHinge : LossKind::kMse;
}

tensor::ConvShape cnn_conv_shape(const ModelConfig& cfg) {
  tensor::ConvShape s;
  s.in_h = cfg.image_h;
  s.in_w = cfg.image_w;
  s.in_c = cfg.channels;
  s.kernel = 5;
  // Large images get a strided convolution so the patch matrix stays
  // tractable (the paper scales by hardware; we scale by stride).
  s.stride = cfg.image_h > 64 ? 4 : 1;
  s.pad = 0;
  s.out_c = 8;
  return s;
}

namespace {

// Architecture description: ordered (in, out) dims of the dense layers plus
// whether an activation follows, so plaintext and secure builds stay in
// lockstep.
struct DenseSpec {
  std::size_t in, out;
  bool activation_after;
};

std::vector<DenseSpec> dense_specs(const ModelConfig& cfg,
                                   std::size_t first_in) {
  switch (cfg.kind) {
    case ModelKind::kMlp:
      // Paper Sec. 7.1: hidden 128, middle 64, output `classes`.
      return {{first_in, 128, true}, {128, 64, true}, {64, cfg.classes, false}};
    case ModelKind::kCnn:
      // After the conv layer: FC 64 with activation, then the output layer.
      return {{first_in, 64, true}, {64, cfg.classes, false}};
    case ModelKind::kLinear:
      return {{first_in, cfg.classes, false}};
    case ModelKind::kLogistic:
      return {{first_in, cfg.classes, true}};
    case ModelKind::kSvm:
      return {{first_in, cfg.classes, false}};
    case ModelKind::kRnn:
      // The RNN layer ends in its own output product.
      return {};
  }
  throw InvalidArgument("dense_specs: unknown model kind");
}

}  // namespace

Sequential build_plain(const ModelConfig& cfg) {
  Sequential model;
  std::size_t first_in = cfg.input_dim;
  std::uint64_t seed = cfg.seed;

  if (cfg.kind == ModelKind::kCnn) {
    const auto shape = cnn_conv_shape(cfg);
    PSML_REQUIRE(cfg.input_dim == cfg.channels * cfg.image_h * cfg.image_w,
                 "CNN: input_dim != channels*h*w");
    model.add(std::make_unique<Conv2D>(shape, cfg.engine, seed++));
    model.add(std::make_unique<PiecewiseActivation>());
    first_in = shape.out_c * shape.out_h() * shape.out_w();
  } else if (cfg.kind == ModelKind::kRnn) {
    // First, since the RNN layer computes no input gradient.
    model.add(std::make_unique<RnnLayer>(cfg.input_dim, cfg.rnn_hidden,
                                         cfg.classes, cfg.rnn_steps,
                                         cfg.engine, seed));
  }

  for (const auto& spec : dense_specs(cfg, first_in)) {
    model.add(std::make_unique<Dense>(spec.in, spec.out, cfg.engine, seed++));
    if (spec.activation_after) {
      model.add(std::make_unique<PiecewiseActivation>());
    }
  }
  return model;
}

SecurePair build_secure_pair(const ModelConfig& cfg) {
  SecurePair pair;
  std::size_t first_in = cfg.input_dim;
  std::uint64_t seed = cfg.seed;
  std::uint64_t share_seed = cfg.seed ^ 0x5eedULL;

  auto add_activation = [&](std::size_t width) {
    auto a0 = std::make_unique<SecureActivation>();
    auto a1 = std::make_unique<SecureActivation>();
    a0->set_width(width);
    a1->set_width(width);
    pair.m0.add(std::move(a0));
    pair.m1.add(std::move(a1));
  };

  if (cfg.kind == ModelKind::kCnn) {
    const auto shape = cnn_conv_shape(cfg);
    PSML_REQUIRE(cfg.input_dim == cfg.channels * cfg.image_h * cfg.image_w,
                 "CNN: input_dim != channels*h*w");
    MatrixF w = xavier_init(shape.patch_cols(), shape.out_c, seed++);
    auto shares = mpc::share_float(w, share_seed++);
    pair.m0.add(std::make_unique<SecureConv2D>(shape, std::move(shares.s0)));
    pair.m1.add(std::make_unique<SecureConv2D>(shape, std::move(shares.s1)));
    first_in = shape.out_c * shape.out_h() * shape.out_w();
    add_activation(first_in);
  } else if (cfg.kind == ModelKind::kRnn) {
    MatrixF wx = xavier_init(cfg.input_dim, cfg.rnn_hidden, seed);
    MatrixF wh = xavier_init(cfg.rnn_hidden, cfg.rnn_hidden, seed + 1);
    MatrixF wo = xavier_init(cfg.rnn_hidden, cfg.classes, seed + 2);
    auto sx = mpc::share_float(wx, cfg.seed ^ 0xA11CE);
    auto sh = mpc::share_float(wh, cfg.seed ^ 0xB0B);
    auto so = mpc::share_float(wo, cfg.seed ^ 0xCAFE);
    pair.m0.add(std::make_unique<SecureRnnLayer>(
        cfg.rnn_steps, std::move(sx.s0), std::move(sh.s0), std::move(so.s0)));
    pair.m1.add(std::make_unique<SecureRnnLayer>(
        cfg.rnn_steps, std::move(sx.s1), std::move(sh.s1), std::move(so.s1)));
  }

  for (const auto& spec : dense_specs(cfg, first_in)) {
    MatrixF w = xavier_init(spec.in, spec.out, seed++);
    auto shares = mpc::share_float(w, share_seed++);
    MatrixF b(1, spec.out, 0.0f);
    auto b_shares = mpc::share_float(b, share_seed++);
    pair.m0.add(std::make_unique<SecureDense>(std::move(shares.s0),
                                              std::move(b_shares.s0)));
    pair.m1.add(std::make_unique<SecureDense>(std::move(shares.s1),
                                              std::move(b_shares.s1)));
    if (spec.activation_after) add_activation(spec.out);
  }
  return pair;
}

Sequential reconstruct_plain(const ModelConfig& cfg, SecureSequential& m0,
                             SecureSequential& m1) {
  Sequential plain = build_plain(cfg);
  const std::vector<MatrixF*> params = plain.collect_state();
  const std::vector<MatrixF*> s0 = m0.collect_state();
  const std::vector<MatrixF*> s1 = m1.collect_state();
  PSML_CHECK(params.size() == s0.size() && params.size() == s1.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    PSML_CHECK(params[i]->same_shape(*s0[i]));
    *params[i] = mpc::reconstruct_float(*s0[i], *s1[i]);
  }
  return plain;
}

}  // namespace psml::ml
