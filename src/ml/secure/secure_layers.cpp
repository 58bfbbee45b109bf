#include "ml/secure/secure_layers.hpp"

#include "compress/compressed_channel.hpp"
#include "data/datasets.hpp"
#include "tensor/ops.hpp"

namespace psml::ml {

namespace {

using compress::stream_key;

constexpr std::uint32_t kPhaseForward = 0;
constexpr std::uint32_t kPhaseBackward = 1;

net::Tag seq_tag(mpc::PartyContext& ctx, net::Tag base) {
  return base + (ctx.next_seq() & 0x00ffffffu);
}

// Per-batch-slot compression stream key (see PartyContext::set_stream_salt).
std::uint64_t skey(const mpc::PartyContext& ctx, std::uint32_t layer,
                   std::uint32_t phase, std::uint32_t operand) {
  return stream_key(layer, phase, operand) ^ (ctx.stream_salt() << 48);
}

// Forward product X x W of a dense or conv layer. Training draws the
// layer's kLayer material and keeps it and the opened E = X - U,
// F = W - V for backward; inference draws one kMatMul triplet.
MatrixF layer_product(SecureEnv& env, const MatrixF& x_i, const MatrixF& w_i,
                      mpc::LayerShare& material, mpc::Reconstructed& ef,
                      std::uint64_t key) {
  auto& ctx = *env.ctx;
  if (!env.training) return mpc::secure_matmul(ctx, x_i, w_i, key);
  material = ctx.triplets().pop_layer();
  ef = mpc::reconstruct_ef(ctx, x_i, w_i, material, key);
  return mpc::compute_ci(ctx, ef, x_i, w_i, material.z);
}

// Backward of layer_product: opens F' = dY - V2, the step's only backward
// open, then returns the shares of dW = X^T x dY on (E^T, F', Z_dw) and of
// dX = dY x W^T on (F', F^T, Z_dx).
std::pair<MatrixF, MatrixF> layer_grads(mpc::PartyContext& ctx,
                                        const MatrixF& x_i, const MatrixF& w_i,
                                        const MatrixF& dy_i,
                                        const mpc::LayerShare& material,
                                        const mpc::Reconstructed& ef,
                                        std::uint64_t key) {
  MatrixF f_dy = mpc::open_operand(ctx, dy_i, material.v2,
                                   seq_tag(ctx, mpc::tags::kExchangeF), key);
  MatrixF dw = mpc::compute_ci(ctx, {tensor::transpose(ef.e), f_dy},
                               tensor::transpose(x_i), dy_i, material.z_dw);
  MatrixF dx =
      mpc::compute_ci(ctx, {std::move(f_dy), tensor::transpose(ef.f)}, dy_i,
                      tensor::transpose(w_i), material.z_dx);
  return {std::move(dw), std::move(dx)};
}

}  // namespace

// ---- SecureDense ------------------------------------------------------------

SecureDense::SecureDense(MatrixF w_share, MatrixF b_share)
    : w_(std::move(w_share)),
      b_(std::move(b_share)),
      dw_(w_.rows(), w_.cols(), 0.0f),
      db_(1, w_.cols(), 0.0f) {
  PSML_REQUIRE(b_.rows() == 1 && b_.cols() == w_.cols(),
               "SecureDense: bias share shape mismatch");
}

void SecureDense::plan(std::vector<mpc::TripletSpec>& specs,
                       std::size_t batch, bool training) const {
  specs.push_back({training ? mpc::TripletKind::kLayer
                            : mpc::TripletKind::kMatMul,
                   batch, w_.rows(), w_.cols()});
}

MatrixF SecureDense::forward(SecureEnv& env, const MatrixF& x_i) {
  auto& ctx = *env.ctx;
  PSML_REQUIRE(x_i.cols() == w_.rows(), "SecureDense: input width mismatch");

  MatrixF y = layer_product(env, x_i, w_, material_, ef_,
                            skey(ctx, layer_id_, kPhaseForward, 0));
  // Bias add is linear in the shares: purely local.
  for (std::size_t r = 0; r < y.rows(); ++r) {
    float* row = y.data() + r * y.cols();
    for (std::size_t c = 0; c < y.cols(); ++c) row[c] += b_(0, c);
  }
  if (env.training) x_cache_ = x_i;
  return y;
}

MatrixF SecureDense::backward(SecureEnv& env, const MatrixF& dy_i) {
  auto& ctx = *env.ctx;
  PSML_REQUIRE(dy_i.cols() == w_.cols(), "SecureDense: grad width mismatch");

  auto [dw, dx] = layer_grads(ctx, x_cache_, w_, dy_i, material_, ef_,
                              skey(ctx, layer_id_, kPhaseBackward, 0));
  // Keep weight-share magnitudes at the mask scale (see refresh_share docs).
  dw_ = mpc::refresh_share(ctx, dw);
  // db = 1^T x dY: linear, local on shares (refreshed like dW — dY shares
  // can carry large magnitudes).
  MatrixF db_batch(1, dy_i.cols(), 0.0f);
  for (std::size_t r = 0; r < dy_i.rows(); ++r) {
    const float* row = dy_i.data() + r * dy_i.cols();
    for (std::size_t c = 0; c < dy_i.cols(); ++c) db_batch(0, c) += row[c];
  }
  db_batch = mpc::refresh_share(ctx, db_batch);
  tensor::add(db_, db_batch, db_);
  return std::move(dx);
}

void SecureDense::update(float lr) {
  tensor::axpy(-lr, dw_, w_);
  tensor::axpy(-lr, db_, b_);
  dw_.fill(0.0f);
  db_.fill(0.0f);
}

// ---- SecureActivation -------------------------------------------------------

void SecureActivation::plan(std::vector<mpc::TripletSpec>& specs,
                            std::size_t batch, bool training) const {
  PSML_REQUIRE(width_ > 0, "SecureActivation: width not set");
  specs.push_back({mpc::TripletKind::kActivation, batch, 0, width_});
}

MatrixF SecureActivation::forward(SecureEnv& env, const MatrixF& x_i) {
  auto& ctx = *env.ctx;
  PSML_REQUIRE(width_ == 0 || x_i.cols() == width_,
               "SecureActivation: width mismatch");
  auto result = mpc::secure_activation(
      ctx, x_i, skey(ctx, layer_id_, kPhaseForward, 0));
  grad_mask_ = std::move(result.grad_mask);
  return std::move(result.value_share);
}

MatrixF SecureActivation::backward(SecureEnv& env, const MatrixF& dy_i) {
  // The region mask is public; masking the gradient share is local.
  MatrixF dx;
  tensor::hadamard(dy_i, grad_mask_, dx);
  return dx;
}

// ---- SecureConv2D -----------------------------------------------------------

SecureConv2D::SecureConv2D(tensor::ConvShape shape, MatrixF w_share)
    : shape_(shape),
      w_(std::move(w_share)),
      dw_(w_.rows(), w_.cols(), 0.0f) {
  PSML_REQUIRE(w_.rows() == shape_.patch_cols() && w_.cols() == shape_.out_c,
               "SecureConv2D: weight share shape mismatch");
}

void SecureConv2D::plan(std::vector<mpc::TripletSpec>& specs,
                        std::size_t batch, bool training) const {
  specs.push_back({training ? mpc::TripletKind::kLayer
                            : mpc::TripletKind::kMatMul,
                   shape_.patch_rows(batch), shape_.patch_cols(),
                   shape_.out_c});
}

MatrixF SecureConv2D::forward(SecureEnv& env, const MatrixF& x_i) {
  auto& ctx = *env.ctx;
  batch_cache_ = x_i.rows();
  // im2col is a linear rearrangement: applying it to a share yields a share
  // of the lowered matrix, so each server lowers locally.
  patches_cache_ = tensor::im2col(x_i, shape_);
  const MatrixF flat = layer_product(env, patches_cache_, w_, material_, ef_,
                                     skey(ctx, layer_id_, kPhaseForward, 0));

  // Rearrange (batch*oh*ow) x out_c into channel-major feature maps.
  const std::size_t spatial = shape_.out_h() * shape_.out_w();
  MatrixF y(batch_cache_, shape_.out_c * spatial);
  for (std::size_t b = 0; b < batch_cache_; ++b) {
    for (std::size_t s = 0; s < spatial; ++s) {
      const float* frow = flat.data() + (b * spatial + s) * shape_.out_c;
      for (std::size_t c = 0; c < shape_.out_c; ++c) {
        y(b, c * spatial + s) = frow[c];
      }
    }
  }
  return y;
}

MatrixF SecureConv2D::backward(SecureEnv& env, const MatrixF& dy_i) {
  auto& ctx = *env.ctx;
  const std::size_t spatial = shape_.out_h() * shape_.out_w();
  PSML_REQUIRE(dy_i.cols() == shape_.out_c * spatial,
               "SecureConv2D: grad width mismatch");

  MatrixF flat(batch_cache_ * spatial, shape_.out_c);
  for (std::size_t b = 0; b < batch_cache_; ++b) {
    for (std::size_t s = 0; s < spatial; ++s) {
      float* frow = flat.data() + (b * spatial + s) * shape_.out_c;
      for (std::size_t c = 0; c < shape_.out_c; ++c) {
        frow[c] = dy_i(b, c * spatial + s);
      }
    }
  }

  auto [dw, dpatches] =
      layer_grads(ctx, patches_cache_, w_, flat, material_, ef_,
                  skey(ctx, layer_id_, kPhaseBackward, 0));
  dw_ = mpc::refresh_share(ctx, dw);
  return tensor::col2im(dpatches, shape_, batch_cache_);
}

void SecureConv2D::update(float lr) {
  tensor::axpy(-lr, dw_, w_);
  dw_.fill(0.0f);
}

// ---- SecureRnnLayer ---------------------------------------------------------

SecureRnnLayer::SecureRnnLayer(std::size_t steps, MatrixF wx_share,
                               MatrixF wh_share, MatrixF wo_share)
    : steps_(steps),
      wx_(std::move(wx_share)),
      wh_(std::move(wh_share)),
      wo_(std::move(wo_share)),
      dwx_(wx_.rows(), wx_.cols(), 0.0f),
      dwh_(wh_.rows(), wh_.cols(), 0.0f),
      dwo_(wo_.rows(), wo_.cols(), 0.0f) {
  // key() packs (steps << 2 | operand) into a 16-bit operand field.
  PSML_REQUIRE(steps_ > 0 && steps_ < 0x4000u,
               "SecureRnnLayer: steps out of range");
}

std::uint64_t SecureRnnLayer::key(const mpc::PartyContext& ctx,
                                  std::uint32_t phase, std::size_t t,
                                  std::uint32_t operand) const {
  return skey(ctx, layer_id_, phase,
              static_cast<std::uint32_t>(t << 2) | operand);
}

void SecureRnnLayer::plan(std::vector<mpc::TripletSpec>& specs,
                          std::size_t batch, bool training) const {
  const std::size_t in = wx_.rows();
  const std::size_t hid = wh_.rows();
  const std::size_t out = wo_.cols();
  for (std::size_t t = 0; t < steps_; ++t) {
    specs.push_back({mpc::TripletKind::kMatMul, batch, in, hid});   // x Wx
    specs.push_back({mpc::TripletKind::kMatMul, batch, hid, hid});  // h Wh
    specs.push_back({mpc::TripletKind::kActivation, batch, 0, hid});
  }
  specs.push_back({mpc::TripletKind::kMatMul, batch, hid, out});  // h_T Wo
  if (!training) return;
  specs.push_back({mpc::TripletKind::kMatMul, hid, batch, out});  // dWo
  specs.push_back({mpc::TripletKind::kMatMul, batch, out, hid});  // dh_T
  for (std::size_t t = 0; t < steps_; ++t) {
    specs.push_back({mpc::TripletKind::kMatMul, in, batch, hid});   // dWx
    specs.push_back({mpc::TripletKind::kMatMul, hid, batch, hid});  // dWh
    specs.push_back({mpc::TripletKind::kMatMul, batch, hid, hid});  // dh
  }
}

MatrixF SecureRnnLayer::forward(SecureEnv& env, const MatrixF& x_i) {
  auto& ctx = *env.ctx;
  PSML_REQUIRE(x_i.cols() == steps_ * wx_.rows(),
               "SecureRnnLayer: input width mismatch");
  // Splitting columns is linear: each server splits its own share.
  xs_cache_ = data::sequence_view(x_i, steps_);
  h_cache_.assign(1, MatrixF(x_i.rows(), wh_.rows(), 0.0f));
  mask_cache_.clear();

  for (std::size_t t = 0; t < steps_; ++t) {
    MatrixF zx = mpc::secure_matmul(ctx, xs_cache_[t], wx_,
                                    key(ctx, kPhaseForward, t, 0));
    MatrixF zh = mpc::secure_matmul(ctx, h_cache_.back(), wh_,
                                    key(ctx, kPhaseForward, t, 1));
    MatrixF z;
    tensor::add(zx, zh, z);
    auto act =
        mpc::secure_activation(ctx, z, key(ctx, kPhaseForward, t, 2));
    h_cache_.push_back(std::move(act.value_share));
    mask_cache_.push_back(std::move(act.grad_mask));
  }
  return mpc::secure_matmul(ctx, h_cache_.back(), wo_,
                            key(ctx, kPhaseForward, steps_, 0));
}

MatrixF SecureRnnLayer::backward(SecureEnv& env, const MatrixF& dy_i) {
  auto& ctx = *env.ctx;
  // dWo += h_T^T x dY ; dh = dY x Wo^T
  MatrixF g = mpc::secure_matmul(ctx, tensor::transpose(h_cache_.back()),
                                 dy_i, key(ctx, kPhaseBackward, steps_, 0));
  tensor::add(dwo_, g, dwo_);
  MatrixF dh = mpc::secure_matmul(ctx, dy_i, tensor::transpose(wo_),
                                  key(ctx, kPhaseBackward, steps_, 1));

  for (std::size_t t = steps_; t-- > 0;) {
    MatrixF dz;
    tensor::hadamard(dh, mask_cache_[t], dz);  // public mask: local
    MatrixF gx = mpc::secure_matmul(ctx, tensor::transpose(xs_cache_[t]), dz,
                                    key(ctx, kPhaseBackward, t, 0));
    tensor::add(dwx_, gx, dwx_);
    MatrixF gh = mpc::secure_matmul(ctx, tensor::transpose(h_cache_[t]), dz,
                                    key(ctx, kPhaseBackward, t, 1));
    tensor::add(dwh_, gh, dwh_);
    dh = mpc::secure_matmul(ctx, dz, tensor::transpose(wh_),
                            key(ctx, kPhaseBackward, t, 2));
  }
  // Keep weight-share magnitudes at the mask scale (see refresh_share docs).
  dwx_ = mpc::refresh_share(ctx, dwx_);
  dwh_ = mpc::refresh_share(ctx, dwh_);
  dwo_ = mpc::refresh_share(ctx, dwo_);
  return MatrixF();
}

void SecureRnnLayer::update(float lr) {
  tensor::axpy(-lr, dwx_, wx_);
  tensor::axpy(-lr, dwh_, wh_);
  tensor::axpy(-lr, dwo_, wo_);
  dwx_.fill(0.0f);
  dwh_.fill(0.0f);
  dwo_.fill(0.0f);
}

}  // namespace psml::ml
