// Secure layers: each server holds additive shares of the activations and
// parameters and runs the triplet protocols of src/mpc per layer.
//
// Each operand is opened once per training step. A training dense or conv
// layer multiplies three times — Y = X x W, dW = X^T x dY, dX = dY x W^T —
// and draws one kLayer material (mpc::LayerShare) for all three. forward()
// opens E = X - U and F = W - V and keeps them; backward() opens only
// F' = dY - V2, then runs dW on (E^T, F', Z_dw) and dX on (F', F^T, Z_dx)
// through mpc::compute_ci (docs/PROTOCOL.md §5). Every channel op runs on
// the training thread in program order, so the parties' message sequences
// mirror with the pipeline on or off. Inference draws one kMatMul triplet
// per layer and runs the plain secure matmul.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "mpc/activation.hpp"
#include "mpc/party.hpp"
#include "mpc/secure_matmul.hpp"
#include "pipeline/dep_engine.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matrix.hpp"

namespace psml::ml {

// Per-party execution environment handed to every secure layer call.
struct SecureEnv {
  mpc::PartyContext* ctx = nullptr;
  // Inference runs forward-only: layers plan and consume forward triplets
  // only when this is false.
  bool training = true;
  // Read by no library code: the step barrier and recovery always use
  // ctx->engine(). The field stays only because the bench/e2e harness names
  // it.
  pipeline::DepEngine* engine = nullptr;
};

class SecureLayer {
 public:
  virtual ~SecureLayer() = default;

  // Appends this layer's per-batch triplet specs in exact consumption order.
  virtual void plan(std::vector<mpc::TripletSpec>& specs, std::size_t batch,
                    bool training) const = 0;

  virtual MatrixF forward(SecureEnv& env, const MatrixF& x_i) = 0;
  virtual MatrixF backward(SecureEnv& env, const MatrixF& dy_i) = 0;
  virtual void update(float lr) {}

  // Stable id used for compression stream keys; assigned by the container.
  // Virtual so composite layers can propagate derived ids to sub-layers.
  virtual void set_layer_id(std::uint32_t id) { layer_id_ = id; }
  std::uint32_t layer_id() const { return layer_id_; }

  // Appends pointers to this layer's persistent parameter shares (the state
  // an SGD update mutates), in a deterministic order shared by both
  // servers and by the plaintext layer's Layer::collect_state, which
  // reconstruct_plain relies on. Used by the checkpoint share-snapshot
  // machinery to roll a model back to the start of a failed training step.
  // Stateless layers contribute nothing.
  virtual void collect_state(std::vector<MatrixF*>& out) {}

 protected:
  std::uint32_t layer_id_ = 0;
};

// Fully connected layer on weight shares.
class SecureDense : public SecureLayer {
 public:
  // Shares of the (in x out) weight matrix and (1 x out) bias.
  SecureDense(MatrixF w_share, MatrixF b_share);

  void plan(std::vector<mpc::TripletSpec>& specs, std::size_t batch,
            bool training) const override;
  MatrixF forward(SecureEnv& env, const MatrixF& x_i) override;
  MatrixF backward(SecureEnv& env, const MatrixF& dy_i) override;
  void update(float lr) override;

  void collect_state(std::vector<MatrixF*>& out) override {
    out.push_back(&w_);
    out.push_back(&b_);
  }

 private:
  MatrixF w_;   // share of W, in x out
  MatrixF b_;   // share of b, 1 x out
  MatrixF dw_;  // share of dW
  MatrixF db_;

  // Backward-pass state kept by a training forward().
  MatrixF x_cache_;
  mpc::LayerShare material_;
  mpc::Reconstructed ef_;  // opened E = X - U, F = W - V
};

// Eq. 9 activation via the masked-comparison protocol.
class SecureActivation : public SecureLayer {
 public:
  void plan(std::vector<mpc::TripletSpec>& specs, std::size_t batch,
            bool training) const override;
  MatrixF forward(SecureEnv& env, const MatrixF& x_i) override;
  MatrixF backward(SecureEnv& env, const MatrixF& dy_i) override;

  void set_width(std::size_t width) { width_ = width; }
  std::size_t width() const { return width_; }

 private:
  std::size_t width_ = 0;  // features per row, fixed by the model builder
  MatrixF grad_mask_;      // public region mask cached by forward
};

// Convolution on shares: im2col is linear so each server lowers its own
// share locally; the patch-matrix multiply runs the triplet protocol.
class SecureConv2D : public SecureLayer {
 public:
  SecureConv2D(tensor::ConvShape shape, MatrixF w_share);

  void plan(std::vector<mpc::TripletSpec>& specs, std::size_t batch,
            bool training) const override;
  MatrixF forward(SecureEnv& env, const MatrixF& x_i) override;
  MatrixF backward(SecureEnv& env, const MatrixF& dy_i) override;
  void update(float lr) override;

  const tensor::ConvShape& shape() const { return shape_; }

  void collect_state(std::vector<MatrixF*>& out) override {
    out.push_back(&w_);
  }

 private:
  tensor::ConvShape shape_;
  MatrixF w_;  // share of (patch_cols x out_c)
  MatrixF dw_;
  MatrixF patches_cache_;
  std::size_t batch_cache_ = 0;
  mpc::LayerShare material_;
  mpc::Reconstructed ef_;  // opened E = patches - U, F = W - V
};

// Elman RNN on shares, mirroring ml::RnnLayer: every product is a triplet
// matmul, the activation runs the masked-comparison protocol, and gradient
// accumulation across timesteps is local (sums of shares are shares of
// sums). Like RnnLayer it computes no input gradient: backward() returns an
// empty matrix, so the layer must come first in its model.
class SecureRnnLayer : public SecureLayer {
 public:
  // Shares of W_x (in x hidden), W_h (hidden x hidden), W_o (hidden x out).
  SecureRnnLayer(std::size_t steps, MatrixF wx_share, MatrixF wh_share,
                 MatrixF wo_share);

  void plan(std::vector<mpc::TripletSpec>& specs, std::size_t batch,
            bool training) const override;
  MatrixF forward(SecureEnv& env, const MatrixF& x_i) override;
  MatrixF backward(SecureEnv& env, const MatrixF& dy_i) override;
  void update(float lr) override;

  void collect_state(std::vector<MatrixF*>& out) override {
    out.push_back(&wx_);
    out.push_back(&wh_);
    out.push_back(&wo_);
  }

 private:
  // Compression stream key of (timestep, operand). Each timestep owns a
  // block of four keys, so the E/F halves a secure matmul derives from its
  // key (key ^ 1, key ^ 2) never reach another timestep's streams. The
  // output product h_T x W_o and its gradients take t = steps.
  std::uint64_t key(const mpc::PartyContext& ctx, std::uint32_t phase,
                    std::size_t t, std::uint32_t operand) const;

  std::size_t steps_;
  MatrixF wx_, wh_, wo_;
  MatrixF dwx_, dwh_, dwo_;
  std::vector<MatrixF> xs_cache_;
  std::vector<MatrixF> h_cache_;
  std::vector<MatrixF> mask_cache_;  // public activation masks
};

}  // namespace psml::ml
