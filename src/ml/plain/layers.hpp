// Plaintext reference layers — the "original machine learning tasks" the
// paper compares against (Table 1, Table 2). Each matmul-bearing layer runs
// on a selectable engine: naive single-thread CPU (the "original"
// implementation of Table 1), parallel CPU, or the simulated GPU (the
// non-secure GPU tasks of Table 2).
#pragma once

#include <memory>
#include <vector>

#include "tensor/im2col.hpp"
#include "tensor/matrix.hpp"

namespace psml::ml {

enum class Engine {
  kCpuNaive,     // single-thread triple-loop GEMM
  kCpuParallel,  // blocked multi-thread GEMM
  kGpu,          // simulated-device GEMM (upload/compute/download)
};

// C = A x B on the chosen engine.
MatrixF engine_matmul(Engine engine, const MatrixF& a, const MatrixF& b);

class Layer {
 public:
  virtual ~Layer() = default;

  // X: batch x in_features. Returns batch x out_features; caches what the
  // backward pass needs.
  virtual MatrixF forward(const MatrixF& x) = 0;

  // dY: gradient w.r.t. the forward output. Returns gradient w.r.t. X and
  // accumulates parameter gradients internally.
  virtual MatrixF backward(const MatrixF& dy) = 0;

  // SGD step on accumulated gradients; clears them.
  virtual void update(float lr) {}

  virtual std::size_t out_features(std::size_t in_features) const = 0;

  // Appends pointers to this layer's parameters in a fixed order — the
  // order SecureLayer::collect_state lists the matching shares in and the
  // order a checkpoint stores them in. Stateless layers contribute nothing.
  virtual void collect_state(std::vector<MatrixF*>& out) {}
};

// Fully connected layer with bias. The bias matters here more than in a
// ReLU network: the Eq. 9 activation's linear region is only [-1/2, 1/2]
// and its outputs have mean 1/2, so learned offsets are what keep the next
// layer's pre-activations inside the region.
class Dense : public Layer {
 public:
  Dense(std::size_t in, std::size_t out, Engine engine,
        std::uint64_t seed = 42);

  MatrixF forward(const MatrixF& x) override;
  MatrixF backward(const MatrixF& dy) override;
  void update(float lr) override;
  std::size_t out_features(std::size_t) const override { return w_.cols(); }

  const MatrixF& weights() const { return w_; }
  MatrixF& weights() { return w_; }
  const MatrixF& bias() const { return b_; }
  MatrixF& bias() { return b_; }

  void collect_state(std::vector<MatrixF*>& out) override {
    out.push_back(&w_);
    out.push_back(&b_);
  }

 private:
  MatrixF w_;   // in x out
  MatrixF b_;   // 1 x out
  MatrixF dw_;  // gradient accumulators
  MatrixF db_;
  MatrixF x_cache_;
  Engine engine_;
};

// Piecewise-linear activation of Eq. 9 (the secure-friendly nonlinearity).
class PiecewiseActivation : public Layer {
 public:
  MatrixF forward(const MatrixF& x) override;
  MatrixF backward(const MatrixF& dy) override;
  std::size_t out_features(std::size_t in) const override { return in; }

 private:
  MatrixF mask_;
};

// Standard ReLU (used by the plaintext CNN/MLP variants the paper cites).
class ReLU : public Layer {
 public:
  MatrixF forward(const MatrixF& x) override;
  MatrixF backward(const MatrixF& dy) override;
  std::size_t out_features(std::size_t in) const override { return in; }

 private:
  MatrixF mask_;
};

// 2-D convolution via im2col + GEMM; weights out_c x (in_c * k * k).
class Conv2D : public Layer {
 public:
  Conv2D(tensor::ConvShape shape, Engine engine, std::uint64_t seed = 43);

  MatrixF forward(const MatrixF& x) override;
  MatrixF backward(const MatrixF& dy) override;
  void update(float lr) override;
  std::size_t out_features(std::size_t) const override {
    return shape_.out_c * shape_.out_h() * shape_.out_w();
  }

  const tensor::ConvShape& shape() const { return shape_; }
  const MatrixF& weights() const { return w_; }
  MatrixF& weights() { return w_; }

  void collect_state(std::vector<MatrixF*>& out) override {
    out.push_back(&w_);
  }

 private:
  tensor::ConvShape shape_;
  MatrixF w_;
  MatrixF dw_;
  MatrixF patches_cache_;
  std::size_t batch_cache_ = 0;
  Engine engine_;
};

// Elman RNN with full backpropagation through time:
//   h_t = f(x_t W_x + h_{t-1} W_h),   o = h_T W_o
// with f the Eq. 9 piecewise activation. Each input row holds a whole
// sequence, `steps` chunks of `in` features (data::sequence_view); the
// output is batch x out. backward() computes no input gradient and returns
// an empty matrix, so the layer must come first in its model.
class RnnLayer : public Layer {
 public:
  RnnLayer(std::size_t in, std::size_t hidden, std::size_t out,
           std::size_t steps, Engine engine, std::uint64_t seed = 44);

  MatrixF forward(const MatrixF& x) override;
  MatrixF backward(const MatrixF& dy) override;
  void update(float lr) override;
  std::size_t out_features(std::size_t) const override { return wo_.cols(); }

  const MatrixF& wx() const { return wx_; }
  const MatrixF& wh() const { return wh_; }
  const MatrixF& wo() const { return wo_; }

  void collect_state(std::vector<MatrixF*>& out) override {
    out.push_back(&wx_);
    out.push_back(&wh_);
    out.push_back(&wo_);
  }

 private:
  std::size_t steps_;
  MatrixF wx_;  // in x hidden
  MatrixF wh_;  // hidden x hidden
  MatrixF wo_;  // hidden x out
  MatrixF dwx_, dwh_, dwo_;
  std::vector<MatrixF> xs_cache_;
  std::vector<MatrixF> h_cache_;  // h_0 .. h_T (h_0 = zeros)
  std::vector<PiecewiseActivation> acts_;  // one per step, holds its mask
  Engine engine_;
};

// Initial weights, deterministic in `seed`: uniform in +-sqrt(1.5/in).
// Scaled for the Eq. 9 piecewise activation — its inputs carry a mean of
// ~1/2 and the linear region is narrow, so classic Xavier magnitudes
// saturate most units from the start (see DESIGN.md §5).
MatrixF xavier_init(std::size_t in, std::size_t out, std::uint64_t seed);

}  // namespace psml::ml
