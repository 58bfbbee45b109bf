#include "ml/plain/layers.hpp"

#include <cmath>

#include "data/datasets.hpp"
#include "rng/rng.hpp"
#include "sgpu/ops.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace psml::ml {

MatrixF engine_matmul(Engine engine, const MatrixF& a, const MatrixF& b) {
  switch (engine) {
    case Engine::kCpuNaive:
      return tensor::matmul_naive(a, b);
    case Engine::kCpuParallel:
      return tensor::matmul(a, b);
    case Engine::kGpu:
      return sgpu::device_matmul(a, b);
  }
  throw InvalidArgument("unknown engine");
}

MatrixF xavier_init(std::size_t in, std::size_t out, std::uint64_t seed) {
  MatrixF w(in, out);
  const float a = std::sqrt(1.5f / static_cast<float>(in));
  rng::fill_uniform_par(w, -a, a, seed);
  return w;
}

// ---- Dense ----------------------------------------------------------------

Dense::Dense(std::size_t in, std::size_t out, Engine engine,
             std::uint64_t seed)
    : w_(xavier_init(in, out, seed)),
      b_(1, out, 0.0f),
      dw_(in, out, 0.0f),
      db_(1, out, 0.0f),
      engine_(engine) {}

MatrixF Dense::forward(const MatrixF& x) {
  PSML_REQUIRE(x.cols() == w_.rows(), "Dense: input width mismatch");
  x_cache_ = x;
  MatrixF y = engine_matmul(engine_, x, w_);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    float* row = y.data() + r * y.cols();
    for (std::size_t c = 0; c < y.cols(); ++c) row[c] += b_(0, c);
  }
  return y;
}

MatrixF Dense::backward(const MatrixF& dy) {
  PSML_REQUIRE(dy.cols() == w_.cols(), "Dense: grad width mismatch");
  // dW = X^T x dY ; db = 1^T x dY ; dX = dY x W^T
  dw_ = engine_matmul(engine_, tensor::transpose(x_cache_), dy);
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const float* row = dy.data() + r * dy.cols();
    for (std::size_t c = 0; c < dy.cols(); ++c) db_(0, c) += row[c];
  }
  return engine_matmul(engine_, dy, tensor::transpose(w_));
}

void Dense::update(float lr) {
  tensor::axpy(-lr, dw_, w_);
  tensor::axpy(-lr, db_, b_);
  dw_.fill(0.0f);
  db_.fill(0.0f);
}

// ---- PiecewiseActivation ---------------------------------------------------

MatrixF PiecewiseActivation::forward(const MatrixF& x) {
  MatrixF y(x.rows(), x.cols());
  mask_.resize(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = x.data()[i];
    if (v < -0.5f) {
      y.data()[i] = 0.0f;
      mask_.data()[i] = 0.0f;
    } else if (v > 0.5f) {
      y.data()[i] = 1.0f;
      mask_.data()[i] = 0.0f;
    } else {
      y.data()[i] = v + 0.5f;
      mask_.data()[i] = 1.0f;
    }
  }
  return y;
}

MatrixF PiecewiseActivation::backward(const MatrixF& dy) {
  MatrixF dx;
  tensor::hadamard(dy, mask_, dx);
  return dx;
}

// ---- ReLU -------------------------------------------------------------------

MatrixF ReLU::forward(const MatrixF& x) {
  MatrixF y(x.rows(), x.cols());
  mask_.resize(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = x.data()[i];
    y.data()[i] = v > 0.0f ? v : 0.0f;
    mask_.data()[i] = v > 0.0f ? 1.0f : 0.0f;
  }
  return y;
}

MatrixF ReLU::backward(const MatrixF& dy) {
  MatrixF dx;
  tensor::hadamard(dy, mask_, dx);
  return dx;
}

// ---- Conv2D -----------------------------------------------------------------

Conv2D::Conv2D(tensor::ConvShape shape, Engine engine, std::uint64_t seed)
    : shape_(shape),
      w_(xavier_init(shape.patch_cols(), shape.out_c, seed)),
      dw_(shape.patch_cols(), shape.out_c, 0.0f),
      engine_(engine) {}

// Patch-matrix layout: rows are (batch, oy, ox); columns are the receptive
// field. Output is returned as batch x (out_c * oh * ow) with channel-major
// feature maps, matching conv2d_direct.
MatrixF Conv2D::forward(const MatrixF& x) {
  batch_cache_ = x.rows();
  patches_cache_ = tensor::im2col(x, shape_);
  // P x W: (batch*oh*ow) x out_c
  MatrixF flat = engine_matmul(engine_, patches_cache_, w_);
  // Transpose the per-image block to channel-major maps.
  const std::size_t oh = shape_.out_h(), ow = shape_.out_w();
  const std::size_t spatial = oh * ow;
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

MatrixF Conv2D::backward(const MatrixF& dy) {
  const std::size_t oh = shape_.out_h(), ow = shape_.out_w();
  const std::size_t spatial = oh * ow;
  PSML_REQUIRE(dy.cols() == shape_.out_c * spatial,
               "Conv2D: grad width mismatch");
  // Back to patch-row layout: (batch*oh*ow) x out_c.
  MatrixF flat(batch_cache_ * spatial, shape_.out_c);
  for (std::size_t b = 0; b < batch_cache_; ++b) {
    for (std::size_t s = 0; s < spatial; ++s) {
      float* frow = flat.data() + (b * spatial + s) * shape_.out_c;
      for (std::size_t c = 0; c < shape_.out_c; ++c) {
        frow[c] = dy(b, c * spatial + s);
      }
    }
  }
  // dW = P^T x dYflat ; dP = dYflat x W^T ; dX = col2im(dP)
  dw_ = engine_matmul(engine_, tensor::transpose(patches_cache_), flat);
  MatrixF dpatches = engine_matmul(engine_, flat, tensor::transpose(w_));
  return tensor::col2im(dpatches, shape_, batch_cache_);
}

void Conv2D::update(float lr) {
  tensor::axpy(-lr, dw_, w_);
  dw_.fill(0.0f);
}

// ---- RnnLayer ---------------------------------------------------------------

RnnLayer::RnnLayer(std::size_t in, std::size_t hidden, std::size_t out,
                   std::size_t steps, Engine engine, std::uint64_t seed)
    : steps_(steps),
      wx_(xavier_init(in, hidden, seed)),
      wh_(xavier_init(hidden, hidden, seed + 1)),
      wo_(xavier_init(hidden, out, seed + 2)),
      dwx_(in, hidden, 0.0f),
      dwh_(hidden, hidden, 0.0f),
      dwo_(hidden, out, 0.0f),
      acts_(steps),
      engine_(engine) {}

MatrixF RnnLayer::forward(const MatrixF& x) {
  PSML_REQUIRE(x.cols() == steps_ * wx_.rows(), "RNN: input width mismatch");
  xs_cache_ = data::sequence_view(x, steps_);
  h_cache_.assign(1, MatrixF(x.rows(), wh_.rows(), 0.0f));
  for (std::size_t t = 0; t < steps_; ++t) {
    MatrixF z;
    tensor::add(engine_matmul(engine_, xs_cache_[t], wx_),
                engine_matmul(engine_, h_cache_.back(), wh_), z);
    h_cache_.push_back(acts_[t].forward(z));
  }
  return engine_matmul(engine_, h_cache_.back(), wo_);
}

MatrixF RnnLayer::backward(const MatrixF& dy) {
  // dW_o += h_T^T x dY ; dh_T = dY x W_o^T
  tensor::add(dwo_, engine_matmul(engine_, tensor::transpose(h_cache_.back()),
                                  dy),
              dwo_);
  MatrixF dh = engine_matmul(engine_, dy, tensor::transpose(wo_));
  for (std::size_t t = steps_; t-- > 0;) {
    // dz = dh .* f'(z_t) ; dW_x += x_t^T dz ; dW_h += h_{t-1}^T dz ;
    // dh = dz W_h^T
    const MatrixF dz = acts_[t].backward(dh);
    tensor::add(dwx_, engine_matmul(engine_, tensor::transpose(xs_cache_[t]),
                                    dz),
                dwx_);
    tensor::add(dwh_, engine_matmul(engine_, tensor::transpose(h_cache_[t]),
                                    dz),
                dwh_);
    dh = engine_matmul(engine_, dz, tensor::transpose(wh_));
  }
  return MatrixF();
}

void RnnLayer::update(float lr) {
  tensor::axpy(-lr, dwx_, wx_);
  tensor::axpy(-lr, dwh_, wh_);
  tensor::axpy(-lr, dwo_, wo_);
  dwx_.fill(0.0f);
  dwh_.fill(0.0f);
  dwo_.fill(0.0f);
}

}  // namespace psml::ml
