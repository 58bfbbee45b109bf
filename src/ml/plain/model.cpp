#include "ml/plain/model.hpp"

#include <algorithm>

#include "tensor/ops.hpp"

namespace psml::ml {

MatrixF Sequential::forward(const MatrixF& x) {
  MatrixF cur = x;
  for (auto& l : layers_) cur = l->forward(cur);
  return cur;
}

MatrixF Sequential::backward(const MatrixF& dloss) {
  MatrixF cur = dloss;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

void Sequential::update(float lr) {
  for (auto& l : layers_) l->update(lr);
}

std::vector<MatrixF*> Sequential::collect_state() {
  std::vector<MatrixF*> out;
  for (auto& l : layers_) l->collect_state(out);
  return out;
}

LossResult compute_loss(LossKind kind, const MatrixF& pred,
                        const MatrixF& target) {
  PSML_REQUIRE(pred.same_shape(target), "loss: shape mismatch");
  LossResult out;
  out.grad.resize(pred.rows(), pred.cols());
  const float inv_n = 1.0f / static_cast<float>(pred.rows());
  double acc = 0.0;
  switch (kind) {
    case LossKind::kMse: {
      for (std::size_t i = 0; i < pred.size(); ++i) {
        const float d = pred.data()[i] - target.data()[i];
        acc += 0.5 * d * d;
        out.grad.data()[i] = d * inv_n;
      }
      break;
    }
    case LossKind::kHinge: {
      // L = mean(max(0, 1 - y * p)); dL/dp = -y when margin violated.
      for (std::size_t i = 0; i < pred.size(); ++i) {
        const float margin = 1.0f - target.data()[i] * pred.data()[i];
        if (margin > 0.0f) {
          acc += margin;
          out.grad.data()[i] = -target.data()[i] * inv_n;
        } else {
          out.grad.data()[i] = 0.0f;
        }
      }
      break;
    }
  }
  out.value = static_cast<float>(acc * inv_n);
  return out;
}

float train_batch(Sequential& model, LossKind loss, const MatrixF& x,
                  const MatrixF& y, float lr) {
  const MatrixF pred = model.forward(x);
  const LossResult lr_res = compute_loss(loss, pred, y);
  model.backward(lr_res.grad);
  model.update(lr);
  return lr_res.value;
}

double accuracy(const MatrixF& pred, const MatrixF& target) {
  PSML_REQUIRE(pred.same_shape(target), "accuracy: shape mismatch");
  if (pred.rows() == 0) return 0.0;
  std::size_t correct = 0;
  if (pred.cols() == 1) {
    // Binary task. Targets are either {0,1} (regression/logistic) or +-1
    // (SVM); pick the decision threshold by the label convention in use.
    bool pm_one = false;
    for (std::size_t r = 0; r < target.rows(); ++r) {
      if (target(r, 0) < 0.0f) {
        pm_one = true;
        break;
      }
    }
    const float threshold = pm_one ? 0.0f : 0.5f;
    for (std::size_t r = 0; r < pred.rows(); ++r) {
      const bool predicted_pos = pred(r, 0) >= threshold;
      const bool actual_pos = target(r, 0) >= threshold;
      if (predicted_pos == actual_pos) ++correct;
    }
  } else {
    for (std::size_t r = 0; r < pred.rows(); ++r) {
      const auto prow = pred.row(r);
      const auto trow = target.row(r);
      const auto pi = std::max_element(prow.begin(), prow.end());
      const auto ti = std::max_element(trow.begin(), trow.end());
      if (std::distance(prow.begin(), pi) == std::distance(trow.begin(), ti)) {
        ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(pred.rows());
}

}  // namespace psml::ml
