// Plaintext sequential model, losses, SGD training loop, metrics.
#pragma once

#include <memory>
#include <vector>

#include "ml/plain/layers.hpp"

namespace psml::ml {

enum class LossKind {
  kMse,    // mean squared error (also used for one-hot classification,
           // SecureML-style)
  kHinge,  // SVM hinge loss on +-1 labels
};

class Sequential {
 public:
  Sequential() = default;

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }
  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  MatrixF forward(const MatrixF& x);
  // Full backward from the loss gradient; returns input gradient.
  MatrixF backward(const MatrixF& dloss);
  void update(float lr);

  // Pointers to every layer's parameters, in model order: the list a
  // checkpoint stores and SecureSequential::collect_state mirrors.
  std::vector<MatrixF*> collect_state();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

// Loss value and gradient w.r.t. predictions.
struct LossResult {
  float value = 0.0f;
  MatrixF grad;  // d loss / d pred
};
LossResult compute_loss(LossKind kind, const MatrixF& pred,
                        const MatrixF& target);

// One SGD step over a batch: forward, loss, backward, update. Returns loss.
float train_batch(Sequential& model, LossKind loss, const MatrixF& x,
                  const MatrixF& y, float lr);

// Classification accuracy by row-argmax (one-hot targets) or by sign when
// predictions have a single column (+-1 targets).
double accuracy(const MatrixF& pred, const MatrixF& target);

}  // namespace psml::ml
