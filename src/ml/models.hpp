// Model factories: the six benchmark models of the paper (CNN, MLP, RNN,
// linear regression, logistic regression, SVM), each in a plaintext and a
// secure (two-share) build with identical initial weights.
#pragma once

#include <string>

#include "ml/plain/model.hpp"
#include "ml/secure/secure_model.hpp"

namespace psml::ml {

enum class ModelKind { kCnn, kMlp, kRnn, kLinear, kLogistic, kSvm };

std::string to_string(ModelKind kind);
LossKind loss_for(ModelKind kind);

struct ModelConfig {
  ModelKind kind = ModelKind::kMlp;
  // Flattened input feature count; for the RNN, the features of one
  // timestep (a row holds rnn_steps of them).
  std::size_t input_dim = 0;
  // Image geometry (CNN only); input_dim must equal channels * h * w.
  std::size_t image_h = 0, image_w = 0, channels = 1;
  // Output width: 10 classes for CNN/MLP, 1 for linear/logistic/SVM/RNN-reg.
  std::size_t classes = 10;
  // RNN geometry.
  std::size_t rnn_steps = 4, rnn_hidden = 32;
  // Engine for the plaintext build.
  Engine engine = Engine::kCpuParallel;
  std::uint64_t seed = 7;

  std::size_t output_dim() const { return classes; }
};

// Plaintext build. The RNN is a one-layer model (ml::RnnLayer).
Sequential build_plain(const ModelConfig& cfg);

// Secure build: two SecureSequential instances holding the two additive
// shares of the same initial weights build_plain(cfg) produces.
struct SecurePair {
  SecureSequential m0, m1;
};
SecurePair build_secure_pair(const ModelConfig& cfg);

// Reconstructs trained weights from the two secure halves into a plaintext
// model with cfg's architecture (used for post-training evaluation).
Sequential reconstruct_plain(const ModelConfig& cfg, SecureSequential& m0,
                             SecureSequential& m1);

// The convolution geometry the CNN builder uses for a given config.
tensor::ConvShape cnn_conv_shape(const ModelConfig& cfg);

}  // namespace psml::ml
