// ParSecureML public API: one-call secure training / inference runs.
//
// A run wires up the three-party topology of Fig. 1b in one process — a
// client (dealer) and two computation servers connected by channels — then
// executes the configured workload and reports phase timings, traffic and
// accuracy. The same entry points also run the non-secure baselines
// ("original" CPU ML, non-secure GPU ML) so every comparison in the paper's
// evaluation is a pair of run_* calls.
//
// Execution modes:
//   kPlainCpu      — original ML, single-thread naive GEMM (Table 1 baseline)
//   kPlainGpu      — original ML on the simulated GPU (Table 2 reference)
//   kSecureML      — two-party computation, no GPU, no optimizations
//                    (the SecureML reimplementation the paper benchmarks)
//   kParSecureML   — full system: adaptive GPU, double pipeline, compression,
//                    CPU parallelism, Tensor-Core GEMM
//   kCustom        — caller-provided PartyOptions (ablations)
#pragma once

#include <map>
#include <string>

#include "compress/compressed_channel.hpp"
#include "data/datasets.hpp"
#include "ml/models.hpp"
#include "mpc/party.hpp"

namespace psml::parsecureml {

enum class Mode { kPlainCpu, kPlainGpu, kSecureML, kParSecureML, kCustom };

std::string to_string(Mode mode);

// The PartyOptions a given mode runs the servers with.
mpc::PartyOptions options_for_mode(Mode mode);

struct RunConfig {
  ml::ModelKind model = ml::ModelKind::kMlp;
  data::DatasetKind dataset = data::DatasetKind::kMnist;
  std::size_t samples = 256;
  std::size_t batch = 128;
  std::size_t epochs = 1;
  float lr = 0.1f;
  Mode mode = Mode::kParSecureML;
  // Used when mode == kCustom.
  mpc::PartyOptions custom_opts;
  std::uint64_t seed = 99;
  // Reconstruct trained weights and score on the training set afterwards.
  bool evaluate = true;
  std::size_t rnn_steps = 4;
  // When non-empty and training with evaluate on, the reconstructed model is
  // checkpointed here (ml/checkpoint.hpp format).
  std::string checkpoint_path;
};

struct RunResult {
  // Phase wall times (seconds). Plain modes report everything under online.
  double offline_generate_sec = 0.0;
  double offline_transmit_sec = 0.0;
  double online_sec = 0.0;
  double total_sec = 0.0;
  // Aggregated profiler phases across both servers (online.compute1,
  // online.communicate, online.compute2, ...).
  std::map<std::string, double> online_phases;
  // Post-run evaluation (when cfg.evaluate).
  double accuracy = 0.0;
  // Inter-server traffic (bytes actually sent, both directions).
  std::uint64_t server_to_server_bytes = 0;
  // Compressed-transmission statistics, both servers aggregated.
  compress::Stats compression;
  // Offline material size (bytes per server).
  std::size_t offline_bytes = 0;
};

// The label scheme / model config a run uses (exposed for benches/tests).
data::LabelScheme scheme_for_model(ml::ModelKind kind);
ml::ModelConfig model_config_for(const RunConfig& cfg,
                                 const data::Geometry& geometry);

// Trains cfg.epochs over the dataset; returns timings + accuracy.
RunResult run_training(const RunConfig& cfg);

// Forward passes over the dataset (secure inference); accuracy is computed
// from client-reconstructed predictions.
RunResult run_inference(const RunConfig& cfg);

}  // namespace psml::parsecureml
