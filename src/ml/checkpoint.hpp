// Model checkpointing: save/load trained weights to a portable binary file.
//
// Stream format: magic | version | layer count | per layer {kind tag,
// parameter matrices in Layer::collect_state order}. Covers every
// Sequential layer (Dense/Conv2D/RnnLayer/activations). The
// secure world reuses this through reconstruct_plain: reconstruct, save; and
// a saved plaintext model can be re-shared with mpc::share_float to resume
// secure training.
//
// The path-level overloads wrap the stream format in a common/durable_io
// section file: written crash-consistently (temp + fsync + atomic rename)
// and CRC-framed, so a torn or bit-flipped checkpoint is detected at load
// as a typed IOError instead of being deserialized as garbage. Error split:
// IOError = file missing/torn/corrupt or a write failed; InvalidArgument =
// the file is intact but the model architecture doesn't match.
#pragma once

#include <iosfwd>
#include <string>

#include "ml/plain/model.hpp"

namespace psml::ml {

void save_model(const std::string& path, Sequential& model);

// Loads weights into an already-built model with the identical architecture;
// throws InvalidArgument on any mismatch (layer count, kinds, shapes).
void load_model(const std::string& path, Sequential& model);

// Stream variants (unit-testable without the filesystem).
void save_model(std::ostream& os, Sequential& model);
void load_model(std::istream& is, Sequential& model);

class SecureSequential;

// Share snapshot: serializes one server's *parameter shares* without any
// reconstruction or communication — purely local, so it is safe to take
// even while the peer is unreachable. Used by the fault-tolerant training
// loop to roll a model back to the start of a failed step before retrying.
// load throws InvalidArgument on any shape/count mismatch.
void save_share_snapshot(std::ostream& os, SecureSequential& model);
void load_share_snapshot(std::istream& is, SecureSequential& model);

}  // namespace psml::ml
