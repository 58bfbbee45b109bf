// One party's recoverable protocol state, and the one sequence that puts it
// back.
//
// Every recovery path captures and restores exactly this state: the
// in-memory retry of secure_train_batch_resilient (its retry and its
// give-up rollback alike) and the restart-and-rejoin of
// secure_train_resumable. Retry keeps a PartyState in memory; a checkpoint
// maps it onto a durable::Manifest plus a share payload (durable.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/secure/secure_model.hpp"
#include "mpc/party.hpp"

namespace psml::ml {

struct PartyState {
  // save_share_snapshot bytes of the model's parameter shares: local
  // material, no reconstruction, safe to take while the peer is down.
  std::vector<std::uint8_t> shares;
  // Triplet-store read positions; rewinding replays the same offline
  // material, so the store must be in retain or recycle mode.
  mpc::TripletStore::Mark cursors;
  // Op sequence counter (message tags, deterministic refresh masks).
  std::uint32_t seq = 0;

  static PartyState capture(mpc::PartyContext& ctx, SecureSequential& model);

  // Drains the party's engine (discarding any stored op error: the caller
  // already holds the failure), loads the shares, rewinds the cursors,
  // resyncs the op counter (forward only — it never moves backwards, so
  // stale in-flight tags cannot be reused) and resets every compression
  // baseline (a failed attempt or a restart can leave a send baseline the
  // peer never received; both parties restore, so both restart dense).
  void restore(mpc::PartyContext& ctx, SecureSequential& model) const;
};

}  // namespace psml::ml
