// Durable two-party checkpointing and restart-and-rejoin training.
//
// The resilient layer (resilient.hpp) survives *transient* transport faults
// in memory; this layer survives *process death*. Three pieces:
//
//  1. CheckpointDir — one party's on-disk checkpoint set, built entirely on
//     common/durable_io (atomic renames + CRC framing). A checkpoint id X
//     is two files:
//
//       ckpt-<X>.psmd    "MANI" manifest section + "SHRS" share-snapshot
//                        section (this party's parameter shares — local
//                        material, no reconstruction needed to write it)
//       ckpt-<X>.commit  the commit marker (a copy of the manifest); its
//                        existence means "this party knows BOTH parties
//                        hold ckpt-<X> durably"
//
//     A data file without its marker is a *prepared but uncommitted*
//     checkpoint; scans ignore it and recovery discards it.
//
//  2. The two-phase commit exchange. Checkpoint ids equal the global step
//     number, so both parties derive the same id with no coordination:
//
//       write ckpt-<X>.psmd durably              (prepare, local)
//       exchange PREPARED(X) on a per-id control tag
//       write ckpt-<X>.commit durably            (commit, local)
//
//     If either party dies anywhere in this sequence, at most one party
//     holds the commit marker for X, and the recovery negotiation below
//     falls back to the newest id committed on BOTH sides — the half-
//     committed X is discarded. The named crash points
//     "ckpt.after-prepare-write", "ckpt.between-prepare-commit" and
//     "ckpt.after-commit-write" (plus durable_io's "durable.pre-rename")
//     let chaos tests kill a party at each hazard.
//
//  3. secure_train_resumable — the restart-and-rejoin driver. On entry it
//     negotiates the recovery point with the peer (an exchange of committed
//     id lists riding right above the transport's "PSMH" hello; the agreed
//     point R is the newest id in both lists), restores R's PartyState
//     (party_state.hpp: shares, triplet cursors, sequence counter, fresh
//     compression baselines), then trains from step R checkpointing every
//     N steps. Both parties run the identical
//     SPMD loop, so a fresh pair of processes pointed at their respective
//     checkpoint directories rejoins exactly where the last mutual commit
//     left off — and (compression off) replays to bit-identical final
//     shares.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/durable_io.hpp"
#include "ml/secure/resilient.hpp"

namespace psml::mpc {
class PartyContext;
}

namespace psml::ml {

// One party's checkpoint directory. Methods throw psml::IOError on storage
// failure; scans skip (rather than throw on) individual corrupt or torn
// checkpoints so one bad file never blocks recovery to an older good one.
class CheckpointDir {
 public:
  explicit CheckpointDir(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string data_path(std::uint64_t id) const;
  std::string commit_path(std::uint64_t id) const;
  std::string triplet_path() const;

  // Ids with a valid commit marker AND a valid data file, ascending.
  // CRC-corrupt or missing halves disqualify an id silently.
  std::vector<std::uint64_t> committed_ids() const;

  // Phase 1: durably write the checkpoint data file.
  void write_prepared(const durable::Manifest& m,
                      const std::vector<std::uint8_t>& share_payload);
  // Phase 2: durably write the commit marker.
  void write_commit(const durable::Manifest& m);

  struct Loaded {
    durable::Manifest manifest;
    std::vector<std::uint8_t> share_payload;
  };
  // Load a checkpoint's manifest + share snapshot; throws IOError if either
  // file is missing or corrupt, or the marker disagrees with the data file.
  Loaded load(std::uint64_t id) const;

  // Recovery cleanup: remove every checkpoint (data and/or marker) with an
  // id above `id` — the half-committed leftovers — plus any stale *.tmp
  // from a write torn by a crash.
  void discard_above(std::uint64_t id);

  // Retention: drop committed checkpoints beyond the newest `keep`.
  void prune_keep(std::size_t keep);

 private:
  std::string dir_;
};

// Two-phase durable checkpoint commit (see file comment). Blocks until the
// peer has also written its prepared file; throws NetworkError/TimeoutError
// if the peer disappears (the checkpoint stays prepared-only and recovery
// discards it) and ProtocolError if the peer is preparing a different id.
void commit_checkpoint(mpc::PartyContext& ctx, CheckpointDir& dir,
                       const durable::Manifest& m,
                       const std::vector<std::uint8_t>& share_payload,
                       std::chrono::milliseconds ctrl_timeout);

// Recovery-point negotiation: exchange committed-id lists with the peer and
// return the newest mutually committed id, or 0 when there is none (fresh
// start). Pure agreement — applying the result (loads/rewinds/discards) is
// the driver's job.
std::uint64_t negotiate_recovery(mpc::PartyContext& ctx,
                                 const CheckpointDir& dir,
                                 std::chrono::milliseconds ctrl_timeout);

struct DurableOptions {
  // Checkpoint directory for THIS party. The two parties use distinct
  // directories (each holds only its own shares).
  std::string dir;
  // Steps between checkpoints; the final step always checkpoints.
  std::size_t checkpoint_every = 1;
  // Committed checkpoints retained after each commit (>= 1; 2 keeps a
  // fallback for a torn newest).
  std::size_t keep = 2;
  // Persist the TripletStore into the directory on first run and reload it
  // on restart, so a fresh process rejoins with identical offline material
  // without re-dealing.
  bool persist_triplets = true;
  // Deadline for the prepare and negotiation control exchanges.
  std::chrono::milliseconds ctrl_timeout{2000};
  // Per-step transient-fault policy, passed through to
  // secure_train_batch_resilient.
  RetryPolicy retry;
};

struct ResumableStats {
  std::size_t steps_run = 0;     // steps executed by THIS invocation
  std::size_t checkpoints = 0;   // commits completed by this invocation
  bool resumed = false;          // true when a mutual checkpoint was loaded
  std::uint64_t resumed_commit = 0;  // the negotiated recovery id (0 = none)
  std::uint64_t first_step = 0;  // global step index this run started at
};

// Train `epochs` x (rows/batch) steps with durable checkpoints every
// `opts.checkpoint_every` steps, negotiating the recovery point with the
// peer on entry. Requires a retain- or recycle-mode TripletStore (same
// contract as the resilient layer). Transport failures that outlive
// opts.retry propagate as NetworkError with all durable state intact: the
// caller (or a supervisor) restarts the process and calls this again.
ResumableStats secure_train_resumable(SecureEnv& env, SecureSequential& model,
                                      LossKind loss, const MatrixF& x,
                                      const MatrixF& y, std::size_t batch,
                                      float lr, std::size_t epochs,
                                      const DurableOptions& opts);

}  // namespace psml::ml
