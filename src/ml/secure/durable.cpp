#include "ml/secure/durable.hpp"

#include <algorithm>
#include <cstring>

#include "common/crash_point.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "ml/secure/party_state.hpp"
#include "mpc/party.hpp"
#include "mpc/triplet_io.hpp"

namespace psml::ml {

namespace {

constexpr std::uint32_t kManifestSection = durable::section_tag("MANI");
constexpr std::uint32_t kShareSection = durable::section_tag("SHRS");

// Control tags for the recovery protocol, in their own block well clear of
// the resilient layer's resync tags (kControl + 0x00e00000 + attempt).
constexpr net::Tag kRecoveryTag = mpc::tags::kControl + 0x00d00000u;
constexpr net::Tag kPrepareBase = mpc::tags::kControl + 0x00d10000u;

net::Tag prepare_tag(std::uint64_t id) {
  return kPrepareBase + static_cast<net::Tag>(id & 0xffffu);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

// Parse the id out of "ckpt-<id>.<ext>"; returns false for other names.
bool parse_ckpt_name(const std::string& name, const std::string& ext,
                     std::uint64_t& id) {
  const std::string prefix = "ckpt-";
  if (name.size() <= prefix.size() + ext.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - ext.size(), ext.size(), ext) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - ext.size());
  if (digits.empty()) {
    return false;
  }
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  id = v;
  return true;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// PartyState <-> checkpoint mapping: the manifest carries the cursors and
// the op counter, the SHRS section carries the share bytes.
durable::Manifest manifest_for(const PartyState& st, std::uint64_t step,
                               std::size_t n_batches) {
  durable::Manifest m;
  // Checkpoint id == global step number: both parties derive the same id
  // from their identical SPMD position, no extra coordination.
  m.commit_id = step;
  m.epoch = step / n_batches;
  m.step = step;
  m.seq = st.seq;
  m.matmul_cursor = st.cursors.matmul;
  m.elem_cursor = st.cursors.elem;
  m.act_cursor = st.cursors.act;
  m.layer_cursor = st.cursors.layer;
  return m;
}

PartyState state_from(const CheckpointDir::Loaded& l) {
  PartyState st;
  st.shares = l.share_payload;
  st.cursors.matmul = static_cast<std::size_t>(l.manifest.matmul_cursor);
  st.cursors.elem = static_cast<std::size_t>(l.manifest.elem_cursor);
  st.cursors.act = static_cast<std::size_t>(l.manifest.act_cursor);
  st.cursors.layer = static_cast<std::size_t>(l.manifest.layer_cursor);
  st.seq = static_cast<std::uint32_t>(l.manifest.seq);
  return st;
}

}  // namespace

CheckpointDir::CheckpointDir(std::string dir) : dir_(std::move(dir)) {
  PSML_REQUIRE(!dir_.empty(), "checkpoint dir: empty path");
  durable::ensure_dir(dir_);
}

std::string CheckpointDir::data_path(std::uint64_t id) const {
  return dir_ + "/ckpt-" + std::to_string(id) + ".psmd";
}

std::string CheckpointDir::commit_path(std::uint64_t id) const {
  return dir_ + "/ckpt-" + std::to_string(id) + ".commit";
}

std::string CheckpointDir::triplet_path() const {
  return dir_ + "/triplets.psmd";
}

std::vector<std::uint64_t> CheckpointDir::committed_ids() const {
  std::vector<std::uint64_t> ids;
  for (const std::string& name : durable::list_dir(dir_)) {
    std::uint64_t id = 0;
    if (!parse_ckpt_name(name, ".commit", id)) {
      continue;
    }
    try {
      load(id);  // full CRC validation of marker + data file
    } catch (const IOError&) {
      // Torn or corrupt — not a usable recovery point. Recovery falls back
      // to an older id; discard_above() sweeps the debris.
      continue;
    }
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void CheckpointDir::write_prepared(
    const durable::Manifest& m,
    const std::vector<std::uint8_t>& share_payload) {
  durable::Section mani;
  mani.tag = kManifestSection;
  mani.payload = m.encode();
  durable::Section shrs;
  shrs.tag = kShareSection;
  shrs.payload = share_payload;
  durable::write_sections(data_path(m.commit_id),
                          {std::move(mani), std::move(shrs)});
}

void CheckpointDir::write_commit(const durable::Manifest& m) {
  durable::Section mani;
  mani.tag = kManifestSection;
  mani.payload = m.encode();
  durable::write_sections(commit_path(m.commit_id), {std::move(mani)});
}

CheckpointDir::Loaded CheckpointDir::load(std::uint64_t id) const {
  const std::vector<durable::Section> marker =
      durable::load_sections(commit_path(id));
  const durable::Manifest committed = durable::Manifest::decode(
      durable::find_section(marker, kManifestSection, "commit manifest")
          .payload);
  if (committed.commit_id != id) {
    throw IOError("checkpoint: marker id mismatch for " + commit_path(id));
  }

  const std::vector<durable::Section> data =
      durable::load_sections(data_path(id));
  Loaded out;
  out.manifest = durable::Manifest::decode(
      durable::find_section(data, kManifestSection, "checkpoint manifest")
          .payload);
  if (!(out.manifest == committed)) {
    throw IOError("checkpoint: marker/data manifest mismatch for id " +
                  std::to_string(id));
  }
  out.share_payload =
      durable::find_section(data, kShareSection, "parameter snapshot").payload;
  return out;
}

void CheckpointDir::discard_above(std::uint64_t id) {
  for (const std::string& name : durable::list_dir(dir_)) {
    if (ends_with(name, ".tmp")) {
      durable::remove_file(dir_ + "/" + name);
      continue;
    }
    std::uint64_t file_id = 0;
    if ((parse_ckpt_name(name, ".commit", file_id) ||
         parse_ckpt_name(name, ".psmd", file_id)) &&
        file_id > id) {
      durable::remove_file(dir_ + "/" + name);
    }
  }
}

void CheckpointDir::prune_keep(std::size_t keep) {
  const std::vector<std::uint64_t> ids = committed_ids();
  if (ids.size() <= keep) {
    return;
  }
  for (std::size_t i = 0; i + keep < ids.size(); ++i) {
    // Marker first: if interrupted between the two unlinks, the leftover
    // data file is merely "prepared" and scans already ignore it.
    durable::remove_file(commit_path(ids[i]));
    durable::remove_file(data_path(ids[i]));
  }
}

void commit_checkpoint(mpc::PartyContext& ctx, CheckpointDir& dir,
                       const durable::Manifest& m,
                       const std::vector<std::uint8_t>& share_payload,
                       std::chrono::milliseconds ctrl_timeout) {
  // Phase 1 (prepare): the checkpoint data is durable locally before
  // anything is said to the peer.
  dir.write_prepared(m, share_payload);
  PSML_CRASH_POINT("ckpt.after-prepare-write");

  // Prepare exchange: each side announces the id+step it has durably
  // prepared. Receiving the peer's PREPARED(X) proves X is durable on both
  // disks, which is exactly the condition that makes writing the local
  // commit marker safe.
  std::vector<std::uint8_t> mine;
  put_u64(mine, m.commit_id);
  put_u64(mine, m.step);
  const net::Tag tag = prepare_tag(m.commit_id);
  ctx.peer().send(tag, mine);
  const net::Message reply =
      ctx.peer().recv(tag, net::deadline_after(ctrl_timeout));
  if (reply.payload.size() != 16) {
    throw ProtocolError("checkpoint prepare: bad payload size " +
                        std::to_string(reply.payload.size()));
  }
  const std::uint64_t peer_id = get_u64(reply.payload.data());
  const std::uint64_t peer_step = get_u64(reply.payload.data() + 8);
  if (peer_id != m.commit_id || peer_step != m.step) {
    throw ProtocolError(
        "checkpoint prepare: peer prepared id " + std::to_string(peer_id) +
        " step " + std::to_string(peer_step) + ", expected id " +
        std::to_string(m.commit_id) + " step " + std::to_string(m.step));
  }
  PSML_CRASH_POINT("ckpt.between-prepare-commit");

  // Phase 2 (commit): the local marker. A party that dies before this line
  // simply never committed X; its peer may have, and recovery resolves the
  // asymmetry by taking the newest id committed on BOTH sides.
  dir.write_commit(m);
  PSML_CRASH_POINT("ckpt.after-commit-write");
  PSML_DEBUG("checkpoint committed: id " << m.commit_id << " step " << m.step);
}

std::uint64_t negotiate_recovery(mpc::PartyContext& ctx,
                                 const CheckpointDir& dir,
                                 std::chrono::milliseconds ctrl_timeout) {
  // Newest 32 committed ids are plenty: the driver prunes to `keep` anyway,
  // and the cap bounds the control payload.
  std::vector<std::uint64_t> mine = dir.committed_ids();
  if (mine.size() > 32) {
    mine.erase(mine.begin(), mine.end() - 32);
  }
  std::vector<std::uint8_t> payload;
  put_u32(payload, static_cast<std::uint32_t>(mine.size()));
  for (const std::uint64_t id : mine) {
    put_u64(payload, id);
  }
  ctx.peer().send(kRecoveryTag, payload);
  const net::Message reply =
      ctx.peer().recv(kRecoveryTag, net::deadline_after(ctrl_timeout));
  if (reply.payload.size() < 4) {
    throw ProtocolError("recovery negotiation: short payload");
  }
  const std::uint32_t count = static_cast<std::uint32_t>(reply.payload[0]) |
                              static_cast<std::uint32_t>(reply.payload[1]) << 8 |
                              static_cast<std::uint32_t>(reply.payload[2]) << 16 |
                              static_cast<std::uint32_t>(reply.payload[3]) << 24;
  if (count > 32 || reply.payload.size() != 4 + 8 * std::size_t{count}) {
    throw ProtocolError("recovery negotiation: malformed id list");
  }
  std::vector<std::uint64_t> theirs(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    theirs[i] = get_u64(reply.payload.data() + 4 + 8 * std::size_t{i});
  }

  // Newest id present on both sides; both parties compute the same answer
  // from the same two lists.
  for (auto it = mine.rbegin(); it != mine.rend(); ++it) {
    if (std::find(theirs.begin(), theirs.end(), *it) != theirs.end()) {
      return *it;
    }
  }
  return 0;
}

ResumableStats secure_train_resumable(SecureEnv& env, SecureSequential& model,
                                      LossKind loss, const MatrixF& x,
                                      const MatrixF& y, std::size_t batch,
                                      float lr, std::size_t epochs,
                                      const DurableOptions& opts) {
  PSML_REQUIRE(env.ctx != nullptr, "resumable train: null party context");
  PSML_REQUIRE(batch > 0 && x.rows() >= batch,
               "resumable train: bad batch size");
  PSML_REQUIRE(x.rows() == y.rows(), "resumable train: x/y row mismatch");
  PSML_REQUIRE(opts.checkpoint_every >= 1,
               "resumable train: checkpoint_every < 1");
  PSML_REQUIRE(opts.keep >= 1, "resumable train: keep < 1");
  mpc::PartyContext& ctx = *env.ctx;
  {
    const mpc::TripletStore& store = ctx.triplets();
    PSML_REQUIRE(store.retain() || store.recycle(),
                 "resumable train: triplet store must be in retain or "
                 "recycle mode so recovery can rewind (see TripletStore)");
  }

  CheckpointDir cdir(opts.dir);

  // Offline material: reload this party's persisted store when one exists
  // (a fresh process rejoins with the identical material, no re-dealing);
  // otherwise persist the store handed to us so the NEXT restart can.
  if (opts.persist_triplets) {
    const bool retain = ctx.triplets().retain();
    const bool recycle = ctx.triplets().recycle();
    if (durable::file_exists(cdir.triplet_path())) {
      mpc::TripletStore loaded = mpc::load_store(cdir.triplet_path());
      loaded.set_retain(retain);
      loaded.set_recycle(recycle);
      ctx.set_triplets(std::move(loaded));
    } else {
      mpc::save_store(cdir.triplet_path(), ctx.triplets());
    }
  }

  ResumableStats stats;
  const std::size_t n_batches = x.rows() / batch;
  const std::size_t total_steps = epochs * n_batches;

  // Agree with the peer on the newest mutually committed checkpoint, then
  // make the local directory consistent with that agreement: everything
  // above the recovery point is a half-committed leftover and goes away.
  const std::uint64_t recovery = negotiate_recovery(ctx, cdir, opts.ctrl_timeout);
  cdir.discard_above(recovery);
  stats.resumed_commit = recovery;
  std::size_t start_step = 0;
  if (recovery != 0) {
    const CheckpointDir::Loaded l = cdir.load(recovery);
    state_from(l).restore(ctx, model);
    start_step = static_cast<std::size_t>(l.manifest.step);
    stats.resumed = true;
    PSML_INFO("resumable train: rejoining at checkpoint id "
              << recovery << " (step " << start_step << ")");
  }
  stats.first_step = start_step;
  PSML_REQUIRE(start_step <= total_steps,
               "resumable train: checkpoint is ahead of the requested run");

  for (std::size_t s = start_step; s < total_steps; ++s) {
    const std::size_t b = s % n_batches;
    ctx.set_stream_salt(b);  // per-batch-slot compression baselines
    MatrixF xb(batch, x.cols());
    MatrixF yb(batch, y.cols());
    std::memcpy(xb.data(), x.data() + b * batch * x.cols(), xb.bytes());
    std::memcpy(yb.data(), y.data() + b * batch * y.cols(), yb.bytes());

    secure_train_batch_resilient(env, model, loss, xb, yb, lr, opts.retry);
    stats.steps_run += 1;

    if ((s + 1) % opts.checkpoint_every == 0 || s + 1 == total_steps) {
      const PartyState st = PartyState::capture(ctx, model);
      commit_checkpoint(ctx, cdir, manifest_for(st, s + 1, n_batches),
                        st.shares, opts.ctrl_timeout);
      cdir.prune_keep(opts.keep);
      stats.checkpoints += 1;
    }
  }
  return stats;
}

}  // namespace psml::ml
