// TripletStore persistence: serialize one server's offline material to a
// crash-consistent durable file and load it back.
//
// This is the durable leg of the offline/online split (ROADMAP item 2): a
// dealer run — the expensive Z = U x V phase — survives process restarts, so
// a recovered server resumes consuming the *same* triplet sequence its peer
// holds instead of re-dealing. Combined with Manifest cursors
// (common/durable_io.hpp) and TripletStore::rewind, a restarted party
// repositions mid-stream exactly.
//
// Security note: each file holds exactly one party's additive shares — the
// same words that party already holds in memory — never both parties'. The
// on-disk file is as sensitive as the process's own address space and no
// more; serialization sites use psml::declassify with that justification
// (audited in docs/ANALYSIS.md).
//
// Format: one durable_io section "TRIP" whose payload is
//   u32 layout | u32 n_matmul | matmul* | u32 n_elem | elem*
//   | u32 n_act | act* | u32 n_layer | layer*
// where each entry is its kind's matrices in for_each_matrix order
// (triplet.hpp) and a matrix is u32 rows | u32 cols | f32 data. The layout
// word marks the current matrix lists: a payload of an earlier layout
// (whose activation entries held eight matrices, not five) fails with
// IOError, so a stale store or pool file is rejected, never misparsed.
// Corruption anywhere is caught by the section CRC (IOError) before this
// decoder runs; decode length checks — every matrix header is checked
// against the bytes left before anything is allocated — are a second line
// of defence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpc/triplet.hpp"

namespace psml::mpc {

// In-memory encode/decode of the "TRIP" payload (unit-testable without the
// filesystem). decode_store throws IOError on an unknown layout word,
// truncation or trailing bytes.
std::vector<std::uint8_t> encode_store(const TripletStore& store);
TripletStore decode_store(const std::vector<std::uint8_t>& bytes);

// Durable file round trip (atomic write; CRC-verified load). load_store
// throws IOError if the file is missing, torn, or corrupt. Mode flags
// (retain/recycle) are runtime configuration, not material — the caller
// re-applies them after load.
void save_store(const std::string& path, const TripletStore& store);
TripletStore load_store(const std::string& path);

// ---------------------------------------------------------------------------
// TripletFactory pool files
//
// One shape-keyed factory pool persists as one durable file of three
// sections: "TSPC" (the TripletSpec: kind | m | k | n), and "TRP0" / "TRP1"
// (both parties' halves of the pooled pairs, each in the store payload
// format above). The dealer-side factory legitimately holds both halves —
// it IS the client of the paper's client-aided model — so unlike the
// per-party store files, a pool file contains complete triplets and must
// stay on the dealer host (documented in docs/ANALYSIS.md §11).
//
// load_pool_file throws IOError on any torn/missing/corrupt input, and when
// the file does not hold its spec's material: a half holding another kind,
// an entry whose shapes differ from the spec's, or halves of unequal
// counts. Pool material is regenerable, so factory restart treats a bad
// file as a skip-and-regenerate, never a crash.
struct PoolFile {
  TripletSpec spec;
  TripletStore s0, s1;
};

void save_pool_file(const std::string& path, const TripletSpec& spec,
                    const TripletStore& s0, const TripletStore& s1);
PoolFile load_pool_file(const std::string& path);

}  // namespace psml::mpc
