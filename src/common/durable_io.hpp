// Crash-consistent file I/O: the single place in the library that is allowed
// to persist state to disk (psml-lint rule `durable-io` flags direct
// ofstream/fwrite persistence anywhere else under src/).
//
// Two guarantees, composed:
//
//   1. Atomic visibility. atomic_write_file() writes to `<path>.tmp`,
//      fsyncs the file, rename(2)s over the destination, then fsyncs the
//      parent directory. A reader therefore sees either the complete old
//      file or the complete new file — never a torn one. A crash mid-write
//      leaves at most a stale `.tmp` that loaders ignore and checkpoint
//      scans prune.
//
//   2. Detectable corruption. Every durable file is a sequence of
//      CRC-framed sections behind a versioned header:
//
//        file   := u32 magic "PSMD" | u32 version | u32 section_count
//                | u32 header_crc(preceding 12 bytes)
//                | section*
//        section:= u32 tag | u64 payload_len | u32 payload_crc
//                | u32 section_crc(preceding 16 bytes) | payload bytes
//
//      (little-endian throughout — same convention as the "PSM2" wire). Any
//      bit flip or truncation anywhere fails a CRC or a length check and
//      loads throw a typed IOError; garbage is never handed to a
//      deserializer. Rule of thumb: IOError = the storage broke (fall back
//      to an older checkpoint), InvalidArgument = the caller misused the
//      API.
//
// On top of the section framing sits Manifest, the small fixed record a
// checkpoint carries so recovery knows *where* in training the snapshot was
// taken: epoch/step, the channel sequence counter, the four TripletStore
// cursors, and the two-party commit id (see ml/secure/durable.hpp for the
// commit protocol that decides which manifest wins after a crash).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace psml::durable {

// ---------------------------------------------------------------------------
// Section framing

struct Section {
  std::uint32_t tag = 0;
  std::vector<std::uint8_t> payload;
};

// Four-char section/file tags, e.g. section_tag("MANI").
constexpr std::uint32_t section_tag(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

inline constexpr std::uint32_t kFileMagic = section_tag("PSMD");
inline constexpr std::uint32_t kFileVersion = 1;

// Serialize sections into the framed byte image (header + CRC frames).
std::vector<std::uint8_t> encode_sections(const std::vector<Section>& sections);

// Parse and verify a framed byte image. Throws IOError on bad magic,
// unsupported version, truncation, or any CRC mismatch.
std::vector<Section> decode_sections(const std::vector<std::uint8_t>& bytes);

// Find a section by tag; throws IOError (with `what` in the message) if the
// file lacks it.
const Section& find_section(const std::vector<Section>& sections,
                            std::uint32_t tag, const std::string& what);

// ---------------------------------------------------------------------------
// Atomic file replacement

// Write `bytes` to `path` crash-consistently: temp file + fsync + rename +
// parent-directory fsync. Throws IOError on any syscall failure. Crash
// points "durable.pre-rename" / "durable.post-rename" bracket the rename so
// chaos tests can die with the temp file on disk (torn write simulated) or
// with the rename durable but the caller's follow-up not yet run.
void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

// Read a whole file. Throws IOError if missing or unreadable.
std::vector<std::uint8_t> read_file(const std::string& path);

bool file_exists(const std::string& path);

// Remove a file if present (used by checkpoint pruning). Missing file is
// not an error; any other unlink failure throws IOError.
void remove_file(const std::string& path);

// Create a directory (and parents) if absent. Throws IOError on failure.
void ensure_dir(const std::string& path);

// List regular-file names (not paths) in a directory. Missing directory
// yields an empty list.
std::vector<std::string> list_dir(const std::string& path);

// Convenience composition: encode + atomic write / read + decode.
void write_sections(const std::string& path,
                    const std::vector<Section>& sections);
std::vector<Section> load_sections(const std::string& path);

// ---------------------------------------------------------------------------
// Checkpoint manifest

// Fixed-size position record carried by every checkpoint (section "MANI").
struct Manifest {
  std::uint64_t commit_id = 0;       // two-party checkpoint id (monotonic)
  std::uint64_t epoch = 0;           // training epoch at snapshot
  std::uint64_t step = 0;            // global step; resume starts at step
  std::uint64_t seq = 0;             // channel sequence counter to resync to
  std::uint64_t matmul_cursor = 0;   // TripletStore cursors at snapshot —
  std::uint64_t elem_cursor = 0;     //   rewind target so the resumed run
  std::uint64_t act_cursor = 0;      //   consumes the same triplets
  std::uint64_t layer_cursor = 0;

  std::vector<std::uint8_t> encode() const;
  // Throws IOError on wrong size / unsupported version. A manifest written
  // before layer_cursor existed is 8 bytes short and fails the size check,
  // so recovery skips its checkpoint as unusable.
  static Manifest decode(const std::vector<std::uint8_t>& bytes);

  bool operator==(const Manifest& o) const = default;
};

}  // namespace psml::durable
