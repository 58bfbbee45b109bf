#include "mpc/triplet_io.hpp"

#include <cstring>
#include <deque>

#include "common/durable_io.hpp"
#include "common/error.hpp"
#include "common/taint.hpp"

namespace psml::mpc {

namespace {

constexpr std::uint32_t kTripletSection = durable::section_tag("TRIP");
constexpr std::uint32_t kPoolSpecSection = durable::section_tag("TSPC");
constexpr std::uint32_t kPoolParty0Section = durable::section_tag("TRP0");
constexpr std::uint32_t kPoolParty1Section = durable::section_tag("TRP1");

// First word of every store payload; change it whenever a kind's matrix
// list changes. A payload of an earlier layout starts with its matmul count
// instead, which is never this value, so it fails decode with IOError
// instead of parsing as the current layout.
constexpr std::uint32_t kStoreLayout = durable::section_tag("TRL3");

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

// Bounded little-endian reader; every read is length-checked so a payload
// that somehow dodged the CRC still yields IOError, never UB.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    need(4);
    const std::uint8_t* p = bytes_.data() + pos_;
    pos_ += 4;
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  }

  void bytes_into(void* dst, std::size_t n) {
    need(n);
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) {
    if (remaining() < n) {
      throw IOError("triplet_io: truncated payload");
    }
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

// declassify(): persisting this party's *own* additive shares to its own
// durable storage — the same words the process already holds in memory, so
// the file reveals nothing beyond process memory itself (see header note;
// audited in docs/ANALYSIS.md).
void put_matrix(std::vector<std::uint8_t>& out, const MatrixF& m) {
  put_u32(out, static_cast<std::uint32_t>(m.rows()));
  put_u32(out, static_cast<std::uint32_t>(m.cols()));
  const MatrixF& plain = psml::declassify(m);
  const std::size_t base = out.size();
  out.resize(base + plain.bytes());
  std::memcpy(out.data() + base, plain.data(), plain.bytes());
}

MatrixF get_matrix(Reader& r) {
  const std::uint32_t rows = r.u32();
  const std::uint32_t cols = r.u32();
  // Check the claimed size against the bytes left before allocating: a
  // corrupt header must fail typed, not as a huge allocation.
  const std::uint64_t floats = std::uint64_t{rows} * cols;
  if (floats > r.remaining() / sizeof(float)) {
    throw IOError("triplet_io: matrix larger than the remaining payload");
  }
  MatrixF m(rows, cols);
  r.bytes_into(m.data(), m.bytes());
  return m;
}

// One kind's material: u32 count | share*, each share's matrices in
// for_each_matrix order.
template <class Share>
void put_kind(std::vector<std::uint8_t>& out, const std::deque<Share>& q) {
  put_u32(out, static_cast<std::uint32_t>(q.size()));
  for (const Share& share : q) {
    for_each_matrix(share, [&out](const MatrixF& m) { put_matrix(out, m); });
  }
}

template <class Share>
void get_kind(Reader& r, TripletStore& store,
              void (TripletStore::*push)(Share)) {
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    Share share;
    for_each_matrix(share, [&r](MatrixF& m) { m = get_matrix(r); });
    (store.*push)(std::move(share));
  }
}

}  // namespace

std::vector<std::uint8_t> encode_store(const TripletStore& store) {
  std::vector<std::uint8_t> out;
  put_u32(out, kStoreLayout);
  put_kind(out, store.matmuls());
  put_kind(out, store.elementwises());
  put_kind(out, store.activations());
  put_kind(out, store.layers());
  return out;
}

TripletStore decode_store(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  if (r.u32() != kStoreLayout) {
    throw IOError("triplet_io: store payload of an unknown layout");
  }
  TripletStore store;
  get_kind(r, store, &TripletStore::push_matmul);
  get_kind(r, store, &TripletStore::push_elementwise);
  get_kind(r, store, &TripletStore::push_activation);
  get_kind(r, store, &TripletStore::push_layer);
  if (!r.done()) {
    throw IOError("triplet_io: trailing bytes after store payload");
  }
  return store;
}

void save_store(const std::string& path, const TripletStore& store) {
  durable::Section s;
  s.tag = kTripletSection;
  s.payload = encode_store(store);
  durable::write_sections(path, {std::move(s)});
}

TripletStore load_store(const std::string& path) {
  const std::vector<durable::Section> sections = durable::load_sections(path);
  const durable::Section& s =
      durable::find_section(sections, kTripletSection, "triplet store");
  return decode_store(s.payload);
}

void save_pool_file(const std::string& path, const TripletSpec& spec,
                    const TripletStore& s0, const TripletStore& s1) {
  durable::Section spec_s;
  spec_s.tag = kPoolSpecSection;
  put_u32(spec_s.payload, static_cast<std::uint32_t>(spec.kind));
  put_u32(spec_s.payload, static_cast<std::uint32_t>(spec.m));
  put_u32(spec_s.payload, static_cast<std::uint32_t>(spec.k));
  put_u32(spec_s.payload, static_cast<std::uint32_t>(spec.n));
  durable::Section p0;
  p0.tag = kPoolParty0Section;
  p0.payload = encode_store(s0);
  durable::Section p1;
  p1.tag = kPoolParty1Section;
  p1.payload = encode_store(s1);
  durable::write_sections(path,
                          {std::move(spec_s), std::move(p0), std::move(p1)});
}

PoolFile load_pool_file(const std::string& path) {
  const std::vector<durable::Section> sections = durable::load_sections(path);
  const durable::Section& spec_s =
      durable::find_section(sections, kPoolSpecSection, "pool spec");
  Reader r(spec_s.payload);
  PoolFile out;
  const std::uint32_t kind = r.u32();
  if (kind > static_cast<std::uint32_t>(TripletKind::kLayer)) {
    throw IOError("triplet_io: pool file carries unknown triplet kind");
  }
  out.spec.kind = static_cast<TripletKind>(kind);
  out.spec.m = r.u32();
  out.spec.k = r.u32();
  out.spec.n = r.u32();
  if (!r.done()) {
    throw IOError("triplet_io: trailing bytes after pool spec");
  }
  out.s0 = decode_store(
      durable::find_section(sections, kPoolParty0Section, "pool party 0")
          .payload);
  out.s1 = decode_store(
      durable::find_section(sections, kPoolParty1Section, "pool party 1")
          .payload);
  // Counts are structural metadata (public by construction — they already
  // appear in the section framing), not secret material.
  PSML_PUBLIC const std::size_t mm0 = out.s0.matmul_size();
  PSML_PUBLIC const std::size_t mm1 = out.s1.matmul_size();
  PSML_PUBLIC const std::size_t el0 = out.s0.elementwise_size();
  PSML_PUBLIC const std::size_t el1 = out.s1.elementwise_size();
  PSML_PUBLIC const std::size_t ac0 = out.s0.activation_size();
  PSML_PUBLIC const std::size_t ac1 = out.s1.activation_size();
  PSML_PUBLIC const std::size_t ly0 = out.s0.layer_size();
  PSML_PUBLIC const std::size_t ly1 = out.s1.layer_size();
  if (mm0 != mm1 || el0 != el1 || ac0 != ac1 || ly0 != ly1) {
    throw IOError("triplet_io: pool file halves do not pair up");
  }
  return out;
}

}  // namespace psml::mpc
