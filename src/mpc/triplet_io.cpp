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

using Shape = std::pair<std::size_t, std::size_t>;

// `want`, when set, is the shape the matrix must have; its header is
// checked against it before anything is read or allocated.
MatrixF get_matrix(Reader& r, const Shape* want) {
  const std::uint32_t rows = r.u32();
  const std::uint32_t cols = r.u32();
  if (want != nullptr && (rows != want->first || cols != want->second)) {
    throw IOError("triplet_io: pool entry shape differs from its spec");
  }
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

// Reads one kind's material into `q`. With a `want` spec (a pool file's
// half), only entries of want's kind and shapes are accepted.
template <class Share>
void get_kind(Reader& r, TripletKind kind, std::deque<Share>& q,
              const TripletSpec* want) {
  const std::uint32_t n = r.u32();
  std::vector<Shape> shapes;
  if (want != nullptr && n != 0) {
    if (kind != want->kind) {
      throw IOError("triplet_io: pool file holds material of another kind");
    }
    shapes = material_shapes(*want);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    Share share;
    std::size_t at = 0;
    for_each_matrix(share, [&](MatrixF& m) {
      m = get_matrix(r, shapes.empty() ? nullptr : &shapes.at(at++));
    });
    q.push_back(std::move(share));
  }
}

TripletStore decode_checked(const std::vector<std::uint8_t>& bytes,
                            const TripletSpec* want) {
  Reader r(bytes);
  if (r.u32() != kStoreLayout) {
    throw IOError("triplet_io: store payload of an unknown layout");
  }
  TripletStore store;
  TripletStore::for_each_queue([&](TripletKind kind, auto queue) {
    get_kind(r, kind, store.*queue, want);
  });
  if (!r.done()) {
    throw IOError("triplet_io: trailing bytes after store payload");
  }
  return store;
}

}  // namespace

std::vector<std::uint8_t> encode_store(const TripletStore& store) {
  std::vector<std::uint8_t> out;
  put_u32(out, kStoreLayout);
  TripletStore::for_each_queue(
      [&](TripletKind, auto queue) { put_kind(out, store.*queue); });
  return out;
}

TripletStore decode_store(const std::vector<std::uint8_t>& bytes) {
  return decode_checked(bytes, nullptr);
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
  // The spec and the kind count are section framing, public by
  // construction.
  PSML_PUBLIC const std::size_t kinds = TripletStore::kinds();
  const std::uint32_t kind = r.u32();
  if (kind >= kinds) {
    throw IOError("triplet_io: pool file carries unknown triplet kind");
  }
  TripletSpec spec;
  spec.kind = static_cast<TripletKind>(kind);
  spec.m = r.u32();
  spec.k = r.u32();
  spec.n = r.u32();
  if (!r.done()) {
    throw IOError("triplet_io: trailing bytes after pool spec");
  }
  // Each half may hold only the spec's kind and shapes, checked as the
  // decoder reads each count and matrix header.
  PoolFile out;
  out.spec = spec;
  out.s0 = decode_checked(
      durable::find_section(sections, kPoolParty0Section, "pool party 0")
          .payload,
      &spec);
  out.s1 = decode_checked(
      durable::find_section(sections, kPoolParty1Section, "pool party 1")
          .payload,
      &spec);
  // Counts are structural metadata (public by construction — they already
  // appear in the section framing), not secret material.
  PSML_PUBLIC const std::size_t n0 = out.s0.size();
  PSML_PUBLIC const std::size_t n1 = out.s1.size();
  if (n0 != n1) {
    throw IOError("triplet_io: pool file halves do not pair up");
  }
  return out;
}

}  // namespace psml::mpc
