#include "ml/checkpoint.hpp"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/durable_io.hpp"
#include "ml/secure/secure_model.hpp"

namespace psml::ml {

namespace {

constexpr std::uint32_t kMagic = 0x50534d43;  // "PSMC"
constexpr std::uint32_t kVersion = 1;

enum class LayerTag : std::uint32_t {
  kDense = 1,
  kConv2D = 2,
  kPiecewise = 3,
  kRelu = 4,
  kRnn = 100,
};

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw InvalidArgument("checkpoint: truncated stream");
  return v;
}

void write_matrix(std::ostream& os, const MatrixF& m) {
  write_u32(os, static_cast<std::uint32_t>(m.rows()));
  write_u32(os, static_cast<std::uint32_t>(m.cols()));
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.bytes()));
}

MatrixF read_matrix(std::istream& is) {
  const std::uint32_t rows = read_u32(is);
  const std::uint32_t cols = read_u32(is);
  MatrixF m(rows, cols);
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.bytes()));
  if (!is) throw InvalidArgument("checkpoint: truncated matrix data");
  return m;
}

void read_matrix_into(std::istream& is, MatrixF& dst, const char* what) {
  MatrixF m = read_matrix(is);
  PSML_REQUIRE(m.same_shape(dst),
               std::string("checkpoint: shape mismatch for ") + what);
  dst = std::move(m);
}

LayerTag tag_of(Layer& layer) {
  if (dynamic_cast<Dense*>(&layer) != nullptr) return LayerTag::kDense;
  if (dynamic_cast<Conv2D*>(&layer) != nullptr) return LayerTag::kConv2D;
  if (dynamic_cast<PiecewiseActivation*>(&layer) != nullptr) {
    return LayerTag::kPiecewise;
  }
  if (dynamic_cast<ReLU*>(&layer) != nullptr) return LayerTag::kRelu;
  if (dynamic_cast<RnnLayer*>(&layer) != nullptr) return LayerTag::kRnn;
  throw InvalidArgument("checkpoint: unknown layer type");
}

void check_header(std::istream& is) {
  if (read_u32(is) != kMagic) {
    throw InvalidArgument("checkpoint: bad magic (not a psml checkpoint)");
  }
  if (read_u32(is) != kVersion) {
    throw InvalidArgument("checkpoint: unsupported version");
  }
}

}  // namespace

void save_model(std::ostream& os, Sequential& model) {
  write_u32(os, kMagic);
  write_u32(os, kVersion);
  write_u32(os, static_cast<std::uint32_t>(model.size()));
  for (std::size_t i = 0; i < model.size(); ++i) {
    Layer& layer = model.layer(i);
    write_u32(os, static_cast<std::uint32_t>(tag_of(layer)));
    std::vector<MatrixF*> params;
    layer.collect_state(params);
    for (const MatrixF* m : params) write_matrix(os, *m);
  }
}

void load_model(std::istream& is, Sequential& model) {
  check_header(is);
  const std::uint32_t count = read_u32(is);
  PSML_REQUIRE(count == model.size(), "checkpoint: layer count mismatch");
  for (std::size_t i = 0; i < model.size(); ++i) {
    Layer& layer = model.layer(i);
    const auto tag = static_cast<LayerTag>(read_u32(is));
    PSML_REQUIRE(tag == tag_of(layer), "checkpoint: layer kind mismatch");
    std::vector<MatrixF*> params;
    layer.collect_state(params);
    for (MatrixF* m : params) read_matrix_into(is, *m, "layer parameter");
  }
}

namespace {

// Path-level checkpoints go through common/durable_io: the serialized model
// rides in a single CRC-framed "MODL" section, written temp+fsync+rename.
// Torn or corrupted files — and any stream-level serialization failure —
// surface as IOError; architecture mismatches inside an intact file stay
// InvalidArgument (stream-level contract unchanged).
constexpr std::uint32_t kModelSection = durable::section_tag("MODL");

}  // namespace

void save_model(const std::string& path, Sequential& model) {
  std::ostringstream os(std::ios::binary);
  save_model(os, model);
  if (!os.good()) {
    throw IOError("checkpoint: serialization stream failure for " + path);
  }
  const std::string body = os.str();
  durable::Section s;
  s.tag = kModelSection;
  s.payload.assign(body.begin(), body.end());
  durable::write_sections(path, {std::move(s)});
}

void load_model(const std::string& path, Sequential& model) {
  const std::vector<durable::Section> sections = durable::load_sections(path);
  const durable::Section& s =
      durable::find_section(sections, kModelSection, "model checkpoint");
  std::istringstream is(
      std::string(s.payload.begin(), s.payload.end()), std::ios::binary);
  load_model(is, model);
}

namespace {
constexpr std::uint32_t kShareMagic = 0x50535353;  // "PSSS"
}  // namespace

void save_share_snapshot(std::ostream& os, SecureSequential& model) {
  const std::vector<MatrixF*> state = model.collect_state();
  write_u32(os, kShareMagic);
  write_u32(os, kVersion);
  write_u32(os, static_cast<std::uint32_t>(state.size()));
  for (const MatrixF* m : state) write_matrix(os, *m);
}

void load_share_snapshot(std::istream& is, SecureSequential& model) {
  if (read_u32(is) != kShareMagic) {
    throw InvalidArgument("share snapshot: bad magic");
  }
  if (read_u32(is) != kVersion) {
    throw InvalidArgument("share snapshot: unsupported version");
  }
  std::vector<MatrixF*> state = model.collect_state();
  const std::uint32_t count = read_u32(is);
  PSML_REQUIRE(count == state.size(), "share snapshot: state count mismatch");
  for (MatrixF* m : state) read_matrix_into(is, *m, "share snapshot matrix");
}

}  // namespace psml::ml
