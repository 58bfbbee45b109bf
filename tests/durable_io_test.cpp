// Crash-consistent I/O: section framing fuzz (every byte flipped, every
// truncation length), atomic-write crash semantics, manifest and crash-plan
// round trips, durable model checkpoints, and TripletStore persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crash_point.hpp"
#include "common/crc32.hpp"
#include "common/durable_io.hpp"
#include "common/error.hpp"
#include "ml/checkpoint.hpp"
#include "ml/models.hpp"
#include "mpc/triplet.hpp"
#include "mpc/triplet_io.hpp"
#include "test_util.hpp"

namespace psml {
namespace {

using psml::test::expect_near;

std::vector<durable::Section> sample_sections() {
  durable::Section a;
  a.tag = durable::section_tag("AAAA");
  a.payload = {1, 2, 3, 4, 5, 6, 7};
  durable::Section b;
  b.tag = durable::section_tag("BBBB");
  b.payload = {};  // empty payloads must round-trip too
  durable::Section c;
  c.tag = durable::section_tag("CCCC");
  for (int i = 0; i < 300; ++i) {
    c.payload.push_back(static_cast<std::uint8_t>(i * 7));
  }
  return {a, b, c};
}

TEST(DurableSections, RoundTrip) {
  const std::vector<durable::Section> in = sample_sections();
  const std::vector<durable::Section> out =
      durable::decode_sections(durable::encode_sections(in));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].tag, in[i].tag);
    EXPECT_EQ(out[i].payload, in[i].payload);
  }
  const durable::Section& found = durable::find_section(
      out, durable::section_tag("BBBB"), "section b");
  EXPECT_TRUE(found.payload.empty());
  EXPECT_THROW(
      durable::find_section(out, durable::section_tag("ZZZZ"), "absent"),
      IOError);
}

TEST(DurableSections, EveryByteFlipRejected) {
  // CRC framing must catch a corruption ANYWHERE in the image — header,
  // section headers, CRC fields themselves, payload bytes.
  const std::vector<std::uint8_t> good =
      durable::encode_sections(sample_sections());
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0xff;
    EXPECT_THROW(durable::decode_sections(bad), IOError)
        << "flip at byte " << i << " slipped through";
  }
}

TEST(DurableSections, EveryTruncationRejected) {
  const std::vector<std::uint8_t> good =
      durable::encode_sections(sample_sections());
  for (std::size_t len = 0; len < good.size(); ++len) {
    const std::vector<std::uint8_t> bad(good.begin(), good.begin() + len);
    EXPECT_THROW(durable::decode_sections(bad), IOError)
        << "truncation to " << len << " bytes slipped through";
  }
  // Trailing garbage is corruption too, not ignorable slack.
  std::vector<std::uint8_t> extra = good;
  extra.push_back(0);
  EXPECT_THROW(durable::decode_sections(extra), IOError);
}

TEST(DurableSections, WrongMagicAndVersionRejected) {
  std::vector<std::uint8_t> img = durable::encode_sections({});
  EXPECT_NO_THROW(durable::decode_sections(img));  // empty file is valid
  std::vector<std::uint8_t> bad_magic = img;
  bad_magic[0] = 'X';
  EXPECT_THROW(durable::decode_sections(bad_magic), IOError);
}

TEST(DurableAtomicWrite, RoundTripAndOverwrite) {
  const std::string path = "/tmp/psml_durable_atomic.psmd";
  const std::vector<std::uint8_t> v1 = {9, 8, 7};
  durable::atomic_write_file(path, v1);
  EXPECT_EQ(durable::read_file(path), v1);
  const std::vector<std::uint8_t> v2 = {1, 2, 3, 4};
  durable::atomic_write_file(path, v2);
  EXPECT_EQ(durable::read_file(path), v2);
  EXPECT_FALSE(durable::file_exists(path + ".tmp"));
  durable::remove_file(path);
  EXPECT_FALSE(durable::file_exists(path));
  EXPECT_THROW(durable::read_file(path), IOError);
}

TEST(DurableAtomicWrite, CrashBeforeRenameKeepsOldVersion) {
  const std::string path = "/tmp/psml_durable_crash.psmd";
  const std::vector<std::uint8_t> v1 = {9, 8, 7};
  durable::atomic_write_file(path, v1);

  crash::set_plan(crash::CrashPlan::parse("durable.pre-rename"));
  crash::arm_thread(true);
  const std::vector<std::uint8_t> v2 = {1, 2, 3, 4};
  EXPECT_THROW(durable::atomic_write_file(path, v2), crash::SimulatedCrash);
  crash::arm_thread(false);
  crash::clear_plan();

  // Torn write: the destination still holds v1, the temp carries the debris.
  EXPECT_EQ(durable::read_file(path), v1);
  EXPECT_TRUE(durable::file_exists(path + ".tmp"));
  durable::remove_file(path + ".tmp");
  durable::remove_file(path);
}

TEST(DurableAtomicWrite, CrashAfterRenameKeepsNewVersion) {
  const std::string path = "/tmp/psml_durable_crash2.psmd";
  durable::atomic_write_file(path, {9});

  crash::set_plan(crash::CrashPlan::parse("durable.post-rename"));
  crash::arm_thread(true);
  EXPECT_THROW(durable::atomic_write_file(path, {1, 2}), crash::SimulatedCrash);
  crash::arm_thread(false);
  crash::clear_plan();

  const std::vector<std::uint8_t> want = {1, 2};
  EXPECT_EQ(durable::read_file(path), want);
  durable::remove_file(path);
}

TEST(DurableManifest, RoundTripAndSizeCheck) {
  durable::Manifest m;
  m.commit_id = 12;
  m.epoch = 3;
  m.step = 12;
  m.seq = 7777;
  m.matmul_cursor = 40;
  m.elem_cursor = 41;
  m.act_cursor = 42;
  m.layer_cursor = 43;
  const durable::Manifest back = durable::Manifest::decode(m.encode());
  EXPECT_TRUE(back == m);

  std::vector<std::uint8_t> short_bytes = m.encode();
  short_bytes.pop_back();
  EXPECT_THROW(durable::Manifest::decode(short_bytes), IOError);
}

TEST(DurableManifest, PreLayerManifestRejected) {
  // A manifest written before layer_cursor existed ends after act_cursor.
  // It must fail typed, so recovery skips that checkpoint as unusable
  // instead of resuming with an unknown layer cursor.
  durable::Manifest m;
  m.commit_id = 5;
  std::vector<std::uint8_t> old_layout = m.encode();
  old_layout.resize(old_layout.size() - 8);
  EXPECT_THROW(durable::Manifest::decode(old_layout), IOError);
}

TEST(CrashPlan, ParseGrammar) {
  const crash::CrashPlan p =
      crash::CrashPlan::parse("a.point;b.point@3;c@0");
  ASSERT_EQ(p.clauses.size(), 3u);
  EXPECT_EQ(p.clauses[0].name, "a.point");
  EXPECT_EQ(p.clauses[0].hit, 0u);
  EXPECT_EQ(p.clauses[1].name, "b.point");
  EXPECT_EQ(p.clauses[1].hit, 3u);
  EXPECT_EQ(p.clauses[2].name, "c");
  EXPECT_EQ(p.clauses[2].hit, 0u);
  EXPECT_TRUE(crash::CrashPlan::parse("").empty());
  EXPECT_THROW(crash::CrashPlan::parse("@2"), InvalidArgument);
  EXPECT_THROW(crash::CrashPlan::parse("x@"), InvalidArgument);
  EXPECT_THROW(crash::CrashPlan::parse("x@abc"), InvalidArgument);
  EXPECT_THROW(crash::CrashPlan::parse("a;;b"), InvalidArgument);
}

TEST(CrashPlan, HitIndexAndArming) {
  crash::set_plan(crash::CrashPlan::parse("pt.test@1"));
  crash::arm_thread(true);
  PSML_CRASH_POINT("pt.test");  // hit 0 — plan wants hit 1
  EXPECT_EQ(crash::hits("pt.test"), 1u);
  EXPECT_THROW(PSML_CRASH_POINT("pt.test"), crash::SimulatedCrash);
  EXPECT_EQ(crash::hits("pt.test"), 2u);
  crash::arm_thread(false);
  // Unarmed thread: the point counts but never fires.
  PSML_CRASH_POINT("pt.test");
  EXPECT_EQ(crash::hits("pt.test"), 3u);
  crash::clear_plan();
  EXPECT_EQ(crash::hits("pt.test"), 0u);  // counters reset with the plan
}

// ---- durable model checkpoints ---------------------------------------------

ml::ModelConfig mlp_config() {
  ml::ModelConfig mc;
  mc.kind = ml::ModelKind::kMlp;
  mc.input_dim = 16;
  mc.classes = 4;
  mc.seed = 77;
  return mc;
}

TEST(DurableCheckpoint, CorruptAndTruncatedFilesRejected) {
  auto model = ml::build_plain(mlp_config());
  const std::string path = "/tmp/psml_durable_model.psmd";
  ml::save_model(path, model);

  const std::vector<std::uint8_t> good = durable::read_file(path);
  auto mc2 = mlp_config();
  mc2.seed = 5;
  auto restored = ml::build_plain(mc2);

  // Flip/truncate at a spread of offsets (every byte would be slow at model
  // size; section-boundary offsets plus a stride cover the format).
  std::vector<std::size_t> offsets = {0, 1, 4, 8, 12, 15, 16, 20, 24, 28, 31,
                                      32, 35};
  for (std::size_t off = 36; off < good.size(); off += 97) {
    offsets.push_back(off);
  }
  for (const std::size_t off : offsets) {
    std::vector<std::uint8_t> bad = good;
    bad[off] ^= 0x40;
    durable::atomic_write_file(path, bad);
    EXPECT_THROW(ml::load_model(path, restored), IOError) << "flip@" << off;

    const std::vector<std::uint8_t> trunc(good.begin(), good.begin() + off);
    durable::atomic_write_file(path, trunc);
    EXPECT_THROW(ml::load_model(path, restored), IOError) << "trunc@" << off;
  }

  // Intact file still loads after all that.
  durable::atomic_write_file(path, good);
  ml::load_model(path, restored);
  const MatrixF x = psml::test::random_matrix(3, 16, 9);
  expect_near(restored.forward(x), model.forward(x), 1e-6, "restored");
  durable::remove_file(path);
}

TEST(DurableCheckpoint, ArchitectureMismatchStaysInvalidArgument) {
  auto mlp = ml::build_plain(mlp_config());
  const std::string path = "/tmp/psml_durable_mismatch.psmd";
  ml::save_model(path, mlp);

  ml::ModelConfig lin;
  lin.kind = ml::ModelKind::kLinear;
  lin.input_dim = 16;
  lin.classes = 1;
  auto linear = ml::build_plain(lin);
  // The file is intact; the caller brought the wrong model. Not an IOError.
  EXPECT_THROW(ml::load_model(path, linear), InvalidArgument);
  durable::remove_file(path);
}

// ---- TripletStore persistence ----------------------------------------------

mpc::TripletStore dealt_store(std::uint64_t seed) {
  mpc::DealerOptions dopts;
  dopts.use_gpu = false;
  dopts.seed = seed;
  mpc::TripletDealer dealer(nullptr, dopts);
  const std::vector<mpc::TripletSpec> plan = {
      {mpc::TripletKind::kMatMul, 4, 3, 2},
      {mpc::TripletKind::kElementwise, 3, 0, 3},
      {mpc::TripletKind::kActivation, 2, 0, 2},
      {mpc::TripletKind::kLayer, 3, 4, 2},
  };
  return dealer.generate(plan).first;
}

void expect_store_eq(const mpc::TripletStore& a, const mpc::TripletStore& b) {
  ASSERT_EQ(a.matmul_size(), b.matmul_size());
  ASSERT_EQ(a.elementwise_size(), b.elementwise_size());
  ASSERT_EQ(a.activation_size(), b.activation_size());
  for (std::size_t i = 0; i < a.matmul_size(); ++i) {
    expect_near(a.matmuls()[i].u, b.matmuls()[i].u, 0.0, "matmul u");
    expect_near(a.matmuls()[i].v, b.matmuls()[i].v, 0.0, "matmul v");
    expect_near(a.matmuls()[i].z, b.matmuls()[i].z, 0.0, "matmul z");
  }
  for (std::size_t i = 0; i < a.elementwise_size(); ++i) {
    expect_near(a.elementwises()[i].u, b.elementwises()[i].u, 0.0, "elem u");
    expect_near(a.elementwises()[i].v, b.elementwises()[i].v, 0.0, "elem v");
    expect_near(a.elementwises()[i].z, b.elementwises()[i].z, 0.0, "elem z");
  }
  for (std::size_t i = 0; i < a.activation_size(); ++i) {
    const mpc::ActivationShare& aa = a.activations()[i];
    const mpc::ActivationShare& ab = b.activations()[i];
    EXPECT_TRUE(aa.u == ab.u && aa.s_lo == ab.s_lo && aa.s_hi == ab.s_hi);
    EXPECT_TRUE(aa.z_lo == ab.z_lo && aa.z_hi == ab.z_hi);
  }
  ASSERT_EQ(a.layer_size(), b.layer_size());
  for (std::size_t i = 0; i < a.layer_size(); ++i) {
    const mpc::LayerShare& la = a.layers()[i];
    const mpc::LayerShare& lb = b.layers()[i];
    EXPECT_TRUE(la.u == lb.u && la.v == lb.v && la.z == lb.z);
    EXPECT_TRUE(la.v2 == lb.v2 && la.z_dw == lb.z_dw && la.z_dx == lb.z_dx);
  }
}

TEST(TripletIo, OldLayoutStoreRejected) {
  // A payload written before the layout word — here with two activations
  // of eight b x w matrices each — must fail typed, not parse its first
  // five matrices as a current activation.
  EXPECT_THROW(mpc::decode_store(psml::test::old_layout_payload(2, 3, 4)),
               IOError);
  // The same through the durable file path resumable training loads.
  durable::Section s{durable::section_tag("TRIP"),
                     psml::test::old_layout_payload(2, 3, 4)};
  const std::string path = "/tmp/psml_old_layout_store.psmd";
  durable::write_sections(path, {s});
  EXPECT_THROW(mpc::load_store(path), IOError);
  durable::remove_file(path);
}

TEST(TripletIo, OldLayoutPoolFileRejected) {
  const std::string path = "/tmp/psml_old_layout_pool.psmd";
  psml::test::write_old_layout_pool_file(path, 3, 4);
  EXPECT_THROW(mpc::load_pool_file(path), IOError);
  durable::remove_file(path);
}

TEST(TripletIo, OversizedMatrixHeaderRejected) {
  // A matrix header claiming 0xFFFFFFFF x 0xFFFFFFFF floats must fail with
  // IOError before anything is allocated.
  mpc::TripletDealer dealer(nullptr, {false, false, 17});
  std::vector<std::uint8_t> bytes = mpc::encode_store(
      dealer.generate({{mpc::TripletKind::kMatMul, 2, 2, 2}}).first);
  // The first matrix header follows the layout word and the matmul count.
  for (std::size_t i = 8; i < 16; ++i) bytes[i] = 0xff;
  EXPECT_THROW(mpc::decode_store(bytes), IOError);
}

TEST(TripletIo, LayerPoolFileRoundTrip) {
  mpc::TripletDealer dealer(nullptr, {false, false, 16});
  const mpc::TripletSpec spec{mpc::TripletKind::kLayer, 3, 4, 2};
  auto [s0, s1] = dealer.generate({spec, spec});
  const std::string path = "/tmp/psml_layer_pool.psmd";
  mpc::save_pool_file(path, spec, s0, s1);
  const mpc::PoolFile f = mpc::load_pool_file(path);
  EXPECT_TRUE(f.spec == spec);
  expect_store_eq(s0, f.s0);
  expect_store_eq(s1, f.s1);
  // Halves that do not pair up are rejected typed.
  (void)s1.pop_layer();
  mpc::save_pool_file(path, spec, s0, s1);
  EXPECT_THROW(mpc::load_pool_file(path), IOError);
  durable::remove_file(path);
}

// One entry of `Share` whose matrices take `shapes` in for_each_matrix
// order, filled with consecutive multiples of 1/4 from `next` (exact in
// float, so the bytes depend on nothing but the layout).
template <class Share>
Share counted_share(
    std::initializer_list<std::pair<std::size_t, std::size_t>> shapes,
    float& next) {
  Share share;
  auto shape = shapes.begin();
  mpc::for_each_matrix(share, [&](MatrixF& m) {
    m = MatrixF(shape->first, shape->second);
    ++shape;
    for (std::size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = next;
      next += 0.25f;
    }
  });
  return share;
}

TEST(TripletIo, StorePayloadLayoutIsPinned) {
  // One entry of every kind. The payload's size and CRC pin the store
  // layout that pool files, store files and resumable training read: a
  // change here must say so (and bump the layout word).
  float next = 0.0f;
  mpc::TripletStore store;
  store.push_matmul(
      counted_share<mpc::TripletShare>({{2, 3}, {3, 2}, {2, 2}}, next));
  store.push_elementwise(
      counted_share<mpc::TripletShare>({{2, 2}, {2, 2}, {2, 2}}, next));
  store.push_activation(counted_share<mpc::ActivationShare>(
      {{1, 3}, {1, 3}, {1, 3}, {1, 3}, {1, 3}}, next));
  store.push_layer(counted_share<mpc::LayerShare>(
      {{2, 3}, {3, 1}, {2, 1}, {2, 1}, {3, 1}, {2, 3}}, next));
  const std::vector<std::uint8_t> bytes = mpc::encode_store(store);
  EXPECT_EQ(bytes.size(), 416u);
  EXPECT_EQ(crc32_table(bytes.data(), bytes.size()), 0x91b34b42u);
  expect_store_eq(store, mpc::decode_store(bytes));
}

TEST(TripletIo, EncodeDecodeRoundTrip) {
  const mpc::TripletStore store = dealt_store(11);
  const mpc::TripletStore back = mpc::decode_store(mpc::encode_store(store));
  expect_store_eq(store, back);
}

TEST(TripletIo, FileRoundTripAndCorruptionRejected) {
  const mpc::TripletStore store = dealt_store(12);
  const std::string path = "/tmp/psml_triplets.psmd";
  mpc::save_store(path, store);
  expect_store_eq(store, mpc::load_store(path));

  std::vector<std::uint8_t> bytes = durable::read_file(path);
  bytes[bytes.size() / 2] ^= 0x01;
  durable::atomic_write_file(path, bytes);
  EXPECT_THROW(mpc::load_store(path), IOError);
  durable::remove_file(path);
  EXPECT_THROW(mpc::load_store(path), IOError);
}

TEST(TripletIo, TruncatedPayloadRejected) {
  // Even a payload that dodged the file CRC (hand-built) must fail decode
  // with a typed error, never UB.
  std::vector<std::uint8_t> bytes = mpc::encode_store(dealt_store(13));
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(mpc::decode_store(bytes), IOError);
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.push_back(0);
  EXPECT_THROW(mpc::decode_store(bytes), IOError);  // trailing bytes
}

TEST(DurableDir, EnsureAndList) {
  const std::string dir = "/tmp/psml_durable_dir/a/b";
  durable::ensure_dir(dir);
  durable::atomic_write_file(dir + "/one.psmd", {1});
  durable::atomic_write_file(dir + "/two.psmd", {2});
  std::vector<std::string> names = durable::list_dir(dir);
  std::sort(names.begin(), names.end());
  const std::vector<std::string> want = {"one.psmd", "two.psmd"};
  EXPECT_EQ(names, want);
  EXPECT_TRUE(durable::list_dir("/tmp/psml_durable_absent_dir").empty());
  durable::remove_file(dir + "/one.psmd");
  durable::remove_file(dir + "/two.psmd");
}

}  // namespace
}  // namespace psml
