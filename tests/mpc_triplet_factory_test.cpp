// TripletFactory tests: watermark refill exactness, concurrent
// fill/refill hammering, deadline-bounded starvation, persisted-pool
// restart (and the pool files it must skip), and the warm-pool
// zero-inline-generation guarantee the pooled offline phase exists to
// provide. Material leaves the factory only through fill_stores.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/durable_io.hpp"
#include "ml/models.hpp"
#include "ml/secure/secure_model.hpp"
#include "mpc/triplet_factory.hpp"
#include "mpc/triplet_io.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml::mpc {
namespace {

using psml::test::expect_near;

FactoryOptions cpu_opts(std::size_t low, std::size_t high,
                        std::size_t producers, std::uint64_t seed) {
  FactoryOptions o;
  o.low_watermark = low;
  o.high_watermark = high;
  o.producers = producers;
  o.dealer.use_gpu = false;
  o.dealer.seed = seed;
  return o;
}

// Serves one entry of `spec` into fresh stores.
std::pair<TripletStore, TripletStore> take_one(
    TripletFactory& f, const TripletSpec& spec,
    net::Deadline deadline = net::kNoDeadline) {
  TripletStore st0, st1;
  f.fill_stores({spec}, st0, st1, deadline);
  return {std::move(st0), std::move(st1)};
}

// Poll until `pred` holds (background refills land asynchronously).
template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 10000) {
  for (int waited = 0; waited < timeout_ms; ++waited) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(Factory, RejectsBadOptions) {
  EXPECT_THROW(TripletFactory(nullptr, cpu_opts(4, 2, 1, 1)),
               InvalidArgument);  // low > high
  EXPECT_THROW(TripletFactory(nullptr, cpu_opts(0, 0, 1, 1)),
               InvalidArgument);  // high must be positive
  EXPECT_THROW(TripletFactory(nullptr, cpu_opts(1, 2, 0, 1)),
               InvalidArgument);  // no producers
  FactoryOptions gpu = cpu_opts(1, 2, 1, 1);
  gpu.dealer.use_gpu = true;
  EXPECT_THROW(TripletFactory(nullptr, gpu),
               InvalidArgument);  // use_gpu without a device
}

TEST(Factory, RegisterFillsToHighWatermarkInBackground) {
  TripletFactory f(nullptr, cpu_opts(2, 4, 1, 901));
  const TripletSpec spec{TripletKind::kMatMul, 4, 4, 4};
  f.register_spec(spec);
  ASSERT_TRUE(eventually([&] { return f.depth(spec) >= 4; }));
  const auto m = f.metrics();
  EXPECT_GE(m.produced, 4u);
  EXPECT_GE(m.refills_scheduled, 1u);
  ASSERT_TRUE(eventually([&] { return f.metrics().refills_completed >= 1; }));
  EXPECT_GT(f.metrics().refill_sec_total, 0.0);
}

TEST(Factory, WatermarkRefillTriggersExactlyAtLowMark) {
  // low=2, high=4: pops at depths 4->3 and 3->2 stay at or above the low
  // mark and must NOT schedule; the pop taking the pool to 1 (< low) must.
  // pause() makes the schedule counter observable without producer races.
  TripletFactory f(nullptr, cpu_opts(2, 4, 1, 902));
  const TripletSpec spec{TripletKind::kMatMul, 4, 4, 4};
  f.register_spec(spec);
  ASSERT_TRUE(eventually([&] { return f.metrics().refills_completed >= 1; }));
  ASSERT_EQ(f.depth(spec), 4u);
  f.pause();

  ASSERT_EQ(f.metrics().refills_scheduled, 1u);  // the initial fill only
  (void)take_one(f, spec);  // 4 -> 3
  (void)take_one(f, spec);  // 3 -> 2 (== low: no refill)
  EXPECT_EQ(f.metrics().refills_scheduled, 1u);
  (void)take_one(f, spec);  // 2 -> 1 (< low: refill!)
  EXPECT_EQ(f.metrics().refills_scheduled, 2u);
  EXPECT_EQ(f.depth(spec), 1u);  // paused: nothing generated yet

  // resume() runs the deferred refill back up to the high mark.
  f.resume();
  ASSERT_TRUE(eventually([&] { return f.depth(spec) >= 4; }));
}

TEST(Factory, AcquireOnEmptyPoolHonorsDeadline) {
  TripletFactory f(nullptr, cpu_opts(1, 2, 1, 903));
  f.pause();  // producers record the demand but never generate
  const TripletSpec spec{TripletKind::kElementwise, 3, 0, 3};
  f.register_spec(spec);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(
      take_one(f, spec, net::deadline_after(std::chrono::milliseconds(100))),
      TimeoutError);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, std::chrono::milliseconds(90));
  const auto m = f.metrics();
  EXPECT_EQ(m.timeouts, 1u);
  EXPECT_EQ(m.starvation_events, 1u);
  EXPECT_EQ(m.acquired, 0u);
}

TEST(Factory, StopUnblocksWaitingAcquire) {
  TripletFactory f(nullptr, cpu_opts(1, 2, 1, 904));
  f.pause();
  const TripletSpec spec{TripletKind::kMatMul, 2, 2, 2};
  f.register_spec(spec);
  std::exception_ptr err;
  std::thread consumer([&] {
    try {
      (void)take_one(f, spec);  // no deadline: blocks until stop()
    } catch (...) {
      err = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  f.stop();
  consumer.join();
  ASSERT_TRUE(err != nullptr);
  EXPECT_THROW(std::rethrow_exception(err), ShutdownError);
}

TEST(Factory, ConcurrentAcquireRefillHammer) {
  // tsan surface: many consumers racing the producers over several shapes.
  TripletFactory f(nullptr, cpu_opts(2, 6, 3, 905));
  const std::vector<TripletSpec> specs{{TripletKind::kMatMul, 4, 4, 4},
                                       {TripletKind::kElementwise, 4, 0, 4},
                                       {TripletKind::kActivation, 2, 0, 2}};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  std::vector<std::thread> consumers;
  std::atomic<int> got{0};
  for (int t = 0; t < kThreads; ++t) {
    consumers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const TripletSpec& spec = specs[(t + i) % specs.size()];
        (void)take_one(f, spec, net::deadline_after(std::chrono::seconds(60)));
        got.fetch_add(1);
      }
    });
  }
  for (auto& c : consumers) c.join();
  EXPECT_EQ(got.load(), kThreads * kPerThread);
  const auto m = f.metrics();
  EXPECT_EQ(m.acquired, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GE(m.produced, m.acquired);  // every pop was backed by production
  EXPECT_EQ(m.timeouts, 0u);
}

TEST(Factory, FillStoresDeliversPlanOrderAndBeaverAlgebra) {
  TripletFactory f(nullptr, cpu_opts(1, 4, 2, 906));
  const std::vector<TripletSpec> plan{{TripletKind::kMatMul, 3, 5, 2},
                                      {TripletKind::kElementwise, 4, 0, 4},
                                      {TripletKind::kActivation, 2, 0, 2},
                                      {TripletKind::kMatMul, 3, 5, 2}};
  f.reserve(plan);
  TripletStore st0, st1;
  f.fill_stores(plan, st0, st1);
  EXPECT_EQ(st0.matmul_size(), 2u);
  EXPECT_EQ(st0.elementwise_size(), 1u);
  EXPECT_EQ(st0.activation_size(), 1u);
  EXPECT_EQ(st1.matmul_size(), 2u);
  const TripletShare t0 = st0.pop_matmul();
  const TripletShare t1 = st1.pop_matmul();
  EXPECT_EQ(t0.u.rows(), 3u);
  EXPECT_EQ(t0.v.cols(), 2u);
  const MatrixF u = reconstruct_float(t0.u, t1.u);
  const MatrixF v = reconstruct_float(t0.v, t1.v);
  const MatrixF z = reconstruct_float(t0.z, t1.z);
  expect_near(z, tensor::matmul(u, v), 1e-2, "pooled Z = U x V");
}

// Pooled layer material still satisfies all three Beaver products.
void expect_layer_algebra(const LayerShare& l0, const LayerShare& l1,
                          const char* what) {
  const MatrixF u = reconstruct_float(l0.u, l1.u);
  const MatrixF v = reconstruct_float(l0.v, l1.v);
  const MatrixF v2 = reconstruct_float(l0.v2, l1.v2);
  expect_near(reconstruct_float(l0.z, l1.z), tensor::matmul(u, v), 1e-2,
              what);
  expect_near(reconstruct_float(l0.z_dw, l1.z_dw),
              tensor::matmul(tensor::transpose(u), v2), 1e-2, what);
  expect_near(reconstruct_float(l0.z_dx, l1.z_dx),
              tensor::matmul(v2, tensor::transpose(v)), 1e-2, what);
}

TEST(Factory, FillStoresServesATrainingPlan) {
  // A training epoch plan: one kLayer per dense layer and one kActivation
  // per activation, per batch, served from the per-spec pools in plan
  // order.
  ml::ModelConfig mc;
  mc.kind = ml::ModelKind::kMlp;
  mc.input_dim = 20;
  mc.classes = 10;
  const auto pair = ml::build_secure_pair(mc);
  const auto plan =
      ml::epoch_plan(pair.m0, 2, 4, ml::LossKind::kMse, 10, true);
  TripletFactory f(nullptr, cpu_opts(1, 2, 2, 912));
  f.reserve(plan);
  TripletStore st0, st1;
  f.fill_stores(plan, st0, st1, net::deadline_after(std::chrono::seconds(120)));
  EXPECT_EQ(st0.layer_size(), 6u);
  EXPECT_EQ(st0.activation_size(), 4u);
  EXPECT_EQ(st0.matmul_size(), 0u);
  EXPECT_EQ(st1.layer_size(), 6u);
  EXPECT_EQ(f.metrics().acquired, plan.size());
  const LayerShare l0 = st0.pop_layer();
  const LayerShare l1 = st1.pop_layer();
  EXPECT_EQ(l0.u.rows(), 4u);   // batch
  EXPECT_EQ(l0.u.cols(), 20u);  // first layer's input width
  expect_layer_algebra(l0, l1, "pooled layer material");
}

TEST(Factory, WarmPoolServesWithoutInlineGeneration) {
  // The acceptance property of the pooled offline phase: once reserve +
  // wait_ready report the plan materialized, draining it never blocks on
  // generation — zero starvation events, every pop served from the pool.
  TripletFactory f(nullptr, cpu_opts(1, 2, 2, 907));
  std::vector<TripletSpec> plan;
  for (int b = 0; b < 6; ++b) {
    plan.push_back({TripletKind::kMatMul, 8, 8, 8});
    plan.push_back({TripletKind::kElementwise, 8, 0, 8});
  }
  f.reserve(plan);
  f.wait_ready(net::deadline_after(std::chrono::seconds(120)));
  const auto before = f.metrics();
  TripletStore st0, st1;
  // A deadline in the past proves no waiting happens: any starvation would
  // surface as TimeoutError instead of being quietly absorbed.
  f.fill_stores(plan, st0, st1,
                std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  const auto after = f.metrics();
  EXPECT_EQ(after.starvation_events, before.starvation_events);
  EXPECT_EQ(after.timeouts, before.timeouts);
  EXPECT_EQ(after.acquired - before.acquired, plan.size());
  EXPECT_EQ(st0.matmul_size(), 6u);
  EXPECT_EQ(st0.elementwise_size(), 6u);
}

TEST(Factory, PersistedPoolRestartRoundTrip) {
  const std::string dir = "/tmp/psml_factory_pools_test";
  durable::ensure_dir(dir);
  for (const std::string& name : durable::list_dir(dir)) {
    durable::remove_file(dir + "/" + name);
  }

  const TripletSpec mm{TripletKind::kMatMul, 4, 6, 2};
  const TripletSpec act{TripletKind::kActivation, 3, 0, 3};
  std::size_t saved_mm = 0, saved_act = 0;
  {
    TripletFactory f(nullptr, cpu_opts(2, 4, 1, 908));
    f.register_spec(mm);
    f.register_spec(act);
    ASSERT_TRUE(
        eventually([&] { return f.metrics().refills_completed >= 2; }));
    f.pause();
    saved_mm = f.depth(mm);
    saved_act = f.depth(act);
    ASSERT_GE(saved_mm, 4u);
    ASSERT_GE(saved_act, 4u);
    f.save(dir);
  }

  FactoryOptions opts = cpu_opts(2, 4, 1, 909);
  opts.persist_dir = dir;
  TripletFactory g(nullptr, opts);
  // Restored without any generation: load is the only source so far.
  EXPECT_EQ(g.depth(mm), saved_mm);
  EXPECT_EQ(g.depth(act), saved_act);
  const auto m = g.metrics();
  EXPECT_EQ(m.loaded, saved_mm + saved_act);
  EXPECT_EQ(m.produced, 0u);
  EXPECT_EQ(m.load_errors, 0u);

  // Restored material still satisfies the Beaver invariant pairwise.
  auto [st0, st1] = take_one(g, mm);
  const TripletShare t0 = st0.pop_matmul();
  const TripletShare t1 = st1.pop_matmul();
  const MatrixF u = reconstruct_float(t0.u, t1.u);
  const MatrixF v = reconstruct_float(t0.v, t1.v);
  const MatrixF z = reconstruct_float(t0.z, t1.z);
  expect_near(z, tensor::matmul(u, v), 1e-2, "restored Z = U x V");
}

TEST(Factory, PersistedLayerPoolRoundTrip) {
  const std::string dir = "/tmp/psml_factory_layer_pools_test";
  durable::ensure_dir(dir);
  for (const std::string& name : durable::list_dir(dir)) {
    durable::remove_file(dir + "/" + name);
  }
  const TripletSpec spec{TripletKind::kLayer, 3, 5, 2};
  std::size_t saved = 0;
  {
    TripletFactory f(nullptr, cpu_opts(1, 3, 1, 913));
    f.register_spec(spec);
    ASSERT_TRUE(
        eventually([&] { return f.metrics().refills_completed >= 1; }));
    f.pause();
    saved = f.depth(spec);
    ASSERT_GE(saved, 3u);
    f.save(dir);
  }
  FactoryOptions opts = cpu_opts(1, 3, 1, 914);
  opts.persist_dir = dir;
  TripletFactory g(nullptr, opts);
  EXPECT_EQ(g.depth(spec), saved);
  EXPECT_EQ(g.metrics().loaded, saved);
  EXPECT_EQ(g.metrics().load_errors, 0u);
  auto [st0, st1] = take_one(g, spec);
  expect_layer_algebra(st0.pop_layer(), st1.pop_layer(),
                       "restored layer material");
}

TEST(Factory, TornPoolFileIsSkippedAndCounted) {
  const std::string dir = "/tmp/psml_factory_torn_test";
  durable::ensure_dir(dir);
  for (const std::string& name : durable::list_dir(dir)) {
    durable::remove_file(dir + "/" + name);
  }
  {
    TripletFactory f(nullptr, cpu_opts(1, 2, 1, 910));
    const TripletSpec spec{TripletKind::kMatMul, 2, 2, 2};
    f.register_spec(spec);
    ASSERT_TRUE(
        eventually([&] { return f.metrics().refills_completed >= 1; }));
    f.pause();
    f.save(dir);
  }
  // Truncate the pool file: CRC framing must reject it on load.
  const std::vector<std::string> files = durable::list_dir(dir);
  ASSERT_EQ(files.size(), 1u);
  auto bytes = durable::read_file(dir + "/" + files[0]);
  bytes.resize(bytes.size() / 2);
  durable::atomic_write_file(dir + "/" + files[0], bytes);

  FactoryOptions opts = cpu_opts(1, 2, 1, 911);
  opts.persist_dir = dir;
  TripletFactory g(nullptr, opts);
  const auto m = g.metrics();
  EXPECT_EQ(m.load_errors, 1u);
  EXPECT_EQ(m.loaded, 0u);
  EXPECT_EQ(m.specs, 0u);  // regenerable material: skip, don't crash
}

TEST(Factory, OldLayoutPoolFileIsSkippedAndCounted) {
  // A pool file written before the store layout word — two activations of
  // the old eight-matrix layout per half — fails with IOError inside load,
  // which skips it like a torn file instead of letting it escape restart.
  const std::string dir = "/tmp/psml_factory_old_layout_test";
  durable::ensure_dir(dir);
  for (const std::string& name : durable::list_dir(dir)) {
    durable::remove_file(dir + "/" + name);
  }
  psml::test::write_old_layout_pool_file(dir + "/pool_2_3x0x4.psmd", 3, 4);

  FactoryOptions opts = cpu_opts(1, 2, 1, 915);
  opts.persist_dir = dir;
  TripletFactory g(nullptr, opts);
  const auto m = g.metrics();
  EXPECT_EQ(m.load_errors, 1u);
  EXPECT_EQ(m.loaded, 0u);
  EXPECT_EQ(m.specs, 0u);
}

// A pool file of `spec` whose halves hold `material` instead of the spec's
// own material; load must skip and count it, registering no pool.
void expect_mismatched_pool_file_skipped(const std::string& dir,
                                         const TripletSpec& spec,
                                         const TripletSpec& material) {
  durable::ensure_dir(dir);
  for (const std::string& name : durable::list_dir(dir)) {
    durable::remove_file(dir + "/" + name);
  }
  TripletDealer dealer(nullptr, {false, false, 916});
  const auto [s0, s1] = dealer.generate({material, material});
  save_pool_file(dir + "/pool_0_4x6x2.psmd", spec, s0, s1);

  FactoryOptions opts = cpu_opts(1, 2, 1, 917);
  opts.persist_dir = dir;
  TripletFactory g(nullptr, opts);
  const auto m = g.metrics();
  EXPECT_EQ(m.load_errors, 1u);
  EXPECT_EQ(m.loaded, 0u);
  EXPECT_EQ(m.specs, 0u);
  EXPECT_EQ(g.depth(spec), 0u);
}

TEST(Factory, PoolFileOfAnotherKindIsSkippedAndCounted) {
  expect_mismatched_pool_file_skipped("/tmp/psml_factory_other_kind_test",
                                      {TripletKind::kMatMul, 4, 6, 2},
                                      {TripletKind::kActivation, 3, 0, 3});
}

TEST(Factory, PoolFileOfAnotherShapeIsSkippedAndCounted) {
  // Served, such a file would hand fill_stores({kMatMul, 4, 6, 2}) a
  // triplet with U 3x5 and V 5x7.
  expect_mismatched_pool_file_skipped("/tmp/psml_factory_other_shape_test",
                                      {TripletKind::kMatMul, 4, 6, 2},
                                      {TripletKind::kMatMul, 3, 5, 7});
}

}  // namespace
}  // namespace psml::mpc
