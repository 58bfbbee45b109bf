// Domain scenario: a hospital trains a fingerprint classifier (NIST-like
// geometry) on two untrusted servers. Walks the full lifecycle explicitly —
// dealer/offline phase, per-server online training, client-side weight
// reconstruction and evaluation — using the layer-level API rather than the
// one-call driver, so it doubles as a tour of the internals.
#include <cstdio>
#include <thread>

#include "common/timer.hpp"
#include "data/datasets.hpp"
#include "ml/models.hpp"
#include "ml/secure/secure_model.hpp"
#include "mpc/party.hpp"
#include "mpc/triplet_factory.hpp"
#include "net/local_channel.hpp"
#include "profile/profiler.hpp"

using namespace psml;

int main() {
  // ---- client side: data + model + offline material ----
  const std::size_t samples = 64;
  const auto ds = data::make_dataset(data::DatasetKind::kNist,
                                     data::LabelScheme::kOneHot10, samples, 7);
  std::printf("dataset: NIST-like %zux%zu, %zu samples\n", ds.geometry.h,
              ds.geometry.w, samples);

  ml::ModelConfig mc;
  mc.kind = ml::ModelKind::kMlp;
  mc.input_dim = ds.geometry.features();
  mc.classes = 10;
  auto pair = ml::build_secure_pair(mc);

  constexpr int kEpochs = 12;
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, samples, ml::LossKind::kMse, 10, true);
  std::printf("offline plan: %zu triplet specs per epoch\n", plan.size());

  // The material comes from a background factory pool
  // (mpc/triplet_factory.hpp): announce the plan, then drain it. Its
  // producers deal with the same dealer options an inline
  // TripletDealer would take.
  mpc::FactoryOptions fopts;
  fopts.dealer = {true, false, 99};
  mpc::TripletFactory factory(&sgpu::Device::global(), fopts);
  Timer offline_timer;
  mpc::TripletStore st0, st1;
  factory.reserve(plan);
  factory.fill_stores(plan, st0, st1);
  st0.set_recycle(true);  // reuse masks across epochs (Eq. 11)
  st1.set_recycle(true);
  auto xs = mpc::share_float(ds.x, 11);
  auto ys = mpc::share_float(ds.y, 12);
  std::printf("offline phase: %.3fs, %.2f MiB of material per server\n",
              offline_timer.seconds(),
              static_cast<double>(st0.bytes()) / (1 << 20));

  // ---- two servers train on shares ----
  auto chans = net::LocalChannel::make_pair();
  const auto opts = mpc::PartyOptions::parsecureml();
  mpc::PartyContext ctx0(0, chans.a, &sgpu::Device::global(), opts);
  mpc::PartyContext ctx1(1, chans.b, &sgpu::Device::global(), opts);
  ctx0.set_triplets(std::move(st0));
  ctx1.set_triplets(std::move(st1));

  Timer online_timer;
  auto server = [&](mpc::PartyContext& ctx, ml::SecureSequential& model,
                    const MatrixF& x, const MatrixF& y) {
    ml::SecureEnv env{&ctx, true};
    for (int e = 0; e < kEpochs; ++e) {
      ml::secure_train_batch(env, model, ml::LossKind::kMse, x, y, 0.02f);
    }
  };
  std::thread s0([&] { server(ctx0, pair.m0, xs.s0, ys.s0); });
  std::thread s1([&] { server(ctx1, pair.m1, xs.s1, ys.s1); });
  s0.join();
  s1.join();
  std::printf("online phase: %.3fs over %d epochs\n", online_timer.seconds(),
              kEpochs);

  // ---- client reconstructs the model and evaluates ----
  auto trained = ml::reconstruct_plain(mc, pair.m0, pair.m1);
  const double acc = ml::accuracy(trained.forward(ds.x), ds.y);
  std::printf("train accuracy after reconstruction: %.3f\n", acc);

  const auto& comp = ctx0.compressed().stats();
  std::printf("server0 compression: %llu/%llu messages compressed, %.1f%% "
              "bytes saved\n",
              static_cast<unsigned long long>(comp.compressed_messages),
              static_cast<unsigned long long>(comp.messages),
              comp.savings() * 100.0);
  for (const auto& [phase, stat] : profile::Profiler::global().report()) {
    std::printf("  %-22s %8.3fs x%llu\n", phase.c_str(), stat.total_sec,
                static_cast<unsigned long long>(stat.count));
  }
  const auto fm = factory.metrics();
  std::printf("factory: %llu produced, %llu acquired, %llu starvations, "
              "%zu pooled across %zu specs\n",
              static_cast<unsigned long long>(fm.produced),
              static_cast<unsigned long long>(fm.acquired),
              static_cast<unsigned long long>(fm.starvation_events),
              fm.depth_total, fm.specs);
  return acc > 0.4 ? 0 : 1;
}
