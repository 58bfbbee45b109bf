// Offline-phase provisioning latency: inline dealer run vs warm factory
// pool, plus background refill throughput.
//
//   bench_offline                               human-readable report
//   bench_offline --emit-offline-baseline[=PATH] [--smoke]
//                                               machine-readable BENCH_offline.json
//
// The paper's offline phase (Z = U x V) dominates end-to-end time (Fig. 2);
// the seed framework re-ran it inline on every job's critical path. The
// TripletFactory moves it to background producers with watermark refill, so
// a job that announces its plan (reserve) finds the material pooled and
// fill_stores collapses to deque moves. This bench measures exactly that
// critical-path difference per job:
//
//   inline — a fresh TripletDealer generates the job's whole epoch plan
//            (what run_secure does)
//   warm   — reserve(plan) + wait_ready ahead of the timed region, then the
//            timed fill_stores drains the pooled entries
//
// The factory section reports producer-side throughput (pairs/s inside
// refill tasks) so refill capacity can be compared against consumption.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "ml/models.hpp"
#include "ml/secure/secure_model.hpp"
#include "mpc/triplet_factory.hpp"

namespace {

using namespace psml;

struct JobResult {
  const char* name;
  std::size_t specs = 0;
  int reps = 0;
  double inline_ms = 0.0;  // mean dealer.generate(plan) latency
  double warm_ms = 0.0;    // mean fill_stores(plan) latency, warm pool
  double speedup() const {
    return warm_ms > 0.0 ? inline_ms / warm_ms : 0.0;
  }
};

std::vector<mpc::TripletSpec> job_plan(ml::ModelKind kind,
                                       std::size_t input_dim,
                                       std::size_t batch,
                                       std::size_t n_batches) {
  ml::ModelConfig mc;
  mc.kind = kind;
  mc.input_dim = input_dim;
  mc.classes = kind == ml::ModelKind::kMlp ? 10 : 1;
  mc.seed = 4242;
  auto pair = ml::build_secure_pair(mc);
  return ml::epoch_plan(pair.m0, n_batches, batch, ml::loss_for(kind),
                        mc.output_dim(), /*training=*/true);
}

JobResult bench_job(const char* name,
                    const std::vector<mpc::TripletSpec>& plan, int reps,
                    bool use_gpu) {
  JobResult r;
  r.name = name;
  r.specs = plan.size();
  r.reps = reps;
  sgpu::Device* device = use_gpu ? &sgpu::Device::global() : nullptr;

  // Inline path: the dealer runs the whole plan on the caller's thread, as
  // run_secure does. One warm-up rep primes caches and the adaptive
  // dispatcher.
  mpc::DealerOptions dopts;
  dopts.use_gpu = use_gpu;
  dopts.seed = 7001;
  {
    mpc::TripletDealer warmup(device, dopts);
    (void)warmup.generate(plan);
  }
  for (int i = 0; i < reps; ++i) {
    mpc::TripletDealer dealer(device, dopts);
    Timer t;
    auto stores = dealer.generate(plan);
    r.inline_ms += t.millis();
    if (stores.first.matmul_size() != stores.second.matmul_size()) {
      std::abort();  // keep the generation live
    }
  }
  r.inline_ms /= reps;

  // Warm path: demand is announced and materialized before the timed
  // region; the timed region is what a job actually waits for.
  mpc::FactoryOptions fopts;
  fopts.low_watermark = 1;
  fopts.high_watermark = 2;
  fopts.producers = 2;
  fopts.dealer = dopts;
  mpc::TripletFactory factory(device, fopts);
  for (int i = 0; i < reps; ++i) {
    factory.reserve(plan);
    factory.wait_ready();
    mpc::TripletStore st0, st1;
    Timer t;
    factory.fill_stores(plan, st0, st1);
    r.warm_ms += t.millis();
    if (st0.matmul_size() != st1.matmul_size()) std::abort();
  }
  r.warm_ms /= reps;
  const auto fm = factory.metrics();
  if (fm.starvation_events != 0) {
    std::fprintf(stderr, "%s: %llu starvation events on a warm pool\n", name,
                 static_cast<unsigned long long>(fm.starvation_events));
  }
  return r;
}

struct FactoryThroughput {
  std::size_t producers = 0;
  std::uint64_t produced = 0;
  double refill_sec = 0.0;
  double pairs_per_s = 0.0;
};

// Producer-side throughput: how fast the background refill machinery mints
// pairs of one representative shape, wall-clocked inside the refill tasks.
FactoryThroughput bench_refill(bool use_gpu, bool smoke) {
  FactoryThroughput out;
  mpc::FactoryOptions fopts;
  fopts.low_watermark = 2;
  fopts.high_watermark = smoke ? 8 : 32;
  fopts.producers = 2;
  fopts.dealer.use_gpu = use_gpu;
  fopts.dealer.seed = 7002;
  out.producers = fopts.producers;
  sgpu::Device* device = use_gpu ? &sgpu::Device::global() : nullptr;
  mpc::TripletFactory factory(device, fopts);
  factory.register_spec({mpc::TripletKind::kMatMul, 128, 256, 128});
  factory.register_spec({mpc::TripletKind::kElementwise, 128, 0, 128});
  // Wait for both initial fills to run to target.
  factory.wait_ready();
  while (factory.metrics().refills_completed < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto m = factory.metrics();
  out.produced = m.produced;
  out.refill_sec = m.refill_sec_total;
  out.pairs_per_s = m.refill_sec_total > 0.0
                        ? static_cast<double>(m.produced) / m.refill_sec_total
                        : 0.0;
  return out;
}

int emit_offline_baseline(const std::string& path, bool smoke,
                          const std::vector<JobResult>& jobs,
                          const FactoryThroughput& refill) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"psml-offline-baseline-v1\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"jobs\": [\n");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult& r = jobs[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"specs\": %zu, \"reps\": %d,\n"
                 "     \"inline_ms\": %.3f, \"warm_ms\": %.3f,\n"
                 "     \"speedup_warm_vs_inline\": %.3f}%s\n",
                 r.name, r.specs, r.reps, r.inline_ms, r.warm_ms, r.speedup(),
                 i + 1 < jobs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"refill\": {\"producers\": %zu, \"produced\": %llu,\n"
               "    \"refill_sec\": %.3f, \"pairs_per_s\": %.1f}\n",
               refill.producers,
               static_cast<unsigned long long>(refill.produced),
               refill.refill_sec, refill.pairs_per_s);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool emit = false, smoke = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--emit-offline-baseline") == 0) {
      emit = true;
      baseline_path = "BENCH_offline.json";
    } else if (std::strncmp(arg, "--emit-offline-baseline=", 24) == 0) {
      emit = true;
      baseline_path = arg + 24;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_offline [--emit-offline-baseline[=PATH]] "
                   "[--smoke]\n");
      return 2;
    }
  }

  bench::header("BENCH_offline",
                "offline provisioning: inline dealer vs warm factory pool");

  const bool use_gpu = true;  // the paper's offline configuration
  const int reps = smoke ? 3 : 8;
  const std::size_t batches = smoke ? 2 : 4;
  std::vector<JobResult> jobs;
  jobs.push_back(bench_job(
      "mlp-784", job_plan(ml::ModelKind::kMlp, 784, smoke ? 32 : 128, batches),
      reps, use_gpu));
  jobs.push_back(bench_job(
      "logistic-256",
      job_plan(ml::ModelKind::kLogistic, 256, smoke ? 32 : 128, batches),
      reps, use_gpu));
  jobs.push_back(bench_job(
      "svm-128", job_plan(ml::ModelKind::kSvm, 128, smoke ? 32 : 64, batches),
      reps, use_gpu));

  std::printf("\nper-job offline provisioning latency (mean of %d reps):\n",
              reps);
  std::printf("  %-14s %6s %12s %12s %9s\n", "job", "specs", "inline ms",
              "warm ms", "speedup");
  for (const JobResult& r : jobs) {
    std::printf("  %-14s %6zu %12.3f %12.3f %8.1fx\n", r.name, r.specs,
                r.inline_ms, r.warm_ms, r.speedup());
  }

  const FactoryThroughput refill = bench_refill(use_gpu, smoke);
  std::printf("\nbackground refill throughput: %llu pairs in %.3fs "
              "(%.1f pairs/s across %zu producers)\n",
              static_cast<unsigned long long>(refill.produced),
              refill.refill_sec, refill.pairs_per_s, refill.producers);

  if (emit) {
    return emit_offline_baseline(baseline_path, smoke, jobs, refill);
  }
  return 0;
}
