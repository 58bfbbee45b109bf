// Crash-and-rejoin chaos tests for the durable two-party checkpoint layer.
//
// Each scenario kills party 0 at one named crash point mid-run (SimulatedCrash
// unwinds its thread; party 1 observes the death as a receive timeout),
// restarts BOTH parties with fresh contexts/channels/models/stores pointed at
// the same checkpoint directories, and asserts the resumed run finishes with
// final parameter shares byte-identical to an uninterrupted run
// (use_compression=false — delta reconstruction is deliberately lossy).
//
// Checkpoint directories live under ./psml-chaos-ckpt/<test>/ relative to the
// ctest working directory; CI uploads that tree as an artifact on failure.
// Each scenario wipes its own directories on entry so debris from a failed
// run survives for inspection but never contaminates a rerun.
#include <gtest/gtest.h>

#include <exception>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crash_point.hpp"
#include "common/durable_io.hpp"
#include "common/error.hpp"
#include "ml/checkpoint.hpp"
#include "ml/models.hpp"
#include "ml/secure/durable.hpp"
#include "mpc/party.hpp"
#include "mpc/triplet.hpp"
#include "net/local_channel.hpp"
#include "test_util.hpp"

namespace psml {
namespace {

using psml::test::random_matrix;

constexpr std::size_t kBatch = 4;
constexpr std::size_t kRows = 8;  // 2 batches/epoch
constexpr std::size_t kEpochs = 2;
constexpr std::size_t kTotalSteps = 4;
constexpr float kLr = 0.25f;

mpc::PartyOptions cpu_opts() {
  mpc::PartyOptions opts = mpc::PartyOptions::parsecureml();
  opts.use_gpu = false;
  opts.adaptive = false;
  // Serial schedule: the staged backward opens run inline at push.
  opts.use_pipeline = false;
  // Bit-identity across a restart requires the exact-value exchange path:
  // delta-CSR reconstruction is approximate by design.
  opts.use_compression = false;
  // Deterministic share-refresh masks (entropy-free replay).
  opts.mask_seed = 0xb17e5u;
  return opts;
}

// Both models read the same 10-feature rows: the MLP whole, the RNN as 2
// timesteps of 5 features.
ml::ModelConfig model_config(ml::ModelKind kind = ml::ModelKind::kMlp) {
  ml::ModelConfig mc;
  mc.kind = kind;
  mc.input_dim = 10;
  if (kind == ml::ModelKind::kRnn) {
    mc.input_dim = 5;
    mc.rnn_steps = 2;
    mc.rnn_hidden = 6;
  }
  mc.classes = 4;
  mc.seed = 41;
  return mc;
}

// Offline material for the full run: the per-step plan repeated once per
// step, dealt with a fixed seed so every (re)start holds identical stores.
std::pair<mpc::TripletStore, mpc::TripletStore> deal_stores(
    const ml::ModelConfig& mc) {
  auto pair = ml::build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  for (std::size_t s = 0; s < kTotalSteps; ++s) {
    pair.m0.plan_batch(plan, kBatch, ml::LossKind::kMse, 4, true);
  }
  mpc::TripletDealer dealer(nullptr, {false, false, 4242});
  return dealer.generate(plan);
}

struct SharedData {
  MatrixF x{random_matrix(kRows, 10, 91)};
  MatrixF y{kRows, 4, 0.0f};
  mpc::SharePair<float> xs, ys;
  SharedData() {
    for (std::size_t r = 0; r < kRows; ++r) {
      y(r, r % 4) = 1.0f;
    }
    xs = mpc::share_float(x, 92);
    ys = mpc::share_float(y, 93);
  }
};

const SharedData& shared_data() {
  static const SharedData d;
  return d;
}

std::string snapshot_bytes(ml::SecureSequential& m) {
  std::ostringstream os(std::ios::binary);
  ml::save_share_snapshot(os, m);
  return os.str();
}

// Wipe the (flat) checkpoint directories of both parties for a scenario and
// return {dir0, dir1}.
std::pair<std::string, std::string> fresh_dirs(const std::string& scenario) {
  const std::string base = "psml-chaos-ckpt/" + scenario;
  for (const char* party : {"/p0", "/p1"}) {
    const std::string dir = base + party;
    durable::ensure_dir(dir);
    for (const std::string& name : durable::list_dir(dir)) {
      durable::remove_file(dir + "/" + name);
    }
  }
  return {base + "/p0", base + "/p1"};
}

ml::DurableOptions durable_opts(const std::string& dir) {
  ml::DurableOptions opts;
  opts.dir = dir;
  opts.checkpoint_every = 1;
  opts.keep = 2;
  opts.ctrl_timeout = std::chrono::milliseconds(500);
  opts.retry.max_attempts = 2;
  opts.retry.recv_timeout = std::chrono::milliseconds(250);
  opts.retry.backoff_base_ms = 1.0;
  opts.retry.backoff_max_ms = 5.0;
  return opts;
}

struct PhaseResult {
  std::exception_ptr err0, err1;
};

// One run attempt: fresh channels, contexts, models and stores each call —
// the in-process stand-in for starting two processes. `crash_plan` arms ONLY
// party 0's thread, so exactly one party dies.
PhaseResult run_phase(const std::string& dir0, const std::string& dir1,
                      const std::string& crash_plan, ml::ResumableStats* out0,
                      ml::ResumableStats* out1, std::string* final0 = nullptr,
                      std::string* final1 = nullptr,
                      const ml::ModelConfig& mc = model_config()) {
  const mpc::PartyOptions popts = cpu_opts();
  auto chans = net::LocalChannel::make_pair();
  mpc::PartyContext ctx0(0, chans.a, nullptr, popts);
  mpc::PartyContext ctx1(1, chans.b, nullptr, popts);
  auto pair = ml::build_secure_pair(mc);
  auto stores = deal_stores(mc);
  const SharedData& d = shared_data();

  if (!crash_plan.empty()) {
    crash::set_plan(crash::CrashPlan::parse(crash_plan));
  }

  auto run = [&](mpc::PartyContext& ctx, ml::SecureSequential& model,
                 const MatrixF& x_i, const MatrixF& y_i,
                 mpc::TripletStore&& st, const std::string& dir,
                 ml::ResumableStats* out, std::string* final_snap,
                 bool armed) {
    if (armed && !crash_plan.empty()) {
      crash::arm_thread(true);
    }
    ctx.set_triplets(std::move(st));
    ctx.triplets().set_retain(true);
    ml::SecureEnv env{&ctx, true};
    const ml::ResumableStats stats = ml::secure_train_resumable(
        env, model, ml::LossKind::kMse, x_i, y_i, kBatch, kLr, kEpochs,
        durable_opts(dir));
    if (out != nullptr) {
      *out = stats;
    }
    if (final_snap != nullptr) {
      *final_snap = snapshot_bytes(model);
    }
  };

  PhaseResult res;
  std::thread t0([&] {
    try {
      run(ctx0, pair.m0, d.xs.s0, d.ys.s0, std::move(stores.first), dir0,
          out0, final0, /*armed=*/true);
    } catch (...) {
      res.err0 = std::current_exception();
    }
  });
  std::thread t1([&] {
    try {
      run(ctx1, pair.m1, d.xs.s1, d.ys.s1, std::move(stores.second), dir1,
          out1, final1, /*armed=*/false);
    } catch (...) {
      res.err1 = std::current_exception();
    }
  });
  t0.join();
  t1.join();
  // NOT cleared here: callers that planned a crash clear the plan themselves
  // (some first read the hit counters, which clearing resets).
  return res;
}

// Reference: the same run with no interference. Computed per scenario (cheap
// at this model size) into scenario-local directories.
void run_baseline(const std::string& scenario, std::string& snap0,
                  std::string& snap1,
                  const ml::ModelConfig& mc = model_config()) {
  const auto [dir0, dir1] = fresh_dirs(scenario + "-baseline");
  ml::ResumableStats s0, s1;
  PhaseResult res =
      run_phase(dir0, dir1, "", &s0, &s1, &snap0, &snap1, mc);
  if (res.err0) std::rethrow_exception(res.err0);
  if (res.err1) std::rethrow_exception(res.err1);
  ASSERT_EQ(s0.steps_run, kTotalSteps);
  ASSERT_FALSE(s0.resumed);
  ASSERT_FALSE(snap0.empty());
  ASSERT_EQ(snap0.size(), snap1.size());
}

void expect_simulated_crash(const std::exception_ptr& err, const char* point) {
  ASSERT_TRUE(err) << point << ": party 0 did not crash";
  try {
    std::rethrow_exception(err);
  } catch (const crash::SimulatedCrash& c) {
    EXPECT_EQ(c.point(), point);
  } catch (...) {
    FAIL() << point << ": party 0 died with something other than the "
              "simulated crash";
  }
}

struct Scenario {
  const char* test_name;
  std::string plan;            // armed-hit clause for party 0
  const char* point;           // crash-point name the plan targets
  std::uint64_t want_resume;   // expected negotiated recovery id on restart
  ml::ModelKind model = ml::ModelKind::kMlp;
};

void run_scenario(const Scenario& sc) {
  const ml::ModelConfig mc = model_config(sc.model);
  std::string base0, base1;
  ASSERT_NO_FATAL_FAILURE(run_baseline(sc.test_name, base0, base1, mc));

  const auto [dir0, dir1] = fresh_dirs(sc.test_name);

  // Phase 1: party 0 dies at the named point; party 1 must observe the death
  // as a transport failure (never a hang — the no-timeout guard is satellite
  // territory, here every exchange carries a deadline).
  PhaseResult crash_res =
      run_phase(dir0, dir1, sc.plan, nullptr, nullptr, nullptr, nullptr, mc);
  EXPECT_GE(crash::hits(sc.point), 1u) << sc.point << " never reached";
  crash::clear_plan();
  expect_simulated_crash(crash_res.err0, sc.point);
  ASSERT_TRUE(crash_res.err1)
      << sc.point << ": party 1 sailed through its peer's death";

  // Phase 2: restart both parties. They negotiate the newest mutually
  // committed checkpoint, discard half-committed leftovers, and replay.
  ml::ResumableStats r0, r1;
  std::string fin0, fin1;
  PhaseResult resume_res =
      run_phase(dir0, dir1, "", &r0, &r1, &fin0, &fin1, mc);
  if (resume_res.err0) std::rethrow_exception(resume_res.err0);
  if (resume_res.err1) std::rethrow_exception(resume_res.err1);

  EXPECT_EQ(r0.resumed_commit, sc.want_resume) << sc.point;
  EXPECT_EQ(r1.resumed_commit, sc.want_resume) << sc.point;
  EXPECT_EQ(r0.resumed, sc.want_resume != 0);
  EXPECT_EQ(r0.first_step, sc.want_resume);
  EXPECT_EQ(r0.steps_run, kTotalSteps - sc.want_resume);

  // The acceptance bar: byte-identical final shares on both parties.
  EXPECT_EQ(fin0, base0) << sc.point << ": party 0 shares diverged";
  EXPECT_EQ(fin1, base1) << sc.point << ": party 1 shares diverged";

  // No torn-write debris survives recovery.
  for (const std::string& dir : {dir0, dir1}) {
    for (const std::string& name : durable::list_dir(dir)) {
      EXPECT_TRUE(name.find(".tmp") == std::string::npos)
          << sc.point << ": stale temp file " << dir << "/" << name;
    }
  }
}

// Party 0 dies inside step 2 — triplets consumed and seq advanced but the
// parameter update never lands. Both parties committed checkpoint 1, so the
// restart rewinds store cursors and seq to step 1 and replays.
TEST(CrashRecovery, MidStep) {
  run_scenario({"mid-step", "train.mid-step@1", "train.mid-step", 1});
}

// The same mid-step death in an RNN run: the RNN trains through
// secure_train_resumable like every other model.
TEST(CrashRecovery, RnnMidStep) {
  run_scenario({"rnn-mid-step", "train.mid-step@1", "train.mid-step", 1,
                ml::ModelKind::kRnn});
}

// Party 0 dies after durably preparing checkpoint 2 but before the prepare
// exchange. Nobody committed 2; recovery falls back to 1 and discards the
// prepared-only data file.
TEST(CrashRecovery, AfterPrepareWrite) {
  run_scenario({"after-prepare", "ckpt.after-prepare-write@1",
                "ckpt.after-prepare-write", 1});
}

// The half-committed hazard: party 0 dies between the prepare exchange and
// its commit marker, so party 1 commits checkpoint 2 and party 0 does not.
// Recovery must DISCARD party 1's committed 2 and agree on 1.
TEST(CrashRecovery, BetweenPrepareAndCommit) {
  run_scenario({"between-prepare-commit", "ckpt.between-prepare-commit@1",
                "ckpt.between-prepare-commit", 1});
}

// Party 0 dies right after committing checkpoint 2; both sides hold the
// marker, so 2 IS the recovery point.
TEST(CrashRecovery, AfterCommitWrite) {
  run_scenario({"after-commit-write", "ckpt.after-commit-write@1",
                "ckpt.after-commit-write", 2});
}

// Party 0 dies mid-rename inside the atomic writer while preparing
// checkpoint 2 (armed hit 0 is the triplet-store persist, hit 1 is the
// step-1 prepare, hit 2 the step-1 commit marker, hit 3 the step-2 prepare).
// The destination name never appears; the stale .tmp is swept on recovery.
TEST(CrashRecovery, MidRename) {
  run_scenario(
      {"mid-rename", "durable.pre-rename@3", "durable.pre-rename", 1});
}

// Torn storage without a crash plan: a completed run restarts after its
// newest checkpoint on party 0 is corrupted on disk. The CRC scan disquali-
// fies it locally, negotiation falls back to the previous mutual commit, and
// the replayed tail reproduces the same final shares.
TEST(CrashRecovery, TornNewestCheckpointFallsBack) {
  std::string base0, base1;
  ASSERT_NO_FATAL_FAILURE(run_baseline("torn-newest", base0, base1));

  const auto [dir0, dir1] = fresh_dirs("torn-newest");
  ml::ResumableStats f0, f1;
  PhaseResult first = run_phase(dir0, dir1, "", &f0, &f1);
  if (first.err0) std::rethrow_exception(first.err0);
  if (first.err1) std::rethrow_exception(first.err1);
  ASSERT_EQ(f0.checkpoints, kTotalSteps);  // every step checkpointed

  // Flip one byte in party 0's newest checkpoint data file (id 4; keep=2
  // retains ids 3 and 4).
  const std::string torn = dir0 + "/ckpt-4.psmd";
  std::vector<std::uint8_t> bytes = durable::read_file(torn);
  bytes[bytes.size() / 2] ^= 0x10;
  durable::atomic_write_file(torn, bytes);

  ml::ResumableStats r0, r1;
  std::string fin0, fin1;
  PhaseResult second =
      run_phase(dir0, dir1, "", &r0, &r1, &fin0, &fin1);
  if (second.err0) std::rethrow_exception(second.err0);
  if (second.err1) std::rethrow_exception(second.err1);

  EXPECT_EQ(r0.resumed_commit, 3u);
  EXPECT_EQ(r1.resumed_commit, 3u);
  EXPECT_EQ(r0.steps_run, 1u);  // replays step 4 only
  EXPECT_EQ(fin0, base0);
  EXPECT_EQ(fin1, base1);
  // The corrupt id-4 file was discarded on recovery and rewritten by the
  // replayed step: it validates again.
  EXPECT_NO_THROW(ml::CheckpointDir(dir0).load(4));
}

// The crash plan itself is exercised: the counters must show every named
// point was actually reached during the scenarios above (guards against a
// refactor silently moving a PSML_CRASH_POINT off the hot path). Runs last
// in file order is NOT guaranteed by gtest, so this re-runs one tiny crash
// phase and inspects the counters directly.
TEST(CrashRecovery, CrashPointsAreOnTheHotPath) {
  const auto [dir0, dir1] = fresh_dirs("hot-path");
  PhaseResult res =
      run_phase(dir0, dir1, "train.mid-step@999", nullptr, nullptr);
  // Plan never fires (hit 999 unreachable in 4 steps) — a clean run, but
  // with counting active.
  if (res.err0) std::rethrow_exception(res.err0);
  if (res.err1) std::rethrow_exception(res.err1);
  EXPECT_GE(crash::hits("train.mid-step"), 8u);  // 4 steps x 2 parties
  EXPECT_GE(crash::hits("ckpt.after-prepare-write"), 8u);
  EXPECT_GE(crash::hits("ckpt.between-prepare-commit"), 8u);
  EXPECT_GE(crash::hits("ckpt.after-commit-write"), 8u);
  EXPECT_GE(crash::hits("durable.pre-rename"), 10u);  // + triplet persists
  crash::clear_plan();
}

// Satellite: the resilient layer must DETECT a channel with no receive
// timeout (a dead peer would hang the step forever) instead of silently
// accepting the configuration. The step itself still completes; the hazard
// is reported via ResilientStats::no_timeout and a one-shot warning.
TEST(CrashRecovery, ResilientNoTimeoutDetected) {
  auto pair = ml::build_secure_pair(model_config());
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, kBatch, ml::LossKind::kMse, 4, true);
  mpc::TripletDealer dealer(nullptr, {false, false, 777});
  auto stores = dealer.generate(plan);

  const MatrixF x = random_matrix(kBatch, 10, 191);
  MatrixF y(kBatch, 4, 0.0f);
  for (std::size_t r = 0; r < kBatch; ++r) y(r, r % 4) = 1.0f;
  auto xs = mpc::share_float(x, 192);
  auto ys = mpc::share_float(y, 193);

  ml::RetryPolicy pol;  // recv_timeout 0: keep whatever the channel has
  ml::ResilientStats s0, s1;
  psml::test::run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.peer().set_default_timeout(std::chrono::milliseconds(0));
        ctx.set_triplets(std::move(stores.first));
        ctx.triplets().set_retain(true);
        ml::SecureEnv env{&ctx, true};
        s0 = ml::secure_train_batch_resilient(env, pair.m0, ml::LossKind::kMse,
                                              xs.s0, ys.s0, kLr, pol);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.peer().set_default_timeout(std::chrono::milliseconds(0));
        ctx.set_triplets(std::move(stores.second));
        ctx.triplets().set_retain(true);
        ml::SecureEnv env{&ctx, true};
        s1 = ml::secure_train_batch_resilient(env, pair.m1, ml::LossKind::kMse,
                                              xs.s1, ys.s1, kLr, pol);
      });
  EXPECT_TRUE(s0.completed);
  EXPECT_TRUE(s1.completed);
  EXPECT_TRUE(s0.no_timeout);
  EXPECT_TRUE(s1.no_timeout);
}

// Precondition for every bit-identity assertion above: with a fixed
// mask_seed and compression off, two from-scratch runs are byte-identical.
// If this fails, a new entropy source crept into the online path.
TEST(CrashRecovery, CleanRunsAreReproducible) {
  std::string a0, a1, b0, b1;
  run_baseline("det-a", a0, a1);
  run_baseline("det-b", b0, b1);
  EXPECT_EQ(a0, b0);
  EXPECT_EQ(a1, b1);
}

}  // namespace
}  // namespace psml
