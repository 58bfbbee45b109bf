// Background triplet factory: the offline phase as an always-on producer
// (ROADMAP item 2, the offline/online split every production MPC stack
// ships — CrypTen and tf-encrypted structure around the same shape).
//
// The paper's offline phase (Z = U x V, Sec. 2.2 / 4.2) dominates
// end-to-end time yet the seed ran it inline per job, so every training or
// inference run paid dealer latency on its critical path. The factory
// instead pre-generates shape-keyed pools of complete triplet *pairs* (both
// parties' halves — the factory is the dealer, i.e. the client of the
// paper's client-aided model) on idle cores, refills them on watermarks,
// and hands material to online jobs at memory speed.
//
// Lifecycle of one pool:
//
//   register/reserve ─▶ pool created, refill scheduled to the high mark
//   acquire/fill     ─▶ pops a pair; a pop that takes the depth strictly
//                       below (low mark + outstanding reservations)
//                       schedules a background refill up to
//                       (high mark + outstanding reservations)
//   empty + blocked  ─▶ acquire waits on the refill cv (a "starvation
//                       event", counted) until material lands or the
//                       deadline expires (TimeoutError)
//
// reserve(plan) registers upcoming demand: it raises each touched pool's
// refill target by the plan's multiplicity, so a server that announces a
// job ahead of time finds the whole plan materialized instead of trickling
// through high_watermark-sized refills. wait_ready() blocks until every
// reservation is satisfiable from the pools.
//
// Producer tasks run on the factory's own common/thread_pool workers (the
// repo-wide spawn discipline: no raw std::thread outside the pool TUs) and
// never generate while holding the pool mutex — generation is minutes of
// GEMM, the lock guards a couple of deque moves. Each refill task seeds a
// private TripletDealer from (factory seed, spec, refill serial), so
// concurrent refills of different shapes never contend on one RNG stream.
//
// Persistence: save(dir) writes one durable pool file per spec through
// mpc/triplet_io + common/durable_io (atomic rename + CRC framing);
// load(dir) restores pools on restart, skipping (and counting) torn files —
// offline material is regenerable, so corruption degrades to regeneration,
// never a crash. Pool files hold BOTH halves and live on the dealer host
// only; per-party distribution still goes through store_transfer /
// save_store (security note in docs/ANALYSIS.md §11).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sync_annot.hpp"
#include "common/thread_pool.hpp"
#include "mpc/triplet.hpp"
#include "net/channel.hpp"

namespace psml::mpc {

// Both parties' halves of one pooled triplet. Secret like the shares it
// carries; the pair never leaves the dealer process as a unit.
struct PSML_SECRET TripletPair {
  TripletShare s0, s1;
};

struct PSML_SECRET ActivationPair {
  ActivationShare s0, s1;
};

struct PSML_SECRET LayerPair {
  LayerShare s0, s1;
};

struct FactoryOptions {
  // Refill policy: a pop that takes a pool strictly below
  // low_watermark (+ reservations) schedules a refill up to
  // high_watermark (+ reservations).
  std::size_t low_watermark = 2;
  std::size_t high_watermark = 8;
  // Producer threads (the factory's private thread pool size). Must be >= 1.
  std::size_t producers = 2;
  // How refill tasks generate material (engine + base seed; seed 0 draws a
  // random base once, keeping runs distinct but each factory internally
  // deterministic).
  DealerOptions dealer;
  // When non-empty: load(dir) on construction, and save() targets it.
  std::string persist_dir;
};

class TripletFactory {
 public:
  // `device` may be null when opts.dealer.use_gpu is false (same contract
  // as TripletDealer).
  TripletFactory(sgpu::Device* device, FactoryOptions opts);
  ~TripletFactory();  // stops producers; does NOT auto-save

  TripletFactory(const TripletFactory&) = delete;
  TripletFactory& operator=(const TripletFactory&) = delete;

  // Process-wide factory for config-switched consumers (PSML_TRIPLET_FACTORY
  // in parsecureml::RunConfig). Tuned by PSML_TRIPLET_FACTORY_{LOW,HIGH,
  // PRODUCERS,GPU,SEED,DIR} at first use.
  static TripletFactory& global();

  // Ensure a pool exists for `spec` and schedule its initial fill. Idempotent.
  void register_spec(const TripletSpec& spec);

  // Announce upcoming demand: for each spec in `plan`, raise the pool's
  // refill target by its multiplicity so producers materialize the whole
  // plan ahead of the acquires that will consume it.
  void reserve(const std::vector<TripletSpec>& plan);

  // Block until every pool can satisfy its outstanding reservations.
  // Throws TimeoutError when `deadline` expires first.
  void wait_ready(net::Deadline deadline = net::kNoDeadline) PSML_BLOCKING;

  // Pop one pair, blocking until material is available. Throws TimeoutError
  // on deadline expiry and ShutdownError if the factory is stopping.
  // acquire serves kMatMul / kElementwise specs; kActivation and kLayer have
  // their own typed pops.
  TripletPair acquire(const TripletSpec& spec,
                      net::Deadline deadline = net::kNoDeadline) PSML_BLOCKING;
  ActivationPair acquire_activation(
      const TripletSpec& spec,
      net::Deadline deadline = net::kNoDeadline) PSML_BLOCKING;
  LayerPair acquire_layer(const TripletSpec& spec,
                          net::Deadline deadline = net::kNoDeadline)
      PSML_BLOCKING;

  // Non-blocking pops: empty pool returns nullopt (scheduling a refill so a
  // retry finds material).
  std::optional<TripletPair> try_acquire(const TripletSpec& spec);
  std::optional<ActivationPair> try_acquire_activation(const TripletSpec& spec);

  // Demand-side convenience: pop one pair per plan entry into the two
  // per-party stores (the exact shape TripletDealer::generate used to
  // return). With a warm pool this is pure deque moves — zero generation on
  // the caller's critical path.
  void fill_stores(const std::vector<TripletSpec>& plan, TripletStore& st0,
                   TripletStore& st1,
                   net::Deadline deadline = net::kNoDeadline) PSML_BLOCKING;

  // Persistence (see header note). save() requires opts.persist_dir (or an
  // explicit dir); load errors are counted, not thrown.
  void save() const;
  void save(const std::string& dir) const;
  std::size_t load(const std::string& dir);

  // Test/maintenance hooks: paused producers record scheduled refills but
  // do not generate until resume(). stop() is what the destructor calls.
  void pause();
  void resume();
  void stop();

  struct Metrics {
    std::uint64_t produced = 0;            // pairs generated by refill tasks
    std::uint64_t loaded = 0;              // pairs restored from disk
    std::uint64_t acquired = 0;            // successful pops (all flavors)
    std::uint64_t refills_scheduled = 0;   // watermark / empty-pool triggers
    std::uint64_t refills_completed = 0;   // refill tasks run to target
    std::uint64_t starvation_events = 0;   // acquires that had to block
    std::uint64_t timeouts = 0;            // acquires lost to the deadline
    std::uint64_t load_errors = 0;         // torn/corrupt pool files skipped
    double refill_sec_total = 0.0;         // wall time inside refill tasks
    double last_refill_sec = 0.0;          // most recent completed refill
    std::size_t specs = 0;                 // registered pools
    std::size_t depth_total = 0;           // pooled pairs across all specs
  };
  Metrics metrics() const;

  // Depth of one pool (0 when the spec is unknown).
  std::size_t depth(const TripletSpec& spec) const;

  const FactoryOptions& options() const { return opts_; }

 private:
  struct Pool {
    std::deque<TripletPair> pairs;     // kMatMul / kElementwise material
    std::deque<ActivationPair> acts;   // kActivation material
    std::deque<LayerPair> layers;      // kLayer material
    std::size_t reserved = 0;          // announced, not yet acquired demand
    bool refill_pending = false;       // below target, producer owed a pass
    bool task_live = false;            // a producer task currently owns it
  };

  static std::size_t pool_depth(const Pool& p) {
    return p.pairs.size() + p.acts.size() + p.layers.size();
  }
  std::size_t refill_target(const Pool& p) const {
    return opts_.high_watermark + p.reserved;
  }

  // The typed pops behind acquire* / try_acquire*; `queue` is the pool's
  // deque for the spec's kind.
  template <class Pair>
  Pair acquire_from(std::deque<Pair> Pool::*queue, const TripletSpec& spec,
                    net::Deadline deadline) PSML_BLOCKING;
  template <class Pair>
  std::optional<Pair> try_acquire_from(std::deque<Pair> Pool::*queue,
                                       const TripletSpec& spec);

  // Trigger decision; returns true when the caller (outside the lock) must
  // submit a producer task for `spec`.
  bool schedule_refill(const TripletSpec& spec, Pool& p)
      PSML_REQUIRES(mutex_);
  void submit_refill(const TripletSpec& spec);
  void refill_task(TripletSpec spec);

  // Generation seed chain for one refill task.
  std::uint64_t task_seed(const TripletSpec& spec);

  sgpu::Device* device_;
  FactoryOptions opts_;
  std::unique_ptr<ThreadPool> producers_;

  mutable sync::Mutex mutex_;
  std::condition_variable cv_;
  std::map<TripletSpec, Pool> pools_ PSML_GUARDED_BY(mutex_);
  bool stopping_ PSML_GUARDED_BY(mutex_) = false;
  bool paused_ PSML_GUARDED_BY(mutex_) = false;
  std::uint64_t seed_base_ PSML_GUARDED_BY(mutex_) = 0;
  std::uint64_t refill_serial_ PSML_GUARDED_BY(mutex_) = 0;
  double refill_sec_total_ PSML_GUARDED_BY(mutex_) = 0.0;
  double last_refill_sec_ PSML_GUARDED_BY(mutex_) = 0.0;

  // Monotonic counters as lone atomics — same idiom (and rationale) as
  // net::BufferPool: metrics() readers tolerate a momentarily torn view
  // across counters, each counter is individually exact.
  std::atomic<std::uint64_t> produced_{0};
  std::atomic<std::uint64_t> loaded_{0};
  std::atomic<std::uint64_t> acquired_{0};
  std::atomic<std::uint64_t> refills_scheduled_{0};
  std::atomic<std::uint64_t> refills_completed_{0};
  std::atomic<std::uint64_t> starvation_events_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> load_errors_{0};
};

}  // namespace psml::mpc
