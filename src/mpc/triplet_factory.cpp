#include "mpc/triplet_factory.hpp"

#include <algorithm>
#include <utility>

#include "common/durable_io.hpp"
#include "common/error.hpp"
#include "common/taint.hpp"
#include "common/timer.hpp"
#include "mpc/triplet_io.hpp"
#include "rng/rng.hpp"

namespace psml::mpc {

namespace {

// Largest number of entries one refill pass deals before re-checking the
// pool state. Small enough that a consumer draining faster than expected
// (or pause()/stop()) is observed promptly, large enough to amortize the
// lock round trip against multi-millisecond GEMMs.
constexpr std::size_t kRefillChunk = 4;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t spec_key(const TripletSpec& spec) {
  std::uint64_t h = static_cast<std::uint64_t>(spec.kind) + 1;
  h = mix64(h ^ spec.m);
  h = mix64(h ^ spec.k);
  return mix64(h ^ spec.n);
}

std::string pool_file_name(const TripletSpec& spec) {
  return "pool_" + std::to_string(static_cast<unsigned>(spec.kind)) + "_" +
         std::to_string(spec.m) + "x" + std::to_string(spec.k) + "x" +
         std::to_string(spec.n) + ".psmd";
}

bool is_pool_file_name(const std::string& name) {
  return name.rfind("pool_", 0) == 0 && name.size() > 10 &&
         name.compare(name.size() - 5, 5, ".psmd") == 0;
}

}  // namespace

TripletFactory::TripletFactory(sgpu::Device* device, FactoryOptions opts)
    : device_(device), opts_(std::move(opts)) {
  PSML_REQUIRE(opts_.producers >= 1, "factory: needs at least one producer");
  PSML_REQUIRE(opts_.high_watermark >= 1,
               "factory: high watermark must be positive");
  PSML_REQUIRE(opts_.low_watermark <= opts_.high_watermark,
               "factory: low watermark above high watermark");
  PSML_REQUIRE(!(opts_.dealer.use_gpu && opts_.dealer.naive_cpu),
               "factory: dealer options conflict (use_gpu + naive_cpu)");
  if (opts_.dealer.use_gpu) {
    PSML_REQUIRE(device_ != nullptr, "factory: use_gpu requires a device");
  }
  {
    sync::MutexLock lock(mutex_);
    seed_base_ =
        opts_.dealer.seed != 0 ? opts_.dealer.seed : rng::random_seed();
  }
  producers_ = std::make_unique<ThreadPool>(opts_.producers);
  if (!opts_.persist_dir.empty()) {
    (void)load(opts_.persist_dir);
  }
}

TripletFactory::~TripletFactory() { stop(); }

bool TripletFactory::schedule_refill(const TripletSpec& spec, Pool& p) {
  (void)spec;
  if (stopping_ || pool_depth(p) >= refill_target(p)) return false;
  if (!p.refill_pending) {
    p.refill_pending = true;
    refills_scheduled_.fetch_add(1, std::memory_order_relaxed);
  }
  if (paused_ || p.task_live) return false;
  p.task_live = true;
  return true;
}

void TripletFactory::submit_refill(const TripletSpec& spec) {
  try {
    producers_->submit([this, spec] { refill_task(spec); });
  } catch (const ShutdownError&) {
    // Racing stop(): the task is moot, stop() owns the cleanup.
  }
}

void TripletFactory::register_spec(const TripletSpec& spec) {
  bool submit = false;
  {
    sync::MutexLock lock(mutex_);
    PSML_CHECK_MSG(!stopping_, "TripletFactory: register_spec after stop");
    Pool& p = pools_[spec];
    submit = schedule_refill(spec, p);
  }
  if (submit) submit_refill(spec);
}

void TripletFactory::reserve(const std::vector<TripletSpec>& plan) {
  std::vector<TripletSpec> submits;
  {
    sync::MutexLock lock(mutex_);
    PSML_CHECK_MSG(!stopping_, "TripletFactory: reserve after stop");
    for (const TripletSpec& spec : plan) {
      pools_[spec].reserved += 1;
    }
    for (const TripletSpec& spec : plan) {
      Pool& p = pools_[spec];
      if (schedule_refill(spec, p)) submits.push_back(spec);
    }
  }
  for (const TripletSpec& spec : submits) submit_refill(spec);
}

void TripletFactory::wait_ready(net::Deadline deadline) {
  sync::MutexLock lock(mutex_);
  auto ready = [this] {
    if (stopping_) return true;
    for (const auto& [spec, p] : pools_) {
      if (pool_depth(p) < p.reserved) return false;
    }
    return true;
  };
  if (deadline == net::kNoDeadline) {
    cv_.wait(lock.native(), ready);
  } else if (!cv_.wait_until(lock.native(), deadline, ready)) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    throw TimeoutError("TripletFactory: wait_ready deadline expired");
  }
  if (stopping_) throw ShutdownError("TripletFactory: stopped");
}

void TripletFactory::serve(const TripletSpec& spec, TripletStore& st0,
                           TripletStore& st1, net::Deadline deadline) {
  bool waited = false;
  bool submit_self = false;
  {
    sync::MutexLock lock(mutex_);
    for (;;) {
      if (stopping_) throw ShutdownError("TripletFactory: stopped");
      Pool& p = pools_[spec];
      if (pool_depth(p) > 0) {
        p.s0.move_front(spec.kind, st0);
        p.s1.move_front(spec.kind, st1);
        if (p.reserved > 0) --p.reserved;
        acquired_.fetch_add(1, std::memory_order_relaxed);
        // Watermark: a serve that leaves the pool strictly below
        // low (+ reservations) schedules the background refill.
        if (pool_depth(p) < opts_.low_watermark + p.reserved) {
          submit_self = schedule_refill(spec, p);
        }
        break;
      }
      // Starved: make sure a producer is on it, then wait.
      if (schedule_refill(spec, p)) {
        lock.unlock();
        submit_refill(spec);
        lock.lock();
        continue;  // re-check: the refill may already have landed
      }
      if (!waited) {
        waited = true;
        starvation_events_.fetch_add(1, std::memory_order_relaxed);
      }
      if (deadline == net::kNoDeadline) {
        cv_.wait(lock.native());
      } else if (cv_.wait_until(lock.native(), deadline) ==
                 std::cv_status::timeout) {
        // Deadline hit — but material racing in right at the wire still
        // wins (same last-chance re-check as the channel recv paths).
        if (pool_depth(pools_[spec]) > 0) continue;
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        throw TimeoutError("TripletFactory: deadline expired (pool " +
                           pool_file_name(spec) + " empty)");
      }
    }
  }
  if (submit_self) submit_refill(spec);
}

void TripletFactory::fill_stores(const std::vector<TripletSpec>& plan,
                                 TripletStore& st0, TripletStore& st1,
                                 net::Deadline deadline) {
  for (const TripletSpec& spec : plan) serve(spec, st0, st1, deadline);
}

std::uint64_t TripletFactory::task_seed(const TripletSpec& spec) {
  sync::MutexLock lock(mutex_);
  refill_serial_ += 1;
  const std::uint64_t s =
      mix64(seed_base_ ^ spec_key(spec) ^ (refill_serial_ << 1));
  return s | 1;  // dealer treats seed 0 as "draw random"
}

void TripletFactory::refill_task(TripletSpec spec) {
  Timer task_timer;
  for (;;) {
    std::size_t want = 0;
    {
      sync::MutexLock lock(mutex_);
      auto it = pools_.find(spec);
      PSML_CHECK_MSG(it != pools_.end(), "factory: refill of unknown pool");
      Pool& p = it->second;
      if (stopping_) {
        p.refill_pending = false;
        p.task_live = false;
        return;
      }
      if (paused_) {
        // Keep the pending mark so resume() re-submits us.
        p.task_live = false;
        return;
      }
      const std::size_t depth = pool_depth(p);
      const std::size_t target = refill_target(p);
      if (depth >= target) {
        p.refill_pending = false;
        p.task_live = false;
        const double sec = task_timer.seconds();
        refill_sec_total_ += sec;
        last_refill_sec_ = sec;
        refills_completed_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        cv_.notify_all();
        return;
      }
      want = std::min(target - depth, kRefillChunk);
    }

    // Generate outside the lock: this is the expensive Z = U x V phase and
    // may itself fan out over the global thread pool.
    TripletDealer dealer(device_, DealerOptions{opts_.dealer.use_gpu,
                                                opts_.dealer.naive_cpu,
                                                task_seed(spec)});
    auto [g0, g1] = dealer.generate(std::vector<TripletSpec>(want, spec));
    {
      sync::MutexLock lock(mutex_);
      Pool& p = pools_[spec];
      p.s0.append(std::move(g0));
      p.s1.append(std::move(g1));
    }
    produced_.fetch_add(want, std::memory_order_relaxed);
    cv_.notify_all();
  }
}

void TripletFactory::save() const {
  PSML_REQUIRE(!opts_.persist_dir.empty(),
               "factory: save() needs opts.persist_dir (or pass a dir)");
  save(opts_.persist_dir);
}

void TripletFactory::save(const std::string& dir) const {
  durable::ensure_dir(dir);
  // Snapshot under the lock (deque copies), write outside it — atomic
  // renames + fsyncs must not stall producers and consumers.
  std::vector<PoolFile> snapshot;
  {
    sync::MutexLock lock(mutex_);
    for (const auto& [spec, p] : pools_) {
      if (pool_depth(p) == 0) continue;
      snapshot.push_back(PoolFile{spec, p.s0, p.s1});
    }
  }
  std::vector<std::string> written;
  for (const PoolFile& f : snapshot) {
    const std::string name = pool_file_name(f.spec);
    save_pool_file(dir + "/" + name, f.spec, f.s0, f.s1);
    written.push_back(name);
  }
  // Prune pool files for specs this factory no longer holds so a reload
  // reconstructs exactly the saved state.
  for (const std::string& name : durable::list_dir(dir)) {
    if (!is_pool_file_name(name)) continue;
    if (std::find(written.begin(), written.end(), name) == written.end()) {
      durable::remove_file(dir + "/" + name);
    }
  }
}

std::size_t TripletFactory::load(const std::string& dir) {
  std::size_t total = 0;
  for (const std::string& name : durable::list_dir(dir)) {
    if (!is_pool_file_name(name)) continue;
    PoolFile f;
    try {
      f = load_pool_file(dir + "/" + name);
    } catch (const IOError&) {
      // Torn or corrupt pool file, or one not holding its spec's material:
      // offline material is regenerable, so a restart skips it and lets the
      // watermark machinery re-deal.
      load_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Spec and count are structural metadata (public by construction —
    // they are the pool file's section framing), not secret material.
    PSML_PUBLIC const TripletSpec spec = f.spec;
    PSML_PUBLIC const std::size_t count = f.s0.size();
    {
      sync::MutexLock lock(mutex_);
      Pool& p = pools_[spec];
      p.s0.append(std::move(f.s0));
      p.s1.append(std::move(f.s1));
    }
    loaded_.fetch_add(count, std::memory_order_relaxed);
    total += count;
  }
  if (total > 0) cv_.notify_all();
  return total;
}

void TripletFactory::pause() {
  sync::MutexLock lock(mutex_);
  paused_ = true;
}

void TripletFactory::resume() {
  std::vector<TripletSpec> submits;
  {
    sync::MutexLock lock(mutex_);
    paused_ = false;
    if (stopping_) return;
    for (auto& [spec, p] : pools_) {
      if (p.refill_pending && !p.task_live) {
        p.task_live = true;
        submits.push_back(spec);
      }
    }
  }
  for (const TripletSpec& spec : submits) submit_refill(spec);
}

void TripletFactory::stop() {
  {
    sync::MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  producers_->shutdown();
}

TripletFactory::Metrics TripletFactory::metrics() const {
  Metrics m;
  m.produced = produced_.load(std::memory_order_relaxed);
  m.loaded = loaded_.load(std::memory_order_relaxed);
  m.acquired = acquired_.load(std::memory_order_relaxed);
  m.refills_scheduled = refills_scheduled_.load(std::memory_order_relaxed);
  m.refills_completed = refills_completed_.load(std::memory_order_relaxed);
  m.starvation_events = starvation_events_.load(std::memory_order_relaxed);
  m.timeouts = timeouts_.load(std::memory_order_relaxed);
  m.load_errors = load_errors_.load(std::memory_order_relaxed);
  sync::MutexLock lock(mutex_);
  m.refill_sec_total = refill_sec_total_;
  m.last_refill_sec = last_refill_sec_;
  m.specs = pools_.size();
  for (const auto& [spec, p] : pools_) m.depth_total += pool_depth(p);
  return m;
}

std::size_t TripletFactory::depth(const TripletSpec& spec) const {
  sync::MutexLock lock(mutex_);
  auto it = pools_.find(spec);
  return it == pools_.end() ? 0 : pool_depth(it->second);
}

}  // namespace psml::mpc
