#include "mpc/triplet_factory.hpp"

#include <algorithm>
#include <utility>

#include "common/durable_io.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/taint.hpp"
#include "common/timer.hpp"
#include "mpc/triplet_io.hpp"
#include "rng/rng.hpp"

namespace psml::mpc {

namespace {

// Largest number of pairs one refill pass generates before re-checking the
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

TripletFactory& TripletFactory::global() {
  // Leaked singleton: producer threads may outlive main() bookkeeping, and
  // refill tasks lazily touch other process-wide singletons (device, global
  // thread pool) whose destruction order is first-use-dependent. Keeping the
  // factory alive through exit sidesteps the shutdown race entirely — the
  // same reason the global() ThreadPool workers are never detached mid-task.
  static TripletFactory* factory = [] {
    FactoryOptions o;
    o.low_watermark = env_size_t("PSML_TRIPLET_FACTORY_LOW", 2);
    o.high_watermark = env_size_t("PSML_TRIPLET_FACTORY_HIGH", 8);
    o.producers = env_size_t("PSML_TRIPLET_FACTORY_PRODUCERS", 2);
    o.dealer.use_gpu = env_bool("PSML_TRIPLET_FACTORY_GPU", true);
    o.dealer.seed = env_size_t("PSML_TRIPLET_FACTORY_SEED", 0);
    o.persist_dir = env_string("PSML_TRIPLET_FACTORY_DIR", "");
    sgpu::Device* dev =
        o.dealer.use_gpu ? &sgpu::Device::global() : nullptr;
    return new TripletFactory(dev, o);
  }();
  return *factory;
}

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

template <class Pair>
Pair TripletFactory::acquire_from(std::deque<Pair> Pool::*queue,
                                  const TripletSpec& spec,
                                  net::Deadline deadline) {
  bool waited = false;
  Pair out;
  bool submit_self = false;
  {
    sync::MutexLock lock(mutex_);
    for (;;) {
      if (stopping_) throw ShutdownError("TripletFactory: stopped");
      Pool& p = pools_[spec];
      std::deque<Pair>& q = p.*queue;
      if (!q.empty()) {
        out = std::move(q.front());
        q.pop_front();
        if (p.reserved > 0) --p.reserved;
        acquired_.fetch_add(1, std::memory_order_relaxed);
        // Watermark: a pop that leaves the pool strictly below
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
        if (!(pools_[spec].*queue).empty()) continue;
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        throw TimeoutError("TripletFactory: acquire deadline expired (pool " +
                           pool_file_name(spec) + " empty)");
      }
    }
  }
  if (submit_self) submit_refill(spec);
  return out;
}

template <class Pair>
std::optional<Pair> TripletFactory::try_acquire_from(
    std::deque<Pair> Pool::*queue, const TripletSpec& spec) {
  std::optional<Pair> out;
  bool submit = false;
  {
    sync::MutexLock lock(mutex_);
    if (stopping_) return std::nullopt;
    Pool& p = pools_[spec];
    std::deque<Pair>& q = p.*queue;
    if (!q.empty()) {
      out.emplace(std::move(q.front()));
      q.pop_front();
      if (p.reserved > 0) --p.reserved;
      acquired_.fetch_add(1, std::memory_order_relaxed);
    }
    if (pool_depth(p) < opts_.low_watermark + p.reserved || q.empty()) {
      submit = schedule_refill(spec, p);
    }
  }
  if (submit) submit_refill(spec);
  return out;
}

TripletPair TripletFactory::acquire(const TripletSpec& spec,
                                    net::Deadline deadline) {
  PSML_REQUIRE(spec.kind == TripletKind::kMatMul ||
                   spec.kind == TripletKind::kElementwise,
               "factory: activation and layer specs have their own acquire");
  return acquire_from(&Pool::pairs, spec, deadline);
}

ActivationPair TripletFactory::acquire_activation(const TripletSpec& spec,
                                                  net::Deadline deadline) {
  PSML_REQUIRE(spec.kind == TripletKind::kActivation,
               "factory: acquire_activation needs a kActivation spec");
  return acquire_from(&Pool::acts, spec, deadline);
}

LayerPair TripletFactory::acquire_layer(const TripletSpec& spec,
                                        net::Deadline deadline) {
  PSML_REQUIRE(spec.kind == TripletKind::kLayer,
               "factory: acquire_layer needs a kLayer spec");
  return acquire_from(&Pool::layers, spec, deadline);
}

std::optional<TripletPair> TripletFactory::try_acquire(
    const TripletSpec& spec) {
  PSML_REQUIRE(spec.kind == TripletKind::kMatMul ||
                   spec.kind == TripletKind::kElementwise,
               "factory: activation and layer specs have their own pops");
  return try_acquire_from(&Pool::pairs, spec);
}

std::optional<ActivationPair> TripletFactory::try_acquire_activation(
    const TripletSpec& spec) {
  PSML_REQUIRE(spec.kind == TripletKind::kActivation,
               "factory: try_acquire_activation needs a kActivation spec");
  return try_acquire_from(&Pool::acts, spec);
}

void TripletFactory::fill_stores(const std::vector<TripletSpec>& plan,
                                 TripletStore& st0, TripletStore& st1,
                                 net::Deadline deadline) {
  for (const TripletSpec& spec : plan) {
    switch (spec.kind) {
      case TripletKind::kMatMul: {
        TripletPair pair = acquire(spec, deadline);
        st0.push_matmul(std::move(pair.s0));
        st1.push_matmul(std::move(pair.s1));
        break;
      }
      case TripletKind::kElementwise: {
        TripletPair pair = acquire(spec, deadline);
        st0.push_elementwise(std::move(pair.s0));
        st1.push_elementwise(std::move(pair.s1));
        break;
      }
      case TripletKind::kActivation: {
        ActivationPair pair = acquire_activation(spec, deadline);
        st0.push_activation(std::move(pair.s0));
        st1.push_activation(std::move(pair.s1));
        break;
      }
      case TripletKind::kLayer: {
        LayerPair pair = acquire_layer(spec, deadline);
        st0.push_layer(std::move(pair.s0));
        st1.push_layer(std::move(pair.s1));
        break;
      }
    }
  }
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
    std::vector<TripletPair> pairs;
    std::vector<ActivationPair> acts;
    std::vector<LayerPair> layers;
    for (std::size_t i = 0; i < want; ++i) {
      switch (spec.kind) {
        case TripletKind::kMatMul: {
          auto [t0, t1] = dealer.make_matmul(spec.m, spec.k, spec.n);
          pairs.push_back(TripletPair{std::move(t0), std::move(t1)});
          break;
        }
        case TripletKind::kElementwise: {
          auto [t0, t1] = dealer.make_elementwise(spec.m, spec.n);
          pairs.push_back(TripletPair{std::move(t0), std::move(t1)});
          break;
        }
        case TripletKind::kActivation: {
          auto [a0, a1] = dealer.make_activation(spec.m, spec.n);
          acts.push_back(ActivationPair{std::move(a0), std::move(a1)});
          break;
        }
        case TripletKind::kLayer: {
          auto [l0, l1] = dealer.make_layer(spec.m, spec.k, spec.n);
          layers.push_back(LayerPair{std::move(l0), std::move(l1)});
          break;
        }
      }
    }

    {
      sync::MutexLock lock(mutex_);
      Pool& p = pools_[spec];
      for (auto& pair : pairs) p.pairs.push_back(std::move(pair));
      for (auto& act : acts) p.acts.push_back(std::move(act));
      for (auto& layer : layers) p.layers.push_back(std::move(layer));
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
      PoolFile f;
      f.spec = spec;
      for (const TripletPair& pair : p.pairs) {
        if (spec.kind == TripletKind::kElementwise) {
          f.s0.push_elementwise(pair.s0);
          f.s1.push_elementwise(pair.s1);
        } else {
          f.s0.push_matmul(pair.s0);
          f.s1.push_matmul(pair.s1);
        }
      }
      for (const ActivationPair& act : p.acts) {
        f.s0.push_activation(act.s0);
        f.s1.push_activation(act.s1);
      }
      for (const LayerPair& layer : p.layers) {
        f.s0.push_layer(layer.s0);
        f.s1.push_layer(layer.s1);
      }
      snapshot.push_back(std::move(f));
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
      // Torn or corrupt pool file: offline material is regenerable, so a
      // restart skips it and lets the watermark machinery re-deal.
      load_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Spec and counts are structural metadata (public by construction —
    // they are the pool file's section framing), not secret material.
    PSML_PUBLIC const TripletSpec spec = f.spec;
    PSML_PUBLIC std::size_t count = 0;
    sync::MutexLock lock(mutex_);
    Pool& p = pools_[spec];
    switch (spec.kind) {
      case TripletKind::kMatMul:
        count = f.s0.matmul_size();
        for (std::size_t i = 0; i < count; ++i) {
          p.pairs.push_back(TripletPair{f.s0.pop_matmul(), f.s1.pop_matmul()});
        }
        break;
      case TripletKind::kElementwise:
        count = f.s0.elementwise_size();
        for (std::size_t i = 0; i < count; ++i) {
          p.pairs.push_back(
              TripletPair{f.s0.pop_elementwise(), f.s1.pop_elementwise()});
        }
        break;
      case TripletKind::kActivation:
        count = f.s0.activation_size();
        for (std::size_t i = 0; i < count; ++i) {
          p.acts.push_back(
              ActivationPair{f.s0.pop_activation(), f.s1.pop_activation()});
        }
        break;
      case TripletKind::kLayer:
        count = f.s0.layer_size();
        for (std::size_t i = 0; i < count; ++i) {
          p.layers.push_back(LayerPair{f.s0.pop_layer(), f.s1.pop_layer()});
        }
        break;
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
