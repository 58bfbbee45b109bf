// bench_e2e — end-to-end secure-step benchmark.
//
// One process runs one workload. It builds the two-server harness from the
// library's public APIs only (dataset, secure model pair, epoch plan, dealer,
// store transfer, LocalChannel, PartyContext), runs untimed warm-up steps,
// then runs a fixed number of closed-loop secure steps on two party threads
// (--seconds times the workload's nominal step rate) and checks the result
// against a plaintext reference outside the timed window. Layers are timed
// from outside, at the calls into them.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--ablate T]
//
// --trace 0 reports the end-to-end metrics. --trace 1 wraps both
// server-to-server endpoints in a recording decorator, alternates traced and
// untraced cycles, and reports the per-layer metrics. --ablate flips one
// PartyOptions toggle (a diagnostic; no BENCHMARK.json workload uses it).
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics. README.md defines every workload and metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "data/datasets.hpp"
#include "ml/models.hpp"
#include "mpc/party.hpp"
#include "mpc/share.hpp"
#include "mpc/triplet.hpp"
#include "net/local_channel.hpp"
#include "net/wire_buf.hpp"
#include "parsecureml/framework.hpp"
#include "parsecureml/store_transfer.hpp"
#include "pipeline/dep_engine.hpp"
#include "profile/adaptive.hpp"
#include "profile/profiler.hpp"
#include "sgpu/device.hpp"

extern char** environ;

namespace {

using namespace psml;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  ml::ModelKind model;
  std::size_t batch;
  // Triplet slots: one epoch of offline material, recycled every epoch as
  // run_secure does, so each slot keeps its U/V masks across epochs.
  std::size_t slots;
  // Distinct input batches, cycled step by step. Equal to `slots` for
  // training; coprime with it for inference, so no slot sees the same input
  // twice in a row.
  std::size_t queries;
  bool training;
  bool secureml;
  std::size_t warmup;  // untimed steps before the window
  float lr;  // SGD step size; unused by inference
  // Timed steps per second of --seconds: the step rate measured when the
  // benchmark was introduced. Fixed, so every commit runs the same steps and
  // the same training trajectory whatever its speed.
  double steps_per_s;
};

// Why each workload exists is in README.md; in short: the paper's headline
// MLP, a bytes-heavy CNN, a forward-only serving mix whose E deltas never
// repeat, and the SecureML baseline of Fig. 10.
constexpr Workload kWorkloads[] = {
    // name, model, batch, slots, queries, training, secureml, warmup, lr,
    // steps_per_s. At each training lr the secure model tracks the plaintext
    // one on every seed tried; the larger rates tried drifted on some seeds
    // (README.md).
    {"mlp-train", ml::ModelKind::kMlp, 128, 8, 8, true, false, 8, 0.05f, 120},
    {"cnn-train", ml::ModelKind::kCnn, 64, 4, 4, true, false, 4, 0.002f, 13},
    {"logistic-infer", ml::ModelKind::kLogistic, 128, 8, 9, false, false, 64,
     0.0f, 1000},
    {"mlp-train-secureml", ml::ModelKind::kMlp, 128, 8, 8, true, true, 8,
     0.05f, 9},
};

// Builds per run; setup_s and the offline metrics are their medians.
constexpr int kSetups = 5;
// A window has at least this many cycles, so a traced run always has both a
// traced and an untraced cycle.
constexpr std::size_t kMinCycles = 2;
// logistic-infer keeps every 64th timed prediction for the correctness check.
constexpr std::size_t kCheckEvery = 64;
// framework_test's secure-vs-plaintext accuracy bound.
constexpr double kAccuracyBound = 0.15;
// ml_secure_test's per-element bound for a reconstructed secure forward pass.
constexpr double kForwardBound = 5e-2;

// Distinct, nonzero sub-seeds of --seed (splitmix64). Nonzero matters: a zero
// dealer seed or mask seed means "fresh entropy" to the library.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

// ---- traced channel ---------------------------------------------------------

// Flipped only while both party threads wait at the cycle barrier.
std::atomic<bool> g_tracing{false};

enum Family { kEf, kOpen, kCtl, kFamilies };
constexpr const char* kFamilyNames[kFamilies] = {"ef", "open", "ctl"};

Family family_of(net::Tag tag) {
  const net::Tag top = tag & 0xff000000u;
  if (top == mpc::tags::kExchangeE || top == mpc::tags::kExchangeF) return kEf;
  if (top == mpc::tags::kOpenMasked) return kOpen;
  return kCtl;  // kControl (refresh_share) and anything unrecognised
}

// Decorator over one server's peer endpoint. Sends forward to the inner
// channel's send() without flattening; receives forward to its recv_any(),
// so tag matching stays in this object's reorder buffer. While g_tracing is
// set it counts messages and bytes by tag family, time spent in send, and
// time blocked in receive.
class TracingChannel final : public net::Channel {
 public:
  explicit TracingChannel(std::shared_ptr<net::Channel> inner)
      : inner_(std::move(inner)) {}

  void close() override { inner_->close(); }
  bool send_may_block() const override { return inner_->send_may_block(); }

  std::uint64_t msgs(Family f) const { return msgs_[f].load(); }
  std::uint64_t bytes(Family f) const { return bytes_[f].load(); }
  double send_s() const { return send_ns_.load() * 1e-9; }
  double recv_wait_s() const { return recv_ns_.load() * 1e-9; }

 protected:
  void send_impl(net::Tag tag, net::WireBuf&& payload) override {
    if (!g_tracing.load(std::memory_order_relaxed)) {
      inner_->send(tag, std::move(payload));
      return;
    }
    const Family f = family_of(tag);
    const std::uint64_t n = payload.size();
    const auto t0 = Clock::now();
    inner_->send(tag, std::move(payload));
    send_ns_ += elapsed_ns(t0);
    msgs_[f] += 1;
    bytes_[f] += n;
  }

  net::Message recv_impl(net::Deadline deadline) override {
    if (!g_tracing.load(std::memory_order_relaxed)) {
      return inner_->recv_any(deadline);
    }
    const auto t0 = Clock::now();
    net::Message m = inner_->recv_any(deadline);
    recv_ns_ += elapsed_ns(t0);
    return m;
  }

 private:
  static std::uint64_t elapsed_ns(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
  }

  std::shared_ptr<net::Channel> inner_;
  std::atomic<std::uint64_t> msgs_[kFamilies] = {};
  std::atomic<std::uint64_t> bytes_[kFamilies] = {};
  std::atomic<std::uint64_t> send_ns_{0};
  std::atomic<std::uint64_t> recv_ns_{0};
};

// ---- harness ----------------------------------------------------------------

// Runs each function on its own thread, joins all, rethrows the first error.
void run_threads(const std::vector<std::function<void()>>& fns) {
  std::vector<std::exception_ptr> errors(fns.size());
  std::vector<std::thread> threads;
  threads.reserve(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        fns[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

struct Harness {
  ml::ModelConfig mc;
  ml::LossKind loss = ml::LossKind::kMse;
  MatrixF x_plain, y_plain;               // the whole workload dataset
  std::vector<MatrixF> xb_plain, yb_plain;  // its batches, for the checks
  std::vector<MatrixF> xb[2], yb[2];      // each server's input batch shares
  ml::SecurePair pair;
  net::ChannelPair s2s;
  std::shared_ptr<TracingChannel> tap[2];  // traced runs only
  std::unique_ptr<mpc::PartyContext> ctx[2];
  double generate_s = 0.0;
  double transmit_s = 0.0;
  double setup_s = 0.0;
  std::size_t material_bytes = 0;  // both servers' triplet stores
};

// Workload start -> step 0 ready: data, adaptive calibration, offline phase
// (generate + transmit), input shares, party contexts and engines.
std::unique_ptr<Harness> build_harness(const Workload& w,
                                       const mpc::PartyOptions& opts,
                                       std::uint64_t seed, bool traced) {
  const auto t0 = Clock::now();
  auto h = std::make_unique<Harness>();
  const data::Dataset ds = data::make_dataset(
      data::DatasetKind::kMnist, parsecureml::scheme_for_model(w.model),
      w.queries * w.batch, sub_seed(seed, 1));
  if (opts.adaptive) {
    profile::AdaptiveDispatch::global().recalibrate(sgpu::Device::global());
  }

  parsecureml::RunConfig rc;
  rc.model = w.model;
  rc.seed = sub_seed(seed, 2);
  h->mc = parsecureml::model_config_for(rc, ds.geometry);
  h->loss = ml::loss_for(w.model);
  h->pair = ml::build_secure_pair(h->mc);
  const auto plan = ml::epoch_plan(h->pair.m0, w.slots, w.batch, h->loss,
                                   h->mc.output_dim(), w.training);

  sgpu::Device* device = opts.use_gpu ? &sgpu::Device::global() : nullptr;
  mpc::DealerOptions dopts;
  dopts.use_gpu = opts.use_gpu;
  dopts.naive_cpu = !opts.use_gpu && !opts.cpu_parallel;
  dopts.seed = sub_seed(seed, 3);
  const auto tg = Clock::now();
  auto stores = mpc::TripletDealer(device, dopts).generate(plan);
  h->generate_s = seconds_between(tg, Clock::now());
  h->material_bytes = stores.first.bytes() + stores.second.bytes();

  auto cs0 = net::LocalChannel::make_pair();
  auto cs1 = net::LocalChannel::make_pair();
  mpc::TripletStore recv0, recv1;
  const auto tt = Clock::now();
  run_threads({[&] {
                 parsecureml::send_store(*cs0.a, stores.first);
                 parsecureml::send_store(*cs1.a, stores.second);
               },
               [&] { recv0 = parsecureml::recv_store(*cs0.b); },
               [&] { recv1 = parsecureml::recv_store(*cs1.b); }});
  h->transmit_s = seconds_between(tt, Clock::now());
  stores = {};

  const auto xs = mpc::share_float(ds.x, sub_seed(seed, 4));
  const auto ys = mpc::share_float(ds.y, sub_seed(seed, 5));
  for (std::size_t q = 0; q < w.queries; ++q) {
    const std::size_t row = q * w.batch;
    h->xb_plain.push_back(data::slice_rows(ds.x, row, w.batch));
    h->yb_plain.push_back(data::slice_rows(ds.y, row, w.batch));
    h->xb[0].push_back(data::slice_rows(xs.s0, row, w.batch));
    h->xb[1].push_back(data::slice_rows(xs.s1, row, w.batch));
    h->yb[0].push_back(data::slice_rows(ys.s0, row, w.batch));
    h->yb[1].push_back(data::slice_rows(ys.s1, row, w.batch));
  }
  h->x_plain = ds.x;
  h->y_plain = ds.y;

  mpc::PartyOptions popts = opts;
  popts.mask_seed = sub_seed(seed, 6);
  h->s2s = net::LocalChannel::make_pair();
  std::shared_ptr<net::Channel> ends[2] = {h->s2s.a, h->s2s.b};
  mpc::TripletStore* recv[2] = {&recv0, &recv1};
  for (int p = 0; p < 2; ++p) {
    if (traced) {
      h->tap[p] = std::make_shared<TracingChannel>(ends[p]);
      ends[p] = h->tap[p];
    }
    h->ctx[p] = std::make_unique<mpc::PartyContext>(p, ends[p], device, popts);
    recv[p]->set_recycle(true);
    h->ctx[p]->set_triplets(std::move(*recv[p]));
    if (popts.use_pipeline) (void)h->ctx[p]->engine();
  }
  h->setup_s = seconds_between(t0, Clock::now());
  return h;
}

// ---- measurement ------------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss * 1024.0 / 1e6;  // ru_maxrss is KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Per-party record of the timed steps.
struct PartyLog {
  std::vector<double> start, end;  // step call bounds, seconds since t_ref
  std::vector<std::size_t> query;  // input batch of each kept prediction
  std::vector<MatrixF> preds;      // logistic-infer: every kCheckEvery-th
  std::size_t attempted = 0;       // warm-up and timed steps started
  double drain_s = 0.0;            // bench-side DepEngine::wait_all
  std::uint64_t outstanding = 0;   // engine ops left when infer returns
};

// Profiler and compression totals; traced cycles accumulate their deltas.
struct Counters {
  std::map<std::string, double> phase_s;
  compress::Stats comp;

  static Counters read(Harness& h) {
    Counters c;
    for (const auto& [name, stat] : profile::Profiler::global().report()) {
      c.phase_s[name] = stat.total_sec;
    }
    for (auto& ctx : h.ctx) {
      const compress::Stats s = ctx->compressed().stats();
      c.comp.messages += s.messages;
      c.comp.compressed_messages += s.compressed_messages;
      c.comp.dense_bytes += s.dense_bytes;
      c.comp.sent_bytes += s.sent_bytes;
    }
    return c;
  }

  void add_delta(const Counters& before, const Counters& after) {
    for (const auto& [name, s] : after.phase_s) {
      const auto it = before.phase_s.find(name);
      phase_s[name] += s - (it == before.phase_s.end() ? 0.0 : it->second);
    }
    comp.messages += after.comp.messages - before.comp.messages;
    comp.compressed_messages +=
        after.comp.compressed_messages - before.comp.compressed_messages;
    comp.dense_bytes += after.comp.dense_bytes - before.comp.dense_bytes;
    comp.sent_bytes += after.comp.sent_bytes - before.comp.sent_bytes;
  }
};

struct Window {
  std::size_t cycle = 0;
  std::size_t timed_steps = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;
  std::vector<char> step_traced;  // per timed step
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  std::uint64_t s2s_bytes = 0;
  std::uint64_t s2s_msgs = 0;
  Counters traced;  // deltas summed over traced cycles
  PartyLog log[2];
};

std::size_t cycle_steps(const Workload& w) {
  return std::lcm(w.slots, w.queries);
}

// Warm-up, then `cycles` closed-loop timed cycles on two party threads. A
// cycle is lcm(slots, queries) steps, so every (slot, query) pair runs
// equally often. Both parties meet at a barrier between cycles; its
// completion step starts and stops the window and flips tracing.
Window run_window(const Workload& w, Harness& h, const mpc::PartyOptions& opts,
                  std::size_t cycles, bool traced) {
  Window win;
  win.cycle = cycle_steps(w);
  sgpu::Trace& dev_trace = sgpu::Device::global().trace();
  const auto t_ref = Clock::now();
  Clock::time_point t_start;
  double cpu_start = 0.0;
  std::uint64_t bytes_start = 0, msgs_start = 0;
  std::size_t cycles_done = 0;
  bool window_open = false;
  bool cycle_traced = false;
  bool stop = false;
  Counters before;
  std::atomic<bool> broken{false};
  std::atomic<std::size_t> failed_steps{0};
  std::string first_error;
  std::mutex error_mutex;

  auto s2s_totals = [&] {
    const auto& a = h.s2s.a->stats();
    const auto& b = h.s2s.b->stats();
    return std::pair<std::uint64_t, std::uint64_t>(
        a.bytes_sent.load() + b.bytes_sent.load(),
        a.messages_sent.load() + b.messages_sent.load());
  };

  auto on_barrier = [&]() noexcept {
    const auto now = Clock::now();
    if (cycle_traced) win.traced.add_delta(before, Counters::read(h));
    if (!window_open) {
      window_open = true;
      t_start = now;
      cpu_start = cpu_seconds();
      std::tie(bytes_start, msgs_start) = s2s_totals();
    } else {
      ++cycles_done;
    }
    stop = broken.load() || cycles_done >= cycles;
    if (stop) {
      win.wall_s = seconds_between(t_start, now);
      win.cpu_s = cpu_seconds() - cpu_start;
      win.rss_mb = peak_rss_mb();
      const auto [bytes, msgs] = s2s_totals();
      win.s2s_bytes = bytes - bytes_start;
      win.s2s_msgs = msgs - msgs_start;
      cycle_traced = false;
    } else {
      cycle_traced = traced && cycles_done % 2 == 1;
      if (cycle_traced) before = Counters::read(h);
    }
    win.step_traced.insert(win.step_traced.end(), stop ? 0 : win.cycle,
                           cycle_traced ? 1 : 0);
    dev_trace.set_enabled(cycle_traced);
    g_tracing.store(cycle_traced);
  };
  std::barrier sync(2, on_barrier);

  auto party = [&](int p) {
    mpc::PartyContext& ctx = *h.ctx[p];
    ml::SecureSequential& model = p == 0 ? h.pair.m0 : h.pair.m1;
    ml::SecureEnv env{&ctx, w.training,
                      opts.use_pipeline ? &ctx.engine() : nullptr};
    PartyLog& log = win.log[p];

    auto step = [&](std::size_t i, bool timed) {
      if (broken.load()) return;
      ++log.attempted;
      const std::size_t slot = i % w.slots;
      const std::size_t q = i % w.queries;
      ctx.set_stream_salt(slot);  // per-slot compression baselines
      const auto t0 = Clock::now();
      try {
        if (w.training) {
          ml::secure_train_batch(env, model, h.loss, h.xb[p][q], h.yb[p][q],
                                 w.lr);
        } else {
          MatrixF pred = ml::secure_infer_batch(env, model, h.xb[p][q]);
          if (env.engine != nullptr) {
            if (timed) log.outstanding += env.engine->outstanding();
            const auto td = Clock::now();
            env.engine->wait_all();
            if (timed) log.drain_s += seconds_between(td, Clock::now());
          }
          const std::size_t k = i - w.warmup;
          if (timed && k % kCheckEvery == 0) {
            log.preds.push_back(std::move(pred));
            log.query.push_back(q);
          }
        }
      } catch (const std::exception& e) {
        // Unblock the peer (its receives throw), then let both drain to the
        // barrier; the window stops there.
        if (p == 0) failed_steps += 1;
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (first_error.empty()) first_error = e.what();
        }
        broken = true;
        h.s2s.a->close();
        h.s2s.b->close();
        return;
      }
      if (timed) {
        log.start.push_back(seconds_between(t_ref, t0));
        log.end.push_back(seconds_between(t_ref, Clock::now()));
      }
    };

    for (std::size_t i = 0; i < w.warmup; ++i) step(i, false);
    sync.arrive_and_wait();
    for (std::size_t i = w.warmup; !stop; i += win.cycle) {
      for (std::size_t k = 0; k < win.cycle; ++k) step(i + k, true);
      sync.arrive_and_wait();
    }
  };
  run_threads({[&] { party(0); }, [&] { party(1); }});

  win.timed_steps = std::min(win.log[0].end.size(), win.log[1].end.size());
  win.failed = failed_steps.load();
  if (broken.load() && win.failed == 0) win.failed = 1;  // only party 1 threw
  win.attempted = std::max(win.log[0].attempted, win.log[1].attempted);
  win.first_error = first_error;
  win.step_traced.resize(win.timed_steps);
  return win;
}

// ---- correctness gate -------------------------------------------------------

bool all_finite(const MatrixF& m) {
  return std::all_of(m.data(), m.data() + m.size(),
                     [](float v) { return std::isfinite(v); });
}

// Returns an empty string when the workload's outputs are correct, else the
// failed bound.
std::string check(const Workload& w, Harness& h, const Window& win) {
  if (win.failed > 0) return "a step threw: " + win.first_error;
  if (win.s2s_bytes == 0) return "no server-to-server traffic in the window";
  ml::Sequential secure = ml::reconstruct_plain(h.mc, h.pair.m0, h.pair.m1);
  if (w.training) {
    for (std::size_t i = 0; i < secure.size(); ++i) {
      if (auto* d = dynamic_cast<ml::Dense*>(&secure.layer(i))) {
        if (!all_finite(d->weights()) || !all_finite(d->bias())) {
          return "reconstructed dense weights are not all finite";
        }
      } else if (auto* c = dynamic_cast<ml::Conv2D*>(&secure.layer(i))) {
        if (!all_finite(c->weights())) {
          return "reconstructed conv weights are not all finite";
        }
      }
    }
    // Plaintext reference: same initial weights, same batches, same order.
    ml::Sequential plain = ml::build_plain(h.mc);
    const std::size_t steps = w.warmup + win.timed_steps;
    for (std::size_t i = 0; i < steps; ++i) {
      const std::size_t q = i % w.queries;
      ml::train_batch(plain, h.loss, h.xb_plain[q], h.yb_plain[q], w.lr);
    }
    const double acc_secure =
        ml::accuracy(secure.forward(h.x_plain), h.y_plain);
    const double acc_plain =
        ml::accuracy(plain.forward(h.x_plain), h.y_plain);
    std::printf("check: accuracy secure %.4f plain %.4f (bound %.2f)\n",
                acc_secure, acc_plain, kAccuracyBound);
    if (acc_secure < acc_plain - kAccuracyBound) {
      return "secure accuracy more than " + std::to_string(kAccuracyBound) +
             " below the plaintext reference";
    }
    return "";
  }
  double worst = 0.0;
  const PartyLog& l0 = win.log[0];
  const PartyLog& l1 = win.log[1];
  if (l0.preds.empty() || l0.preds.size() != l1.preds.size()) {
    return "no checked predictions";
  }
  for (std::size_t j = 0; j < l0.preds.size(); ++j) {
    const MatrixF got = mpc::reconstruct_float(l0.preds[j], l1.preds[j]);
    const MatrixF want = secure.forward(h.xb_plain[l0.query[j]]);
    for (std::size_t e = 0; e < got.size(); ++e) {
      worst = std::max(worst, std::fabs(static_cast<double>(got.data()[e]) -
                                        want.data()[e]));
    }
  }
  std::printf("check: %zu predictions, max |secure - plaintext| %.3g "
              "(bound %.3g)\n",
              l0.preds.size(), worst, kForwardBound);
  if (!(worst <= kForwardBound)) {
    return "prediction differs from the plaintext forward by more than " +
           std::to_string(kForwardBound);
  }
  return "";
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> end_to_end(const Workload& w, const Window& win,
                               const std::vector<double>& step_ms,
                               double setup_s, double offline_s) {
  const double n =
      static_cast<double>(std::max<std::size_t>(win.timed_steps, 1));
  return {
      {"step_ms.p50", median(step_ms), "ms"},
      {"step_ms.p90", quantile(step_ms, 0.9), "ms"},
      {"samples_per_s", w.batch * n / win.wall_s, "samples/s"},
      {"cpu_ms_per_step", win.cpu_s * 1e3 / n, "ms"},
      {"s2s_mb_per_step", win.s2s_bytes / 1e6 / n, "MB"},
      {"s2s_msgs_per_step", win.s2s_msgs / n, "count"},
      {"offline_s", offline_s, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", win.rss_mb, "MB"},
  };
}

// Copy time that overlaps any kernel, over all copy time.
double copy_overlap_frac(const std::vector<sgpu::Activity>& acts) {
  std::vector<std::pair<double, double>> kernels;
  for (const auto& a : acts) {
    if (a.kind == sgpu::ActivityKind::kKernel) {
      kernels.emplace_back(a.start_sec, a.end_sec);
    }
  }
  std::sort(kernels.begin(), kernels.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& k : kernels) {
    if (!merged.empty() && k.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, k.second);
    } else {
      merged.push_back(k);
    }
  }
  double copy = 0.0, overlap = 0.0;
  for (const auto& a : acts) {
    if (a.kind == sgpu::ActivityKind::kKernel) continue;
    copy += a.end_sec - a.start_sec;
    auto it = std::lower_bound(
        merged.begin(), merged.end(), std::make_pair(a.start_sec, a.start_sec));
    if (it != merged.begin()) --it;
    for (; it != merged.end() && it->first < a.end_sec; ++it) {
      overlap += std::max(0.0, std::min(it->second, a.end_sec) -
                                   std::max(it->first, a.start_sec));
    }
  }
  return copy > 0.0 ? overlap / copy : 0.0;
}

std::vector<Metric> per_layer(Harness& h, const Window& win,
                              const std::vector<double>& step_ms,
                              double generate_s, double transmit_s,
                              double material_mb) {
  std::vector<double> on, off;
  for (std::size_t i = 0; i < step_ms.size(); ++i) {
    (win.step_traced[i] ? on : off).push_back(step_ms[i]);
  }
  const double n = static_cast<double>(std::max<std::size_t>(on.size(), 1));
  const double timed =
      static_cast<double>(std::max<std::size_t>(win.timed_steps, 1));

  std::vector<Metric> m = {
      {"offline.generate_s", generate_s, "s"},
      {"offline.material_mb", material_mb, "MB"},
      {"offline.transmit_s", transmit_s, "s"},
  };
  for (int f = 0; f < kFamilies; ++f) {
    const std::string fam = kFamilyNames[f];
    const double bytes = static_cast<double>(h.tap[0]->bytes(Family(f)) +
                                             h.tap[1]->bytes(Family(f)));
    const double msgs = static_cast<double>(h.tap[0]->msgs(Family(f)) +
                                            h.tap[1]->msgs(Family(f)));
    m.push_back({"net." + fam + "_mb_per_step", bytes / 1e6 / n, "MB"});
    m.push_back({"net." + fam + "_msgs_per_step", msgs / n, "count"});
  }
  m.push_back({"net.send_ms_per_step",
               (h.tap[0]->send_s() + h.tap[1]->send_s()) * 1e3 / n, "ms"});
  m.push_back({"net.recv_wait_ms_per_step",
               (h.tap[0]->recv_wait_s() + h.tap[1]->recv_wait_s()) * 1e3 / n,
               "ms"});

  const compress::Stats& c = win.traced.comp;
  m.push_back({"compress.hit_ratio",
               c.messages == 0 ? 0.0
                               : static_cast<double>(c.compressed_messages) /
                                     static_cast<double>(c.messages),
               "fraction"});
  m.push_back({"compress.saved_frac", c.savings(), "fraction"});

  const auto acts = sgpu::Device::global().trace().snapshot();
  double kernel_s = 0.0, copy_s = 0.0, kernels = 0.0, h2d = 0.0, d2h = 0.0;
  for (const auto& a : acts) {
    const double dur = a.end_sec - a.start_sec;
    if (a.kind == sgpu::ActivityKind::kKernel) {
      kernel_s += dur;
      kernels += 1.0;
    } else {
      copy_s += dur;
      (a.kind == sgpu::ActivityKind::kMemcpyH2D ? h2d : d2h) += a.bytes;
    }
  }
  m.push_back({"sgpu.kernel_ms_per_step", kernel_s * 1e3 / n, "ms"});
  m.push_back({"sgpu.kernels_per_step", kernels / n, "count"});
  m.push_back({"sgpu.copy_ms_per_step", copy_s * 1e3 / n, "ms"});
  m.push_back({"sgpu.h2d_mb_per_step", h2d / 1e6 / n, "MB"});
  m.push_back({"sgpu.d2h_mb_per_step", d2h / 1e6 / n, "MB"});
  m.push_back({"sgpu.copy_overlap_frac", copy_overlap_frac(acts), "fraction"});

  auto phase = [&](const char* name) {
    const auto it = win.traced.phase_s.find(name);
    return it == win.traced.phase_s.end() ? 0.0 : it->second * 1e3 / n;
  };
  m.push_back({"mpc.compute1_busy_ms_per_step", phase("online.compute1"),
               "ms"});
  m.push_back({"mpc.communicate_busy_ms_per_step",
               phase("online.communicate"), "ms"});
  m.push_back({"mpc.compute2_busy_ms_per_step", phase("online.compute2"),
               "ms"});

  // Pipeline and skew come from every timed step, both parties averaged.
  m.push_back({"pipeline.drain_ms_per_step",
               (win.log[0].drain_s + win.log[1].drain_s) * 1e3 / (2 * timed),
               "ms"});
  m.push_back({"pipeline.outstanding_at_return",
               static_cast<double>(win.log[0].outstanding +
                                   win.log[1].outstanding) /
                   (2 * timed),
               "count"});
  std::vector<double> skew;
  for (std::size_t i = 0; i < win.timed_steps; ++i) {
    skew.push_back(std::fabs(win.log[0].end[i] - win.log[1].end[i]) * 1e3);
  }
  m.push_back({"ml.party_skew_ms", median(skew), "ms"});
  const double off_p50 = median(off);
  m.push_back({"bench.trace_overhead_frac",
               off_p50 > 0.0 ? median(on) / off_p50 - 1.0 : 0.0, "fraction"});
  return m;
}

// ---- main -------------------------------------------------------------------

// Clears every PSML_* knob, then pins the pools to 2 threads each: the
// "simulated GPU shares 1-2 cores" substrate. The PCIe throttle, launch
// overhead and all other knobs stay at their defaults (off).
void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PSML_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq == nullptr ? std::strlen(*e) : eq - *e);
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
  setenv("PSML_THREADS", "2", 1);
  setenv("PSML_SGPU_THREADS", "2", 1);
}

bool flip_toggle(mpc::PartyOptions& o, const std::string& name) {
  bool* field = name == "use_pipeline"      ? &o.use_pipeline
                : name == "use_compression" ? &o.use_compression
                : name == "use_tensor_core" ? &o.use_tensor_core
                : name == "fuse_eq8"        ? &o.fuse_eq8
                : name == "cpu_parallel"    ? &o.cpu_parallel
                : name == "adaptive"        ? &o.adaptive
                                            : nullptr;
  if (field == nullptr) return false;
  *field = !*field;
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--ablate TOGGLE]\nworkloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr,
               "\ntoggles: use_pipeline use_compression use_tensor_core "
               "fuse_eq8 cpu_parallel adaptive\n");
  return 2;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      return usage(("unexpected argument " + a).c_str());
    }
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      args[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return usage(("missing value for " + a).c_str());
    }
  }
  for (const auto& [k, v] : args) {
    if (k != "workload" && k != "seed" && k != "seconds" && k != "trace" &&
        k != "ablate") {
      return usage(("unknown option --" + k).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (args["workload"] == cand.name) w = &cand;
  }
  if (w == nullptr) return usage("unknown or missing --workload");
  char* end = nullptr;
  const std::string seed_arg = args.count("seed") ? args["seed"] : "1";
  const std::uint64_t seed = std::strtoull(seed_arg.c_str(), &end, 10);
  if (seed_arg.empty() || *end != '\0') {
    return usage("--seed must be an integer");
  }
  const std::string sec_arg = args.count("seconds") ? args["seconds"] : "10";
  const double seconds = std::strtod(sec_arg.c_str(), &end);
  if (sec_arg.empty() || *end != '\0' || !(seconds > 0.0) || seconds > 600.0) {
    return usage("--seconds must be in (0, 600]");
  }
  const std::string trace_arg = args.count("trace") ? args["trace"] : "0";
  if (trace_arg != "0" && trace_arg != "1") {
    return usage("--trace must be 0 or 1");
  }
  const bool traced = trace_arg == "1";

  mpc::PartyOptions opts = w->secureml ? mpc::PartyOptions::secureml_baseline()
                                       : mpc::PartyOptions::parsecureml();
  const std::string ablate = args.count("ablate") ? args["ablate"] : "";
  if (!ablate.empty() && !flip_toggle(opts, ablate)) {
    return usage(("unknown toggle " + ablate).c_str());
  }

  pin_environment();
  // Create the global pools and device before any setup is timed, and keep
  // the device trace off except during traced cycles.
  sgpu::Device& device = sgpu::Device::global();
  device.trace().set_enabled(false);
  if (opts.adaptive) (void)profile::AdaptiveDispatch::global();

  std::printf("bench_e2e workload=%s seed=%llu seconds=%g trace=%d ablate=%s\n",
              w->name, static_cast<unsigned long long>(seed), seconds,
              traced ? 1 : 0, ablate.empty() ? "-" : ablate.c_str());
  std::printf("config: model=%s batch=%zu slots=%zu queries=%zu %s mode=%s "
              "warmup=%zu\n",
              ml::to_string(w->model).c_str(), w->batch, w->slots, w->queries,
              w->training ? "train" : "infer",
              w->secureml ? "SecureML" : "ParSecureML", w->warmup);
  std::printf("config: PSML_THREADS=%zu PSML_SGPU_THREADS=%zu pcie_gbps=%g "
              "launch_us=%g zc_min_bytes=%zu\n",
              ThreadPool::global().size(), device.compute_pool().size(),
              device.config().pcie_gbps, device.config().launch_overhead_us,
              net::zc_min_bytes());
  std::printf("config: use_gpu=%d use_pipeline=%d use_tensor_core=%d "
              "use_compression=%d fuse_eq8=%d cpu_parallel=%d adaptive=%d\n",
              opts.use_gpu, opts.use_pipeline, opts.use_tensor_core,
              opts.use_compression, opts.fuse_eq8, opts.cpu_parallel,
              opts.adaptive);

  std::vector<double> setup_s, offline_s, generate_s, transmit_s;
  std::unique_ptr<Harness> h;
  for (int i = 0; i < kSetups; ++i) {
    h.reset();
    h = build_harness(*w, opts, seed, traced);
    setup_s.push_back(h->setup_s);
    offline_s.push_back(h->generate_s + h->transmit_s);
    generate_s.push_back(h->generate_s);
    transmit_s.push_back(h->transmit_s);
  }
  if (opts.adaptive) {
    // The fit decides, per GEMM shape, whether compute2 runs on the device.
    const auto fit = profile::AdaptiveDispatch::global().model();
    std::printf("config: adaptive fit cpu %.3g s/flop, device %.3g s/flop + "
                "%.3g s per launch\n",
                fit.cpu_sec_per_flop, fit.gpu_sec_per_flop,
                fit.gpu_overhead_sec);
  }

  const std::size_t cycles = std::max<std::size_t>(
      kMinCycles, static_cast<std::size_t>(std::llround(
                      seconds * w->steps_per_s / cycle_steps(*w))));
  const Window win = run_window(*w, *h, opts, cycles, traced);
  std::vector<double> step_ms(win.timed_steps);
  for (std::size_t i = 0; i < win.timed_steps; ++i) {
    step_ms[i] = 1e3 * std::max(win.log[0].end[i] - win.log[0].start[i],
                                win.log[1].end[i] - win.log[1].start[i]);
  }
  std::printf("window: %zu timed steps in %.3f s (%zu-step cycles), "
              "%zu attempted, %zu failed\n",
              win.timed_steps, win.wall_s, win.cycle, win.attempted,
              win.failed);

  const std::string bad = check(*w, *h, win);
  const std::vector<Metric> metrics =
      traced ? per_layer(*h, win, step_ms, median(generate_s),
                         median(transmit_s), h->material_bytes / 1e6)
             : end_to_end(*w, win, step_ms, median(setup_s), median(offline_s));
  for (const auto& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!bad.empty()) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", bad.c_str());
  }
  print_json(bad.empty(), win.attempted, win.failed, metrics);
  return bad.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
