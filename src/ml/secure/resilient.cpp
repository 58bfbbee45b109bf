#include "ml/secure/resilient.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common/log.hpp"
#include "ml/secure/party_state.hpp"
#include "mpc/party.hpp"

namespace psml::ml {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double backoff_ms(const RetryPolicy& policy, int attempt) {
  const double nominal = std::min(
      policy.backoff_max_ms,
      policy.backoff_base_ms * std::pow(2.0, static_cast<double>(attempt)));
  // Deterministic jitter factor in [0.5, 1.0).
  const std::uint64_t h =
      mix64(policy.jitter_seed ^ (0x5eedull + static_cast<std::uint64_t>(attempt)));
  const double unit = static_cast<double>(h >> 11) /
                      static_cast<double>(1ull << 53);  // [0, 1)
  return nominal * (0.5 + 0.5 * unit);
}

// Restores the channel's default receive timeout on scope exit, including
// the rethrow path when attempts are exhausted.
class TimeoutGuard {
 public:
  TimeoutGuard(net::Channel& ch, std::chrono::milliseconds timeout)
      : ch_(ch), saved_(ch.default_timeout()) {
    if (timeout.count() > 0) ch_.set_default_timeout(timeout);
  }
  ~TimeoutGuard() { ch_.set_default_timeout(saved_); }
  TimeoutGuard(const TimeoutGuard&) = delete;
  TimeoutGuard& operator=(const TimeoutGuard&) = delete;

 private:
  net::Channel& ch_;
  std::chrono::milliseconds saved_;
};

// Distinct control-tag block per retry attempt; the offset keeps these
// clear of any kControl + seq tags protocol code might use.
net::Tag resync_tag(int attempt) {
  return mpc::tags::kControl + 0x00e00000u + static_cast<net::Tag>(attempt);
}

// Sequence-counter resynchronization. After an aborted step the two
// servers' op counters can diverge (one side got further before failing).
// Both exchange their current counter and jump to the maximum: every stale
// in-flight or buffered message carries a tag derived from a seq below that
// maximum, so the retried step's fresh tags cannot collide with leftovers.
//
// The receive deadline is deliberately more generous than the per-step
// timeout: a one-sided fault (e.g. a corrupted frame) fails the victim
// immediately while the other server only notices a full recv timeout
// later, so the peers can enter recovery up to one timeout apart.
void resync_seq_counters(mpc::PartyContext& ctx, int attempt,
                         const RetryPolicy& policy) {
  const std::uint32_t mine = ctx.peek_seq();
  std::uint8_t buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<std::uint8_t>(mine >> (8 * i));
  const net::Tag tag = resync_tag(attempt);
  ctx.peer().send(tag, std::span<const std::uint8_t>(buf, 4));

  const std::chrono::milliseconds step_timeout = ctx.peer().default_timeout();
  const net::Deadline deadline =
      step_timeout.count() > 0
          ? net::Clock::now() + 2 * step_timeout +
                std::chrono::milliseconds(
                    static_cast<long long>(policy.backoff_max_ms) + 1)
          : net::kNoDeadline;
  const net::Message m = ctx.peer().recv(tag, deadline);
  PSML_REQUIRE(m.payload.size() == 4, "seq resync: bad payload");
  std::uint32_t theirs = 0;
  for (int i = 0; i < 4; ++i) {
    theirs |= static_cast<std::uint32_t>(m.payload[i]) << (8 * i);
  }
  ctx.resync_seq(theirs);
}

}  // namespace

ResilientStats secure_train_batch_resilient(SecureEnv& env,
                                            SecureSequential& model,
                                            LossKind loss, const MatrixF& x_i,
                                            const MatrixF& y_i, float lr,
                                            const RetryPolicy& policy) {
  PSML_REQUIRE(env.ctx != nullptr, "resilient train: null party context");
  PSML_REQUIRE(policy.max_attempts >= 1, "resilient train: max_attempts < 1");
  const mpc::TripletStore& store = env.ctx->triplets();
  PSML_REQUIRE(store.retain() || store.recycle(),
               "resilient train: triplet store must be in retain or recycle "
               "mode so a failed step can rewind (see TripletStore)");

  TimeoutGuard timeout_guard(env.ctx->peer(), policy.recv_timeout);

  ResilientStats stats;
  if (env.ctx->peer().default_timeout().count() <= 0) {
    // Documented footgun made visible: without a receive deadline a
    // dead-but-not-closed peer hangs this step forever and the retry loop
    // never runs. Reported per call in stats, warned once per process so a
    // tight training loop doesn't spam the log.
    stats.no_timeout = true;
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      PSML_WARN(
          "resilient train: channel has no receive timeout; a dead peer "
          "will hang this step forever. Set RetryPolicy::recv_timeout or a "
          "channel default timeout.");
    }
  }

  // Pre-step snapshot: parameter shares (local, no comms), triplet cursors
  // and the op counter.
  const PartyState pre_step = PartyState::capture(*env.ctx, model);

  for (int attempt = 0;; ++attempt) {
    stats.attempts = attempt + 1;
    try {
      if (attempt > 0) {
        // Recovery runs inside the try so a transport failure *during*
        // recovery (the engine flush or the resync exchange) also counts
        // against the attempt budget instead of escaping immediately.
        pre_step.restore(*env.ctx, model);
        stats.rollbacks += 1;
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            backoff_ms(policy, attempt - 1)));
        resync_seq_counters(*env.ctx, attempt, policy);
      }
      secure_train_batch(env, model, loss, x_i, y_i, lr);
      stats.completed = true;
      return stats;
    } catch (const NetworkError& e) {
      // TimeoutError is a NetworkError; both mean "this step's transport
      // failed", and both are retryable. Anything else propagates.
      if (attempt + 1 >= policy.max_attempts) {
        // Leave the model at the pre-step snapshot so the caller resumes
        // from a consistent state on both servers. The restore's drain
        // discards the engine's stored error so the original exception
        // propagates.
        pre_step.restore(*env.ctx, model);
        stats.rollbacks += 1;
        throw;
      }
      PSML_WARN("resilient train: attempt " << (attempt + 1) << "/"
                                            << policy.max_attempts
                                            << " failed (" << e.what()
                                            << "); rolling back and retrying");
    }
  }
}

}  // namespace psml::ml
