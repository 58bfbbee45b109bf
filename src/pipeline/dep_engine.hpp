// Dependency engine: the double pipeline as graph execution.
//
// Ops (see op.hpp) declare read/write sets over Vars; the engine tracks a
// FIFO waiter queue per var and dispatches an op the moment every var it
// names has been granted (concurrent readers, exclusive writers — the
// mxnet engine discipline). Executors: the calling thread (kInline) and
// sgpu Streams for device work (kStream — the body enqueues async
// copies/kernels and the engine plants a completion marker behind them, so
// cross-stream ordering that used to be hand-rolled with Events now falls
// out of the var graph). The engine owns no thread of its own.
//
// Determinism contract: ops enter every var queue atomically at push(), in
// program order, so conflicting ops are totally ordered by push order and
// non-conflicting ops commute. Both servers push the same op sequence
// (SPMD), so each reaches the same results whatever the executors'
// interleaving; no op sends or receives — the layers open every operand on
// the training thread, so wire order is program order. Tags/keys are
// computed at push time on the pushing thread, never inside op bodies
// racing each other.
//
// Failure contract: the first op body that throws stores its exception and
// flips the engine into cancelling mode — every not-yet-run op is skipped
// (its body never runs) but still *completes*, releasing its vars, so the
// graph drains without deadlock. wait()/wait_all() rethrow the stored
// exception typed (NetworkError stays a NetworkError, so the resilient
// trainer's retry loop keeps working); wait_all() clears it, drain()
// discards it (ml::PartyState::restore, which every recovery path calls,
// flushes with drain() before loading shares). A wait_all()/drain() at
// every step boundary is the engine barrier that keeps the snapshot-rewind
// points well-defined.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/sync_annot.hpp"
#include "pipeline/op.hpp"

namespace psml::pipeline {

class DepEngine {
 public:
  DepEngine() = default;
  ~DepEngine();

  DepEngine(const DepEngine&) = delete;
  DepEngine& operator=(const DepEngine&) = delete;

  // Creates a fresh variable. `name` must be a string literal (stored by
  // pointer, for diagnostics only). Cheap; layers mint new vars per batch.
  VarHandle new_var(const char* name);

  // Schedules an op. Grants vars in declaration order under one lock (the
  // whole op enters every queue atomically), dispatches immediately when
  // nothing conflicts. Throws ShutdownError after the engine started
  // destruction.
  void push(Op op);
  void push(std::function<void()> fn, std::vector<VarHandle> reads,
            std::vector<VarHandle> writes, Exec where, const char* name = "op");

  // Blocks until `v` is quiescent: no in-flight or queued op names it. Then
  // rethrows the engine error, if any (without clearing it — the step
  // barrier owns the reset). The caller may then read any result a writer
  // of `v` produced; completion under the engine mutex publishes it.
  void wait(const VarHandle& v) PSML_BLOCKING;

  // Step barrier: blocks until every pushed op has completed, then rethrows
  // and clears the first stored error. The engine is reusable afterwards.
  void wait_all() PSML_BLOCKING;

  // Barrier that swallows errors: same wait, but the stored exception (if
  // any) is discarded. Rollback/teardown paths use this.
  void drain() PSML_BLOCKING;

  // True between an op body throwing and the next wait_all()/drain().
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  // Ops currently pushed-but-not-completed (diagnostics/tests).
  std::size_t outstanding() const;

 private:
  struct Waiter {
    OpNode* op;
    bool is_write;
  };
  struct VarState {
    std::weak_ptr<Var> keep;  // expiry marks the entry collectable
    std::deque<Waiter> queue;
    std::size_t active_readers = 0;
    bool active_writer = false;
  };

  VarState& state_for(const VarHandle& v) PSML_REQUIRES(mutex_);
  bool quiescent(const VarState& s) const {
    return s.queue.empty() && !s.active_writer && s.active_readers == 0;
  }
  // Drops map entries whose Var died and whose schedule is empty; called
  // from new_var() on an amortized schedule so the map stays bounded.
  void sweep_vars() PSML_REQUIRES(mutex_);

  // Runs the op body unless the engine is cancelling; body exceptions are
  // recorded, never propagated.
  void execute(OpNode* n);
  // Releases the op's grants, runs the FIFO grant loop on each var, and
  // returns the newly-ready ops sorted by push order. Frees `n`.
  std::vector<OpNode*> complete(OpNode* n) PSML_EXCLUDES(mutex_);
  // Two-phase completion for stream dispatch: the stream's marker and the
  // dispatcher's return each call this once; the second call runs
  // complete() + successor dispatch. Guarantees the op stays outstanding
  // until the dispatcher has left the stream's enqueue (so wait_all()
  // returning means no engine caller still touches a Stream).
  void finish(OpNode* n);
  void release_var(const VarHandle& v, bool was_write,
                   std::vector<OpNode*>& ready) PSML_REQUIRES(mutex_);
  // Dispatches ready ops to their executors; inline ops run in a worklist
  // loop here (no recursion through long inline chains).
  void dispatch_all(std::vector<OpNode*> ready);
  void record_error() noexcept;

  mutable sync::Mutex mutex_;
  std::condition_variable cv_;  // notified on every op completion
  std::unordered_map<const Var*, VarState> vars_ PSML_GUARDED_BY(mutex_);
  std::size_t outstanding_ PSML_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_op_seq_ PSML_GUARDED_BY(mutex_) = 0;
  std::size_t sweep_at_ PSML_GUARDED_BY(mutex_) = 256;
  std::exception_ptr error_ PSML_GUARDED_BY(mutex_);
  bool stopping_ PSML_GUARDED_BY(mutex_) = false;
  // Fast cancelling-mode check for executors (mutex-free read on the hot
  // path; the authoritative error_ is mutex-guarded).
  std::atomic<bool> failed_{false};
};

}  // namespace psml::pipeline
