#include "pipeline/dep_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "sgpu/stream.hpp"

namespace psml::pipeline {

// Engine-internal op record. Allocated at push(), freed by complete().
// `pending` counts vars not yet granted; it is guarded by the engine mutex
// (declared here rather than in the header so op.hpp stays a pure
// descriptor file).
struct OpNode {
  std::function<void()> fn;
  std::vector<VarHandle> reads;
  std::vector<VarHandle> writes;
  Exec where;
  const char* name = "op";
  std::uint64_t seq = 0;
  std::size_t pending = 0;
  // Completion handoff count for stream dispatch (kStream): the stream's
  // completion marker and the dispatcher's return from enqueue() each
  // decrement once, and whoever reaches zero runs complete(). This keeps the
  // op outstanding until the dispatcher is out of enqueue() — without it,
  // wait_all() could return (and the caller destroy the Stream) while the
  // dispatching thread is still inside the stream's condvar signal.
  std::atomic<int> phase{1};
};

namespace {
bool by_push_order(const OpNode* a, const OpNode* b) { return a->seq < b->seq; }
}  // namespace

DepEngine::~DepEngine() {
  // Finish (or cancel-drain) everything in flight; stream completion
  // markers all fire inside drain()'s wait, so no op can touch the engine
  // after this.
  drain();
  {
    sync::MutexLock lock(mutex_);
    stopping_ = true;
  }
}

VarHandle DepEngine::new_var(const char* name) {
  {
    sync::MutexLock lock(mutex_);
    if (vars_.size() >= sweep_at_) sweep_vars();
  }
  return VarHandle(new Var(name));
}

void DepEngine::sweep_vars() {
  for (auto it = vars_.begin(); it != vars_.end();) {
    if (quiescent(it->second) && it->second.keep.expired()) {
      it = vars_.erase(it);
    } else {
      ++it;
    }
  }
  sweep_at_ = std::max<std::size_t>(256, vars_.size() * 2);
}

DepEngine::VarState& DepEngine::state_for(const VarHandle& v) {
  VarState& s = vars_[v.get()];
  if (s.keep.expired()) s.keep = v;
  return s;
}

void DepEngine::push(std::function<void()> fn, std::vector<VarHandle> reads,
                     std::vector<VarHandle> writes, Exec where,
                     const char* name) {
  Op op;
  op.fn = std::move(fn);
  op.reads = std::move(reads);
  op.writes = std::move(writes);
  op.where = where;
  op.name = name;
  push(std::move(op));
}

void DepEngine::push(Op op) {
  PSML_REQUIRE(op.fn != nullptr, "DepEngine: op without a body");
  PSML_REQUIRE(op.where.kind != Exec::Kind::kStream || op.where.stream,
               "DepEngine: kStream op without a stream");
  // A var granted twice to one op would deadlock against itself; RMW vars
  // belong in `writes` alone.
  for (std::size_t i = 0; i < op.writes.size(); ++i) {
    for (std::size_t j = i + 1; j < op.writes.size(); ++j) {
      PSML_REQUIRE(op.writes[i] != op.writes[j],
                   "DepEngine: duplicate var in write set");
    }
    for (const VarHandle& r : op.reads) {
      PSML_REQUIRE(op.writes[i] != r,
                   "DepEngine: var in both read and write set");
    }
  }
  for (std::size_t i = 0; i < op.reads.size(); ++i) {
    for (std::size_t j = i + 1; j < op.reads.size(); ++j) {
      PSML_REQUIRE(op.reads[i] != op.reads[j],
                   "DepEngine: duplicate var in read set");
    }
  }

  auto* n = new OpNode;
  n->fn = std::move(op.fn);
  n->reads = std::move(op.reads);
  n->writes = std::move(op.writes);
  n->where = op.where;
  n->name = op.name;

  bool ready = false;
  {
    sync::MutexLock lock(mutex_);
    if (stopping_) {
      delete n;
      // MutexLock unlocks on unwind.
      throw ShutdownError("DepEngine: push after shutdown");
    }
    n->seq = next_op_seq_++;
    ++outstanding_;
    // The op enters every queue atomically, in program order: conflicting
    // ops end up totally ordered by push order (determinism contract).
    for (const VarHandle& r : n->reads) {
      VarState& s = state_for(r);
      if (s.queue.empty() && !s.active_writer) {
        ++s.active_readers;
      } else {
        s.queue.push_back({n, false});
        ++n->pending;
      }
    }
    for (const VarHandle& w : n->writes) {
      VarState& s = state_for(w);
      if (s.queue.empty() && !s.active_writer && s.active_readers == 0) {
        s.active_writer = true;
      } else {
        s.queue.push_back({n, true});
        ++n->pending;
      }
    }
    ready = n->pending == 0;
  }
  if (ready) dispatch_all({n});
}

void DepEngine::record_error() noexcept {
  sync::MutexLock lock(mutex_);
  if (!error_) error_ = std::current_exception();
  failed_.store(true, std::memory_order_release);
}

void DepEngine::execute(OpNode* n) {
  // Cancelling mode: skip the body but still complete, so the graph drains.
  if (failed_.load(std::memory_order_acquire)) return;
  try {
    n->fn();
  } catch (...) {
    record_error();
  }
}

void DepEngine::release_var(const VarHandle& v, bool was_write,
                            std::vector<OpNode*>& ready) {
  auto it = vars_.find(v.get());
  VarState& s = it->second;
  if (was_write) {
    s.active_writer = false;
  } else {
    --s.active_readers;
  }
  // FIFO grant loop: a write grant is exclusive (stop after it); a read
  // grant admits every immediately following read.
  while (!s.queue.empty()) {
    const Waiter w = s.queue.front();
    if (w.is_write) {
      if (s.active_writer || s.active_readers != 0) break;
      s.active_writer = true;
    } else {
      if (s.active_writer) break;
      ++s.active_readers;
    }
    s.queue.pop_front();
    if (--w.op->pending == 0) ready.push_back(w.op);
    if (w.is_write) break;
  }
  // `v` itself keeps the entry's weak_ptr alive here, so this only collects
  // entries some *earlier* op abandoned; the amortized sweep_vars() handles
  // the rest.
  if (quiescent(s) && s.keep.expired()) vars_.erase(it);
}

std::vector<OpNode*> DepEngine::complete(OpNode* n) {
  std::vector<OpNode*> ready;
  {
    sync::MutexLock lock(mutex_);
    for (const VarHandle& r : n->reads) release_var(r, false, ready);
    for (const VarHandle& w : n->writes) release_var(w, true, ready);
    --outstanding_;
    cv_.notify_all();
  }
  delete n;
  std::sort(ready.begin(), ready.end(), by_push_order);
  return ready;
}

void DepEngine::finish(OpNode* n) {
  if (n->phase.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  std::vector<OpNode*> more = complete(n);
  if (!more.empty()) dispatch_all(std::move(more));
}

void DepEngine::dispatch_all(std::vector<OpNode*> ready) {
  std::deque<OpNode*> work(ready.begin(), ready.end());
  while (!work.empty()) {
    OpNode* n = work.front();
    work.pop_front();
    switch (n->where.kind) {
      case Exec::Kind::kStream: {
        // The body enqueues async device work; the marker behind it fires
        // when the stream has executed all of it, completing the op (the
        // graph-execution replacement for hand-recorded Events).
        sgpu::Stream* stream = n->where.stream;
        execute(n);
        n->phase.store(2, std::memory_order_relaxed);
        stream->enqueue([this, n] { finish(n); });
        finish(n);
        break;
      }
      case Exec::Kind::kInline: {
        execute(n);
        std::vector<OpNode*> more = complete(n);
        // Newly-ready ops merge into the worklist in push order; inline
        // chains iterate here instead of recursing.
        for (OpNode* m : more) {
          work.insert(
              std::lower_bound(work.begin(), work.end(), m, by_push_order), m);
        }
        break;
      }
    }
  }
}

void DepEngine::wait(const VarHandle& v) {
  PSML_REQUIRE(v != nullptr, "DepEngine: wait on null var");
  sync::MutexLock lock(mutex_);
  for (;;) {
    auto it = vars_.find(v.get());
    if (it == vars_.end() || quiescent(it->second)) break;
    cv_.wait(lock.native());
  }
  if (error_) std::rethrow_exception(error_);
}

void DepEngine::wait_all() {
  sync::MutexLock lock(mutex_);
  while (outstanding_ != 0) cv_.wait(lock.native());
  if (error_) {
    std::exception_ptr e = std::exchange(error_, nullptr);
    failed_.store(false, std::memory_order_release);
    std::rethrow_exception(e);
  }
}

void DepEngine::drain() {
  sync::MutexLock lock(mutex_);
  while (outstanding_ != 0) cv_.wait(lock.native());
  error_ = nullptr;
  failed_.store(false, std::memory_order_release);
}

std::size_t DepEngine::outstanding() const {
  sync::MutexLock lock(mutex_);
  return outstanding_;
}

}  // namespace psml::pipeline
