// Concurrency-contract annotations read by tools/psml-sync (and, under
// Clang, by the native -Wthread-safety analysis).
//
// Like common/taint.hpp, the macros are tool-enforced markers: psml-sync
// matches the raw tokens in the source text. Unlike the taint macros they
// are NOT always no-ops — under Clang they expand to the thread-safety
// attributes, so the compiler cross-checks the same contracts the analyzer
// enforces (CI runs -Wthread-safety over every TU that includes this
// header). Under other compilers they expand to nothing.
//
//   PSML_GUARDED_BY(m) on a field      reads/writes require holding m.
//                                      psml-sync checks writes (rule
//                                      unguarded-shared-write); Clang also
//                                      checks reads.
//   PSML_REQUIRES(m) on a function     callers must already hold m; the
//                                      function body is analyzed with m in
//                                      its entry lockset.
//   PSML_ACQUIRE(m) / PSML_RELEASE(m)  the function acquires / releases m
//                                      on behalf of its caller.
//   PSML_EXCLUDES(m) on a function     callers must NOT hold m (guards
//                                      against self-deadlock on
//                                      non-recursive mutexes).
//   PSML_BLOCKING on a function        the function may block indefinitely
//                                      (socket I/O, condvar wait, join).
//                                      Calling it while holding a mutex is
//                                      rule blocking-under-lock.
//   PSML_BLOCKING on a mutex member    the lock's *job* is serializing a
//                                      blocking section (e.g. the Channel
//                                      send path). Blocking calls under it
//                                      are exempt from blocking-under-lock;
//                                      every such mutex is a reviewed
//                                      policy decision, listed in
//                                      docs/ANALYSIS.md §9.
//   PSML_NONBLOCKING_CTX on a function the function runs on a latency-
//                                      critical context (event loop, pool
//                                      worker): no Channel recv without a
//                                      Deadline may be reachable from it
//                                      (rule missing-deadline-recv).
//
// The wrapper types below exist so the Clang analysis has an annotated
// capability to track (std::mutex itself carries no attributes under
// libstdc++). They are zero-overhead: Mutex is layout-identical to
// std::mutex, MutexLock is a std::unique_lock<std::mutex> underneath, and
// condition variables wait on MutexLock::native() — the plain
// std::unique_lock — so std::condition_variable keeps working unchanged.
#pragma once

#include <mutex>

#if defined(__clang__)
#define PSML_TSA(x) __attribute__((x))
#else
#define PSML_TSA(x)
#endif

#define PSML_CAPABILITY(name) PSML_TSA(capability(name))
#define PSML_SCOPED_CAPABILITY PSML_TSA(scoped_lockable)
#define PSML_GUARDED_BY(m) PSML_TSA(guarded_by(m))
#define PSML_REQUIRES(...) PSML_TSA(requires_capability(__VA_ARGS__))
#define PSML_ACQUIRE(...) PSML_TSA(acquire_capability(__VA_ARGS__))
#define PSML_RELEASE(...) PSML_TSA(release_capability(__VA_ARGS__))
#define PSML_TRY_ACQUIRE(...) PSML_TSA(try_acquire_capability(__VA_ARGS__))
#define PSML_EXCLUDES(...) PSML_TSA(locks_excluded(__VA_ARGS__))
#define PSML_NO_TSA PSML_TSA(no_thread_safety_analysis)

// Behavioural contracts with no Clang attribute analogue; psml-sync only.
#define PSML_BLOCKING
#define PSML_NONBLOCKING_CTX

namespace psml::sync {

// Annotated std::mutex. The capability attribute is what lets Clang track
// lock/unlock pairs; native() exposes the raw mutex for the rare API that
// needs it (MutexLock's unique_lock).
class PSML_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PSML_ACQUIRE() { m_.lock(); }
  void unlock() PSML_RELEASE() { m_.unlock(); }
  bool try_lock() PSML_TRY_ACQUIRE(true) { return m_.try_lock(); }
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

// Scoped lock over Mutex, relockable (unlock()/lock() mid-scope — the
// Channel drainer handoff needs it) and condvar-compatible: wait on
// native(), which is the owning std::unique_lock<std::mutex>. From the
// thread-safety analysis' point of view a condvar wait keeps the capability
// held, the usual convention for wait loops.
class PSML_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) PSML_ACQUIRE(m) : lk_(m.native()) {}
  MutexLock(Mutex& m, std::defer_lock_t) PSML_EXCLUDES(m)
      : lk_(m.native(), std::defer_lock) {}
  ~MutexLock() PSML_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() PSML_ACQUIRE() { lk_.lock(); }
  void unlock() PSML_RELEASE() { lk_.unlock(); }
  bool owns_lock() const { return lk_.owns_lock(); }
  std::unique_lock<std::mutex>& native() { return lk_; }

 private:
  std::unique_lock<std::mutex> lk_;
};

}  // namespace psml::sync
