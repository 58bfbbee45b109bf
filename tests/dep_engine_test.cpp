// DepEngine (dependency-graph scheduler) tests. The contracts under test are
// the ones ANALYSIS.md §12 argues for: conflicting ops run in push order
// (determinism), comm ops serialize through comm_var() in program order, a
// throwing op fails the step with its own type without deadlocking the
// graph, and the engine is reusable after wait_all()/drain() clear the
// failure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "pipeline/dep_engine.hpp"
#include "sgpu/stream.hpp"

namespace psml::pipeline {
namespace {

TEST(DepEngine, InlineOpRunsToCompletion) {
  DepEngine eng;
  int x = 0;
  auto v = eng.new_var("x");
  eng.push([&] { x = 7; }, {}, {v}, Exec::inline_thread(), "set");
  eng.wait(v);
  EXPECT_EQ(x, 7);
  EXPECT_EQ(eng.outstanding(), 0u);
}

TEST(DepEngine, LaneOpPublishesMoveOnlyResultThroughVar) {
  // A lane op hands its result to the waiter through captured state; wait(v)
  // publishes the write, and move-only values work.
  DepEngine eng;
  std::unique_ptr<int> out;
  auto v = eng.new_var("out");
  eng.push([&] { out = std::make_unique<int>(41 + 1); }, {}, {v},
           Exec::lane(), "produce");
  eng.wait(v);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

TEST(DepEngine, LaneOpOverlapsWithPusher) {
  // Lane work runs concurrently with the pushing thread: the elapsed time
  // is close to max(lane, caller), not their sum.
  DepEngine eng;
  auto v = eng.new_var("sleep");
  const auto t0 = std::chrono::steady_clock::now();
  eng.push([] { std::this_thread::sleep_for(std::chrono::milliseconds(60)); },
           {}, {v}, Exec::lane(), "sleep");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  eng.wait_all();
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            0.11);
}

TEST(DepEngine, DestructorDrainsInFlightLaneOps) {
  std::atomic<int> done{0};
  {
    DepEngine eng;
    for (int i = 0; i < 5; ++i) {
      auto v = eng.new_var("v");
      eng.push(
          [&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            done.fetch_add(1);
          },
          {}, {v}, Exec::lane(), "slow");
    }
  }
  EXPECT_EQ(done.load(), 5);
}

TEST(DepEngine, WritersOnOneVarRunInPushOrder) {
  // Conflicting ops are totally ordered by push order regardless of which
  // executor runs them — the core determinism property.
  DepEngine eng;
  sgpu::Stream stream;
  auto v = eng.new_var("chain");
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    Exec where = i % 3 == 0   ? Exec::inline_thread()
                 : i % 3 == 1 ? Exec::lane()
                              : Exec::on_stream(stream);
    // `order` is protected by the exclusive write chain on `v`, not a mutex:
    // if two writers ever overlapped this test would be racy, and the tsan
    // preset run would flag it.
    eng.push([&order, i] { order.push_back(i); }, {}, {v}, where, "writer");
  }
  eng.wait_all();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(DepEngine, ReadersOverlapWritersExclude) {
  // write → two concurrent reads → write. Both readers must see the first
  // write's value; the second write must wait for both readers.
  DepEngine eng;
  auto v = eng.new_var("shared");
  int value = 0;
  std::atomic<int> readers_in{0};
  std::atomic<int> max_readers{0};
  int r0 = -1, r1 = -1;
  eng.push([&] { value = 1; }, {}, {v}, Exec::lane(), "w0");
  auto reader = [&](int* out) {
    return [&, out] {
      int in = readers_in.fetch_add(1) + 1;
      int seen = max_readers.load();
      while (in > seen && !max_readers.compare_exchange_weak(seen, in)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      *out = value;
      readers_in.fetch_sub(1);
    };
  };
  auto vr0 = eng.new_var("r0");
  auto vr1 = eng.new_var("r1");
  eng.push(reader(&r0), {v}, {vr0}, Exec::lane(), "r0");
  // A second executor so the two readers *can* overlap (the lane is a single
  // FIFO worker); pushed from another thread, joined before w1 so the
  // push-order contract keeps w1 strictly after both readers.
  std::thread t([&] {
    eng.push(reader(&r1), {v}, {vr1}, Exec::inline_thread(), "r1");
  });
  t.join();
  eng.push([&] { value = 2; }, {}, {v}, Exec::lane(), "w1");
  eng.wait_all();
  EXPECT_EQ(r0, 1);
  EXPECT_EQ(r1, 1);
  EXPECT_EQ(value, 2);
  // Not asserted >1: overlap is permitted, not guaranteed (timing). The
  // exclusion half IS guaranteed: a reader observing value==2 would fail
  // above.
  EXPECT_GE(max_readers.load(), 1);
}

TEST(DepEngine, CommVarSerializesMessageSequence) {
  // Ops writing comm_var() form one exclusive FIFO chain — the engine's
  // stand-in for "program order on the wire". Two identical graphs must
  // produce the identical sequence even though each op's *dependencies*
  // complete on different threads at different times.
  for (int run = 0; run < 2; ++run) {
    DepEngine eng;
    sgpu::Stream stream;
    std::vector<int> wire;
    std::vector<VarHandle> deps;
    for (int i = 0; i < 16; ++i) {
      auto d = eng.new_var("dep");
      // Jittered producers on mixed executors.
      Exec where = i % 2 == 0 ? Exec::lane() : Exec::on_stream(stream);
      eng.push(
          [i] {
            std::this_thread::sleep_for(std::chrono::microseconds(50 * (16 - i)));
          },
          {}, {d}, where, "produce");
      deps.push_back(d);
    }
    for (int i = 0; i < 16; ++i) {
      eng.push([&wire, i] { wire.push_back(i); }, {deps[std::size_t(i)]},
               {eng.comm_var()}, Exec::lane(), "send");
    }
    eng.wait_all();
    ASSERT_EQ(wire.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(wire[std::size_t(i)], i) << "run " << run;
  }
}

TEST(DepEngine, DeterministicAcrossRuns) {
  // Same diamond-heavy graph twice → bit-identical numeric results.
  auto run_graph = [] {
    DepEngine eng;
    sgpu::Stream stream;
    std::vector<double> cell(8, 0.0);
    std::vector<VarHandle> vars;
    for (int i = 0; i < 8; ++i) vars.push_back(eng.new_var("cell"));
    for (int step = 0; step < 40; ++step) {
      const std::size_t a = std::size_t(step) % 8;
      const std::size_t b = std::size_t(step * 3 + 1) % 8;
      if (a == b) continue;
      Exec where = step % 3 == 0   ? Exec::lane()
                   : step % 3 == 1 ? Exec::on_stream(stream)
                                   : Exec::inline_thread();
      eng.push([&cell, a, b, step] { cell[b] += cell[a] * 1.5 + step; },
               {vars[a]}, {vars[b]}, where, "axpy");
    }
    eng.wait_all();
    return cell;
  };
  const auto first = run_graph();
  const auto second = run_graph();
  EXPECT_EQ(first, second);
}

TEST(DepEngine, ThrowingOpFailsStepTypedWithoutDeadlock) {
  DepEngine eng;
  auto v = eng.new_var("v");
  std::atomic<int> ran_after{0};
  eng.push([] { throw NetworkError("peer went away"); }, {}, {v}, Exec::lane(),
           "boom");
  // Downstream ops must still *complete* (cancel-drain) even though their
  // bodies are skipped once the engine is failing.
  for (int i = 0; i < 8; ++i) {
    eng.push([&] { ran_after.fetch_add(1); }, {v}, {}, Exec::lane(), "after");
  }
  EXPECT_THROW(eng.wait_all(), NetworkError);
  EXPECT_EQ(eng.outstanding(), 0u);
  // Cancel-drain may skip all, some, or none of the downstream bodies
  // depending on when the failure lands; only the count being <= 8 and the
  // graph draining are contractual.
  EXPECT_LE(ran_after.load(), 8);
}

TEST(DepEngine, FirstErrorWinsAndEngineIsReusable) {
  DepEngine eng;
  auto v = eng.new_var("v");
  eng.push([] { throw ProtocolError("first"); }, {}, {v}, Exec::lane(), "e1");
  eng.push([] { throw IOError("second"); }, {}, {v}, Exec::lane(), "e2");
  try {
    eng.wait_all();  // rethrows the FIRST stored error and clears it.
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // Cleared: the engine accepts and runs new work.
  int x = 0;
  eng.push([&] { x = 3; }, {}, {v}, Exec::inline_thread(), "ok");
  eng.wait_all();
  EXPECT_EQ(x, 3);
}

TEST(DepEngine, WaitOnVarRethrowsWithoutClearing) {
  DepEngine eng;
  auto v = eng.new_var("v");
  eng.push([] { throw IOError("disk"); }, {}, {v}, Exec::inline_thread(), "e");
  EXPECT_THROW(eng.wait(v), IOError);
  EXPECT_TRUE(eng.failed());
  EXPECT_THROW(eng.wait_all(), IOError);
  EXPECT_FALSE(eng.failed());
}

TEST(DepEngine, DrainDiscardsError) {
  // The resilient-rollback primitive: flush the graph, swallow the stored
  // error (the caller already holds the original exception).
  DepEngine eng;
  auto v = eng.new_var("v");
  eng.push([] { throw TimeoutError("recv deadline"); }, {}, {v}, Exec::lane(),
           "e");
  eng.drain();
  EXPECT_FALSE(eng.failed());
  int x = 0;
  eng.push([&] { x = 5; }, {}, {v}, Exec::lane(), "ok");
  eng.wait_all();
  EXPECT_EQ(x, 5);
}

TEST(DepEngine, DuplicateVarInOpRejected) {
  DepEngine eng;
  auto v = eng.new_var("v");
  EXPECT_THROW(eng.push([] {}, {v}, {v}, Exec::inline_thread(), "rw"),
               InvalidArgument);
  EXPECT_THROW(eng.push([] {}, {}, {v, v}, Exec::inline_thread(), "ww"),
               InvalidArgument);
  EXPECT_THROW(eng.push([] {}, {v, v}, {}, Exec::inline_thread(), "rr"),
               InvalidArgument);
  EXPECT_THROW(eng.push(nullptr, {}, {v}, Exec::inline_thread(), "null"),
               InvalidArgument);
  // Failed pushes must not leak grants: the var is still usable.
  int x = 0;
  eng.push([&] { x = 1; }, {}, {v}, Exec::inline_thread(), "ok");
  eng.wait_all();
  EXPECT_EQ(x, 1);
}

TEST(DepEngine, StreamOpOrdersAgainstStreamWork) {
  // A kStream op's body *enqueues* async work; the op only counts as done
  // when the stream has executed it. A dependent op must observe the
  // enqueued work's effects.
  DepEngine eng;
  sgpu::Stream stream;
  auto v = eng.new_var("buf");
  int buf = 0;
  eng.push(
      [&] {
        // Body runs on the granting thread and only enqueues; the write
        // itself happens later on the stream thread.
        stream.enqueue([&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          buf = 42;
        });
      },
      {}, {v}, Exec::on_stream(stream), "upload");
  int seen = -1;
  eng.push([&] { seen = buf; }, {v}, {}, Exec::inline_thread(), "consume");
  eng.wait_all();
  EXPECT_EQ(seen, 42);
}

TEST(DepEngine, ManyIndependentVarsGetSwept) {
  // Churn through far more vars than the sweep threshold; the engine's var
  // table must not grow without bound (indirectly: this completes fast and
  // tsan/asan clean).
  DepEngine eng;
  for (int i = 0; i < 4096; ++i) {
    auto v = eng.new_var("tmp");
    eng.push([] {}, {}, {v}, Exec::inline_thread(), "t");
  }
  eng.wait_all();
  EXPECT_EQ(eng.outstanding(), 0u);
}

TEST(DepEngine, WaitAllFromConcurrentPushers) {
  // Two threads pushing disjoint chains while a third waits; exercises the
  // engine mutex + condvar under contention for the tsan preset.
  DepEngine eng;
  std::atomic<int> total{0};
  auto pusher = [&] {
    auto v = eng.new_var("chain");
    for (int i = 0; i < 200; ++i) {
      eng.push([&] { total.fetch_add(1); }, {}, {v}, Exec::lane(), "n");
    }
  };
  std::thread a(pusher), b(pusher);
  a.join();
  b.join();
  eng.wait_all();
  EXPECT_EQ(total.load(), 400);
}

}  // namespace
}  // namespace psml::pipeline
