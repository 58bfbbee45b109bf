// Multi-threaded hammer tests for the concurrency primitives (ThreadPool,
// DepEngine, sgpu::Stream/Event, LocalChannel, TcpChannel).
//
// These are the regression tests for the TSan-clean pass: each one drives a
// primitive from several threads at once so that a reintroduced data race or
// lock-order problem shows up under `ctest -L tsan` (thread-sanitizer
// preset). They also pin down the documented shutdown semantics: submit
// racing shutdown either completes or throws psml::ShutdownError — work is
// never silently dropped.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "net/local_channel.hpp"
#include "net/tcp_channel.hpp"
#include "pipeline/dep_engine.hpp"
#include "profile/adaptive.hpp"
#include "sgpu/stream.hpp"

namespace psml {
namespace {

TEST(ThreadPoolHammer, ManyConcurrentSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<void>>> futs(4);
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        futs[t].push_back(pool.submit([&] { ran.fetch_add(1); }));
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (auto& v : futs) {
    for (auto& f : v) f.wait();
  }
  EXPECT_EQ(ran.load(), 4 * 200);
}

TEST(ThreadPoolHammer, SubmitRacingShutdownCompletesOrThrows) {
  for (int round = 0; round < 5; ++round) {
    ThreadPool pool(2);
    std::atomic<int> accepted{0}, ran{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 500; ++i) {
          try {
            pool.submit([&] { ran.fetch_add(1); });
            accepted.fetch_add(1);
          } catch (const ShutdownError&) {
            // Expected once shutdown wins the race; nothing was enqueued.
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    pool.shutdown();
    for (auto& s : submitters) s.join();
    // Every accepted task must have run: shutdown drains the queue.
    EXPECT_EQ(ran.load(), accepted.load());
    // And the pool is now terminally closed.
    EXPECT_THROW(pool.submit([] {}), ShutdownError);
  }
}

TEST(ThreadPoolHammer, ConcurrentParallelForCallsOnOnePool) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1 << 14;
  std::vector<std::vector<int>> arrays(4, std::vector<int>(kN, 0));
  std::vector<std::thread> drivers;
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&, t] {
      pool.parallel_for(0, kN, [&, t](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) arrays[t][i] += 1;
      });
    });
  }
  for (auto& d : drivers) d.join();
  for (const auto& a : arrays) {
    for (int v : a) ASSERT_EQ(v, 1);
  }
}

TEST(DepEngineHammer, DrainRacingPushNeverLosesOps) {
  // Barriers racing pushers: every op pushed is run exactly once, however
  // the drains interleave, and a barrier after the pushers join covers all.
  pipeline::DepEngine eng;
  std::atomic<int> ran{0};
  std::atomic<bool> go{true};
  std::vector<std::thread> producers;
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&] {
      auto v = eng.new_var("chain");
      for (int i = 0; i < 300; ++i) {
        eng.push([&] { ran.fetch_add(1); }, {}, {v}, pipeline::Exec::lane(),
                 "n");
      }
    });
  }
  std::thread drainer([&] {
    while (go.load()) eng.drain();
  });
  for (auto& p : producers) p.join();
  go.store(false);
  drainer.join();
  eng.wait_all();
  EXPECT_EQ(ran.load(), 2 * 300);
}

TEST(StreamHammer, EnqueueRacingSynchronize) {
  sgpu::Stream stream;
  std::atomic<int> ran{0};
  std::atomic<bool> go{true};
  std::thread syncer([&] {
    while (go.load()) stream.synchronize();
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 300; ++i) stream.enqueue([&] { ran.fetch_add(1); });
    });
  }
  for (auto& p : producers) p.join();
  go.store(false);
  syncer.join();
  stream.synchronize();
  EXPECT_EQ(ran.load(), 2 * 300);
}

TEST(StreamHammer, EventOrderingAcrossStreamsUnderLoad) {
  // Producer stream writes a slot, records an event; consumer stream waits on
  // the event before reading the slot. Any missing synchronization in
  // Event/Stream shows up as a torn read here (and as a TSan report).
  sgpu::Stream producer, consumer;
  for (int i = 0; i < 100; ++i) {
    int slot = 0;
    producer.enqueue([&slot, i] { slot = i + 1; });
    sgpu::Event e = producer.record_event();
    consumer.wait_event(e);
    int seen = -1;
    consumer.enqueue([&slot, &seen] { seen = slot; });
    consumer.synchronize();
    ASSERT_EQ(seen, i + 1);
  }
  producer.synchronize();
}

TEST(StreamHammer, HostWaitersOnOneEvent) {
  sgpu::Stream stream;
  stream.enqueue(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
  sgpu::Event e = stream.record_event();
  std::atomic<int> woke{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 4; ++t) {
    waiters.emplace_back([&] {
      e.wait();
      woke.fetch_add(1);
    });
  }
  for (auto& w : waiters) w.join();
  EXPECT_EQ(woke.load(), 4);
  EXPECT_TRUE(e.ready());
}

TEST(LocalChannelHammer, BidirectionalTraffic) {
  auto pair = net::LocalChannel::make_pair();
  constexpr int kMsgs = 500;
  std::thread peer([&] {
    for (int i = 0; i < kMsgs; ++i) {
      net::Message m = pair.b->recv(1);
      pair.b->send(2, m.payload);
    }
  });
  for (int i = 0; i < kMsgs; ++i) {
    const std::vector<std::uint8_t> payload{static_cast<std::uint8_t>(i & 0xff)};
    pair.a->send(1, payload);
    net::Message echo = pair.a->recv(2);
    ASSERT_EQ(echo.payload.size(), 1u);
    ASSERT_EQ(echo.payload[0], static_cast<std::uint8_t>(i & 0xff));
  }
  peer.join();
}

TEST(LocalChannelHammer, CloseRacingBlockedRecv) {
  for (int round = 0; round < 10; ++round) {
    auto pair = net::LocalChannel::make_pair();
    std::atomic<bool> receiving{false};
    std::thread receiver([&] {
      receiving.store(true);
      EXPECT_THROW(pair.a->recv(7), NetworkError);
    });
    while (!receiving.load()) std::this_thread::yield();
    pair.b->close();
    receiver.join();
  }
}

TEST(AdaptiveDispatchHammer, DecideRacingCalibrate) {
  // Regression for the unsynchronized model_ publication: decide() used to
  // read the model fields while calibrate() was mid-assignment, so readers
  // could observe a torn model (calibrated == true with a half-written fit).
  // Now the model is a mutex-guarded snapshot; this drives both sides hard
  // enough that any reintroduced race is a TSan report and any torn read
  // shows up as a nonsensical estimate.
  profile::AdaptiveDispatch d;
  sgpu::Device& dev = sgpu::Device::global();
  std::atomic<bool> go{true};
  std::vector<std::thread> deciders;
  for (int t = 0; t < 3; ++t) {
    deciders.emplace_back([&] {
      while (go.load()) {
        const auto dec = d.decide(256, 256, 256);
        // A published model is always internally consistent: estimates are
        // finite and non-negative (zero while uncalibrated/stale).
        ASSERT_GE(dec.est_cpu_sec, 0.0);
        ASSERT_GE(dec.est_gpu_sec, 0.0);
        const auto snap = d.model();
        if (snap.calibrated) {
          ASSERT_GT(snap.cpu_sec_per_flop, 0.0);
        }
      }
    });
  }
  // Tiny probe sizes keep each calibration cheap; ~20 rounds still spans
  // many decide() iterations per publication.
  for (int round = 0; round < 20; ++round) d.calibrate(dev, 16, 32);
  go.store(false);
  for (auto& t : deciders) t.join();
  EXPECT_TRUE(d.model().calibrated);
}

TEST(TcpChannelHammer, CloseRacingBlockedRecv) {
  // Regression for the fd_ data race: close() from one thread while another
  // is blocked in recv() must atomically claim the descriptor; the blocked
  // recv fails with NetworkError instead of reading freed/reused state.
  const std::uint16_t port = 39266;
  std::shared_ptr<net::Channel> server;
  std::thread listener([&] { server = net::TcpChannel::listen(port); });
  auto client = net::TcpChannel::connect("127.0.0.1", port, 5.0);
  listener.join();

  std::atomic<bool> receiving{false};
  std::thread receiver([&] {
    receiving.store(true);
    EXPECT_THROW(client->recv(1), NetworkError);
  });
  while (!receiving.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  client->close();
  receiver.join();
  server->close();
}

}  // namespace
}  // namespace psml
