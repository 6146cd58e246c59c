// ThreadSystem transport semantics on real OS threads over the lock-free
// SPSC rings: delivery, per-pair FIFO, shutdown delivered to a receiver
// blocked in Recv, and a barrier stress. No simulator, no fibers — this
// suite (plus spsc_channel_test and tm_thread_test) is what the TSan CI job
// runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/runtime/thread_system.h"

namespace tm2c {
namespace {

ThreadSystemConfig SmallConfig(uint32_t cores = 4, uint32_t service = 1) {
  ThreadSystemConfig cfg;
  cfg.platform = MakeSccPlatform(0);
  cfg.num_cores = cores;
  cfg.num_service = service;
  cfg.shmem_bytes = 1 << 16;
  return cfg;
}

TEST(ThreadSystem, PingPongAcrossRealThreads) {
  ThreadSystem sys(SmallConfig(2));
  std::atomic<uint64_t> answer{0};
  sys.SetCoreMain(0, [](CoreEnv& env) {
    Message m = env.Recv();
    if (m.type == MsgType::kShutdown) {
      return;
    }
    Message rsp;
    rsp.type = MsgType::kEchoRsp;
    rsp.w0 = m.w0 + 1;
    env.Send(m.src, std::move(rsp));
  });
  sys.SetCoreMain(1, [&answer](CoreEnv& env) {
    Message m;
    m.type = MsgType::kEcho;
    m.w0 = 41;
    env.Send(0, std::move(m));
    answer = env.Recv().w0;
  });
  sys.Run(UINT64_MAX);
  EXPECT_EQ(answer.load(), 42u);
}

TEST(ThreadSystem, FifoPerSenderReceiverPairUnderLoad) {
  // Three producers blast one consumer; per-source sequence numbers must
  // arrive monotonically even though the sources interleave arbitrarily.
  constexpr uint64_t kPerSource = 20000;
  ThreadSystemConfig cfg = SmallConfig(4);
  cfg.channel_capacity = 8;  // tiny rings: constant wraparound + backpressure
  ThreadSystem sys(cfg);
  for (uint32_t src = 1; src < 4; ++src) {
    sys.SetCoreMain(src, [](CoreEnv& env) {
      for (uint64_t i = 0; i < kPerSource; ++i) {
        Message m;
        m.type = MsgType::kApp;
        m.w0 = i;
        env.Send(0, std::move(m));
      }
    });
  }
  std::atomic<uint64_t> violations{0};
  sys.SetCoreMain(0, [&violations](CoreEnv& env) {
    uint64_t next_from[4] = {0, 0, 0, 0};
    for (uint64_t received = 0; received < 3 * kPerSource; ++received) {
      Message m = env.Recv();
      if (m.w0 != next_from[m.src]) {
        violations.fetch_add(1);
      }
      next_from[m.src] = m.w0 + 1;
    }
  });
  sys.Run(UINT64_MAX);
  EXPECT_EQ(violations.load(), 0u);
}

TEST(ThreadSystem, ShutdownWakesReceiverBlockedInRecv) {
  // The receiver parks in Recv with nothing in flight; RequestShutdown from
  // the harness thread (outside any core) must wake it. Covers the SPSC
  // injection lane and its eventcount wake.
  ThreadSystemConfig cfg = SmallConfig(2);
  cfg.spin_rounds = 0;  // park almost immediately: the worst case
  cfg.yield_rounds = 1;
  ThreadSystem sys(cfg);
  std::atomic<bool> got_shutdown{false};
  std::atomic<bool> receiver_entered{false};
  sys.SetCoreMain(0, [&](CoreEnv& env) {
    receiver_entered = true;
    Message m = env.Recv();
    got_shutdown = m.type == MsgType::kShutdown;
  });
  sys.SetCoreMain(1, [&](CoreEnv&) {
    while (!receiver_entered.load()) {
      std::this_thread::yield();
    }
    // Give the receiver time to actually park before the shutdown.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  std::thread harness([&sys, &receiver_entered]() {
    while (!receiver_entered.load()) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    sys.RequestShutdown(0);
  });
  sys.Run(UINT64_MAX);
  harness.join();
  EXPECT_TRUE(got_shutdown.load());
}

TEST(ThreadSystem, ShutdownArrivesAfterPendingRingTraffic) {
  // The injection lane is polled only when the rings are empty, so a
  // shutdown never overtakes protocol messages already queued for the
  // receiver.
  ThreadSystem sys(SmallConfig(2));
  std::atomic<uint64_t> drained{0};
  std::atomic<bool> sender_done{false};
  sys.SetCoreMain(1, [&](CoreEnv& env) {
    for (uint64_t i = 0; i < 100; ++i) {
      Message m;
      m.type = MsgType::kApp;
      m.w0 = i;
      env.Send(0, std::move(m));
    }
    sender_done = true;
  });
  std::thread harness([&]() {
    while (!sender_done.load()) {
      std::this_thread::yield();
    }
    sys.RequestShutdown(0);
  });
  sys.SetCoreMain(0, [&](CoreEnv& env) {
    // Do not touch the inbox until both the traffic and the shutdown are
    // in place: the first 100 Recvs must then all be kApp.
    while (!sender_done.load()) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    for (;;) {
      Message m = env.Recv();
      if (m.type == MsgType::kShutdown) {
        return;
      }
      ASSERT_EQ(m.type, MsgType::kApp);
      drained.fetch_add(1);
    }
  });
  sys.Run(UINT64_MAX);
  harness.join();
  EXPECT_EQ(drained.load(), 100u);
}

TEST(ThreadSystem, BarrierAndShmem) {
  ThreadSystem sys(SmallConfig(4));
  for (uint32_t c = 0; c < 4; ++c) {
    sys.SetCoreMain(c, [c](CoreEnv& env) {
      env.ShmemWrite(c * 8, c + 1);
      env.Barrier();
      // After the barrier every core sees every write.
      uint64_t sum = 0;
      for (uint32_t i = 0; i < 4; ++i) {
        sum += env.ShmemRead(i * 8);
      }
      env.ShmemWrite((4 + c) * 8, sum);
    });
  }
  sys.Run(UINT64_MAX);
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(sys.shmem().LoadWord((4 + c) * 8), 10u);
  }
}

TEST(ThreadSystem, BarrierStressManyGenerations) {
  // Every core publishes its arrival count before each barrier and checks
  // after it that every peer reached the same generation: a barrier that
  // ever lets a thread slip through early trips the assertion.
  constexpr uint32_t kCores = 8;
  constexpr uint64_t kGenerations = 500;
  ThreadSystem sys(SmallConfig(kCores, 2));
  std::atomic<uint64_t> violations{0};
  for (uint32_t c = 0; c < kCores; ++c) {
    sys.SetCoreMain(c, [c, &violations](CoreEnv& env) {
      for (uint64_t g = 1; g <= kGenerations; ++g) {
        env.ShmemWrite(c * 8, g);
        env.Barrier();
        for (uint32_t peer = 0; peer < kCores; ++peer) {
          if (env.ShmemRead(peer * 8) < g) {
            violations.fetch_add(1);
          }
        }
        env.Barrier();  // keep generations separated
      }
    });
  }
  sys.Run(UINT64_MAX);
  EXPECT_EQ(violations.load(), 0u);
}

TEST(ThreadSystem, TestAndSetIsExclusive) {
  // All cores hammer the same modelled TAS register; exactly one winner
  // per round, counted exactly.
  constexpr uint32_t kCores = 4;
  constexpr uint64_t kRounds = 2000;
  ThreadSystem sys(SmallConfig(kCores, 1));
  const uint64_t tas_addr = 0;
  const uint64_t wins_base = 64;
  for (uint32_t c = 0; c < kCores; ++c) {
    sys.SetCoreMain(c, [c, tas_addr, wins_base](CoreEnv& env) {
      uint64_t wins = 0;
      for (uint64_t r = 0; r < kRounds; ++r) {
        const bool won = env.ShmemTestAndSet(tas_addr);
        env.Barrier();  // all attempts settled: exactly one core holds it
        if (won) {
          ++wins;
          env.ShmemWrite(tas_addr, 0);  // release for the next round
        }
        env.Barrier();
      }
      env.ShmemWrite(wins_base + c * 8, wins);
    });
  }
  sys.Run(UINT64_MAX);
  uint64_t total_wins = 0;
  for (uint32_t c = 0; c < kCores; ++c) {
    total_wins += sys.shmem().LoadWord(wins_base + c * 8);
  }
  // The register starts free each round and is only released after the
  // settling barrier, so every round has exactly one winner.
  EXPECT_EQ(total_wins, kRounds);
}

// The cost-model contract on real threads: modelled cost (work that already
// ran on the host) is free, while Compute still takes its modelled time.
TEST(ThreadSystem, ChargeModelledIsFreeAndComputeTakesItsTime) {
  using Clock = std::chrono::steady_clock;
  const auto nanos_since = [](Clock::time_point start) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
  };
  constexpr uint64_t kComputeCycles = 533'000;  // 1 ms at 533 MHz
  ThreadSystem sys(SmallConfig(2));
  std::atomic<int64_t> charge_ns[2] = {{-1}, {-1}};
  std::atomic<int64_t> compute_ns[2] = {{-1}, {-1}};
  for (uint32_t c = 0; c < 2; ++c) {
    sys.SetCoreMain(c, [&, c](CoreEnv& env) {
      auto start = Clock::now();
      env.ChargeModelled(1'000'000'000);  // ~1.9 s at 533 MHz
      charge_ns[c] = nanos_since(start);
      start = Clock::now();
      env.Compute(kComputeCycles);
      compute_ns[c] = nanos_since(start);
    });
  }
  sys.Run(UINT64_MAX);
  const auto modelled_ns = static_cast<int64_t>(
      sys.env(0).platform().CoreCyclesToPs(kComputeCycles) / kPicosPerNano);
  for (uint32_t c = 0; c < 2; ++c) {
    EXPECT_GE(charge_ns[c].load(), 0) << "core " << c;
    EXPECT_LT(charge_ns[c].load(), 100'000'000) << "core " << c;
    EXPECT_GE(compute_ns[c].load(), modelled_ns) << "core " << c;
  }
}

}  // namespace
}  // namespace tm2c
