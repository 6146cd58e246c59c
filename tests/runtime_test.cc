#include <gtest/gtest.h>

#include <vector>

#include "src/runtime/deployment.h"
#include "src/runtime/sim_system.h"

namespace tm2c {
namespace {

SimSystemConfig SmallConfig(uint32_t cores = 4, uint32_t service = 2) {
  SimSystemConfig cfg;
  cfg.platform = MakeSccPlatform(0);
  cfg.num_cores = cores;
  cfg.num_service = service;
  cfg.shmem_bytes = 1 << 20;
  cfg.seed = 1;
  return cfg;
}

TEST(DeploymentPlan, DedicatedSplitsRoles) {
  DeploymentPlan plan(48, 24, DeployStrategy::kDedicated);
  EXPECT_EQ(plan.num_service(), 24u);
  EXPECT_EQ(plan.num_app(), 24u);
  uint32_t service_count = 0;
  for (uint32_t c = 0; c < 48; ++c) {
    EXPECT_NE(plan.IsService(c), plan.IsApp(c));
    if (plan.IsService(c)) {
      ++service_count;
    }
  }
  EXPECT_EQ(service_count, 24u);
}

TEST(DeploymentPlan, ServiceCoresSpreadAcrossRange) {
  DeploymentPlan plan(48, 4, DeployStrategy::kDedicated);
  const auto& sc = plan.service_cores();
  ASSERT_EQ(sc.size(), 4u);
  // Evenly spread: 0, 12, 24, 36.
  EXPECT_EQ(sc[0], 0u);
  EXPECT_EQ(sc[1], 12u);
  EXPECT_EQ(sc[2], 24u);
  EXPECT_EQ(sc[3], 36u);
}

TEST(DeploymentPlan, PartitionRoundTrip) {
  DeploymentPlan plan(24, 8, DeployStrategy::kDedicated);
  for (uint32_t p = 0; p < plan.num_service(); ++p) {
    EXPECT_EQ(plan.PartitionOf(plan.ServiceCore(p)), p);
  }
}

TEST(DeploymentPlan, MultitaskedEveryCoreIsBoth) {
  DeploymentPlan plan(8, 0, DeployStrategy::kMultitasked);
  EXPECT_EQ(plan.num_service(), 8u);
  EXPECT_EQ(plan.num_app(), 8u);
  for (uint32_t c = 0; c < 8; ++c) {
    EXPECT_TRUE(plan.IsService(c));
    EXPECT_TRUE(plan.IsApp(c));
  }
  EXPECT_EQ(plan.PolledPeers(3), 7u);
}

TEST(DeploymentPlan, PolledPeerCounts) {
  DeploymentPlan plan(48, 24, DeployStrategy::kDedicated);
  EXPECT_EQ(plan.PolledPeersOfService(), 24u);
  EXPECT_EQ(plan.PolledPeersOfApp(), 24u);
  DeploymentPlan lopsided(48, 1, DeployStrategy::kDedicated);
  EXPECT_EQ(lopsided.PolledPeersOfService(), 47u);
  EXPECT_EQ(lopsided.PolledPeersOfApp(), 1u);
}

TEST(SimSystem, PingPongDeliversAndTakesTime) {
  SimSystem sys(SmallConfig());
  SimTime echo_rtt = 0;
  sys.SetCoreMain(1, [](CoreEnv& env) {
    Message m = env.Recv();
    ASSERT_EQ(m.type, MsgType::kEcho);
    Message rsp;
    rsp.type = MsgType::kEchoRsp;
    rsp.w0 = m.w0 + 1;
    env.Send(m.src, std::move(rsp));
  });
  sys.SetCoreMain(2, [&echo_rtt](CoreEnv& env) {
    const SimTime start = env.GlobalNow();
    Message m;
    m.type = MsgType::kEcho;
    m.w0 = 41;
    env.Send(1, std::move(m));
    Message rsp = env.Recv();
    ASSERT_EQ(rsp.type, MsgType::kEchoRsp);
    ASSERT_EQ(rsp.w0, 42u);
    echo_rtt = env.GlobalNow() - start;
  });
  sys.Run();
  // Round trip on SCC setting 0 should be in the microsecond range.
  EXPECT_GT(SimToMicros(echo_rtt), 1.0);
  EXPECT_LT(SimToMicros(echo_rtt), 20.0);
}

TEST(SimSystem, FifoPerSenderReceiverPair) {
  SimSystem sys(SmallConfig());
  std::vector<uint64_t> received;
  sys.SetCoreMain(0, [](CoreEnv& env) {
    for (uint64_t i = 0; i < 10; ++i) {
      Message m;
      m.type = MsgType::kApp;
      m.w0 = i;
      env.Send(3, std::move(m));
    }
  });
  sys.SetCoreMain(3, [&received](CoreEnv& env) {
    for (int i = 0; i < 10; ++i) {
      received.push_back(env.Recv().w0);
    }
  });
  sys.Run();
  ASSERT_EQ(received.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(received[i], i);
  }
}

TEST(SimSystem, TryRecvNonBlocking) {
  SimSystem sys(SmallConfig());
  bool empty_at_start = false;
  bool got_after_wait = false;
  sys.SetCoreMain(0, [](CoreEnv& env) {
    env.Compute(10000);
    Message m;
    m.type = MsgType::kApp;
    env.Send(1, std::move(m));
  });
  sys.SetCoreMain(1, [&](CoreEnv& env) {
    Message out;
    empty_at_start = !env.TryRecv(&out);
    env.Compute(1000000);  // long enough for the message to arrive
    got_after_wait = env.TryRecv(&out);
  });
  sys.Run();
  EXPECT_TRUE(empty_at_start);
  EXPECT_TRUE(got_after_wait);
}

TEST(SimSystem, ComputeAdvancesLocalTimeOnly) {
  SimSystem sys(SmallConfig());
  SimTime spent = 0;
  sys.SetCoreMain(0, [&spent](CoreEnv& env) {
    const SimTime start = env.GlobalNow();
    env.Compute(533);  // 533 cycles at 533 MHz = 1 us
    spent = env.GlobalNow() - start;
  });
  sys.Run();
  EXPECT_NEAR(SimToMicros(spent), 1.0, 0.01);
}

// The simulator charges modelled cost exactly like local computation; the
// native backends' side of this contract is pinned in thread_system_test
// and process_system_test.
TEST(SimSystem, ChargeModelledAdvancesLocalTimeLikeCompute) {
  constexpr uint64_t kCycles = 123'457;
  SimSystem sys(SmallConfig());
  SimTime charged = 0;
  SimTime computed = 0;
  sys.SetCoreMain(0, [&](CoreEnv& env) {
    SimTime start = env.LocalNow();
    env.ChargeModelled(kCycles);
    charged = env.LocalNow() - start;
    start = env.LocalNow();
    env.Compute(kCycles);
    computed = env.LocalNow() - start;
  });
  sys.Run();
  EXPECT_EQ(charged, sys.env(0).platform().CoreCyclesToPs(kCycles));
  EXPECT_EQ(charged, computed);
}

TEST(SimSystem, LocalClockSkewIsStable) {
  SimSystemConfig cfg = SmallConfig();
  cfg.clock_skew_max_us = 100.0;
  SimSystem sys(cfg);
  SimTime offset_a = 0;
  SimTime offset_b = 0;
  sys.SetCoreMain(0, [&](CoreEnv& env) {
    offset_a = env.LocalNow() - env.GlobalNow();
    env.Compute(100000);
    offset_b = env.LocalNow() - env.GlobalNow();
  });
  sys.Run();
  EXPECT_EQ(offset_a, offset_b);  // constant skew, no drift by default
}

TEST(SimSystem, ClockDriftMovesTheSkewOverTime) {
  SimSystemConfig cfg = SmallConfig();
  cfg.clock_drift_ppm = 1000.0;
  SimSystem sys(cfg);
  SimTime offset_a = 0;
  SimTime offset_b = 0;
  sys.SetCoreMain(0, [&](CoreEnv& env) {
    offset_a = env.LocalNow() - env.GlobalNow();
    env.Compute(100000);
    offset_b = env.LocalNow() - env.GlobalNow();
  });
  sys.Run();
  EXPECT_NE(offset_a, offset_b);
}

TEST(SimSystem, ShmemReadWriteThroughEnv) {
  SimSystem sys(SmallConfig());
  uint64_t read_back = 0;
  sys.SetCoreMain(0, [](CoreEnv& env) { env.ShmemWrite(128, 99); });
  sys.SetCoreMain(1, [&read_back](CoreEnv& env) {
    env.Compute(1000000);
    read_back = env.ShmemRead(128);
  });
  sys.Run();
  EXPECT_EQ(read_back, 99u);
}

TEST(SimSystem, BarrierSynchronizesAllCores) {
  SimSystem sys(SmallConfig(4, 2));
  std::vector<SimTime> after(4, 0);
  for (uint32_t c = 0; c < 4; ++c) {
    sys.SetCoreMain(c, [c, &after](CoreEnv& env) {
      env.Compute((c + 1) * 100000);
      env.Barrier();
      after[c] = env.GlobalNow();
    });
  }
  sys.Run();
  for (uint32_t c = 1; c < 4; ++c) {
    EXPECT_EQ(after[c], after[0]);
  }
}

TEST(SimSystem, DeterministicAcrossRuns) {
  auto run_once = []() {
    SimSystem sys(SmallConfig());
    std::vector<uint64_t> log;
    sys.SetCoreMain(0, [&log](CoreEnv& env) {
      for (int i = 0; i < 20; ++i) {
        Message m;
        m.type = MsgType::kEcho;
        m.w0 = static_cast<uint64_t>(i);
        env.Send(1, std::move(m));
        Message rsp = env.Recv();
        log.push_back(env.GlobalNow());
        log.push_back(rsp.w0);
      }
    });
    sys.SetCoreMain(1, [](CoreEnv& env) {
      for (int i = 0; i < 20; ++i) {
        Message m = env.Recv();
        Message rsp;
        rsp.type = MsgType::kEchoRsp;
        rsp.w0 = m.w0 * 2;
        env.Send(m.src, std::move(rsp));
      }
    });
    sys.Run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimSystem, RejectsMoreCoresThanPlatform) {
  SimSystemConfig cfg = SmallConfig();
  cfg.num_cores = 64;  // SCC caps at 48
  cfg.num_service = 32;
  EXPECT_DEATH(SimSystem{cfg}, "more cores");
}

// ThreadSystem transport tests live in tests/thread_system_test.cc (a
// fiber-free suite the TSan CI job can run).

}  // namespace
}  // namespace tm2c
