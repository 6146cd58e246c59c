// ProcessSystem's CoreEnv on both of its core kinds: the host-side
// application core and the service core inside a forked partition server,
// and thread_system_test's transport cases run across the process
// boundary. Forks real processes, so it carries the `processes` ctest label
// and stays out of the TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "src/check/history.h"
#include "src/runtime/process_system.h"
#include "src/tm/tm_system.h"

namespace tm2c {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kChargeCycles = 1'000'000'000;  // ~1.9 s at 533 MHz
constexpr uint64_t kComputeCycles = 533'000;       // 1 ms at 533 MHz

int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
}

// Times ChargeModelled(kChargeCycles) and Compute(kComputeCycles) on `env`.
void TimeCostModel(CoreEnv& env, int64_t* charge_ns, int64_t* compute_ns) {
  Clock::time_point start = Clock::now();
  env.ChargeModelled(kChargeCycles);
  *charge_ns = NanosSince(start);
  start = Clock::now();
  env.Compute(kComputeCycles);
  *compute_ns = NanosSince(start);
}

// The cost-model contract on both core kinds: modelled cost (work that
// already ran on the host) is free, while Compute still takes its time.
// The service core times itself in the server process and reports back in
// an echo reply.
TEST(ProcessSystem, ChargeModelledIsFreeAndComputeTakesItsTimeOnBothCoreKinds) {
  ProcessSystemConfig cfg;
  cfg.platform = MakeSccPlatform(0);
  cfg.num_cores = 2;
  cfg.num_service = 1;
  cfg.shmem_bytes = 1 << 16;
  ProcessSystem sys(cfg);
  const uint32_t service = sys.deployment().ServiceCore(0);
  const uint32_t app = sys.deployment().app_cores()[0];

  sys.SetCoreMain(service, [](CoreEnv& env) {
    for (;;) {
      Message m = env.Recv();
      if (m.type == MsgType::kShutdown) {
        return;
      }
      int64_t charge_ns = -1;
      int64_t compute_ns = -1;
      TimeCostModel(env, &charge_ns, &compute_ns);
      Message rsp;
      rsp.type = MsgType::kEchoRsp;
      rsp.w0 = m.w0;
      rsp.w1 = static_cast<uint64_t>(charge_ns);
      rsp.w2 = static_cast<uint64_t>(compute_ns);
      env.Send(m.src, std::move(rsp));
    }
  });
  int64_t app_charge_ns = -1;
  int64_t app_compute_ns = -1;
  Message reply;
  sys.SetCoreMain(app, [&](CoreEnv& env) {
    TimeCostModel(env, &app_charge_ns, &app_compute_ns);
    Message m;
    m.type = MsgType::kEcho;
    m.w0 = 7;
    env.Send(service, std::move(m));
    reply = env.Recv();
    sys.RequestShutdown(service);
  });
  sys.Run(UINT64_MAX);

  const auto modelled_ns =
      static_cast<int64_t>(cfg.platform.CoreCyclesToPs(kComputeCycles) / kPicosPerNano);
  EXPECT_GE(app_charge_ns, 0);
  EXPECT_LT(app_charge_ns, 100'000'000);
  EXPECT_GE(app_compute_ns, modelled_ns);

  ASSERT_EQ(reply.type, MsgType::kEchoRsp);
  EXPECT_EQ(reply.w0, 7u);
  const auto service_charge_ns = static_cast<int64_t>(reply.w1);
  const auto service_compute_ns = static_cast<int64_t>(reply.w2);
  EXPECT_GE(service_charge_ns, 0);
  EXPECT_LT(service_charge_ns, 100'000'000);
  EXPECT_GE(service_compute_ns, modelled_ns);
}

// A process system of `cores` cores (one partition).
class ProcessTransport : public ::testing::Test {
 protected:
  std::unique_ptr<ProcessSystem> Make(uint32_t cores) {
    ProcessSystemConfig cfg;
    cfg.platform = MakeSccPlatform(0);
    cfg.num_cores = cores;
    cfg.num_service = 1;
    cfg.shmem_bytes = 1 << 16;
    return std::make_unique<ProcessSystem>(cfg);
  }
};

TEST_F(ProcessTransport, PingPongAcrossTheProcessBoundary) {
  auto sys = Make(2);
  const uint32_t service = sys->deployment().ServiceCore(0);
  const uint32_t app = sys->deployment().app_cores()[0];
  sys->SetCoreMain(service, [](CoreEnv& env) {
    for (;;) {
      Message m = env.Recv();
      if (m.type == MsgType::kShutdown) {
        return;
      }
      Message rsp;
      rsp.type = MsgType::kEchoRsp;
      rsp.w0 = m.w0;
      rsp.w1 = m.w0 + 1;
      env.Send(m.src, std::move(rsp));
    }
  });
  uint64_t answer = 0;
  sys->SetCoreMain(app, [&](CoreEnv& env) {
    Message m;
    m.type = MsgType::kEcho;
    m.w0 = 41;
    env.Send(service, std::move(m));
    answer = env.Recv().w1;
    sys->RequestShutdown(service);
  });
  sys->Run(UINT64_MAX);
  EXPECT_EQ(answer, 42u);
}

TEST_F(ProcessTransport, FifoPerPairUnderLoadBothWays) {
  // Two app cores blast the server with one-way messages while keeping a
  // window of echoes in flight; the server checks per-source order of the
  // one-way stream (reporting through shared memory), each app core the
  // order of its echo replies. Thousands of messages through 256-message
  // rings: constant wraparound and backpressure.
  constexpr uint64_t kPerSource = 20000;
  constexpr uint64_t kWindow = 32;
  auto sys = Make(3);
  const uint32_t service = sys->deployment().ServiceCore(0);
  const uint64_t violations_addr = 0;
  sys->SetCoreMain(service, [&](CoreEnv& env) {
    std::vector<uint64_t> next(env.plan().num_cores(), 0);
    uint64_t violations = 0;
    for (;;) {
      Message m = env.Recv();
      if (m.type == MsgType::kShutdown) {
        env.ShmemWrite(violations_addr, violations);
        return;
      }
      if (m.type == MsgType::kEcho) {
        Message rsp;
        rsp.type = MsgType::kEchoRsp;
        rsp.w0 = m.w0;
        env.Send(m.src, std::move(rsp));
        continue;
      }
      violations += m.w0 == next[m.src] ? 0 : 1;
      next[m.src] = m.w0 + 1;
    }
  });
  std::atomic<uint32_t> done{0};
  std::atomic<uint64_t> reply_violations{0};
  for (uint32_t app : sys->deployment().app_cores()) {
    sys->SetCoreMain(app, [&, service](CoreEnv& env) {
      uint64_t sent_echoes = 0, next_reply = 0;
      for (uint64_t i = 0; i < kPerSource; ++i) {
        Message m;
        m.type = MsgType::kApp;
        m.w0 = i;
        env.Send(service, std::move(m));
        if (i % 4 == 0) {
          Message echo;
          echo.type = MsgType::kEcho;
          echo.w0 = sent_echoes++;
          env.Send(service, std::move(echo));
        }
        const bool last = i + 1 == kPerSource;
        while (sent_echoes - next_reply >= kWindow || (last && next_reply < sent_echoes)) {
          const Message rsp = env.Recv();
          reply_violations.fetch_add(rsp.w0 == next_reply ? 0 : 1);
          next_reply = rsp.w0 + 1;
        }
      }
      if (done.fetch_add(1) + 1 == env.plan().num_app()) {
        sys->RequestShutdown(service);
      }
    });
  }
  sys->Run(UINT64_MAX);
  EXPECT_EQ(reply_violations.load(), 0u);
  EXPECT_EQ(sys->shmem().LoadWord(violations_addr), 0u);
}

TEST_F(ProcessTransport, ShutdownWakesAServerParkedInRecv) {
  // The server parks on its doorbell with nothing in flight; the shutdown
  // word raised from the host must wake it across the process boundary.
  auto sys = Make(2);
  const uint32_t service = sys->deployment().ServiceCore(0);
  const uint32_t app = sys->deployment().app_cores()[0];
  const uint64_t marker_addr = 0;
  sys->SetCoreMain(service, [&](CoreEnv& env) {
    const Message m = env.Recv();
    env.ShmemWrite(marker_addr, m.type == MsgType::kShutdown ? 1 : 2);
  });
  sys->SetCoreMain(app, [&](CoreEnv&) {
    // Long past the spin and yield budgets: the server is parked.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    sys->RequestShutdown(service);
  });
  sys->Run(UINT64_MAX);
  EXPECT_EQ(sys->shmem().LoadWord(marker_addr), 1u);
}

TEST_F(ProcessTransport, ShutdownArrivesAfterPendingRingTraffic) {
  // The shutdown word is polled only when the rings are empty, so it never
  // overtakes the messages already queued for the server.
  auto sys = Make(2);
  const uint32_t service = sys->deployment().ServiceCore(0);
  const uint32_t app = sys->deployment().app_cores()[0];
  const uint64_t drained_addr = 0;
  const uint64_t sent_addr = 8;
  sys->SetCoreMain(service, [&](CoreEnv& env) {
    // Touch nothing until both the traffic and the shutdown are in place.
    while (env.ShmemRead(sent_addr) == 0) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    uint64_t drained = 0;
    for (;;) {
      const Message m = env.Recv();
      if (m.type == MsgType::kShutdown) {
        env.ShmemWrite(drained_addr, drained);
        return;
      }
      drained += m.type == MsgType::kApp ? 1 : 1000;
    }
  });
  sys->SetCoreMain(app, [&](CoreEnv& env) {
    for (uint64_t i = 0; i < 100; ++i) {
      Message m;
      m.type = MsgType::kApp;
      m.w0 = i;
      env.Send(service, std::move(m));
    }
    sys->RequestShutdown(service);
    env.ShmemWrite(sent_addr, 1);
  });
  sys->Run(UINT64_MAX);
  EXPECT_EQ(sys->shmem().LoadWord(drained_addr), 100u);
}

// A trace attaches before Run on every backend (the partition servers fork
// with the event logs they write), so a late one is refused outright.
TEST(ProcessSystemDeathTest, AttachTraceAfterRunIsRejected) {
  TmSystemConfig cfg;
  cfg.backend = BackendKind::kProcesses;
  cfg.sim.platform = MakeSccPlatform(0);
  cfg.sim.num_cores = 2;
  cfg.sim.num_service = 1;
  cfg.sim.shmem_bytes = 1 << 16;
  TmSystem sys(cfg);
  sys.Run();
  History history;
  EXPECT_DEATH(sys.AttachTrace(&history), "AttachTrace after Run");
}

}  // namespace
}  // namespace tm2c
