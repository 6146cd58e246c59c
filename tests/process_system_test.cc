// ProcessSystem's CoreEnv on both of its core kinds: the host-side
// application core and the service core inside a forked partition server.
// Forks real processes, so it carries the `processes` ctest label and stays
// out of the TSan job.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>

#include "src/runtime/process_system.h"

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
  std::string dir = ::testing::TempDir() + "tm2c_cost_model_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  ProcessSystemConfig cfg;
  cfg.platform = MakeSccPlatform(0);
  cfg.num_cores = 2;
  cfg.num_service = 1;
  cfg.shmem_bytes = 1 << 16;
  cfg.run_dir = dir;
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
  std::filesystem::remove_all(dir);

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

}  // namespace
}  // namespace tm2c
