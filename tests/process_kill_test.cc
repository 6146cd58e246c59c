// Process-kill regression: SIGKILL a partition server mid-run, let the
// cold standby recover it from the on-disk WAL, and hold the surviving run
// to the crash-restart oracle's standard (src/check/process_kill.h). This
// is the real-death counterpart of the simulated crash cuts in
// tests/check_test.cc: the same oracle, wired to an actual process corpse
// instead of a post-hoc watermark.
//
// Failing seeds dump their full history JSON into failed_histories/ next
// to the test binary, same convention as the chaos suites.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "src/check/process_kill.h"
#include "src/runtime/process_system.h"

namespace tm2c {
namespace {

std::string FreshRunDir(const std::string& tag) {
  std::string templ = ::testing::TempDir() + "tm2c_" + tag + "_XXXXXX";
  char* made = ::mkdtemp(templ.data());
  EXPECT_NE(made, nullptr);
  return templ;
}

void DumpOnFailure(const ProcessKillConfig& cfg, const ProcessKillResult& result) {
  if (result.report.violations.empty()) {
    return;
  }
  ::mkdir("failed_histories", 0755);
  const std::string path = "failed_histories/" + cfg.Name() + ".json";
  std::ofstream out(path);
  out << result.history.ToJson();
  ADD_FAILURE() << "history dumped to " << path;
}

TEST(ProcessKill, KilledPartitionRecoversAcrossFiveSeeds) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ProcessKillConfig cfg;
    cfg.seed = seed;
    cfg.run_dir = FreshRunDir("kill_s" + std::to_string(seed));
    const ProcessKillResult result = RunProcessKillWorkload(cfg);

    EXPECT_EQ(result.commits, result.expected_commits) << "seed " << seed;
    EXPECT_EQ(result.restarts, 1u) << "seed " << seed;
    EXPECT_TRUE(result.truncate_seen) << "seed " << seed;
    EXPECT_TRUE(result.tables_empty) << "seed " << seed;
    for (const OracleViolation& v : result.report.violations) {
      ADD_FAILURE() << "seed " << seed << ": [" << v.kind << "] " << v.detail;
    }
    DumpOnFailure(cfg, result);
  }
}

TEST(ProcessKill, KillingTheOtherPartitionRecoversToo) {
  // The kill target must not be special-cased: partition 1's server dies
  // under a different request mix (it is not app core 0's local target).
  ProcessKillConfig cfg;
  cfg.seed = 7;
  cfg.kill_partition = 1;
  cfg.run_dir = FreshRunDir("kill_p1");
  const ProcessKillResult result = RunProcessKillWorkload(cfg);

  EXPECT_EQ(result.commits, result.expected_commits);
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_TRUE(result.truncate_seen);
  EXPECT_TRUE(result.tables_empty);
  for (const OracleViolation& v : result.report.violations) {
    ADD_FAILURE() << "[" << v.kind << "] " << v.detail;
  }
  DumpOnFailure(cfg, result);
}

TEST(ProcessKill, GroupCommitWindowsSurviveTheKill) {
  // Larger group-commit windows widen the in-doubt set at the kill: more
  // appended-but-unflushed records to void, more unacked kCommitLogs to
  // retransmit. With periodic checkpoints on top, the recovery replays
  // checkpoint + suffix instead of the whole log.
  ProcessKillConfig cfg;
  cfg.seed = 11;
  cfg.group_commit_txs = 8;
  cfg.checkpoint_every_records = 32;
  cfg.run_dir = FreshRunDir("kill_gc8");
  const ProcessKillResult result = RunProcessKillWorkload(cfg);

  EXPECT_EQ(result.commits, result.expected_commits);
  EXPECT_TRUE(result.truncate_seen);
  for (const OracleViolation& v : result.report.violations) {
    ADD_FAILURE() << "[" << v.kind << "] " << v.detail;
  }
  DumpOnFailure(cfg, result);
}

TEST(ProcessKill, KillWakesEveryAppCoreParkedOnAReply) {
  // Every app core sends a lock request the primary server never answers
  // and parks in FUTEX_WAIT on its doorbell. Killing the server must wake
  // each one with the router's kOverload refusal, then the revocation
  // fence, and the successor must serve the retry; the run then ends
  // cleanly (the router checks at the successor's exit that every request
  // got exactly one answer).
  constexpr uint32_t kCores = 3;
  const std::string dir = FreshRunDir("parked_kill");
  ProcessSystemConfig cfg;
  cfg.platform = MakeSccPlatform(0);
  cfg.num_cores = kCores;
  cfg.num_service = 1;
  cfg.shmem_bytes = 1 << 16;
  cfg.run_dir = dir;
  ProcessSystem sys(cfg);
  const uint32_t service = sys.deployment().ServiceCore(0);
  const uint32_t num_app = sys.deployment().num_app();

  bool successor = false;  // set in the server process itself
  sys.SetChildStart([&successor](uint32_t, bool is_restart, CoreEnv&) { successor = is_restart; });
  sys.SetCoreMain(service, [&successor](CoreEnv& env) {
    for (;;) {
      Message m = env.Recv();
      if (m.type == MsgType::kShutdown) {
        return;
      }
      if (successor && m.type == MsgType::kReadLockReq) {
        Message grant;
        grant.type = MsgType::kLockGranted;
        grant.w0 = m.w0;
        grant.w1 = m.w1;
        env.Send(m.src, std::move(grant));
      }
    }
  });

  std::atomic<uint32_t> parked{0};
  std::atomic<uint32_t> finished{0};
  std::vector<std::vector<Message>> seen(kCores);
  for (uint32_t app : sys.deployment().app_cores()) {
    sys.SetCoreMain(app, [&, app](CoreEnv& env) {
      const uint64_t epoch = 100 + app;
      auto request = [&] {
        Message req;
        req.type = MsgType::kReadLockReq;
        req.w0 = 0x40 * (app + 1);
        req.w1 = epoch;
        env.Send(service, std::move(req));
      };
      request();
      parked.fetch_add(1);
      seen[app].push_back(env.Recv());  // the refusal, after the kill
      seen[app].push_back(env.Recv());  // the fence
      request();
      seen[app].push_back(env.Recv());  // the successor's grant
      if (finished.fetch_add(1) + 1 == num_app) {
        sys.RequestShutdown(service);
      }
    });
  }
  std::thread killer([&] {
    while (parked.load() < num_app) {
      std::this_thread::yield();
    }
    // Far past the spin and yield budgets: every app core is in FUTEX_WAIT.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    sys.KillPartition(0);
  });
  sys.Run(UINT64_MAX);
  killer.join();
  std::filesystem::remove_all(dir);

  EXPECT_EQ(sys.restarts(0), 1u);
  for (uint32_t app : sys.deployment().app_cores()) {
    ASSERT_EQ(seen[app].size(), 3u) << "core " << app;
    const Message& refusal = seen[app][0];
    EXPECT_EQ(refusal.type, MsgType::kLockConflict) << "core " << app;
    EXPECT_EQ(refusal.w0, 0x40u * (app + 1)) << "core " << app;
    EXPECT_EQ(refusal.w2, static_cast<uint64_t>(ConflictKind::kOverload)) << "core " << app;
    const Message& fence = seen[app][1];
    EXPECT_EQ(fence.type, MsgType::kAbortNotify) << "core " << app;
    EXPECT_EQ(fence.w1, 100u + app) << "core " << app;
    EXPECT_EQ(fence.w2, static_cast<uint64_t>(ConflictKind::kOverload)) << "core " << app;
    EXPECT_EQ(seen[app][2].type, MsgType::kLockGranted) << "core " << app;
  }
}

}  // namespace
}  // namespace tm2c
