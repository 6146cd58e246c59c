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

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/check/process_kill.h"
#include "src/common/rng.h"
#include "src/durability/wal.h"
#include "src/runtime/process_system.h"
#include "src/tm/tm_system.h"

namespace tm2c {
namespace {

// A fresh run directory under the gtest temp dir, removed with the
// partition servers' WAL files in it when the scope that made it ends.
class ScopedRunDir {
 public:
  explicit ScopedRunDir(const std::string& tag)
      : path_(::testing::TempDir() + "tm2c_" + tag + "_XXXXXX") {
    EXPECT_NE(::mkdtemp(path_.data()), nullptr);
  }
  ~ScopedRunDir() { std::filesystem::remove_all(path_); }
  ScopedRunDir(const ScopedRunDir&) = delete;
  ScopedRunDir& operator=(const ScopedRunDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

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

// Kills partition 0's server on seeds 1-5 of the harness's workload at a
// deployment of `cores` cores, `service` of them partitions.
void ExpectFiveSeedsRecover(uint32_t cores, uint32_t service) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const ScopedRunDir dir("kill_s" + std::to_string(seed));
    ProcessKillConfig cfg;
    cfg.num_cores = cores;
    cfg.num_service = service;
    cfg.seed = seed;
    cfg.run_dir = dir.path();
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

TEST(ProcessKill, KilledPartitionRecoversAcrossFiveSeeds) {
  const ProcessKillConfig defaults;
  ExpectFiveSeedsRecover(defaults.num_cores, defaults.num_service);
}

// Every app core on the one partition, as in the benchmark's kv-durable
// (two app cores) and wider: each core's ledger at the partition is
// refused, fenced and retransmitted from at the kill.
TEST(ProcessKill, OnePartitionServingTwoAppCoresRecoversAcrossFiveSeeds) {
  ExpectFiveSeedsRecover(3, 1);
}

TEST(ProcessKill, OnePartitionServingFiveAppCoresRecoversAcrossFiveSeeds) {
  ExpectFiveSeedsRecover(6, 1);
}

TEST(ProcessKill, KillingTheOtherPartitionRecoversToo) {
  // The kill target must not be special-cased: partition 1's server dies
  // under a different request mix (it is not app core 0's local target).
  const ScopedRunDir dir("kill_p1");
  ProcessKillConfig cfg;
  cfg.seed = 7;
  cfg.kill_partition = 1;
  cfg.run_dir = dir.path();
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
  const ScopedRunDir dir("kill_gc8");
  ProcessKillConfig cfg;
  cfg.seed = 11;
  cfg.group_commit_txs = 8;
  cfg.checkpoint_every_records = 32;
  cfg.run_dir = dir.path();
  const ProcessKillResult result = RunProcessKillWorkload(cfg);

  EXPECT_EQ(result.commits, result.expected_commits);
  EXPECT_TRUE(result.truncate_seen);
  for (const OracleViolation& v : result.report.violations) {
    ADD_FAILURE() << "[" << v.kind << "] " << v.detail;
  }
  DumpOnFailure(cfg, result);
}

// A fixed-work run for the kill tests below: one owned slab of counters
// per partition, and every op a transaction adding a value unique to its
// (core, op) to a random slab word. Commits and final contents are then
// interleaving-independent, so a killed run must match the sim's. With
// `kill`, app core 0 SIGKILLs partition 0's server halfway through its
// ops; with `migrate` as well, right after it asks partition 0 to move
// slab 0 to partition 1.
struct SlabRun {
  uint64_t commits = 0;
  std::vector<uint64_t> contents;  // every slab word, slab by slab
  bool tables_empty = false;
  uint64_t migrations_completed = 0;  // summed over partitions
  uint32_t slab0_partition = 0;
  DtmServiceStats partition0;
};

constexpr uint64_t kSlabBytes = 8 * kWordBytes;
constexpr uint32_t kSlabOpsPerCore = 200;

TmSystemConfig SlabConfig(BackendKind backend) {
  TmSystemConfig cfg;
  cfg.backend = backend;
  cfg.sim.platform = MakeOpteronPlatform();
  cfg.sim.num_cores = 4;
  cfg.sim.num_service = 2;
  cfg.sim.shmem_bytes = 1 << 20;
  cfg.tm.cm = CmKind::kFairCm;
  return cfg;
}

SlabRun RunSlabs(const TmSystemConfig& cfg, bool kill, bool migrate) {
  TmSystem sys(cfg);
  std::vector<uint64_t> slab(sys.deployment().num_service());
  for (uint32_t p = 0; p < slab.size(); ++p) {
    slab[p] = sys.allocator().AllocGlobal(kSlabBytes);
    sys.address_map().AddOwnedRange(slab[p], kSlabBytes, p);
    for (uint64_t off = 0; off < kSlabBytes; off += kWordBytes) {
      sys.shmem().StoreWord(slab[p] + off, 0);
    }
  }
  if (sys.durability_enabled()) {
    sys.CaptureDurableCheckpoint0();
  }
  const uint32_t killer = sys.deployment().app_cores()[0];
  sys.SetAllAppBodies([&sys, &slab, kill, migrate, killer](CoreEnv& env, TxRuntime& rt) {
    Rng rng(env.core_id() * 7919 + 1);
    for (uint32_t k = 0; k < kSlabOpsPerCore; ++k) {
      if (kill && env.core_id() == killer && k == kSlabOpsPerCore / 2) {
        if (migrate) {
          rt.RequestMigration(slab[0], kSlabBytes, 1);
        }
        sys.KillPartition(0);
      }
      const uint64_t addr = slab[rng.NextBelow(slab.size())] + rng.NextBelow(8) * kWordBytes;
      const uint64_t add = (uint64_t{env.core_id()} << 32) | (k + 1);
      rt.Execute([addr, add](Tx& tx) { tx.Write(addr, tx.Read(addr) + add); });
    }
  });
  sys.Run();
  SlabRun run;
  run.commits = sys.MergedStats().commits;
  for (uint64_t base : slab) {
    for (uint64_t off = 0; off < kSlabBytes; off += kWordBytes) {
      run.contents.push_back(sys.shmem().LoadWord(base + off));
    }
  }
  run.tables_empty = sys.AllLockTablesEmpty();
  for (uint32_t p = 0; p < slab.size(); ++p) {
    run.migrations_completed += sys.ServiceStats(p).migrations_completed;
  }
  run.slab0_partition = sys.address_map().PartitionOf(slab[0]);
  run.partition0 = sys.ServiceStats(0);
  return run;
}

TmSystemConfig DurableProcessConfig(const std::string& dir) {
  TmSystemConfig cfg = SlabConfig(BackendKind::kProcesses);
  cfg.tm.durability = DurabilityMode::kBuffered;
  cfg.run_dir = dir;
  return cfg;
}

// A partition's counters live in a shared block that its standby keeps
// counting in, so after a kill they cover both server generations: every
// record in the partition's WAL file was appended, and counted, by one of
// them. Counting only the standby's appends misses whatever the primary
// flushed before it died.
TEST(ProcessKill, RestartedPartitionCountsBothGenerations) {
  const SlabRun sim = RunSlabs(SlabConfig(BackendKind::kSim), false, false);
  const ScopedRunDir dir("kill_counters");
  const SlabRun run = RunSlabs(DurableProcessConfig(dir.path()), /*kill=*/true, /*migrate=*/false);
  const uint64_t wal_records = ReadWalFile(dir.path() + "/part0.wal").records.size();

  EXPECT_EQ(run.commits, 2u * kSlabOpsPerCore);
  EXPECT_EQ(run.contents, sim.contents);
  EXPECT_TRUE(run.tables_empty);
  EXPECT_GT(wal_records, 0u);
  EXPECT_GE(run.partition0.commit_records, wal_records);
}

// A kill right after a migration request: the drain and the flip happen
// in partition 0's server, which may die before the request reaches it,
// mid-drain, or after the flip. Whichever it is, the run finishes with the
// sim's contents, and the directory and the counters agree on the side.
TEST(ProcessKill, KillDuringAMigrationKeepsDirectoryAndCountersInStep) {
  const SlabRun sim = RunSlabs(SlabConfig(BackendKind::kSim), false, false);
  const ScopedRunDir dir("kill_migrate");
  const SlabRun run = RunSlabs(DurableProcessConfig(dir.path()), /*kill=*/true, /*migrate=*/true);

  EXPECT_EQ(run.commits, 2u * kSlabOpsPerCore);
  EXPECT_EQ(run.contents, sim.contents);
  EXPECT_TRUE(run.tables_empty);
  EXPECT_LE(run.migrations_completed, 1u);
  EXPECT_EQ(run.slab0_partition == 1, run.migrations_completed == 1);
  std::printf("kill landed %s the flip (migrations_started %llu, migrations_completed %llu)\n",
              run.migrations_completed == 1 ? "after" : "before",
              static_cast<unsigned long long>(run.partition0.migrations_started),
              static_cast<unsigned long long>(run.migrations_completed));
}

TEST(ProcessKill, KillWakesEveryAppCoreParkedOnAReply) {
  // Every app core sends a lock request the primary server never answers
  // and parks in FUTEX_WAIT on its doorbell. Killing the server must wake
  // each one with the router's kOverload refusal, then the revocation
  // fence, and the successor must serve the retry; the run then ends
  // cleanly (the router checks at the successor's exit that every request
  // got exactly one answer).
  constexpr uint32_t kCores = 3;
  const ScopedRunDir dir("parked_kill");
  ProcessSystemConfig cfg;
  cfg.platform = MakeSccPlatform(0);
  cfg.num_cores = kCores;
  cfg.num_service = 1;
  cfg.shmem_bytes = 1 << 16;
  cfg.run_dir = dir.path();
  ProcessSystem sys(cfg);
  const uint32_t service = sys.deployment().ServiceCore(0);
  const uint32_t num_app = sys.deployment().num_app();

  bool successor = false;  // set in the server process itself
  sys.SetStandbyStart([&successor](uint32_t) { successor = true; });
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

TEST(ProcessKill, BackToBackSenderCrossesTheKillWhileAnotherCoreIsParked) {
  // Two app cores share the one partition, as kv-durable's do. One parks on
  // a lock request the primary never answers. The other sends echo
  // requests back to back, a window at a time, before, across and after
  // the kill, so its sends meet the router, which holds every ledger lock
  // for the whole restart. The run must finish: a sender that held its
  // ledger lock while it waited at the gate would deadlock the router. And
  // every echo must come back exactly once and in send order: the
  // primary's replies, then the router's refusals of what the corpse left
  // unanswered, then the successor's replies (the router checks at the
  // successor's exit that nothing is left over).
  constexpr uint32_t kWindow = 8;
  constexpr uint32_t kRoundsAfterKill = 100;
  const ScopedRunDir dir("back_to_back_kill");
  ProcessSystemConfig cfg;
  cfg.platform = MakeSccPlatform(0);
  cfg.num_cores = 3;
  cfg.num_service = 1;
  cfg.shmem_bytes = 1 << 16;
  cfg.run_dir = dir.path();
  ProcessSystem sys(cfg);
  const uint32_t service = sys.deployment().ServiceCore(0);
  const uint32_t parker = sys.deployment().app_cores()[0];
  const uint32_t sender = sys.deployment().app_cores()[1];

  // Echo replies carry the server's generation plus one in w1; the
  // router's refusals carry 0.
  uint64_t generation = 0;  // set in the server process itself
  sys.SetStandbyStart([&generation](uint32_t) { generation = 1; });
  sys.SetCoreMain(service, [&generation](CoreEnv& env) {
    for (;;) {
      Message m = env.Recv();
      if (m.type == MsgType::kShutdown) {
        return;
      }
      Message rsp;
      rsp.w0 = m.w0;
      if (m.type == MsgType::kEcho) {
        rsp.type = MsgType::kEchoRsp;
        rsp.w1 = generation + 1;
      } else if (generation == 1 && m.type == MsgType::kReadLockReq) {
        rsp.type = MsgType::kLockGranted;
        rsp.w1 = m.w1;
      } else {
        continue;
      }
      env.Send(m.src, std::move(rsp));
    }
  });

  std::atomic<bool> parked{false};
  std::atomic<uint32_t> finished{0};
  const auto finish = [&] {
    if (finished.fetch_add(1) + 1 == 2) {
      sys.RequestShutdown(service);
    }
  };
  std::vector<Message> parker_seen;
  sys.SetCoreMain(parker, [&](CoreEnv& env) {
    auto request = [&] {
      Message req;
      req.type = MsgType::kReadLockReq;
      req.w0 = 0x40;
      req.w1 = 100;
      env.Send(service, std::move(req));
    };
    request();
    parked.store(true);
    parker_seen.push_back(env.Recv());  // the refusal, after the kill
    parker_seen.push_back(env.Recv());  // the fence
    request();
    parker_seen.push_back(env.Recv());  // the successor's grant
    finish();
  });

  std::atomic<uint64_t> sent{0};
  uint64_t answered = 0;
  uint64_t out_of_order = 0;
  uint64_t from[3] = {0, 0, 0};  // replies by source: refusal, primary, successor
  sys.SetCoreMain(sender, [&](CoreEnv& env) {
    uint64_t source = 0;  // a reply's source only moves forward
    uint32_t after_kill = 0;
    while (after_kill < kRoundsAfterKill) {
      if (sys.restarts(0) == 1) {
        ++after_kill;
      }
      const uint64_t first = sent.load();
      for (uint32_t i = 0; i < kWindow; ++i) {
        Message req;
        req.type = MsgType::kEcho;
        req.w0 = first + i;
        env.Send(service, std::move(req));
      }
      sent.store(first + kWindow);
      for (uint32_t i = 0; i < kWindow; ++i) {
        const Message reply = env.Recv();
        const uint64_t rank = reply.w1 == 0 ? 1 : (reply.w1 == 1 ? 0 : 2);
        if (reply.type != MsgType::kEchoRsp || reply.w0 != answered || rank < source) {
          ++out_of_order;
        }
        source = std::max(source, rank);
        ++from[reply.w1 < 3 ? reply.w1 : 0];
        ++answered;
      }
    }
    finish();
  });

  std::thread killer([&] {
    while (!parked.load() || sent.load() == 0) {
      std::this_thread::yield();
    }
    // Past the spin and yield budgets: the parked core is in FUTEX_WAIT.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    sys.KillPartition(0);
  });
  sys.Run(UINT64_MAX);
  killer.join();

  EXPECT_EQ(sys.restarts(0), 1u);
  EXPECT_EQ(answered, sent.load());
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_GT(from[1], 0u);  // the primary answered before the kill
  EXPECT_GE(from[2], uint64_t{kWindow} * (kRoundsAfterKill - 1));
  std::printf("echoes: %llu from the primary, %llu refused, %llu from the successor\n",
              static_cast<unsigned long long>(from[1]), static_cast<unsigned long long>(from[0]),
              static_cast<unsigned long long>(from[2]));
  ASSERT_EQ(parker_seen.size(), 3u);
  EXPECT_EQ(parker_seen[0].type, MsgType::kLockConflict);
  EXPECT_EQ(parker_seen[0].w2, static_cast<uint64_t>(ConflictKind::kOverload));
  EXPECT_EQ(parker_seen[1].type, MsgType::kAbortNotify);
  EXPECT_EQ(parker_seen[1].w1, 100u);
  EXPECT_EQ(parker_seen[2].type, MsgType::kLockGranted);
}

}  // namespace
}  // namespace tm2c
