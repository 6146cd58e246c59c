#include "src/check/process_kill.h"

#include <vector>

#include "src/check/crash.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/durability/wal.h"
#include "src/noc/platform.h"
#include "src/tm/tm_system.h"

namespace tm2c {

std::string ProcessKillConfig::Name() const {
  return "kill_c" + std::to_string(num_cores) + "s" + std::to_string(num_service) + "_p" +
         std::to_string(kill_partition) + "_s" + std::to_string(seed);
}

ProcessKillResult RunProcessKillWorkload(const ProcessKillConfig& cfg) {
  TM2C_CHECK_MSG(!cfg.run_dir.empty(), "process-kill harness needs a run directory");
  TM2C_CHECK(cfg.kill_partition < cfg.num_service);

  TmSystemConfig sys_cfg;
  sys_cfg.backend = BackendKind::kProcesses;
  sys_cfg.run_dir = cfg.run_dir;
  sys_cfg.sim.platform = MakeOpteronPlatform();
  sys_cfg.sim.num_cores = cfg.num_cores;
  sys_cfg.sim.num_service = cfg.num_service;
  sys_cfg.sim.shmem_bytes = 1 << 20;
  sys_cfg.tm.cm = CmKind::kFairCm;
  sys_cfg.tm.durability = DurabilityMode::kBuffered;
  sys_cfg.tm.group_commit_txs = cfg.group_commit_txs;
  sys_cfg.tm.checkpoint_every_records = cfg.checkpoint_every_records;
  TmSystem sys(sys_cfg);

  const uint32_t num_app = sys.num_app_cores();
  const uint64_t words_per_slab =
      cfg.shared_words_per_partition + uint64_t{num_app} * cfg.private_words;

  // One registered slab per partition: the shared commutative counters
  // first, then each app core's private words. Registration pins both the
  // lock routing and the durable home, so every write in the run lands in
  // exactly one partition's WAL.
  std::vector<uint64_t> slab(cfg.num_service);
  for (uint32_t p = 0; p < cfg.num_service; ++p) {
    slab[p] = sys.allocator().AllocGlobal(words_per_slab * kWordBytes);
    sys.address_map().AddOwnedRange(slab[p], words_per_slab * kWordBytes, p);
    for (uint64_t w = 0; w < words_per_slab; ++w) {
      sys.shmem().StoreWord(slab[p] + w * kWordBytes, 0);
    }
  }

  ProcessKillResult result;
  sys.AttachTrace(&result.history);
  for (uint32_t p = 0; p < cfg.num_service; ++p) {
    for (uint64_t w = 0; w < words_per_slab; ++w) {
      result.history.RecordInitial(slab[p] + w * kWordBytes, 0);
    }
  }
  sys.CaptureDurableCheckpoint0();

  std::vector<uint64_t> increments(num_app, 0);
  sys.SetAllAppBodies([&sys, &cfg, &slab, &increments, num_app](CoreEnv& env, TxRuntime& rt) {
    uint32_t app_index = 0;
    for (uint32_t i = 0; i < num_app; ++i) {
      if (sys.deployment().app_cores()[i] == env.core_id()) {
        app_index = i;
      }
    }
    Rng rng(cfg.seed * 1299721 + env.core_id() * 7919 + 1);
    for (uint32_t k = 0; k < cfg.ops_per_core; ++k) {
      if (app_index == 0 && k == cfg.ops_per_core / 2) {
        sys.KillPartition(cfg.kill_partition);
      }
      const uint32_t p = static_cast<uint32_t>(rng.NextBelow(cfg.num_service));
      if (rng.NextBelow(10) < 6) {
        // Commutative shared increment: any interleaving sums the same.
        const uint64_t addr =
            slab[p] + rng.NextBelow(cfg.shared_words_per_partition) * kWordBytes;
        rt.Execute([addr](Tx& tx) { tx.Write(addr, tx.Read(addr) + 1); });
        ++increments[app_index];
      } else {
        // Private-word churn: only this core writes the word, with a tag
        // unique across the run so a double-applied retransmission or a
        // lost acked write shows up as a concrete value mismatch.
        const uint64_t w = cfg.shared_words_per_partition +
                           uint64_t{app_index} * cfg.private_words +
                           rng.NextBelow(cfg.private_words);
        const uint64_t addr = slab[p] + w * kWordBytes;
        const uint64_t tag = (uint64_t{env.core_id()} << 40) | (uint64_t{k} << 8) | p | 1;
        rt.Execute([addr, tag](Tx& tx) { tx.Write(addr, tx.Read(addr) + tag); });
      }
    }
  });

  sys.Run();

  result.commits = sys.MergedStats().commits;
  result.expected_commits = uint64_t{num_app} * cfg.ops_per_core;
  result.restarts = sys.process().restarts(cfg.kill_partition);
  result.tables_empty = sys.AllLockTablesEmpty();
  if (result.commits != result.expected_commits) {
    result.report.violations.push_back(OracleViolation{
        "fixed-work", "run committed " + std::to_string(result.commits) + " transactions, the "
                          "fixed workload demands exactly " +
                          std::to_string(result.expected_commits)});
  }
  if (!result.tables_empty) {
    result.report.violations.push_back(OracleViolation{
        "leaked-locks", "a partition's lock table is non-empty after all app bodies finished"});
  }
  if (result.restarts != 1) {
    result.report.violations.push_back(OracleViolation{
        "restart", "partition " + std::to_string(cfg.kill_partition) + " was replaced " +
                       std::to_string(result.restarts) + " times, expected exactly 1"});
  }

  // The restart's truncate event, and whether the successor kept logging
  // after it (a vacuity guard: the kill must land mid-workload, not after
  // the killed partition's traffic already ended).
  uint64_t truncate_seq = 0;
  for (const History::DurabilityEvent& ev : result.history.durability_events()) {
    if (ev.kind == History::DurabilityEvent::Kind::kTruncate &&
        ev.partition == cfg.kill_partition) {
      result.truncate_seen = true;
      truncate_seq = ev.seq;
    }
  }
  if (result.truncate_seen) {
    for (const History::DurabilityEvent& ev : result.history.durability_events()) {
      if (ev.kind == History::DurabilityEvent::Kind::kAppend &&
          ev.partition == cfg.kill_partition && ev.seq > truncate_seq) {
        ++result.appends_after_truncate;
      }
    }
  } else {
    result.report.violations.push_back(OracleViolation{
        "restart", "no kTruncate recorded for the killed partition: the standby never "
                   "recovered the WAL"});
  }

  // Crash-restart oracle over the whole run: the durable watermark at the
  // final event must cover exactly the records the on-disk WAL images
  // replay, and live memory must equal initial-image + durable replay.
  const CrashCutReport cut =
      AnalyzeCrashCut(result.history, result.history.num_events(), cfg.num_service);
  std::vector<std::vector<CommitRecord>> durable_log(cfg.num_service);
  for (uint32_t p = 0; p < cfg.num_service; ++p) {
    durable_log[p] =
        DurableLogFromWal(ReadWalFile(cfg.run_dir + "/part" + std::to_string(p) + ".wal"), p,
                          "on-disk WAL fails to parse", &result.report);
  }
  CheckCrashRestartHistory(
      result.history, cut, durable_log,
      [&sys](uint64_t addr) { return sys.shmem().LoadWord(addr); },
      [&sys](uint64_t addr) { return sys.address_map().PartitionOf(addr); },
      &result.report);

  // Fixed-work conservation, independent of the history: the shared
  // counters must sum to exactly the increments the cores performed.
  uint64_t expected_sum = 0;
  for (uint32_t i = 0; i < num_app; ++i) {
    expected_sum += increments[i];
  }
  uint64_t actual_sum = 0;
  for (uint32_t p = 0; p < cfg.num_service; ++p) {
    for (uint32_t w = 0; w < cfg.shared_words_per_partition; ++w) {
      actual_sum += sys.shmem().LoadWord(slab[p] + w * kWordBytes);
    }
  }
  if (actual_sum != expected_sum) {
    result.report.violations.push_back(OracleViolation{
        "conservation", "shared counters sum to " + std::to_string(actual_sum) + ", expected " +
                            std::to_string(expected_sum) + " (lost or duplicated updates)"});
  }

  return result;
}

}  // namespace tm2c
