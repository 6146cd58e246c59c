// Process-kill chaos harness: real process death under the crash oracle.
//
// The simulated crash harness (checker.cc) picks a post-hoc cut in a
// completed run; this harness kills for real. It runs a fixed, determinate
// workload on the process backend with durability on, SIGKILLs one
// partition's server halfway through app core 0's work, and lets the
// backend's death protocol play out live: the cold standby recovers the
// partition from the on-disk WAL (truncating the torn tail), in-doubt
// commit records are retransmitted, refused requests retry, and every core
// finishes its fixed work.
//
// The post-run accounting holds that recovery to the same standard as the
// simulated cuts: the crash-restart oracle (src/check/crash.h) replays the
// recorded durability events — including the restart's kTruncate — against
// the WAL images read back from disk and the live final memory, and the
// workload's fixed-work shape pins the commit count and the shared-counter
// totals exactly. A partition server that loses an acknowledged commit,
// double-applies a retransmission, or leaks a dead transaction's locks
// fails a seed of this harness.
#ifndef TM2C_SRC_CHECK_PROCESS_KILL_H_
#define TM2C_SRC_CHECK_PROCESS_KILL_H_

#include <cstdint>
#include <string>

#include "src/check/history.h"
#include "src/check/oracle.h"

namespace tm2c {

struct ProcessKillConfig {
  uint32_t num_cores = 4;
  uint32_t num_service = 2;
  // Partition whose server is SIGKILLed halfway through app core 0's ops.
  uint32_t kill_partition = 0;
  // Fixed work per app core: every op is one transaction that eventually
  // commits, so the final commit count is workload-determined.
  uint32_t ops_per_core = 400;
  uint32_t shared_words_per_partition = 4;  // commutative counters
  uint32_t private_words = 2;               // per (app core, partition)
  uint32_t group_commit_txs = 4;
  uint64_t checkpoint_every_records = 0;  // 0 = log only
  uint64_t seed = 1;
  // Fresh per-run directory for the partition sockets and WAL files.
  std::string run_dir;

  std::string Name() const;  // "kill_c8s4_p0_s3" style label for dump files
};

struct ProcessKillResult {
  OracleReport report;  // crash-restart oracle + harness-level violations
  History history;      // recorded events, for failing-seed dumps
  uint64_t commits = 0;
  uint64_t expected_commits = 0;
  uint32_t restarts = 0;           // server replacements on kill_partition
  bool truncate_seen = false;      // the restart's kTruncate was recorded
  uint64_t appends_after_truncate = 0;  // successor kept logging
  bool tables_empty = false;
};

ProcessKillResult RunProcessKillWorkload(const ProcessKillConfig& cfg);

}  // namespace tm2c

#endif  // TM2C_SRC_CHECK_PROCESS_KILL_H_
