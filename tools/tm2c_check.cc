// tm2c_check: schedule-exploration chaos sweep + serializability oracle.
//
// Sweeps seeds x {cm, tx_mode, max_batch, pipeline_depth, platform},
// running the recorded chaos workload for every combination and the offline
// oracle on each history. Any violation is printed, the full history is dumped as JSON
// into --dump-dir for replay, and the exit status is non-zero.
//
//   tm2c_check --seeds=20                         # the nightly gate
//   tm2c_check --seeds=8 --fault=skip-read-lock   # watch the oracle bite
//   tm2c_check --crash --seeds=10                 # crash-restart recovery sweep
//   tm2c_check --crash --fault=ack-before-log-flush --seeds=5
//                                                 # the write-ahead rule bites
//   tm2c_check --migrate --seeds=10               # live stripe-migration sweep
//   tm2c_check --migrate --fault=grant-during-migration --seeds=5
//                                                 # the migration oracle bites
//   tm2c_check --seeds=1 --seed-base=17 --cms=faircm --modes=normal
//       --batches=8 --platforms=scc               # replay one failure
//   tm2c_check --backend=processes --kill-partition --seeds=5
//                                                 # real process-death sweep:
//                                                 # SIGKILL a partition server
//                                                 # mid-run, recover from the
//                                                 # WAL, crash-restart oracle
#include <stdlib.h>
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/check/checker.h"
#include "src/check/process_kill.h"
#include "src/common/flags.h"

namespace tm2c {
namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) {
      out.push_back(csv.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

bool ParseCm(const std::string& name, CmKind* out) {
  if (name == "wholly") {
    *out = CmKind::kWholly;
  } else if (name == "faircm") {
    *out = CmKind::kFairCm;
  } else if (name == "backoff") {
    *out = CmKind::kBackoffRetry;
  } else {
    return false;
  }
  return true;
}

bool ParseMode(const std::string& name, TxMode* out) {
  if (name == "normal") {
    *out = TxMode::kNormal;
  } else if (name == "early") {
    *out = TxMode::kElasticEarly;
  } else if (name == "eread") {
    *out = TxMode::kElasticRead;
  } else {
    return false;
  }
  return true;
}

bool ParseFault(const std::string& name, FaultMode* out) {
  if (name == "none") {
    *out = FaultMode::kNone;
  } else if (name == "skip-read-lock") {
    *out = FaultMode::kSkipReadLock;
  } else if (name == "ignore-revocation") {
    *out = FaultMode::kIgnoreRevocation;
  } else if (name == "release-before-persist") {
    *out = FaultMode::kReleaseBeforePersist;
  } else if (name == "ack-before-log-flush") {
    *out = FaultMode::kAckBeforeLogFlush;
  } else if (name == "grant-during-migration") {
    *out = FaultMode::kGrantDuringMigration;
  } else if (name == "smo-skip-parent-link") {
    *out = FaultMode::kSmoSkipParentLink;
  } else if (name == "land-skip-check") {
    *out = FaultMode::kLandSkipCheck;
  } else if (name == "smo-skip-dead-mark") {
    *out = FaultMode::kSmoSkipDeadMark;
  } else {
    return false;
  }
  return true;
}

bool ParseDurability(const std::string& name, DurabilityMode* out) {
  if (name == "off") {
    *out = DurabilityMode::kOff;
  } else if (name == "buffered") {
    *out = DurabilityMode::kBuffered;
  } else if (name == "fsync") {
    *out = DurabilityMode::kFsync;
  } else {
    return false;
  }
  return true;
}

bool ParseWorkload(const std::string& name, CheckWorkload* out) {
  if (name == "bank") {
    *out = CheckWorkload::kBank;
  } else if (name == "kv") {
    *out = CheckWorkload::kKv;
  } else if (name == "index") {
    *out = CheckWorkload::kIndex;
  } else {
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  uint64_t seeds = 20;
  uint64_t seed_base = 1;
  std::string platforms = "scc,opteron";
  std::string cms = "wholly,faircm";
  std::string modes;  // "" -> per-workload default, resolved below
  std::string batches = "1,8";
  std::string pipeline_depths = "1";
  std::string fault_name = "none";
  std::string workload_name = "bank";
  std::string durability_name;  // "" -> off, or buffered when --crash is set
  uint64_t group_commit = 1;
  uint64_t checkpoint_every = 0;
  bool crash = false;
  bool migrate = false;
  int cores = 8;
  int service_cores = 4;
  int txs_per_core = 30;
  int accounts = 12;
  bool no_chaos = false;
  bool verbose = false;
  std::string dump_dir = "failed_histories";
  std::string backend_name = "sim";
  bool kill_partition = false;
  int kill_target = 0;
  int ops_per_core = 400;

  FlagSet flags;
  flags.Register("backend", &backend_name,
                 "sim (default: the chaos matrix above) or processes (real "
                 "partition-server processes; combine with --kill-partition)");
  flags.Register("kill-partition", &kill_partition,
                 "processes backend: SIGKILL one partition's server halfway "
                 "through app core 0's fixed workload and hold the WAL "
                 "recovery to the crash-restart oracle");
  flags.Register("kill-target", &kill_target,
                 "processes backend: which partition's server to kill");
  flags.Register("ops-per-core", &ops_per_core,
                 "processes backend: fixed transactions per app core");
  flags.Register("seeds", &seeds, "number of seeds per configuration");
  flags.Register("seed-base", &seed_base, "first seed of the sweep");
  flags.Register("platforms", &platforms, "comma list: scc, scc800, opteron");
  flags.Register("cms", &cms, "comma list: wholly, faircm, backoff");
  flags.Register("modes", &modes,
                 "comma list: normal, early, eread (default: all three for bank; "
                 "normal,early for kv and index — value-validated elastic reads "
                 "admit pointer ABA when recycled nodes restore old link values, "
                 "which is value-serializable by eread's contract but flagged by "
                 "the order-based oracle; pass --modes=eread explicitly to see it)");
  flags.Register("batches", &batches, "comma list of max_batch values");
  flags.Register("pipeline-depths", &pipeline_depths,
                 "comma list of pipeline_depth values (1 = lockstep; depths > 1 "
                 "overlap batched acquisitions and add a Prefetch to the scans)");
  flags.Register("fault", &fault_name,
                 "planted fault: none, skip-read-lock, ignore-revocation, "
                 "release-before-persist, ack-before-log-flush, "
                 "grant-during-migration, smo-skip-parent-link (index workload: "
                 "a leaf split skips the parent link; the tree-shape invariants, "
                 "not the oracle, must flag it), land-skip-check and "
                 "smo-skip-dead-mark (index workload: a lookup uses its landing "
                 "leaf unchecked, or an unlink leaves no dead mark; the "
                 "conservation check must flag the lost increments)");
  flags.Register("durability", &durability_name,
                 "per-partition commit logging: off, buffered, fsync "
                 "(default: off, or buffered when --crash is set)");
  flags.Register("group-commit", &group_commit,
                 "acks deferred until this many unflushed records (1 = flush per tx)");
  flags.Register("checkpoint-every", &checkpoint_every,
                 "take a partition checkpoint every N log records (0 = never)");
  flags.Register("crash", &crash,
                 "after each run, crash at a seeded event, truncate the logs to "
                 "their durable watermark, recover the store and run the "
                 "crash-restart oracle (forces --workload=kv)");
  flags.Register("migrate", &migrate,
                 "hand the partition-0 slab off to partition 1 mid-run and run "
                 "the migration oracle on the history (forces --workload=kv)");
  flags.Register("workload", &workload_name,
                 "adversarial workload: bank (hot accounts, default), kv "
                 "(KV store delete/reinsert mix) or index (the same mix on the "
                 "partitioned B+-tree via TxStoreApi, plus post-run tree-shape "
                 "invariants)");
  flags.Register("cores", &cores, "simulated cores per run");
  flags.Register("service-cores", &service_cores, "dedicated DTM service cores");
  flags.Register("txs-per-core", &txs_per_core, "transactions per app core");
  flags.Register("accounts", &accounts, "hot shared words in the workload");
  flags.Register("no-chaos", &no_chaos, "disable schedule perturbation (one FIFO schedule)");
  flags.Register("verbose", &verbose, "print every run, not just failures");
  flags.Register("dump-dir", &dump_dir, "directory for failing-history JSON dumps");
  flags.Parse(argc, argv);

  if (backend_name == "processes") {
    // Real-death sweep: no simulated chaos matrix — the schedule space is
    // the host's, the adversary is SIGKILL. One run per seed.
    if (!kill_partition) {
      std::fprintf(stderr, "--backend=processes requires --kill-partition\n");
      return 2;
    }
    if (kill_target < 0 || kill_target >= service_cores) {
      std::fprintf(stderr, "--kill-target must be in [0, --service-cores)\n");
      return 2;
    }
    uint64_t runs = 0;
    uint64_t failures = 0;
    bool dump_dir_made = false;
    for (uint64_t s = 0; s < seeds; ++s) {
      ProcessKillConfig cfg;
      cfg.seed = seed_base + s;
      cfg.num_cores = static_cast<uint32_t>(cores);
      cfg.num_service = static_cast<uint32_t>(service_cores);
      cfg.kill_partition = static_cast<uint32_t>(kill_target);
      cfg.ops_per_core = static_cast<uint32_t>(ops_per_core);
      cfg.group_commit_txs = static_cast<uint32_t>(group_commit);
      cfg.checkpoint_every_records = checkpoint_every;
      std::string run_dir = "/tmp/tm2c_check_kill_XXXXXX";
      if (::mkdtemp(run_dir.data()) == nullptr) {
        std::fprintf(stderr, "could not create a run directory under /tmp\n");
        return 2;
      }
      cfg.run_dir = run_dir;

      const ProcessKillResult result = RunProcessKillWorkload(cfg);
      ++runs;
      const bool ok = result.report.violations.empty();
      if (verbose || !ok) {
        std::printf("%-48s %s\n", cfg.Name().c_str(), ok ? "ok" : "VIOLATION");
      }
      if (ok) {
        std::filesystem::remove_all(run_dir);  // its WAL files showed nothing
      } else {
        ++failures;
        for (const OracleViolation& v : result.report.violations) {
          std::printf("  [%s] %s\n", v.kind.c_str(), v.detail.c_str());
        }
        if (!dump_dir_made) {
          ::mkdir(dump_dir.c_str(), 0755);  // best effort; may exist
          dump_dir_made = true;
        }
        const std::string path = dump_dir + "/" + cfg.Name() + ".json";
        std::ofstream out(path);
        if (out) {
          out << result.history.ToJson() << "\n";
          std::printf("  history dumped to %s\n", path.c_str());
        } else {
          std::fprintf(stderr, "  could not write %s\n", path.c_str());
        }
        std::printf("  WAL files kept in %s\n", run_dir.c_str());
      }
    }
    std::printf("tm2c_check: %llu process-kill runs, %llu with violations (partition %d)\n",
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(failures), kill_target);
    return failures == 0 ? 0 : 1;
  }
  if (backend_name != "sim") {
    std::fprintf(stderr, "unknown --backend value (expected sim|processes): %s\n",
                 backend_name.c_str());
    return 2;
  }

  FaultMode fault = FaultMode::kNone;
  if (!ParseFault(fault_name, &fault)) {
    std::fprintf(stderr, "unknown --fault value: %s\n", fault_name.c_str());
    return 2;
  }
  CheckWorkload workload = CheckWorkload::kBank;
  if (!ParseWorkload(workload_name, &workload)) {
    std::fprintf(stderr, "unknown --workload value: %s\n", workload_name.c_str());
    return 2;
  }
  if (crash || migrate) {
    workload = CheckWorkload::kKv;  // recovery and migration need the owned-range store
  }
  if (migrate && service_cores < 2) {
    std::fprintf(stderr, "--migrate needs --service-cores >= 2\n");
    return 2;
  }
  if (durability_name.empty()) {
    durability_name = crash ? "buffered" : "off";
  }
  DurabilityMode durability = DurabilityMode::kOff;
  if (!ParseDurability(durability_name, &durability)) {
    std::fprintf(stderr, "unknown --durability value: %s\n", durability_name.c_str());
    return 2;
  }
  if (crash && durability == DurabilityMode::kOff) {
    std::fprintf(stderr, "--crash needs --durability=buffered or fsync\n");
    return 2;
  }
  if (modes.empty()) {
    // The store workloads skip eread by default: value-validated elastic
    // reads admit pointer ABA on recycled structure words (see --modes).
    modes = workload == CheckWorkload::kBank ? "normal,early,eread" : "normal,early";
  }

  uint64_t runs = 0;
  uint64_t failures = 0;
  bool dump_dir_made = false;
  for (const std::string& platform : SplitCsv(platforms)) {
    for (const std::string& cm_name : SplitCsv(cms)) {
      CmKind cm;
      if (!ParseCm(cm_name, &cm)) {
        std::fprintf(stderr, "unknown --cms entry: %s\n", cm_name.c_str());
        return 2;
      }
      for (const std::string& mode_name : SplitCsv(modes)) {
        TxMode mode;
        if (!ParseMode(mode_name, &mode)) {
          std::fprintf(stderr, "unknown --modes entry: %s\n", mode_name.c_str());
          return 2;
        }
        for (const std::string& batch : SplitCsv(batches)) {
          uint64_t max_batch = 0;
          for (char c : batch) {
            if (c < '0' || c > '9') {
              max_batch = 0;
              break;
            }
            max_batch = max_batch * 10 + static_cast<uint64_t>(c - '0');
          }
          if (max_batch < 1 || max_batch > kMaxBatchEntries) {
            std::fprintf(stderr, "bad --batches entry (want 1..%u): %s\n", kMaxBatchEntries,
                         batch.c_str());
            return 2;
          }
          for (const std::string& depth_str : SplitCsv(pipeline_depths)) {
            uint64_t depth = 0;
            for (char c : depth_str) {
              if (c < '0' || c > '9') {
                depth = 0;
                break;
              }
              depth = depth * 10 + static_cast<uint64_t>(c - '0');
            }
            if (depth < 1 || depth > 64) {
              std::fprintf(stderr, "bad --pipeline-depths entry (want 1..64): %s\n",
                           depth_str.c_str());
              return 2;
            }
            for (uint64_t s = 0; s < seeds; ++s) {
              CheckRunConfig cfg;
              cfg.platform = platform;
              cfg.num_cores = static_cast<uint32_t>(cores);
              cfg.num_service = static_cast<uint32_t>(service_cores);
              cfg.cm = cm;
              cfg.tx_mode = mode;
              cfg.max_batch = static_cast<uint32_t>(max_batch);
              cfg.pipeline_depth = static_cast<uint32_t>(depth);
              cfg.fault = fault;
              cfg.workload = workload;
              cfg.seed = seed_base + s;
              cfg.chaos = !no_chaos;
              cfg.txs_per_core = static_cast<uint32_t>(txs_per_core);
              cfg.accounts = static_cast<uint32_t>(accounts);
              cfg.durability = durability;
              cfg.group_commit_txs = static_cast<uint32_t>(group_commit);
              cfg.checkpoint_every_records = checkpoint_every;
              cfg.crash = crash;
              cfg.migrate = migrate;

              const CheckRunResult result = RunCheckedWorkload(cfg);
              ++runs;
              if (verbose || !result.report.ok()) {
                std::printf("%-48s %s\n", cfg.Name().c_str(),
                            result.report.ok() ? "ok" : "VIOLATION");
              }
              if (!result.report.ok()) {
                ++failures;
                std::printf("  %s\n", result.report.Summary().c_str());
                if (!dump_dir_made) {
                  ::mkdir(dump_dir.c_str(), 0755);  // best effort; may exist
                  dump_dir_made = true;
                }
                const std::string path = dump_dir + "/" + cfg.Name() + ".json";
                std::ofstream out(path);
                if (out) {
                  out << result.history.ToJson() << "\n";
                  std::printf("  history dumped to %s\n", path.c_str());
                } else {
                  std::fprintf(stderr, "  could not write %s\n", path.c_str());
                }
              }
            }
          }
        }
      }
    }
  }

  std::printf("tm2c_check: %llu runs, %llu with violations (workload=%s, fault=%s)\n",
              static_cast<unsigned long long>(runs), static_cast<unsigned long long>(failures),
              CheckWorkloadName(workload), FaultModeName(fault));
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tm2c

int main(int argc, char** argv) { return tm2c::Main(argc, argv); }
