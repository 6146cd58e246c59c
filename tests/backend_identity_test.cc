// Backend identity: the same TmSystem workload, run on the simulator, on
// real threads, AND on the multi-process backend (partition servers as
// forked processes over shared-memory rings), must commit exactly the same
// transactions and leave identical shared-memory state.
// This is the contract that makes native bench rows comparable to
// simulated ones — the backend changes the clock and the transport, never
// the protocol outcome of a fixed-work workload.
//
// Uses the simulator (fibers) as well as threads and fork, so it is
// deliberately NOT part of the TSan-labelled suites.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/apps/kvstore.h"
#include "src/apps/ordered_index.h"
#include "src/check/history.h"
#include "src/check/oracle.h"
#include "src/common/rng.h"
#include "src/tm/tm_system.h"

namespace tm2c {
namespace {

struct RunResult {
  uint64_t commits = 0;
  uint64_t counter_sum = 0;
  bool tables_empty = false;
  uint64_t batch_messages = 0;
  // With `privatize`: the counter sum each app core read, indexed by app.
  std::vector<uint64_t> private_sums;
};

// Fixed work per app core: every core performs kIncsPerCore transactional
// increments spread over kAccounts shared words. Commit count is workload-
// determined (every increment eventually commits), so it must match across
// backends exactly; the final memory state likewise. With `privatize`,
// each increment first prefetches its word (Tx::Prefetch), and each core
// then meets the others at a PrivatizationBarrier and reads the counters
// without a transaction.
RunResult RunCounterWorkload(TmSystemConfig cfg, bool privatize = false) {
  constexpr uint32_t kAccounts = 16;
  constexpr int kIncsPerCore = 200;
  TmSystem sys(cfg);
  const uint64_t base = sys.allocator().AllocGlobal(kAccounts * kWordBytes);
  for (uint32_t a = 0; a < kAccounts; ++a) {
    sys.shmem().StoreWord(base + a * kWordBytes, 0);
  }
  RunResult result;
  result.private_sums.assign(privatize ? sys.num_app_cores() : 0, 0);
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [base, privatize, i, &result](CoreEnv& env, TxRuntime& rt) {
      Rng rng(env.core_id() * 97 + 13);
      for (int k = 0; k < kIncsPerCore; ++k) {
        const uint64_t addr = base + rng.NextBelow(kAccounts) * kWordBytes;
        rt.Execute([addr, privatize](Tx& tx) {
          if (privatize) {
            tx.Prefetch({addr});
          }
          tx.Write(addr, tx.Read(addr) + 1);
        });
      }
      if (privatize) {
        rt.PrivatizationBarrier();
        for (uint32_t a = 0; a < kAccounts; ++a) {
          result.private_sums[i] += env.ShmemRead(base + a * kWordBytes);
        }
      }
    });
  }
  if (sys.durability_enabled()) {
    sys.CaptureDurableCheckpoint0();
  }
  sys.Run();
  result.commits = sys.MergedStats().commits;
  result.batch_messages = sys.MergedStats().batch_messages;
  for (uint32_t a = 0; a < kAccounts; ++a) {
    result.counter_sum += sys.shmem().LoadWord(base + a * kWordBytes);
  }
  result.tables_empty = sys.AllLockTablesEmpty();
  return result;
}

TmSystemConfig BaseConfig() {
  TmSystemConfig cfg;
  cfg.sim.platform = MakeOpteronPlatform();
  cfg.sim.num_cores = 4;
  cfg.sim.num_service = 2;
  cfg.sim.shmem_bytes = 1 << 20;
  cfg.tm.cm = CmKind::kFairCm;
  return cfg;
}

// The partition servers talk over shared-memory rings and anonymous socket
// pairs; a run directory holds only WAL files, and these runs keep none.
TmSystemConfig ProcessConfig() {
  TmSystemConfig cfg = BaseConfig();
  cfg.backend = BackendKind::kProcesses;
  return cfg;
}

TEST(BackendIdentity, SimAndThreadsCommitTheSameWorkload) {
  TmSystemConfig sim_cfg = BaseConfig();
  sim_cfg.backend = BackendKind::kSim;
  const RunResult sim = RunCounterWorkload(sim_cfg);

  const uint64_t expected_commits = 2ull * 200;  // 2 app cores x 200 incs
  EXPECT_EQ(sim.commits, expected_commits);
  EXPECT_EQ(sim.counter_sum, expected_commits);
  EXPECT_TRUE(sim.tables_empty);

  TmSystemConfig thr_cfg = BaseConfig();
  thr_cfg.backend = BackendKind::kThreads;
  const RunResult thr = RunCounterWorkload(thr_cfg);
  EXPECT_EQ(thr.commits, sim.commits);
  EXPECT_EQ(thr.counter_sum, sim.counter_sum);

  // Third side of the triangle: partition servers as forked processes.
  const RunResult proc = RunCounterWorkload(ProcessConfig());
  EXPECT_EQ(proc.commits, sim.commits);
  EXPECT_EQ(proc.counter_sum, sim.counter_sum);
  EXPECT_TRUE(proc.tables_empty);
}

// KV-store identity: the same fixed KV workload must leave byte-identical
// store contents on the simulator and on real threads. The workload is
// deterministic by construction — each core owns a private key range for
// its put/delete churn, and the shared keys receive only commutative
// read-modify-write increments — so the final contents do not depend on
// the interleaving, only on the protocol executing every operation exactly
// once. Every run is traced: the history holds each backend's grant and
// migration events, the partition servers' included.
struct KvRunResult {
  uint64_t commits = 0;
  uint64_t migrations_completed = 0;
  uint32_t slab0_partition = 0;
  std::map<uint64_t, std::vector<uint64_t>> contents;
  History history;
};

KvRunResult RunKvWorkload(TmSystemConfig cfg, bool migrate = false, uint64_t seed = 0) {
  constexpr uint64_t kSharedKeys = 8;
  constexpr uint64_t kPrivateKeys = 8;  // per core, above the shared range
  constexpr int kOpsPerCore = 120;
  TmSystem sys(cfg);
  KvStoreConfig kv_cfg;
  kv_cfg.buckets_per_partition = 4;
  kv_cfg.value_words = 2;
  kv_cfg.capacity_per_partition = 128;
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), kv_cfg);
  for (uint64_t key = 1; key <= kSharedKeys; ++key) {
    const uint64_t value[2] = {0, key};
    store.HostPut(key, value);
  }
  // Mid-run live handoff (when asked): the first app core moves the
  // partition-0 slab's lock ownership to partition 1 halfway through its
  // workload, while every core keeps operating on the store.
  const std::pair<uint64_t, uint64_t> slab0 = store.SlabRange(0);
  const uint32_t migrating_core = sys.deployment().app_cores()[0];
  KvRunResult result;
  sys.AttachTrace(&result.history);
  sys.SetAllAppBodies([&store, slab0, migrate, migrating_core, seed](CoreEnv& env,
                                                                     TxRuntime& rt) {
    const uint64_t private_base = kSharedKeys + 1 + env.core_id() * kPrivateKeys;
    Rng rng(seed * 7919 + env.core_id() * 131 + 7);
    for (int k = 0; k < kOpsPerCore; ++k) {
      if (migrate && env.core_id() == migrating_core && k == kOpsPerCore / 2) {
        rt.RequestMigration(slab0.first, slab0.second, 1);
      }
      const uint64_t pick = rng.NextBelow(10);
      if (pick < 4) {
        const uint64_t key = 1 + rng.NextBelow(kSharedKeys);
        store.ReadModifyWrite(rt, key, [](uint64_t* v) { v[0] += 1; });
      } else if (pick < 7) {
        const uint64_t key = private_base + rng.NextBelow(kPrivateKeys);
        const uint64_t value[2] = {key * 3, key * 5};
        store.Put(rt, key, value);
      } else if (pick < 9) {
        store.Delete(rt, private_base + rng.NextBelow(kPrivateKeys));
      } else {
        store.Get(rt, 1 + rng.NextBelow(kSharedKeys), nullptr);
      }
    }
  });
  sys.Run();
  result.commits = sys.MergedStats().commits;
  for (uint32_t p = 0; p < sys.deployment().num_service(); ++p) {
    result.migrations_completed += sys.ServiceStats(p).migrations_completed;
  }
  result.slab0_partition = sys.address_map().PartitionOf(slab0.first);
  store.HostForEach([&result, &kv_cfg](uint64_t key, const uint64_t* value) {
    result.contents[key] = std::vector<uint64_t>(value, value + kv_cfg.value_words);
  });
  return result;
}

// A traced handoff: one drain begun and one completed, grants from both
// partitions' service cores, and none that the migration oracle rejects.
void ExpectOneCleanHandoff(const History& history) {
  uint32_t begins = 0;
  uint32_t completes = 0;
  for (const History::MigrationEvent& m : history.migrations()) {
    ++(m.kind == History::MigrationEvent::Kind::kBegin ? begins : completes);
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(completes, 1u);
  std::set<uint32_t> granting;
  for (const History::GrantEvent& g : history.grants()) {
    granting.insert(g.service_core);
  }
  EXPECT_EQ(granting.size(), 2u);
  OracleReport report;
  CheckMigrationHistory(history, &report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(BackendIdentity, KvStoreCommitsIdenticalFinalContents) {
  TmSystemConfig sim_cfg = BaseConfig();
  sim_cfg.backend = BackendKind::kSim;
  const KvRunResult sim = RunKvWorkload(sim_cfg);

  // 2 app cores x 120 ops, one committed transaction per op.
  EXPECT_EQ(sim.commits, 2ull * 120);
  EXPECT_FALSE(sim.contents.empty());

  TmSystemConfig thr_cfg = BaseConfig();
  thr_cfg.backend = BackendKind::kThreads;
  const KvRunResult thr = RunKvWorkload(thr_cfg);
  EXPECT_EQ(thr.commits, sim.commits);
  EXPECT_EQ(thr.contents, sim.contents);

  const KvRunResult proc = RunKvWorkload(ProcessConfig());
  EXPECT_EQ(proc.commits, sim.commits);
  EXPECT_EQ(proc.contents, sim.contents);
}

TEST(BackendIdentity, KvStoreContentsIdenticalAcrossMidRunMigration) {
  // Same contract as above, now with a live ownership handoff in the
  // middle of the run: the drain, the directory flip and the kMigrating
  // retries must not change any protocol outcome — contents and commit
  // counts stay byte-identical across all three backends.
  TmSystemConfig sim_cfg = BaseConfig();
  sim_cfg.backend = BackendKind::kSim;
  const KvRunResult sim = RunKvWorkload(sim_cfg, /*migrate=*/true);

  EXPECT_EQ(sim.commits, 2ull * 120);
  EXPECT_FALSE(sim.contents.empty());
  // On the simulator the workload comfortably outlives the drain: the
  // handoff must have completed and flipped the slab to partition 1.
  EXPECT_EQ(sim.migrations_completed, 1u);
  EXPECT_EQ(sim.slab0_partition, 1u);
  ExpectOneCleanHandoff(sim.history);

  TmSystemConfig thr_cfg = BaseConfig();
  thr_cfg.backend = BackendKind::kThreads;
  const KvRunResult thr = RunKvWorkload(thr_cfg, /*migrate=*/true);
  EXPECT_EQ(thr.commits, sim.commits);
  EXPECT_EQ(thr.contents, sim.contents);
  // Wall-clock timing decides how fast the drain closes on threads, but
  // a requested handoff of a quiescing slab must still complete by the
  // end of a fixed-work run.
  EXPECT_EQ(thr.migrations_completed, 1u);
  EXPECT_EQ(thr.slab0_partition, 1u);
  ExpectOneCleanHandoff(thr.history);

  // Processes: partition 0's server flips the directory in the shared
  // mapping the host runtimes route by, and its counters and events reach
  // the host through the same kind of mapping.
  const KvRunResult proc = RunKvWorkload(ProcessConfig(), /*migrate=*/true);
  EXPECT_EQ(proc.commits, sim.commits);
  EXPECT_EQ(proc.contents, sim.contents);
  EXPECT_EQ(proc.migrations_completed, 1u);
  EXPECT_EQ(proc.slab0_partition, 1u);
  ExpectOneCleanHandoff(proc.history);
}

// The planted fault: partition 0's service opens the drain window and keeps
// granting in it, and the migration oracle flags every seed.
void ExpectGrantDuringMigrationFlagged(TmSystemConfig cfg) {
  cfg.tm.fault = FaultMode::kGrantDuringMigration;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const KvRunResult run = RunKvWorkload(cfg, /*migrate=*/true, seed);
    EXPECT_EQ(run.migrations_completed, 0u) << "seed " << seed;
    OracleReport report;
    CheckMigrationHistory(run.history, &report);
    bool flagged = false;
    for (const OracleViolation& v : report.violations) {
      flagged = flagged || v.kind == "grant-during-migration";
    }
    EXPECT_TRUE(flagged) << "seed " << seed << ": " << report.Summary();
  }
}

// The server's grant and migration events reach the host from the forked
// process.
TEST(BackendIdentity, GrantDuringMigrationIsFlaggedOnProcesses) {
  ExpectGrantDuringMigrationFlagged(ProcessConfig());
}

TEST(BackendIdentity, GrantDuringMigrationIsFlaggedOnThreads) {
  TmSystemConfig cfg = BaseConfig();
  cfg.backend = BackendKind::kThreads;
  ExpectGrantDuringMigrationFlagged(cfg);
}

// AllLockTablesEmpty is the end-of-run leak check, so it must be able to
// say no. With `leak`, the first app core takes a read lock by a raw
// request to the word's service core and returns without releasing it;
// every app core also commits a few increments of another word.
bool LockTablesEmptyAfter(TmSystemConfig cfg, bool leak) {
  TmSystem sys(cfg);
  const uint64_t leaked = sys.allocator().AllocGlobal(kWordBytes);
  const uint64_t counter = sys.allocator().AllocGlobal(kWordBytes);
  sys.shmem().StoreWord(counter, 0);
  const AddressMap& map = sys.address_map();
  const uint32_t leaker = sys.deployment().app_cores()[0];
  sys.SetAllAppBodies([&map, leaked, counter, leak, leaker](CoreEnv& env, TxRuntime& rt) {
    for (int k = 0; k < 10; ++k) {
      rt.Execute([counter](Tx& tx) { tx.Write(counter, tx.Read(counter) + 1); });
    }
    if (leak && env.core_id() == leaker) {
      Message req;
      req.type = MsgType::kReadLockReq;
      req.w0 = map.StripeOf(leaked);
      req.w1 = ~uint64_t{0};  // no runtime attempt has this epoch
      env.Send(map.ResponsibleCore(leaked), std::move(req));
      Message reply;
      do {
        reply = env.Recv();
      } while (reply.type == MsgType::kAbortNotify);  // stale, from the increments
      EXPECT_EQ(reply.type, MsgType::kLockGranted);
    }
  });
  sys.Run();
  EXPECT_EQ(sys.shmem().LoadWord(counter), 10u * sys.num_app_cores());
  return sys.AllLockTablesEmpty();
}

TEST(BackendIdentity, LeakedLockIsSeenOnEveryBackend) {
  TmSystemConfig sim_cfg = BaseConfig();
  TmSystemConfig thr_cfg = BaseConfig();
  thr_cfg.backend = BackendKind::kThreads;
  EXPECT_TRUE(LockTablesEmptyAfter(sim_cfg, /*leak=*/false));
  EXPECT_FALSE(LockTablesEmptyAfter(sim_cfg, /*leak=*/true));
  EXPECT_TRUE(LockTablesEmptyAfter(thr_cfg, /*leak=*/false));
  EXPECT_FALSE(LockTablesEmptyAfter(thr_cfg, /*leak=*/true));
  EXPECT_TRUE(LockTablesEmptyAfter(ProcessConfig(), /*leak=*/false));
  EXPECT_FALSE(LockTablesEmptyAfter(ProcessConfig(), /*leak=*/true));
}

// Ordered-index identity: the same fixed B+-tree workload — inserts,
// updates, deletes and commutative shared RMW through the range-partitioned
// index — must leave identical key/value contents on all three backends.
// The tree SHAPE may differ run to run (splits and merges depend on the
// interleaving); the CONTENTS may not, and every backend's tree must pass
// the structural invariants.
struct IndexRunResult {
  uint64_t commits = 0;
  std::map<uint64_t, std::vector<uint64_t>> contents;
  std::vector<std::string> structure_problems;
  bool tables_empty = false;
};

IndexRunResult RunIndexWorkload(TmSystemConfig cfg) {
  constexpr uint64_t kSharedKeys = 8;
  constexpr uint64_t kPrivateKeys = 12;  // per core, above the shared range
  constexpr int kOpsPerCore = 150;
  TmSystem sys(cfg);
  OrderedIndexConfig ix_cfg;
  ix_cfg.key_min = 1;
  ix_cfg.key_max = 256;
  ix_cfg.value_words = 2;
  ix_cfg.fanout = 4;  // small fanout: splits and merges happen for real
  ix_cfg.capacity_per_partition = 256;
  OrderedIndex index(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), ix_cfg);
  for (uint64_t key = 1; key <= kSharedKeys; ++key) {
    const uint64_t value[2] = {0, key};
    index.HostPut(key, value);
  }
  sys.SetAllAppBodies([&index](CoreEnv& env, TxRuntime& rt) {
    const uint64_t private_base = kSharedKeys + 1 + env.core_id() * kPrivateKeys;
    Rng rng(env.core_id() * 211 + 3);
    for (int k = 0; k < kOpsPerCore; ++k) {
      const uint64_t pick = rng.NextBelow(10);
      if (pick < 3) {
        const uint64_t key = 1 + rng.NextBelow(kSharedKeys);
        index.ReadModifyWrite(rt, key, [](uint64_t* v) { v[0] += 1; });
      } else if (pick < 6) {
        const uint64_t key = private_base + rng.NextBelow(kPrivateKeys);
        const uint64_t value[2] = {key * 3, key * 7};
        index.Put(rt, key, value);
      } else if (pick < 8) {
        index.Delete(rt, private_base + rng.NextBelow(kPrivateKeys));
      } else {
        index.Scan(rt, 1 + rng.NextBelow(kSharedKeys), 4);
      }
    }
  });
  sys.Run();
  IndexRunResult result;
  result.commits = sys.MergedStats().commits;
  result.tables_empty = sys.AllLockTablesEmpty();
  index.HostForEach([&result, &ix_cfg](uint64_t key, const uint64_t* value) {
    result.contents[key] = std::vector<uint64_t>(value, value + ix_cfg.value_words);
  });
  index.HostCheckStructure(&result.structure_problems);
  return result;
}

TEST(BackendIdentity, OrderedIndexIdenticalContentsAcrossAllThreeBackends) {
  TmSystemConfig sim_cfg = BaseConfig();
  sim_cfg.backend = BackendKind::kSim;
  const IndexRunResult sim = RunIndexWorkload(sim_cfg);

  // 2 app cores x 150 ops, one committed transaction per op.
  EXPECT_EQ(sim.commits, 2ull * 150);
  EXPECT_FALSE(sim.contents.empty());
  EXPECT_TRUE(sim.tables_empty);
  EXPECT_TRUE(sim.structure_problems.empty());

  TmSystemConfig thr_cfg = BaseConfig();
  thr_cfg.backend = BackendKind::kThreads;
  const IndexRunResult thr = RunIndexWorkload(thr_cfg);
  EXPECT_EQ(thr.commits, sim.commits);
  EXPECT_EQ(thr.contents, sim.contents);
  EXPECT_TRUE(thr.structure_problems.empty());

  const IndexRunResult proc = RunIndexWorkload(ProcessConfig());
  EXPECT_EQ(proc.commits, sim.commits);
  EXPECT_EQ(proc.contents, sim.contents);
  EXPECT_TRUE(proc.tables_empty);
  EXPECT_TRUE(proc.structure_problems.empty());
}

// Tx::Prefetch's pipelined batches and the Section 8 privatization
// barrier, which app cores reach by messaging each other, on every
// backend: past the barrier, each core reads every core's increments.
TEST(BackendIdentity, PrefetchAndPrivatizationBarrierRunOnEveryBackend) {
  for (const BackendKind backend :
       {BackendKind::kSim, BackendKind::kThreads, BackendKind::kProcesses}) {
    TmSystemConfig cfg = BaseConfig();
    cfg.backend = backend;
    cfg.tm.max_batch = 8;
    cfg.tm.pipeline_depth = 4;
    const RunResult run = RunCounterWorkload(cfg, /*privatize=*/true);
    const char* name = BackendKindName(backend);
    EXPECT_EQ(run.commits, 2u * 200) << name;
    EXPECT_EQ(run.counter_sum, 2u * 200) << name;
    EXPECT_EQ(run.private_sums, (std::vector<uint64_t>{400, 400})) << name;
    EXPECT_GT(run.batch_messages, 0u) << name;
    EXPECT_TRUE(run.tables_empty) << name;
  }
}

// Each TmSystemConfig knob the native backends honour, through the counter
// workload: on threads and on processes a variant commits what it commits
// on the simulator, once per increment. The multitasked deployment is the
// simulator's and the threads backend's alone, and durable processes need
// a run directory (the ProcessKill suite runs them). Without a contention
// manager this workload livelocks on the simulator, as
// TmConcurrency.NoCmLivelocksUnderSymmetricContention shows, so it is
// left out.
TEST(BackendIdentity, ConfigVariantsCommitTheSameCounters) {
  struct Variant {
    const char* name;
    std::function<void(TmSystemConfig*)> set;
  };
  const std::vector<Variant> variants = {
      {"backoff-retry", [](TmSystemConfig* c) { c->tm.cm = CmKind::kBackoffRetry; }},
      {"offset-greedy", [](TmSystemConfig* c) { c->tm.cm = CmKind::kOffsetGreedy; }},
      {"wholly", [](TmSystemConfig* c) { c->tm.cm = CmKind::kWholly; }},
      {"eager", [](TmSystemConfig* c) { c->tm.write_acquire = WriteAcquire::kEager; }},
      {"elastic-early",
       [](TmSystemConfig* c) {
         c->tm.tx_mode = TxMode::kElasticEarly;
         c->tm.elastic_window = 1;
       }},
      {"elastic-read", [](TmSystemConfig* c) { c->tm.tx_mode = TxMode::kElasticRead; }},
      {"stripe-64", [](TmSystemConfig* c) { c->tm.stripe_bytes = 64; }},
      {"batched", [](TmSystemConfig* c) { c->tm.max_batch = 8; }},
      {"admission", [](TmSystemConfig* c) { c->tm.overload_high_water = 1; }},
      {"pinned", [](TmSystemConfig* c) { c->pin_threads = true; }},
      {"durable",
       [](TmSystemConfig* c) {
         c->tm.durability = DurabilityMode::kBuffered;
         c->tm.group_commit_txs = 4;
         c->tm.checkpoint_every_records = 16;
       }},
      {"multitasked-fast-path",
       [](TmSystemConfig* c) {
         c->sim.strategy = DeployStrategy::kMultitasked;
         c->sim.num_service = 0;
         c->tm.local_fast_path = true;
       }},
  };
  for (const Variant& v : variants) {
    TmSystemConfig cfg = BaseConfig();
    v.set(&cfg);
    const RunResult sim = RunCounterWorkload(cfg);
    EXPECT_EQ(sim.counter_sum, sim.commits) << v.name;
    for (const BackendKind backend : {BackendKind::kThreads, BackendKind::kProcesses}) {
      if (backend == BackendKind::kProcesses &&
          (cfg.sim.strategy == DeployStrategy::kMultitasked ||
           cfg.tm.durability != DurabilityMode::kOff)) {
        continue;
      }
      cfg.backend = backend;
      const RunResult native = RunCounterWorkload(cfg);
      const std::string where = std::string(v.name) + " on " + BackendKindName(backend);
      EXPECT_EQ(native.commits, sim.commits) << where;
      EXPECT_EQ(native.counter_sum, sim.counter_sum) << where;
      EXPECT_TRUE(native.tables_empty) << where;
    }
  }
}

// The migration policy loop (migrate_check_every, migrate_hot_threshold)
// moves hot slabs on its own, at points the timing picks; the store's
// contents come out as on an unmigrated simulator run.
TEST(BackendIdentity, KvStoreContentsIdenticalUnderTheMigrationPolicy) {
  const KvRunResult plain = RunKvWorkload(BaseConfig());
  for (const BackendKind backend :
       {BackendKind::kSim, BackendKind::kThreads, BackendKind::kProcesses}) {
    TmSystemConfig cfg = BaseConfig();
    cfg.backend = backend;
    cfg.tm.migrate_check_every = 16;
    cfg.tm.migrate_hot_threshold = 8;
    const KvRunResult run = RunKvWorkload(cfg);
    EXPECT_GE(run.migrations_completed, 1u) << BackendKindName(backend);
    EXPECT_EQ(run.commits, plain.commits) << BackendKindName(backend);
    EXPECT_EQ(run.contents, plain.contents) << BackendKindName(backend);
    OracleReport report;
    CheckMigrationHistory(run.history, &report);
    EXPECT_TRUE(report.ok()) << BackendKindName(backend) << ": " << report.Summary();
  }
}

TEST(BackendIdentity, ThreadBackendRunReturnsWallClock) {
  TmSystemConfig cfg = BaseConfig();
  cfg.backend = BackendKind::kThreads;
  TmSystem sys(cfg);
  sys.SetAllAppBodies([](CoreEnv& env, TxRuntime&) { env.Compute(100000); });
  const SimTime elapsed = sys.Run();
  EXPECT_GT(elapsed, 0u);  // host time passed; nothing modelled about it
}

TEST(BackendIdentity, MultitaskedStrategyRunsOnThreads) {
  // The multitasked deployment (every core both serves and runs the app)
  // uses the post-body serve loop + broadcast shutdown path.
  TmSystemConfig cfg = BaseConfig();
  cfg.backend = BackendKind::kThreads;
  cfg.sim.strategy = DeployStrategy::kMultitasked;
  cfg.sim.num_service = 0;
  const RunResult result = RunCounterWorkload(cfg);
  EXPECT_EQ(result.commits, 4ull * 200);  // all 4 cores are app cores
  EXPECT_EQ(result.counter_sum, 4ull * 200);
}

// A configuration a backend cannot run is refused when the system is
// built, and a partition kill where no partition restarts, each with an
// error that says why.
TEST(BackendCapabilityDeathTest, MultitaskedDeploymentOnProcessesIsRejected) {
  TmSystemConfig cfg = ProcessConfig();
  cfg.sim.strategy = DeployStrategy::kMultitasked;
  cfg.sim.num_service = 0;
  EXPECT_DEATH(TmSystem sys(cfg), "the process backend is dedicated-only");
}

TEST(BackendCapabilityDeathTest, DurabilityUnderMultitaskedIsRejected) {
  for (const BackendKind backend : {BackendKind::kSim, BackendKind::kThreads}) {
    TmSystemConfig cfg = BaseConfig();
    cfg.backend = backend;
    cfg.sim.strategy = DeployStrategy::kMultitasked;
    cfg.sim.num_service = 0;
    cfg.tm.durability = DurabilityMode::kBuffered;
    EXPECT_DEATH(TmSystem sys(cfg), "durability requires the dedicated deployment")
        << BackendKindName(backend);
  }
}

TEST(BackendCapabilityDeathTest, DurableProcessesWithoutRunDirAreRejected) {
  TmSystemConfig cfg = ProcessConfig();
  cfg.tm.durability = DurabilityMode::kBuffered;
  EXPECT_DEATH(TmSystem sys(cfg), "durable processes need run_dir");
}

TEST(BackendCapabilityDeathTest, KillPartitionOffProcessesIsRejected) {
  TmSystemConfig cfg = BaseConfig();
  cfg.backend = BackendKind::kSim;
  TmSystem sim(cfg);
  EXPECT_DEATH(sim.system().KillPartition(0), "KillPartition: the sim backend never restarts");
  cfg.backend = BackendKind::kThreads;
  TmSystem threads(cfg);
  EXPECT_DEATH(threads.system().KillPartition(0),
               "KillPartition: the threads backend never restarts");
  EXPECT_EQ(threads.system().restarts(0), 0u);
}

TEST(BackendCapabilityDeathTest, SimChaosOnNativeBackendsIsRejected) {
  for (const BackendKind backend : {BackendKind::kThreads, BackendKind::kProcesses}) {
    TmSystemConfig cfg = BaseConfig();
    cfg.backend = backend;
    cfg.sim.chaos.shuffle_ties = true;
    EXPECT_DEATH(TmSystem sys(cfg), "sim.chaos perturbs the simulator") << BackendKindName(backend);
  }
}

}  // namespace
}  // namespace tm2c
