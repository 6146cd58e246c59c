#include "src/check/checker.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/apps/kvstore.h"
#include "src/apps/ordered_index.h"
#include "src/check/crash.h"
#include "src/common/rng.h"

namespace tm2c {

std::string CheckRunConfig::Name() const {
  std::string name = platform;
  if (workload != CheckWorkload::kBank) {
    name += "_";
    name += CheckWorkloadName(workload);
  }
  name += "_";
  name += CmKindName(cm);
  name += tx_mode == TxMode::kNormal ? "_normal"
          : tx_mode == TxMode::kElasticEarly ? "_early"
                                             : "_eread";
  name += write_acquire == WriteAcquire::kLazy ? "" : "_eager";
  name += "_b" + std::to_string(max_batch);
  if (pipeline_depth != 1) {
    name += "_p" + std::to_string(pipeline_depth);
  }
  if (fault != FaultMode::kNone) {
    name += std::string("_fault-") + FaultModeName(fault);
  }
  if (durability != DurabilityMode::kOff) {
    name += std::string("_dur-") + DurabilityModeName(durability);
    if (group_commit_txs != 1) {
      name += "_g" + std::to_string(group_commit_txs);
    }
    if (checkpoint_every_records != 0) {
      name += "_ck" + std::to_string(checkpoint_every_records);
    }
  }
  if (migrate) {
    name += "_migrate";
  }
  if (crash) {
    name += "_crash";
  }
  if (!chaos) {
    name += "_nochaos";
  }
  name += "_s" + std::to_string(seed);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

ChaosConfig DefaultChaos(uint64_t seed) {
  ChaosConfig chaos;
  chaos.seed = seed;
  chaos.shuffle_ties = true;
  chaos.msg_jitter_max_ps = MicrosToSim(2);
  chaos.poll_stall_pct = 10;
  chaos.poll_stall_max_ps = MicrosToSim(5);
  chaos.poll_duplicate_pct = 10;
  return chaos;
}

namespace {

TmSystemConfig MakeCheckedSystemConfig(const CheckRunConfig& cfg) {
  TmSystemConfig sys_cfg;
  sys_cfg.sim.platform = PlatformByName(cfg.platform);
  sys_cfg.sim.num_cores = cfg.num_cores;
  sys_cfg.sim.num_service = cfg.num_service;
  sys_cfg.sim.shmem_bytes = 2 << 20;
  sys_cfg.sim.seed = cfg.seed;
  if (cfg.chaos) {
    sys_cfg.sim.chaos = DefaultChaos(cfg.seed);
  }
  sys_cfg.tm.cm = cfg.cm;
  sys_cfg.tm.tx_mode = cfg.tx_mode;
  sys_cfg.tm.write_acquire = cfg.write_acquire;
  sys_cfg.tm.max_batch = cfg.max_batch;
  sys_cfg.tm.pipeline_depth = cfg.pipeline_depth;
  sys_cfg.tm.fault = cfg.fault;
  sys_cfg.tm.durability = cfg.durability;
  sys_cfg.tm.group_commit_txs = cfg.group_commit_txs;
  sys_cfg.tm.checkpoint_every_records = cfg.checkpoint_every_records;
  return sys_cfg;
}

CheckRunResult RunCheckedBankWorkload(const CheckRunConfig& cfg) {
  TmSystem sys(MakeCheckedSystemConfig(cfg));

  CheckRunResult result;

  // Every account word is (unique write tag << 32) | balance. The low half
  // carries the conserved balance; the high half makes every committed
  // write produce a globally unique value. Uniqueness matters: the oracle
  // matches a read to its writer by value+order, and value-validated
  // elastic reads legitimately admit ABA (a transfer pair restoring an old
  // balance revalidates fine), which with duplicate values is
  // value-serializable yet indistinguishable from a real stale read.
  constexpr uint64_t kInitial = 1000;
  constexpr uint64_t kBalanceMask = 0xffffffffull;
  const uint64_t base = sys.allocator().AllocGlobal(cfg.accounts * kWordBytes);
  for (uint32_t a = 0; a < cfg.accounts; ++a) {
    const uint64_t addr = base + a * kWordBytes;
    sys.shmem().StoreWord(addr, kInitial);
    result.history.RecordInitial(addr, kInitial);
  }
  if (cfg.durability != DurabilityMode::kOff) {
    // The bank array is hash-mapped, not an owned range, so checkpoint 0 is
    // empty — the logging/group-commit path still runs under chaos.
    sys.CaptureDurableCheckpoint0();
  }

  const uint32_t n = sys.num_app_cores();
  std::vector<bool> done(n, false);
  std::vector<uint64_t> increments(n, 0);
  std::vector<uint64_t> scan_addrs(cfg.accounts);
  for (uint32_t a = 0; a < cfg.accounts; ++a) {
    scan_addrs[a] = base + a * kWordBytes;
  }
  for (uint32_t i = 0; i < n; ++i) {
    sys.SetAppBody(i, [&, i](CoreEnv&, TxRuntime& rt) {
      Rng rng(cfg.seed * 77 + 13 * (i + 1));
      for (uint32_t k = 0; k < cfg.txs_per_core; ++k) {
        // Unique per (core, transaction, write-within-transaction); aborted
        // attempts re-execute with the same tag but never persist, so every
        // value that reaches memory is written exactly once.
        const uint64_t tag =
            (static_cast<uint64_t>(i + 1) * cfg.txs_per_core + k) * 4;
        const uint64_t pick = rng.NextBelow(10);
        if (pick < 4) {
          // Counter increment: the canonical lost-update probe. Every
          // dropped increment shows up both as a conflict-graph cycle and
          // in the conservation total.
          const uint64_t addr = base + rng.NextBelow(cfg.accounts) * kWordBytes;
          rt.Execute([addr, tag](Tx& tx) {
            tx.Write(addr, (tag << 32) | ((tx.Read(addr) & kBalanceMask) + 1));
          });
          ++increments[i];
        } else if (pick < 7) {
          // Transfer between two distinct accounts (conserves the total).
          const uint64_t from = base + rng.NextBelow(cfg.accounts) * kWordBytes;
          uint64_t to = base + rng.NextBelow(cfg.accounts) * kWordBytes;
          if (to == from) {
            to = base + ((to - base) / kWordBytes + 1) % cfg.accounts * kWordBytes;
          }
          rt.Execute([from, to, tag](Tx& tx) {
            tx.Write(from, ((tag + 1) << 32) | ((tx.Read(from) & kBalanceMask) - 1));
            tx.Write(to, ((tag + 2) << 32) | ((tx.Read(to) & kBalanceMask) + 1));
          });
        } else {
          // Read-only scan of the whole array (ReadMany exercises the
          // batched read path under TxMode::kNormal with max_batch > 1).
          // Pipelined configurations prefetch first, so overlapping
          // in-flight requests — and refusals landing between issue and
          // completion — are part of the explored schedule space.
          const bool prefetch = cfg.pipeline_depth > 1;
          rt.Execute([&scan_addrs, prefetch](Tx& tx) {
            if (prefetch) {
              tx.Prefetch(scan_addrs);
            }
            (void)tx.ReadMany(scan_addrs);
          });
        }
      }
      done[i] = true;
    });
  }

  sys.AttachTrace(&result.history);
  // Generous horizon: the workload is bounded, so a run that does not
  // complete within it is itself reported as a violation (livelock or a
  // fault-induced wedge), not silently truncated.
  sys.Run(MillisToSim(8000));
  result.stats = sys.MergedStats();

  OracleOptions opts;
  opts.elastic_relaxed = cfg.tx_mode != TxMode::kNormal;
  result.report = CheckHistory(result.history, opts);
  CheckMigrationHistory(result.history, &result.report);  // vacuous without migrations

  bool all_done = true;
  for (uint32_t i = 0; i < n; ++i) {
    if (!done[i]) {
      all_done = false;
      result.report.violations.push_back(OracleViolation{
          "incomplete-run", "app core " + std::to_string(i) + " did not finish its workload"});
    }
  }

  CheckFinalState(result.history,
                  [&sys](uint64_t addr) { return sys.shmem().LoadWord(addr); },
                  &result.report);

  if (all_done) {
    // Transfers conserve the balance total and every increment adds exactly
    // 1, so the final sum is fully determined. A mismatch is a lost (or
    // duplicated) update even if the history happens to look serializable.
    uint64_t expected = static_cast<uint64_t>(cfg.accounts) * kInitial;
    for (uint32_t i = 0; i < n; ++i) {
      expected += increments[i];
    }
    uint64_t actual = 0;
    for (uint32_t a = 0; a < cfg.accounts; ++a) {
      actual += sys.shmem().LoadWord(base + a * kWordBytes) & kBalanceMask;
    }
    if (actual != expected) {
      result.report.violations.push_back(OracleViolation{
          "conservation", "final account total is " + std::to_string(actual) + ", expected " +
                              std::to_string(expected) + " (lost or duplicated updates)"});
    }
  }

  return result;
}

// Post-hoc crash simulation over a completed checked run: pick a seeded
// cut in the recorded event order, keep only what each partition's
// durability layer had made durable by then (truncating the log image,
// with a torn fragment of the next frame when one was buffered), clobber
// the slabs, recover the store from checkpoint + log suffix, and run the
// crash-restart oracle (src/check/crash.h) plus structural accounting on
// the result.
void RunKvCrashRestart(const CheckRunConfig& cfg, TmSystem& sys, KvStore& store,
                       CheckRunResult* result) {
  const uint32_t num_partitions = store.num_partitions();
  const History& history = result->history;

  // The cut rng is independent of the workload rng streams, so replaying a
  // failing seed reproduces both the schedule and the crash point.
  Rng rng(cfg.seed * 9176 + 31);
  const uint64_t num_events = history.num_events();
  const uint64_t cut_seq = num_events > 1 ? 1 + rng.NextBelow(num_events - 1) : 0;
  const CrashCutReport cut = AnalyzeCrashCut(history, cut_seq, num_partitions);

  // Build each partition's surviving log image: the durable prefix plus,
  // when more had been appended, a torn fragment strictly inside the next
  // frame — the way a real crash tears a buffered tail. The parse must
  // come back clean apart from that torn tail.
  std::vector<std::vector<CommitRecord>> durable_log(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    const std::vector<uint8_t>& image = sys.DurabilityAt(p).wal().image();
    const uint64_t durable_bytes = cut.partitions[p].durable_bytes;
    TM2C_CHECK(durable_bytes <= image.size());
    std::vector<uint8_t> surviving(image.begin(),
                                   image.begin() + static_cast<size_t>(durable_bytes));
    if (image.size() > durable_bytes) {
      const uint32_t payload_len =
          static_cast<uint32_t>(image[durable_bytes]) |
          (static_cast<uint32_t>(image[durable_bytes + 1]) << 8) |
          (static_cast<uint32_t>(image[durable_bytes + 2]) << 16) |
          (static_cast<uint32_t>(image[durable_bytes + 3]) << 24);
      const uint64_t frame = kWalFrameOverheadBytes + payload_len;
      const uint64_t torn = 1 + rng.NextBelow(frame - 1);
      surviving.insert(surviving.end(), image.begin() + static_cast<size_t>(durable_bytes),
                       image.begin() + static_cast<size_t>(durable_bytes + torn));
    }
    const WalReadResult parsed = ReadWal(surviving);
    durable_log[p] = DurableLogFromWal(parsed, p, "surviving log image fails to parse cleanly",
                                       &result->report);
    if (parsed.valid_bytes != durable_bytes) {
      result->report.violations.push_back(OracleViolation{
          "torn-log", "partition " + std::to_string(p) + ": surviving log replays " +
                          std::to_string(parsed.valid_bytes) + " valid bytes, durable prefix is " +
                          std::to_string(durable_bytes)});
    }
  }

  // Crash. Nothing volatile survives: every slab word is clobbered before
  // recovery, so anything correct afterwards came from the durable state.
  for (uint32_t p = 0; p < num_partitions; ++p) {
    const auto [base, bytes] = store.SlabRange(p);
    for (uint64_t addr = base; addr < base + bytes; addr += kWordBytes) {
      sys.shmem().StoreWord(addr, 0xDEADDEADDEADDEADull);
    }
  }
  for (uint32_t p = 0; p < num_partitions; ++p) {
    const PartitionCut& pcut = cut.partitions[p];
    const PartitionDurability& dur = sys.DurabilityAt(p);
    TM2C_CHECK(pcut.checkpoint_index < dur.checkpoints().size());
    TM2C_CHECK(dur.checkpoints()[pcut.checkpoint_index].records_covered ==
               pcut.checkpoint_records);
    std::vector<std::pair<uint64_t, uint64_t>> replay;
    for (uint64_t i = pcut.checkpoint_records; i < durable_log[p].size(); ++i) {
      replay.insert(replay.end(), durable_log[p][i].pairs.begin(), durable_log[p][i].pairs.end());
    }
    store.RecoverPartition(p, dur.ImageAt(pcut.checkpoint_index), replay);
  }

  CheckCrashRestartHistory(
      history, cut, durable_log,
      [&sys](uint64_t addr) { return sys.shmem().LoadWord(addr); },
      [&sys](uint64_t addr) { return sys.address_map().PartitionOf(addr); },
      &result->report);

  // The recovery's rebuilt pool bookkeeping must agree with a fresh walk
  // of the recovered chains.
  for (uint32_t p = 0; p < num_partitions; ++p) {
    const uint64_t chains = store.HostSizeOfPartition(p);
    const uint64_t pool = store.NodesInUse(p);
    if (chains != pool) {
      result->report.violations.push_back(OracleViolation{
          "node-accounting", "recovered partition " + std::to_string(p) + " pool says " +
                                 std::to_string(pool) + " live nodes, chains hold " +
                                 std::to_string(chains)});
    }
  }
}

// The shared store chaos mix, driven through TxStoreApi so the hash KV
// store and the ordered B+-tree run the exact same adversarial workload.
// Every value word is (unique write tag << 32) | counter, the same
// attribution discipline as the bank workload: the low half carries the
// conserved counter, the high half makes every committed value write
// globally unique so the oracle (and elastic value validation) can never
// confuse two writes. Structure words (bucket heads, next pointers, node
// metadata, separators) necessarily repeat values across delete/reinsert
// and split/merge cycles; the oracle's sequence-exact attribution handles
// that, and the conservation check below catches what per-address checks
// cannot: an update applied to a node that a concurrent delete had already
// unlinked (the delete/reinsert ABA) leaves the live counters short.
//
// Counter value every key is loaded with (tag 0: the load phase).
constexpr uint64_t kStoreMixInitial = 1000;

// Host-loads keys [1, num_keys]; callers run this before RunCheckedStoreMix
// (separately, so workload-specific post-load assertions — tree depth
// non-vacuity — can anchor to the deterministic loaded state).
void LoadStoreMixKeys(TxStoreApi& store, uint64_t num_keys) {
  for (uint64_t key = 1; key <= num_keys; ++key) {
    const uint64_t value = kStoreMixInitial;
    store.HostPut(key, &value);
  }
}

// The landing race (the B+-tree only). A lookup's window between its last
// unlocked peek and the grant of its landing lock is about one message
// long, and the mix alone almost never commits an SMO of the landing leaf
// inside it. Two deterministic perturbations make the sweep reach it:
//  - a churn phase after the mix: core 0 deletes and reinserts keys among
//    the first kChurnKeys (merges and splits of the same few leaves) while
//    every other core increments those keys;
//  - LandingStall: with seeded probability an app core stalls just before
//    its attempt's first lock request, which for a lookup is the landing
//    request. (Only batched acquisitions report to the trace when they are sent,
//    so only max_batch > 1 normal-mode runs stall.)
constexpr uint32_t kChurnTxsPerCore = 300;
constexpr uint64_t kChurnKeys = 8;
constexpr uint32_t kLandingStallPct = 50;
constexpr uint64_t kLandingStallMaxCycles = 30000;

// Forwards every event to the history, then stalls the issuing core as
// described above.
class LandingStall : public TxTraceSink {
 public:
  LandingStall(History* history, uint64_t seed, uint32_t num_cores)
      : history_(history), rng_(seed), envs_(num_cores, nullptr), fresh_(num_cores, false) {}

  // The app cores register their environments as their bodies start.
  void SetEnv(CoreEnv* env) { envs_[env->core_id()] = env; }

  void OnEvent(const TraceEvent& event) override {
    history_->OnEvent(event);
    if (event.kind == TraceKind::kTxBegin) {
      fresh_[event.core] = true;
    } else if (event.kind == TraceKind::kAcquireIssue && fresh_[event.core]) {
      fresh_[event.core] = false;
      if (envs_[event.core] != nullptr && rng_.NextPercent(kLandingStallPct)) {
        envs_[event.core]->Compute(rng_.NextBelow(kLandingStallMaxCycles));
      }
    }
  }

 private:
  History* history_;
  Rng rng_;
  std::vector<CoreEnv*> envs_;
  std::vector<bool> fresh_;
};

// Runs the mix over the pre-loaded store, then the oracle, completion,
// final-state, conservation and node-accounting checks. Workload-specific
// epilogues (crash restart, tree shape) run on the returned result at the
// call sites. `landing_race` adds the churn phase and LandingStall.
CheckRunResult RunCheckedStoreMix(const CheckRunConfig& cfg, TmSystem& sys,
                                  TxStoreApi& store, uint64_t num_keys, bool landing_race) {
  CheckRunResult result;

  constexpr uint64_t kInitial = kStoreMixInitial;
  constexpr uint64_t kCounterMask = 0xffffffffull;
  // Register the pre-run content of every slab word (structure words, node
  // pool) so first reads are checked against a known initial state.
  for (uint32_t p = 0; p < store.num_partitions(); ++p) {
    const auto [base, bytes] = store.SlabRange(p);
    for (uint64_t addr = base; addr < base + bytes; addr += kWordBytes) {
      result.history.RecordInitial(addr, sys.shmem().LoadWord(addr));
    }
  }
  if (cfg.durability != DurabilityMode::kOff) {
    // Snapshot the loaded slabs as checkpoint 0: recovery replays the log
    // on top of exactly this image.
    sys.CaptureDurableCheckpoint0();
  }

  const uint32_t n = sys.num_app_cores();
  std::vector<bool> done(n, false);
  std::vector<uint64_t> increments(n, 0);    // applied RMW increments
  std::vector<uint64_t> removed_sum(n, 0);   // counters carried off by deletes
  const std::pair<uint64_t, uint64_t> slab0 = store.SlabRange(0);
  const uint32_t txs_per_core = cfg.txs_per_core + (landing_race ? kChurnTxsPerCore : 0);
  LandingStall stall(&result.history, cfg.seed * 7 + 3, cfg.num_cores);
  for (uint32_t i = 0; i < n; ++i) {
    sys.SetAppBody(i, [&, i, num_keys](CoreEnv& env, TxRuntime& rt) {
      stall.SetEnv(&env);
      Rng rng(cfg.seed * 131 + 17 * (i + 1));
      for (uint32_t k = 0; k < txs_per_core; ++k) {
        if (cfg.migrate && i == 0 && k == cfg.txs_per_core / 2) {
          // Live handoff under load: hand the partition-0 slab's lock
          // ownership to partition 1 while every core keeps issuing the
          // chaos mix. Fire-and-forget — the drain, the flip and the
          // kOwnershipUpdate broadcast land wherever chaos schedules them.
          rt.RequestMigration(slab0.first, slab0.second, 1);
        }
        // Unique per (core, transaction); each op persists at most one
        // value word, so the tag disambiguates every committed value.
        const uint64_t tag = static_cast<uint64_t>(i + 1) * txs_per_core + k;
        uint64_t key = 1 + rng.NextBelow(num_keys);
        uint64_t pick = rng.NextBelow(10);
        if (k >= cfg.txs_per_core) {
          // The churn phase: core 0 alternates a Delete and an Insert (the
          // pick values below), the other cores increment.
          key = 1 + rng.NextBelow(kChurnKeys);
          pick = i != 0 ? 0 : k % 2 == 0 ? 4 : 6;
        }
        if (pick < 4) {
          // Hot-key increment through ReadModifyWrite: the lost-update
          // probe. Counts only if the key was resident.
          if (store.ReadModifyWrite(rt, key, [tag](uint64_t* v) {
                *v = (tag << 32) | ((*v & kCounterMask) + 1);
              })) {
            ++increments[i];
          }
        } else if (pick < 6) {
          // Delete, banking the removed counter: a lost delete (or a
          // resurrected node) breaks conservation. On the B+-tree this is
          // also the merge/borrow trigger.
          std::vector<uint64_t> old;
          if (store.Delete(rt, key, &old)) {
            removed_sum[i] += old[0] & kCounterMask;
          }
        } else if (pick < 8) {
          // Reinsert-if-absent with a fresh counter of 0. Insert (not
          // Put): blindly overwriting a resident key would destroy its
          // counter and void the conservation argument. On the B+-tree
          // this is the split trigger.
          const uint64_t value = tag << 32;
          store.Insert(rt, key, &value);
        } else if (pick < 9) {
          store.Get(rt, key, nullptr);
        } else {
          // Bounded scan: the elastic-style traversal (ReadMany bucket
          // heads on the hash store, ReadMany node loads down the tree
          // plus the leaf chain on the B+-tree).
          store.Scan(rt, 1 + rng.NextBelow(num_keys),
                     static_cast<uint32_t>(num_keys));
        }
      }
      done[i] = true;
    });
  }

  if (landing_race) {
    sys.AttachTrace(&stall);
  } else {
    sys.AttachTrace(&result.history);
  }
  sys.Run(MillisToSim(8000));
  result.stats = sys.MergedStats();

  OracleOptions opts;
  opts.elastic_relaxed = cfg.tx_mode != TxMode::kNormal;
  result.report = CheckHistory(result.history, opts);
  CheckMigrationHistory(result.history, &result.report);

  bool all_done = true;
  for (uint32_t i = 0; i < n; ++i) {
    if (!done[i]) {
      all_done = false;
      result.report.violations.push_back(OracleViolation{
          "incomplete-run", "app core " + std::to_string(i) + " did not finish its workload"});
    }
  }

  CheckFinalState(result.history,
                  [&sys](uint64_t addr) { return sys.shmem().LoadWord(addr); },
                  &result.report);

  if (all_done) {
    // Every applied increment adds exactly 1 to some resident counter;
    // every delete moves a counter out of the store, unchanged; reinserts
    // start at 0. So: live counters + removed counters == initial total +
    // applied increments, whatever the interleaving.
    uint64_t expected = num_keys * kInitial;
    uint64_t live_nodes = 0;
    for (uint32_t i = 0; i < n; ++i) {
      expected += increments[i];
    }
    uint64_t actual = 0;
    store.HostForEach([&](uint64_t, const uint64_t* value) {
      actual += value[0] & kCounterMask;
      ++live_nodes;
    });
    for (uint32_t i = 0; i < n; ++i) {
      actual += removed_sum[i];
    }
    if (actual != expected) {
      result.report.violations.push_back(OracleViolation{
          "conservation", "final counter total is " + std::to_string(actual) + ", expected " +
                              std::to_string(expected) +
                              " (lost updates or delete/reinsert ABA)"});
    }
    // Structural cross-check, hash store only: one node per resident entry,
    // so the pool's live-node accounting must agree with a host-side walk.
    // (The B+-tree's nodes hold many entries plus inner structure; its
    // accounting is checked by HostCheckStructure at the call site.)
    if (std::string(store.IndexKindName()) == "hash") {
      uint64_t pool_in_use = 0;
      for (uint32_t p = 0; p < store.num_partitions(); ++p) {
        pool_in_use += store.NodesInUse(p);
      }
      if (pool_in_use != live_nodes) {
        result.report.violations.push_back(OracleViolation{
            "node-accounting", "pool says " + std::to_string(pool_in_use) +
                                   " live nodes, chains hold " + std::to_string(live_nodes) +
                                   " (leaked or doubly-linked node)"});
      }
    }
  }

  return result;
}

CheckRunResult RunCheckedKvWorkload(const CheckRunConfig& cfg) {
  TmSystem sys(MakeCheckedSystemConfig(cfg));

  KvStoreConfig kv_cfg;
  kv_cfg.value_words = 1;
  // Tiny and hot on purpose: few buckets so chains exist (traversals
  // overlap), capacity just above the keyspace so recycling is exercised.
  kv_cfg.buckets_per_partition = 2;
  kv_cfg.capacity_per_partition = cfg.accounts + 8;
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), kv_cfg);
  LoadStoreMixKeys(store, cfg.accounts);

  CheckRunResult result = RunCheckedStoreMix(cfg, sys, store, cfg.accounts,
                                             /*landing_race=*/false);

  if (cfg.crash) {
    RunKvCrashRestart(cfg, sys, store, &result);
  }

  return result;
}

CheckRunResult RunCheckedIndexWorkload(const CheckRunConfig& cfg) {
  TmSystem sys(MakeCheckedSystemConfig(cfg));

  OrderedIndexConfig oi_cfg;
  oi_cfg.value_words = 1;
  // Small fanout and a keyspace of `accounts` keys PER PARTITION: every
  // partition's tree loads at least two levels deep, so the chaos mix's
  // inserts and deletes split and merge real multi-level trees instead of
  // nibbling at root leaves.
  oi_cfg.fanout = 4;
  const uint64_t keys_per_partition =
      std::max<uint64_t>(cfg.accounts, 2 * oi_cfg.fanout);
  const uint64_t num_keys = keys_per_partition * sys.deployment().num_service();
  oi_cfg.key_min = 1;
  oi_cfg.key_max = num_keys;
  // Slack for the fault runs: with kSmoSkipParentLink every split leaks an
  // orphan leaf, and the run must exhaust its transaction budget — not the
  // pool — so the structural invariants get to deliver the verdict.
  oi_cfg.capacity_per_partition =
      static_cast<uint32_t>(2 * keys_per_partition + 4 * (cfg.txs_per_core + kChurnTxsPerCore));
  oi_cfg.fault = cfg.fault;
  OrderedIndex store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                     oi_cfg);
  LoadStoreMixKeys(store, num_keys);

  if (cfg.fault != FaultMode::kSmoSkipParentLink) {
    // Non-vacuity, anchored to the deterministic loaded state: the
    // invariants below would pass trivially on a forest of root leaves.
    // (With the SMO fault planted the roots legitimately never grow — that
    // is the bug — so the guarantee only binds intact runs.)
    for (uint32_t p = 0; p < store.num_partitions(); ++p) {
      TM2C_CHECK_MSG(store.HostDepthOfPartition(p) >= 2,
                     "index workload sized too small: partition tree has no inner nodes");
    }
  }

  CheckRunResult result = RunCheckedStoreMix(cfg, sys, store, num_keys,
                                             /*landing_race=*/true);

  // Tree-shape invariants over the final structure: sorted leaves,
  // separator bounds, linked-leaf completeness, node accounting. This is
  // the check that catches SMO bugs the serializability oracle cannot see
  // (every transaction of a broken split is internally consistent).
  std::vector<std::string> problems;
  store.HostCheckStructure(&problems);
  for (const std::string& problem : problems) {
    result.report.violations.push_back(OracleViolation{"tree-shape", problem});
  }

  return result;
}

}  // namespace

CheckRunResult RunCheckedWorkload(const CheckRunConfig& cfg) {
  TM2C_CHECK_MSG(!cfg.crash || (cfg.workload == CheckWorkload::kKv &&
                                cfg.durability != DurabilityMode::kOff),
                 "crash-restart checking needs the kv workload with durability on");
  TM2C_CHECK_MSG(!cfg.migrate || (cfg.workload == CheckWorkload::kKv && cfg.num_service >= 2),
                 "migration checking needs the kv workload and at least two partitions");
  switch (cfg.workload) {
    case CheckWorkload::kKv:
      return RunCheckedKvWorkload(cfg);
    case CheckWorkload::kIndex:
      return RunCheckedIndexWorkload(cfg);
    case CheckWorkload::kBank:
      break;
  }
  return RunCheckedBankWorkload(cfg);
}

}  // namespace tm2c
