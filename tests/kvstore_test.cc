// KvStore: semantics of the partitioned transactional KV store, the
// owned-range address routing underneath it, and its behaviour under
// contention and chaos (delete/reinsert node recycling, scans racing
// writers, the serializability oracle over the KV chaos workload).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "src/apps/kvstore.h"
#include "src/check/checker.h"
#include "src/common/rng.h"
#include "src/tm/tm_system.h"
#include "tests/store_semantics.h"

namespace tm2c {
namespace {

TmSystemConfig SmallConfig(uint32_t cores = 4, uint32_t service = 2) {
  TmSystemConfig cfg;
  cfg.sim.platform = MakeOpteronPlatform();
  cfg.sim.num_cores = cores;
  cfg.sim.num_service = service;
  cfg.sim.shmem_bytes = 2 << 20;
  cfg.tm.cm = CmKind::kFairCm;
  cfg.tm.max_batch = 8;
  return cfg;
}

KvStoreConfig SmallStore(uint32_t value_words = 2) {
  KvStoreConfig cfg;
  cfg.buckets_per_partition = 4;
  cfg.value_words = value_words;
  cfg.capacity_per_partition = 64;
  return cfg;
}

// ---------------------------------------------------------------------------
// AddressMap owned ranges
// ---------------------------------------------------------------------------

TEST(AddressMapOwnedRange, OverridesHashInsideRangeOnly) {
  DeploymentPlan plan(8, 4, DeployStrategy::kDedicated);
  AddressMap map(plan, 8);
  map.AddOwnedRange(1024, 256, 3);
  map.AddOwnedRange(4096, 64, 1);
  for (uint64_t addr = 1024; addr < 1280; addr += 8) {
    EXPECT_EQ(map.PartitionOf(addr), 3u);
    EXPECT_EQ(map.ResponsibleCore(addr), plan.ServiceCore(3));
  }
  EXPECT_EQ(map.PartitionOf(4096), 1u);
  // Outside every range the Fibonacci stripe hash still decides.
  AddressMap hash_only(plan, 8);
  EXPECT_EQ(map.PartitionOf(1016), hash_only.PartitionOf(1016));
  EXPECT_EQ(map.PartitionOf(1280), hash_only.PartitionOf(1280));
  EXPECT_EQ(map.PartitionOf(8192), hash_only.PartitionOf(8192));
}

TEST(AddressMapOwnedRange, CopiesShareTheDirectory) {
  DeploymentPlan plan(8, 4, DeployStrategy::kDedicated);
  AddressMap map(plan, 8);
  AddressMap copy = map;  // e.g. the copy a TxRuntime holds
  map.AddOwnedRange(512, 128, 2);
  EXPECT_EQ(copy.PartitionOf(512), 2u);
  EXPECT_EQ(copy.num_owned_ranges(), 1u);
}

TEST(AddressMapOwnedRangeDeathTest, RejectsOverlapAndMisalignment) {
  DeploymentPlan plan(8, 4, DeployStrategy::kDedicated);
  AddressMap map(plan, 8);
  map.AddOwnedRange(1024, 256, 0);
  EXPECT_DEATH(map.AddOwnedRange(1152, 64, 1), "overlap");
  EXPECT_DEATH(map.AddOwnedRange(896, 256, 1), "overlap");
  // Exact-fit neighbours on both sides are still overlaps.
  EXPECT_DEATH(map.AddOwnedRange(1024, 8, 1), "overlap");
  EXPECT_DEATH(map.AddOwnedRange(1272, 16, 1), "overlap");
  EXPECT_DEATH(map.AddOwnedRange(2049, 64, 1), "aligned");
  AddressMap wide(plan, 64);
  EXPECT_DEATH(wide.AddOwnedRange(4096, 96, 1), "aligned");
}

TEST(AddressMapOwnedRange, HashFallbackTakesOverExactlyAtStripeEdges) {
  DeploymentPlan plan(8, 4, DeployStrategy::kDedicated);
  const uint64_t stripe = 64;
  AddressMap map(plan, stripe);
  map.AddOwnedRange(1024, 4 * stripe, 2);
  AddressMap hash_only(plan, stripe);

  // Every byte of the last owned stripe routes to the owner; the very next
  // byte starts a fresh stripe and falls back to the Fibonacci hash.
  const uint64_t last_owned = 1024 + 4 * stripe - 1;
  EXPECT_EQ(map.PartitionOf(last_owned), 2u);
  EXPECT_EQ(map.PartitionOf(last_owned + 1), hash_only.PartitionOf(last_owned + 1));
  // Same at the front edge: the byte before the range is hash-routed.
  EXPECT_EQ(map.PartitionOf(1024), 2u);
  EXPECT_EQ(map.PartitionOf(1023), hash_only.PartitionOf(1023));
  // And a stripe is atomic: the owner answers for any offset inside it.
  EXPECT_EQ(map.StripeOf(last_owned), 1024 + 3 * stripe);
  EXPECT_EQ(map.PartitionOf(map.StripeOf(last_owned)), 2u);
}

TEST(AddressMapOwnedRange, LockUnitCoversEveryWordOfItsRange) {
  DeploymentPlan plan(8, 4, DeployStrategy::kDedicated);
  AddressMap map(plan, 8);
  map.AddOwnedRange(0x1000, 0x400, 2, /*lock_bytes=*/256);
  for (uint64_t addr = 0x1000; addr < 0x1400; addr += 8) {
    EXPECT_EQ(map.StripeOf(addr), addr & ~uint64_t{255}) << std::hex << addr;
    EXPECT_EQ(map.LockBytesOf(addr), 256u);
    EXPECT_EQ(map.PartitionOf(map.StripeOf(addr)), 2u);
  }
  // Hash-routed addresses on both sides keep the word stripe.
  for (uint64_t addr : {uint64_t{0xff8}, uint64_t{0x1400}, uint64_t{0x1408}}) {
    EXPECT_EQ(map.StripeOf(addr), addr) << std::hex << addr;
    EXPECT_EQ(map.LockBytesOf(addr), 8u);
  }
  // A range registered without a unit locks by stripe.
  map.AddOwnedRange(0x2000, 0x40, 1);
  EXPECT_EQ(map.StripeOf(0x2018), 0x2018u);
  EXPECT_EQ(map.LockBytesOf(0x2018), 8u);
}

TEST(AddressMapOwnedRangeDeathTest, RejectsBadLockUnits) {
  DeploymentPlan plan(8, 4, DeployStrategy::kDedicated);
  AddressMap map(plan, 64);
  EXPECT_DEATH(map.AddOwnedRange(0x1000, 0x400, 0, 44), "whole words");        // unit
  EXPECT_DEATH(map.AddOwnedRange(0x1000, 0x400, 0, 48, 20), "whole words");    // header
  EXPECT_DEATH(map.AddOwnedRange(0x1020, 0x400, 0, 48), "aligned");            // base
  EXPECT_DEATH(map.AddOwnedRange(0x1000, 0x3f0, 0, 48), "aligned");            // size
  EXPECT_DEATH(map.AddOwnedRange(0x1000, 0x400, 0, 48, 0x440), "header longer");
  EXPECT_EQ(map.num_owned_ranges(), 0u);
  // Any word multiple is a unit, finer or coarser than the stripe, and the
  // header may take the whole range.
  map.AddOwnedRange(0x1000, 0x400, 0, 48, 0x40);
  map.AddOwnedRange(0x2000, 0x400, 0, 24);
  map.AddOwnedRange(0x3000, 0x400, 0, 0x400, 0x400);
  EXPECT_EQ(map.num_owned_ranges(), 3u);
}

TEST(AddressMapOwnedRange, NodeUnitsStartWhereTheWordLockedHeaderEnds) {
  DeploymentPlan plan(8, 4, DeployStrategy::kDedicated);
  AddressMap map(plan, 8);
  // A 32-byte header (four word locks), then twenty 48-byte units.
  constexpr uint64_t kBase = 0x1000;
  constexpr uint64_t kHeader = 32;
  constexpr uint64_t kUnit = 48;
  constexpr uint64_t kEnd = kBase + kHeader + 20 * kUnit;
  map.AddOwnedRange(kBase, kEnd - kBase, 1, kUnit, kHeader);
  for (uint64_t addr = kBase; addr < kBase + kHeader; addr += 8) {
    EXPECT_EQ(map.StripeOf(addr), addr) << std::hex << addr;
    EXPECT_EQ(map.LockBytesOf(addr), 8u);
  }
  for (uint64_t unit = kBase + kHeader; unit < kEnd; unit += kUnit) {
    for (uint64_t addr = unit; addr < unit + kUnit; addr += 8) {
      EXPECT_EQ(map.StripeOf(addr), unit) << std::hex << addr;
      EXPECT_EQ(map.LockBytesOf(addr), kUnit);
      EXPECT_EQ(map.PartitionOf(addr), 1u);
    }
  }
  // The hash takes over at the range's end, by word again.
  EXPECT_EQ(map.StripeOf(kEnd), kEnd);
  EXPECT_EQ(map.LockBytesOf(kEnd + 8), 8u);
}

TEST(AddressMapOwnedRange, HeaderStripesAndTheLastUnitStopAtTheirEdges) {
  DeploymentPlan plan(8, 4, DeployStrategy::kDedicated);
  AddressMap map(plan, 64);
  // A 16-byte header under 64-byte stripes, then 24-byte units in a
  // 128-byte range: units at +16, +40, +64, +88 and a cut one at +112.
  map.AddOwnedRange(0x1000, 0x80, 2, 24, 16);
  EXPECT_EQ(map.StripeOf(0x1008), 0x1000u);
  EXPECT_EQ(map.LockBytesOf(0x1008), 16u);  // the stripe ends with the header
  for (uint64_t unit : {0x1010, 0x1028, 0x1040, 0x1058}) {
    EXPECT_EQ(map.StripeOf(unit + 16), unit) << std::hex << unit;
    EXPECT_EQ(map.LockBytesOf(unit), 24u);
  }
  EXPECT_EQ(map.StripeOf(0x1078), 0x1070u);
  EXPECT_EQ(map.LockBytesOf(0x1078), 16u);  // the unit ends with the range
}

TEST(AddressMapOwnedRange, DescribeListsEveryRangeAndTheFallback) {
  DeploymentPlan plan(8, 4, DeployStrategy::kDedicated);
  AddressMap map(plan, 64);
  map.AddOwnedRange(0x1000, 0x400, 3);
  map.AddOwnedRange(0x4000, 0x40, 1);
  map.AddOwnedRange(0x8000, 0x200, 2, /*lock_bytes=*/256);
  map.AddOwnedRange(0x9000, 0x200, 0, /*lock_bytes=*/48, /*header_bytes=*/0x80);
  const std::string dump = map.Describe();
  EXPECT_NE(dump.find("stripe_bytes=64"), std::string::npos);
  EXPECT_NE(dump.find("owned_ranges=4"), std::string::npos);
  EXPECT_NE(dump.find("hash fallback"), std::string::npos);
  EXPECT_NE(dump.find("[0x1000, 0x1400) -> partition 3"), std::string::npos);
  EXPECT_NE(dump.find("[0x4000, 0x4040) -> partition 1"), std::string::npos);
  // Each range names its word-locked header and its lock unit: the stripe
  // unless it registered one.
  EXPECT_NE(dump.find("durable home 3), header_bytes=0, lock_bytes=64\n"), std::string::npos);
  EXPECT_NE(dump.find("durable home 1), header_bytes=0, lock_bytes=64\n"), std::string::npos);
  EXPECT_NE(dump.find("durable home 2), header_bytes=0, lock_bytes=256\n"), std::string::npos);
  EXPECT_NE(dump.find("durable home 0), header_bytes=128, lock_bytes=48\n"),
            std::string::npos);
  // The owning core is resolved through the deployment plan, and each range
  // reports its frozen durability home next to it.
  std::ostringstream core;
  core << "(core " << plan.ServiceCore(3) << ", durable home 3)";
  EXPECT_NE(dump.find(core.str()), std::string::npos);
  EXPECT_NE(dump.find("version=0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Store semantics
// ---------------------------------------------------------------------------

// The wrapper/host/routing contract is shared with the B+-tree: the cases
// live in tests/store_semantics.h and run against TxStoreApi.
TEST(KvStore, PutGetDeleteReadModifyWrite) {
  TmSystem sys(SmallConfig());
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                SmallStore());
  RunStoreMutationSemanticsCase(sys, store);
}

TEST(KvStore, InsertLeavesExistingValueAlone) {
  TmSystem sys(SmallConfig());
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                SmallStore(1));
  RunStoreInsertOnlyCase(sys, store);
}

TEST(KvStore, HostHelpersAndLoadPhase) {
  TmSystem sys(SmallConfig());
  KvStoreConfig cfg = SmallStore(3);
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  RunStoreHostHelpersCase(store, 40);
  // Hash-specific accounting: one pool node per resident entry, and the
  // per-partition sizes add up.
  uint64_t per_partition = 0;
  for (uint32_t p = 0; p < store.num_partitions(); ++p) {
    per_partition += store.HostSizeOfPartition(p);
    EXPECT_EQ(store.NodesInUse(p), store.HostSizeOfPartition(p));
  }
  EXPECT_EQ(per_partition, 40u);
}

TEST(KvStoreDeathTest, LoadPastCapacityFailsTheCheck) {
  EXPECT_DEATH(
      {
        TmSystem sys(SmallConfig());
        KvStoreConfig cfg = SmallStore(1);
        cfg.capacity_per_partition = 4;
        KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
        const uint64_t value = 1;
        for (uint64_t key = 1; key <= 9; ++key) {  // 9 keys > 2 partitions x 4 slots
          store.HostPut(key, &value);
        }
      },
      "KvStore load exceeds capacity_per_partition");
}

TEST(KvStore, AllSlabAddressesRouteToTheOwningPartition) {
  TmSystem sys(SmallConfig(8, 4));
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                SmallStore());
  RunStoreSlabRoutingCase(sys, store);
}

// A node is one lock unit: a committed Get of the k-th key of a chain
// takes the bucket head's lock and one lock per node walked, so 1 + k
// acquisitions, the value words riding on the k-th node's lock.
TEST(KvStore, ChainGetTakesOneLockPerNodeWalked) {
  TmSystem sys(SmallConfig());
  KvStoreConfig cfg = SmallStore(4);
  cfg.buckets_per_partition = 1;  // each partition is one sorted chain
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  std::vector<uint64_t> chain;  // partition 0's keys, ascending: chain order
  for (uint64_t key = 1; chain.size() < 6; ++key) {
    const uint64_t value[4] = {key, key + 1, key + 2, key + 3};
    store.HostPut(key, value);
    if (store.PartitionOfKey(key) == 0) {
      chain.push_back(key);
    }
  }
  std::vector<uint64_t> acquires(chain.size());
  std::vector<uint64_t> commits(chain.size());
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    for (size_t i = 0; i < chain.size(); ++i) {
      const TxStats before = rt.stats();
      std::vector<uint64_t> value;
      EXPECT_TRUE(store.Get(rt, chain[i], &value));
      EXPECT_EQ(value, (std::vector<uint64_t>{chain[i], chain[i] + 1, chain[i] + 2,
                                              chain[i] + 3}));
      acquires[i] = rt.stats().lock_acquires - before.lock_acquires;
      commits[i] = rt.stats().commits - before.commits;
    }
  });
  sys.Run();
  for (size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(commits[i], 1u) << "key " << chain[i];
    EXPECT_EQ(acquires[i], 1 + (i + 1)) << "key " << chain[i] << " at position " << i + 1;
  }
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

// The bucket heads keep word locks, so inserts into neighbouring buckets
// take different locks, and no head shares a lock with a node.
TEST(KvStore, AdjacentBucketHeadsAreSeparateLocks) {
  TmSystem sys(SmallConfig(8, 4));
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                SmallStore());
  const AddressMap& map = sys.address_map();
  for (uint32_t p = 0; p < store.num_partitions(); ++p) {
    const uint64_t base = store.SlabRange(p).first;
    std::set<uint64_t> keys;
    for (uint32_t b = 0; b < store.buckets_per_partition(); ++b) {
      const uint64_t head = base + uint64_t{b} * kWordBytes;
      EXPECT_EQ(map.StripeOf(head), head);
      keys.insert(map.StripeOf(head));
    }
    EXPECT_EQ(keys.size(), store.buckets_per_partition());
    // The first node slot starts its own unit past the last head.
    const uint64_t first_node = base + store.buckets_per_partition() * kWordBytes;
    EXPECT_EQ(map.StripeOf(first_node), first_node);
    EXPECT_EQ(map.LockBytesOf(first_node), store.node_words() * kWordBytes);
  }
}

// ---------------------------------------------------------------------------
// Contention
// ---------------------------------------------------------------------------

// Several cores hammer a tiny keyspace with delete/reinsert (recycling on).
// Conservation of node count: successful inserts minus successful deletes
// must equal the final resident count, the pool accounting must agree with
// a host-side chain walk, and no lock may remain held.
TEST(KvStore, DeleteReinsertUnderContention) {
  TmSystem sys(SmallConfig(8, 4));
  KvStoreConfig cfg = SmallStore(1);
  cfg.buckets_per_partition = 2;  // long chains: overlapping traversals
  cfg.capacity_per_partition = 16;
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  constexpr uint64_t kKeys = 6;
  constexpr int kOpsPerCore = 150;
  const uint32_t n = sys.num_app_cores();
  std::vector<uint64_t> inserts(n, 0), deletes(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    sys.SetAppBody(i, [&, i](CoreEnv&, TxRuntime& rt) {
      Rng rng(1000 + i * 37);
      for (int k = 0; k < kOpsPerCore; ++k) {
        const uint64_t key = 1 + rng.NextBelow(kKeys);
        if (rng.NextPercent(50)) {
          const uint64_t value = (uint64_t{i} << 32) | static_cast<uint64_t>(k);
          if (store.Insert(rt, key, &value)) {
            ++inserts[i];
          }
        } else {
          if (store.Delete(rt, key)) {
            ++deletes[i];
          }
        }
      }
    });
  }
  sys.Run();
  uint64_t total_inserts = 0, total_deletes = 0;
  for (uint32_t i = 0; i < n; ++i) {
    total_inserts += inserts[i];
    total_deletes += deletes[i];
  }
  EXPECT_EQ(total_inserts - total_deletes, store.HostSize());
  EXPECT_LE(store.HostSize(), kKeys);
  uint64_t pool_in_use = 0;
  for (uint32_t p = 0; p < store.num_partitions(); ++p) {
    pool_in_use += store.NodesInUse(p);
  }
  EXPECT_EQ(pool_in_use, store.HostSize());
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

// One core scans while the others churn puts and deletes. Every scan must
// be a consistent snapshot: entries carry the deterministic value their
// key always maps to (a torn scan would observe a half-written node), no
// duplicate keys, and never more than the limit.
TEST(KvStore, ScanVsConcurrentPut) {
  TmSystem sys(SmallConfig(6, 2));
  KvStoreConfig cfg = SmallStore(2);
  cfg.buckets_per_partition = 2;
  cfg.capacity_per_partition = 32;
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  constexpr uint64_t kKeys = 16;
  for (uint64_t key = 1; key <= kKeys; ++key) {
    const uint64_t value[2] = {key * 7, key * 11};
    store.HostPut(key, value);
  }
  const uint32_t n = sys.num_app_cores();
  uint64_t scans_done = 0, entries_seen = 0;
  bool scans_consistent = true;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    Rng rng(7);
    for (int s = 0; s < 60; ++s) {
      const uint64_t start = 1 + rng.NextBelow(kKeys);
      const std::vector<KvEntry> got = store.HashScan(rt, start, 8);
      ++scans_done;
      entries_seen += got.size();
      std::set<uint64_t> seen;
      if (got.size() > 8) {
        scans_consistent = false;
      }
      for (const KvEntry& e : got) {
        if (e.key < 1 || e.key > kKeys || !seen.insert(e.key).second ||
            e.value[0] != e.key * 7 || e.value[1] != e.key * 11) {
          scans_consistent = false;
        }
      }
    }
  });
  for (uint32_t i = 1; i < n; ++i) {
    sys.SetAppBody(i, [&, i](CoreEnv&, TxRuntime& rt) {
      Rng rng(100 + i);
      for (int k = 0; k < 120; ++k) {
        const uint64_t key = 1 + rng.NextBelow(kKeys);
        if (rng.NextPercent(50)) {
          const uint64_t value[2] = {key * 7, key * 11};  // key-deterministic
          store.Put(rt, key, value);
        } else {
          store.Delete(rt, key);
        }
      }
    });
  }
  sys.Run();
  EXPECT_EQ(scans_done, 60u);
  EXPECT_GT(entries_seen, 0u);
  EXPECT_TRUE(scans_consistent);
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

// ---------------------------------------------------------------------------
// Chaos + oracle
// ---------------------------------------------------------------------------

CheckRunConfig KvCheckConfig(uint64_t seed, TxMode mode = TxMode::kNormal) {
  CheckRunConfig cfg;
  cfg.workload = CheckWorkload::kKv;
  cfg.platform = "scc";
  cfg.cm = CmKind::kFairCm;
  cfg.tx_mode = mode;
  cfg.max_batch = 8;
  cfg.seed = seed;
  return cfg;
}

TEST(KvStoreChaos, CleanUnderNormalAndElasticEarly) {
  for (const TxMode mode : {TxMode::kNormal, TxMode::kElasticEarly}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const CheckRunResult result = RunCheckedWorkload(KvCheckConfig(seed, mode));
      EXPECT_TRUE(result.report.ok())
          << KvCheckConfig(seed, mode).Name() << ": " << result.report.Summary();
    }
  }
}

// The oracle must keep its teeth on the KV workload: a protocol broken on
// purpose has to be flagged. Runs are deterministic per seed, so these are
// fixed detections, not probabilistic ones.
TEST(KvStoreChaos, SkipReadLockIsFlagged) {
  bool flagged = false;
  for (uint64_t seed = 1; seed <= 4 && !flagged; ++seed) {
    CheckRunConfig cfg = KvCheckConfig(seed);
    cfg.fault = FaultMode::kSkipReadLock;
    flagged = !RunCheckedWorkload(cfg).report.ok();
  }
  EXPECT_TRUE(flagged) << "skip-read-lock survived 4 seeds of the KV chaos workload";
}

TEST(KvStoreChaos, ReleaseBeforePersistIsFlagged) {
  // The word-at-a-time persist window this fault opens is sub-microsecond,
  // while every locked read needs a service round trip — so on this
  // workload only eread's lock-free validated reads can race the persist
  // and observe the torn state. Extra heat (6 keys, 60 txs/core) makes the
  // race land in about half the seeds; 6 deterministic seeds cover it.
  bool flagged = false;
  for (uint64_t seed = 1; seed <= 6 && !flagged; ++seed) {
    CheckRunConfig cfg = KvCheckConfig(seed, TxMode::kElasticRead);
    cfg.fault = FaultMode::kReleaseBeforePersist;
    cfg.accounts = 6;
    cfg.txs_per_core = 60;
    flagged = !RunCheckedWorkload(cfg).report.ok();
  }
  EXPECT_TRUE(flagged) << "release-before-persist survived 6 seeds of the KV chaos workload";
}

// Value-validated elastic reads (eread) admit pointer ABA when a recycled
// node restores an old link value — by contract that execution is value-
// serializable, so the order-based oracle may report a cycle, but the
// store's semantic invariants (counter conservation, node accounting,
// final state) must still hold. This pins the documented relaxation.
TEST(KvStoreChaos, ElasticReadStaysValueSerializable) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const CheckRunResult result =
        RunCheckedWorkload(KvCheckConfig(seed, TxMode::kElasticRead));
    for (const OracleViolation& v : result.report.violations) {
      EXPECT_NE(v.kind, "conservation") << v.detail;
      EXPECT_NE(v.kind, "node-accounting") << v.detail;
      EXPECT_NE(v.kind, "final-state") << v.detail;
    }
  }
}

}  // namespace
}  // namespace tm2c
