// OrderedIndex: semantics of the partitioned transactional B+-tree — the
// shared TxStoreApi contract, range-partitioned key routing, ordered range
// scans, split/merge structure modifications at boundary fanouts, a seeded
// property test against std::map in both host and tx mode, and behaviour
// under chaos (the serializability oracle over the index workload, plus
// the planted publish-child-before-parent-link SMO fault that the
// tree-shape invariants must flag on every seed).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/apps/ordered_index.h"
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

OrderedIndexConfig SmallIndex(uint32_t value_words = 2, uint32_t fanout = 4,
                              uint64_t key_max = 96) {
  OrderedIndexConfig cfg;
  cfg.key_min = 1;
  cfg.key_max = key_max;
  cfg.value_words = value_words;
  cfg.fanout = fanout;
  cfg.capacity_per_partition = 256;
  return cfg;
}

void ExpectStructureClean(const OrderedIndex& idx, const char* when) {
  std::vector<std::string> problems;
  idx.HostCheckStructure(&problems);
  EXPECT_TRUE(problems.empty()) << when << ": " << problems.front() << " (+"
                                << problems.size() - 1 << " more)";
}

// ---------------------------------------------------------------------------
// Shared TxStoreApi contract (cases in tests/store_semantics.h)
// ---------------------------------------------------------------------------

TEST(OrderedIndex, PutGetDeleteReadModifyWrite) {
  TmSystem sys(SmallConfig());
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                   SmallIndex());
  RunStoreMutationSemanticsCase(sys, idx);
  ExpectStructureClean(idx, "after mutation case");
}

TEST(OrderedIndex, InsertLeavesExistingValueAlone) {
  TmSystem sys(SmallConfig());
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                   SmallIndex(1));
  RunStoreInsertOnlyCase(sys, idx);
}

TEST(OrderedIndex, HostHelpersAndLoadPhase) {
  TmSystem sys(SmallConfig());
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                   SmallIndex(3));
  RunStoreHostHelpersCase(idx, 40);
  ExpectStructureClean(idx, "after host load");
  // Ordered-index specific: HostForEach visits in ascending key order.
  uint64_t prev = 0;
  idx.HostForEach([&](uint64_t key, const uint64_t*) {
    EXPECT_GT(key, prev);
    prev = key;
  });
}

TEST(OrderedIndexDeathTest, LoadPastCapacityFailsTheCheck) {
  EXPECT_DEATH(
      {
        TmSystem sys(SmallConfig());
        OrderedIndexConfig cfg = SmallIndex(1, 3);
        cfg.capacity_per_partition = 4;  // at most 12 keys per partition at fanout 3
        OrderedIndex index(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                           cfg);
        const uint64_t value = 1;
        for (uint64_t key = 1; key <= cfg.key_max; ++key) {
          index.HostPut(key, &value);
        }
      },
      "OrderedIndex SMO needs a node");
}

TEST(OrderedIndex, AllSlabAddressesRouteToTheOwningPartition) {
  TmSystem sys(SmallConfig(8, 4));
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                   SmallIndex());
  RunStoreSlabRoutingCase(sys, idx);
}

// ---------------------------------------------------------------------------
// Unlocked walks and the landing leaf
// ---------------------------------------------------------------------------

// Host-side view of the node layout ([meta][next][keys][payloads]), for
// tests that find or forge nodes.
struct Layout {
  const OrderedIndex& idx;
  SharedMemory& mem;

  uint64_t Meta(uint64_t node) const { return mem.LoadWord(node); }
  bool IsLeaf(uint64_t node) const { return (Meta(node) & 1) != 0; }
  uint32_t Count(uint64_t node) const {
    return static_cast<uint32_t>((Meta(node) & ~(uint64_t{1} << 63)) >> 1);
  }
  uint64_t KeyAddr(uint64_t node, uint32_t i) const { return node + (2 + i) * kWordBytes; }
  uint64_t PayloadAddr(uint64_t node, uint32_t i) const {
    return node + (2 + idx.fanout() + uint64_t{i} * idx.value_words()) * kWordBytes;
  }
  uint64_t RootPtr(uint32_t partition) const { return idx.SlabRange(partition).first; }
  // Root to leaf, routed as the descent routes `key`.
  std::vector<uint64_t> Path(uint64_t key) const {
    std::vector<uint64_t> path{mem.LoadWord(RootPtr(idx.PartitionOfKey(key)))};
    while (!IsLeaf(path.back())) {
      const uint64_t node = path.back();
      uint32_t i = Count(node) - 1;
      while (i > 0 && mem.LoadWord(KeyAddr(node, i)) > key) {
        --i;
      }
      path.push_back(mem.LoadWord(PayloadAddr(node, i)));
    }
    return path;
  }
  // The word of `parent` that points at `child`.
  uint64_t ChildLink(uint64_t parent, uint64_t child) const {
    for (uint32_t i = 0; i < Count(parent); ++i) {
      if (mem.LoadWord(PayloadAddr(parent, i)) == child) {
        return PayloadAddr(parent, i);
      }
    }
    ADD_FAILURE() << "no link to the child";
    return 0;
  }
  // The partition's last pool slot, which the small trees here never use.
  uint64_t UnusedSlot(uint32_t partition) const {
    const uint64_t node_bytes = idx.node_words() * kWordBytes;
    const uint64_t align = std::min<uint64_t>(node_bytes & (~node_bytes + 1), 64);
    const uint64_t pool_base = RootPtr(partition) + (kWordBytes + align - 1) / align * align;
    return pool_base + (256 - 1) * node_bytes;  // SmallIndex's capacity
  }
  void Copy(uint64_t from, uint64_t to) const {
    for (uint64_t w = 0; w < idx.node_words(); ++w) {
      mem.StoreWord(to + w * kWordBytes, mem.LoadWord(from + w * kWordBytes));
    }
  }
};

// Calls `at_begin` when app core 0 begins its first attempt, and
// `at_landing` when a service grants that attempt its first lock: the
// landing lock of a lookup. What they write to shared memory is what a
// walk sees before, and a lock holder after, an SMO that commits in the
// window between the walk's last peek and its landing lock.
class LandingWindow : public TxTraceSink {
 public:
  std::function<void()> at_begin;
  std::function<void()> at_landing;
  std::vector<uint64_t> granted;  // stripes granted to app_core
  uint32_t app_core = UINT32_MAX;  // set by the app body as it starts

  void OnEvent(const TraceEvent& event) override {
    if (event.kind == TraceKind::kTxBegin && event.core == app_core && !begun_) {
      begun_ = true;
      if (at_begin) {
        at_begin();
      }
    } else if (event.kind == TraceKind::kLockGrant && event.w0 == app_core) {
      granted.push_back(event.w1);
      if (granted.size() == 1 && at_landing) {
        at_landing();
      }
    }
  }

 private:
  bool begun_ = false;
};

// Loads every `step`-th key with the value (key, key + 1). On SmallIndex()
// that is 48 keys per partition at step 1: four levels deep.
void LoadAll(OrderedIndex& idx, uint64_t step = 1) {
  for (uint64_t key = idx.key_min(); key <= idx.key_max(); key += step) {
    const uint64_t value[2] = {key, key + 1};
    idx.HostPut(key, value);
  }
}

// Get, ReadModifyWrite and an in-place Put of a present key lock only the
// leaf they land on before commit; an insert of an absent key still takes
// the locked descent: the root pointer and one lock per node on its path.
TEST(OrderedIndexLanding, LookupsLockOnlyTheLandingLeaf) {
  TmSystem sys(SmallConfig());
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                   SmallIndex());
  LoadAll(idx, 2);  // odd keys: 4 is absent, inside the leaf [1 3 5]
  const uint32_t depth = idx.HostDepthOfPartition(0);
  ASSERT_GE(depth, 3u);
  std::vector<uint64_t> before_commit;
  uint64_t aborts = 0;
  uint64_t got[2] = {};
  OrderedIndex::SmoScratch scratch;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    const auto run = [&](const std::function<void(Tx&)>& op) {
      const uint64_t start = rt.stats().lock_acquires;
      rt.Execute([&](Tx& tx) {
        scratch.ResetAttempt();
        op(tx);
        before_commit.push_back(rt.stats().lock_acquires - start);
      });
      idx.SettleScratch(&scratch);
    };
    run([&](Tx& tx) { EXPECT_TRUE(idx.TxGet(tx, 3, got)); });
    run([&](Tx& tx) {
      EXPECT_TRUE(idx.TxReadModifyWrite(tx, 5, [](uint64_t* v) { v[1] += 10; }));
    });
    const uint64_t value[2] = {70, 71};
    run([&](Tx& tx) { EXPECT_FALSE(idx.TxPut(tx, 7, value, &scratch)); });
    run([&](Tx& tx) { EXPECT_TRUE(idx.TxPut(tx, 4, value, &scratch)); });
    aborts = rt.stats().aborts;
  });
  sys.Run(MillisToSim(1000));
  EXPECT_EQ(aborts, 0u);
  EXPECT_EQ(got[0], 3u);
  EXPECT_EQ(got[1], 4u);
  EXPECT_EQ(before_commit, (std::vector<uint64_t>{1, 1, 1, depth + 1}));
  uint64_t value[2] = {};
  ASSERT_TRUE(idx.HostGet(5, value));
  EXPECT_EQ(value[1], 16u);
  ASSERT_TRUE(idx.HostGet(7, value));
  EXPECT_EQ(value[0], 70u);
  ASSERT_TRUE(idx.HostGet(4, value));
  ExpectStructureClean(idx, "after the lookups");
}

// A scan locks each leaf it reads, once, and no inner node or root
// pointer: its result depends on the leaf chain alone.
TEST(OrderedIndexLanding, ScanLocksExactlyTheLeavesItReads) {
  TmSystem sys(SmallConfig());
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                   SmallIndex());
  LoadAll(idx);
  ASSERT_GE(idx.HostDepthOfPartition(0), 3u);
  const Layout layout{idx, sys.shmem()};
  LandingWindow window;
  sys.AttachTrace(&window);
  std::vector<KvEntry> out;
  uint64_t acquires = 0;
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    window.app_core = env.core_id();
    out = idx.Scan(rt, 5, 16);
    acquires = rt.stats().lock_acquires;
  });
  sys.Run(MillisToSim(1000));
  ASSERT_EQ(out.size(), 16u);
  std::set<uint64_t> leaves;
  for (const KvEntry& entry : out) {
    leaves.insert(layout.Path(entry.key).back());
  }
  EXPECT_EQ(acquires, leaves.size());
  EXPECT_EQ(std::set<uint64_t>(window.granted.begin(), window.granted.end()), leaves);
  EXPECT_EQ(window.granted.size(), leaves.size());
}

// A landing that does not pass its check under the lock falls back to the
// locked descent, whatever it landed on. The walk is steered (before the
// attempt begins) to a forged copy of key 20's leaf holding a stale value;
// at the landing lock the tree is restored and the copy becomes each kind
// of node the check rejects. Under FaultMode::kLandSkipCheck the stale
// copy would be used.
TEST(OrderedIndexLanding, FailedLandingChecksReturnTheLockedDescentsAnswer) {
  enum class Landing { kDeadLeaf, kInnerNode, kUnusedSlot, kLeafAboveTheKey };
  for (const Landing landing : {Landing::kDeadLeaf, Landing::kInnerNode, Landing::kUnusedSlot,
                                Landing::kLeafAboveTheKey}) {
    SCOPED_TRACE(static_cast<int>(landing));
    TmSystem sys(SmallConfig());
    OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                     SmallIndex());
    LoadAll(idx);
    const Layout layout{idx, sys.shmem()};
    const std::vector<uint64_t> path = layout.Path(20);
    const uint64_t leaf = path.back();
    const uint64_t link = layout.ChildLink(path[path.size() - 2], leaf);
    const uint64_t forged = layout.UnusedSlot(0);
    LandingWindow window;
    window.at_begin = [&] {
      layout.Copy(leaf, forged);
      for (uint32_t i = 0; i < layout.Count(forged); ++i) {
        sys.shmem().StoreWord(layout.PayloadAddr(forged, i), 999);
      }
      sys.shmem().StoreWord(link, forged);
    };
    window.at_landing = [&] {
      sys.shmem().StoreWord(link, leaf);
      switch (landing) {
        case Landing::kDeadLeaf:
          sys.shmem().StoreWord(forged, layout.Meta(forged) | (uint64_t{1} << 63));
          break;
        case Landing::kInnerNode:
          layout.Copy(path[path.size() - 2], forged);
          break;
        case Landing::kUnusedSlot:
          for (uint64_t w = 0; w < idx.node_words(); ++w) {
            sys.shmem().StoreWord(forged + w * kWordBytes, 0);
          }
          break;
        case Landing::kLeafAboveTheKey:
          layout.Copy(layout.Path(40).back(), forged);
          break;
      }
    };
    sys.AttachTrace(&window);
    bool found = false;
    std::vector<uint64_t> value;
    sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
      window.app_core = env.core_id();
      found = idx.Get(rt, 20, &value);
    });
    sys.Run(MillisToSim(1000));
    EXPECT_TRUE(found);
    EXPECT_EQ(value, (std::vector<uint64_t>{20, 21}));
    EXPECT_GT(window.granted.size(), 1u) << "the landing was not rejected";
  }
}

// The increment of a ReadModifyWrite whose walk raced a merge: a host-side
// delete at the landing lock merges the landing leaf away (keys 7, 8, 9
// move into the leaf of 6). The merge marks the leaf dead, the landing
// check rejects it and the locked descent finds key 8 in its new leaf.
// Returns key 8's second value word afterwards (9 before the increment).
uint64_t RmwRacingAMerge(FaultMode fault) {
  TmSystem sys(SmallConfig());
  OrderedIndexConfig cfg = SmallIndex();
  cfg.fault = fault;
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  LoadAll(idx);  // leaves [1 2 3] [4 5 6] [7 8 9] ...
  EXPECT_TRUE(idx.HostDelete(4));
  const Layout layout{idx, sys.shmem()};
  const uint64_t landing = layout.Path(8).back();
  LandingWindow window;
  window.at_landing = [&] {
    EXPECT_TRUE(idx.HostDelete(5));  // [6] merges with [7 8 9]
    EXPECT_NE(layout.Path(8).back(), landing);
  };
  sys.AttachTrace(&window);
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    window.app_core = env.core_id();
    EXPECT_TRUE(idx.ReadModifyWrite(rt, 8, [](uint64_t* v) { v[1] += 1; }));
  });
  sys.Run(MillisToSim(1000));
  ExpectStructureClean(idx, "after the race");
  uint64_t value[2] = {};
  EXPECT_TRUE(idx.HostGet(8, value));
  return value[1];
}

TEST(OrderedIndexLanding, RmwRacingAMergeKeepsItsIncrement) {
  EXPECT_EQ(RmwRacingAMerge(FaultMode::kNone), 10u);
}

// The two planted faults lose that increment to the merged-away copy.
TEST(OrderedIndexLanding, LandSkipCheckLosesTheIncrement) {
  EXPECT_EQ(RmwRacingAMerge(FaultMode::kLandSkipCheck), 9u);
}

TEST(OrderedIndexLanding, SmoSkipDeadMarkLosesTheIncrement) {
  EXPECT_EQ(RmwRacingAMerge(FaultMode::kSmoSkipDeadMark), 9u);
}

// Every committed unlink marks the node it unlinks: a merged-away leaf and
// a collapsed root both carry the dead mark, and the tree stays intact.
TEST(OrderedIndexLanding, MergesAndRootCollapsesMarkTheNodeDead) {
  TmSystem sys(SmallConfig());
  OrderedIndexConfig cfg = SmallIndex(1);
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  for (uint64_t key = 1; key <= 5; ++key) {
    idx.HostPut(key, &key);  // root over leaves [1 2 3] [4 5]
  }
  const Layout layout{idx, sys.shmem()};
  const uint64_t root = sys.shmem().LoadWord(layout.RootPtr(0));
  const uint64_t right = layout.Path(5).back();
  ASSERT_EQ(idx.HostDepthOfPartition(0), 2u);
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    EXPECT_TRUE(idx.Delete(rt, 5));  // [4] merges into [1 2 3]; the root collapses
  });
  sys.Run(MillisToSim(1000));
  EXPECT_EQ(idx.HostDepthOfPartition(0), 1u);
  for (const uint64_t node : {root, right}) {
    EXPECT_NE(layout.Meta(node) & (uint64_t{1} << 63), 0u);
  }
  ExpectStructureClean(idx, "after the merge and collapse");
}

// The locked descent: an insert of an absent key takes one lock for the
// root pointer and one per node on its path before commit.
TEST(OrderedIndex, InsertOfAnAbsentKeyTakesOneLockPerNodeOnItsPath) {
  TmSystem sys(SmallConfig());
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                   SmallIndex());
  LoadAll(idx, 2);
  const uint32_t depth = idx.HostDepthOfPartition(0);
  ASSERT_GE(depth, 3u);
  uint64_t acquires = 0;
  uint64_t aborts = 0;
  bool inserted = false;
  OrderedIndex::SmoScratch scratch;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    rt.Execute([&](Tx& tx) {
      scratch.ResetAttempt();
      const uint64_t value[2] = {4, 5};
      inserted = idx.TxInsert(tx, 4, value, &scratch);  // inside the leaf [1 3 5]
      acquires = rt.stats().lock_acquires;
    });
    idx.SettleScratch(&scratch);
    aborts = rt.stats().aborts;
  });
  sys.Run(MillisToSim(1000));
  EXPECT_TRUE(inserted);
  EXPECT_EQ(aborts, 0u);
  EXPECT_EQ(acquires, depth + 1);
}

// ---------------------------------------------------------------------------
// Range partitioning
// ---------------------------------------------------------------------------

TEST(OrderedIndex, RangePartitioningIsContiguousAndMonotone) {
  TmSystem sys(SmallConfig(8, 4));
  OrderedIndexConfig cfg = SmallIndex(1, 4, 1000);
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  ASSERT_EQ(idx.num_partitions(), 4u);
  // Partition ids are non-decreasing in the key, every partition is hit,
  // and PartitionMinKey is exactly the first key mapping to the partition.
  uint32_t prev = 0;
  std::set<uint32_t> hit;
  for (uint64_t key = cfg.key_min; key <= cfg.key_max; ++key) {
    const uint32_t p = idx.PartitionOfKey(key);
    EXPECT_GE(p, prev);
    prev = p;
    hit.insert(p);
    EXPECT_EQ(idx.OwnerCore(key), sys.deployment().ServiceCore(p));
  }
  EXPECT_EQ(hit.size(), 4u);
  for (uint32_t p = 0; p < 4; ++p) {
    const uint64_t lo = idx.PartitionMinKey(p);
    EXPECT_EQ(idx.PartitionOfKey(lo), p);
    if (lo > cfg.key_min) {
      EXPECT_EQ(idx.PartitionOfKey(lo - 1), p - 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Ordered scans
// ---------------------------------------------------------------------------

TEST(OrderedIndex, RangeScanIsOrderedAcrossPartitionBoundaries) {
  TmSystem sys(SmallConfig(4, 2));
  OrderedIndexConfig cfg = SmallIndex(1, 4, 64);
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  // Every third key resident, spanning both partitions.
  std::map<uint64_t, uint64_t> ref;
  for (uint64_t key = 1; key <= 64; key += 3) {
    const uint64_t v = key * 5;
    idx.HostPut(key, &v);
    ref[key] = v;
  }
  struct Case {
    uint64_t lo, hi;
    uint32_t limit;
  };
  const std::vector<Case> cases = {{1, 64, 100}, {2, 40, 100}, {30, 35, 100},
                                   {1, 64, 7},   {60, 64, 3},  {65, 64, 4}};
  std::vector<std::vector<KvEntry>> got(cases.size());
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    for (size_t i = 0; i < cases.size(); ++i) {
      got[i] = idx.RangeScan(rt, cases[i].lo, cases[i].hi, cases[i].limit);
    }
  });
  sys.Run();
  for (size_t i = 0; i < cases.size(); ++i) {
    std::vector<KvEntry> want;
    for (auto it = ref.lower_bound(cases[i].lo);
         it != ref.end() && it->first <= cases[i].hi && want.size() < cases[i].limit;
         ++it) {
      want.push_back({it->first, {it->second}});
    }
    ASSERT_EQ(got[i].size(), want.size()) << "case " << i;
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[i][j].key, want[j].key) << "case " << i;
      EXPECT_EQ(got[i][j].value, want[j].value) << "case " << i;
    }
  }
  // The TxStoreApi Scan is the same walk from start_key to the range end.
  const std::vector<KvEntry> host = idx.HostRangeScan(2, 40, 100);
  ASSERT_EQ(host.size(), got[1].size());
  for (size_t j = 0; j < host.size(); ++j) {
    EXPECT_EQ(host[j].key, got[1][j].key);
  }
}

// ---------------------------------------------------------------------------
// Split/merge structure modifications
// ---------------------------------------------------------------------------

// Sequential insert then sequential delete at both fanout extremes, with
// the tree-shape invariants checked after every operation: every split,
// borrow, merge and root transition happens at these sizes.
TEST(OrderedIndex, BoundaryFanoutsStayWellFormedThroughSplitsAndMerges) {
  for (const uint32_t fanout : {3u, 4u, 16u}) {
    TmSystem sys(SmallConfig());
    OrderedIndexConfig cfg = SmallIndex(1, fanout, 96);
    OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                     cfg);
    for (uint64_t key = 1; key <= 96; ++key) {
      const uint64_t v = key * 3;
      ASSERT_TRUE(idx.HostPut(key, &v)) << "fanout " << fanout << " key " << key;
      ExpectStructureClean(idx, "after sequential insert");
    }
    EXPECT_EQ(idx.HostSize(), 96u);
    for (uint32_t p = 0; p < idx.num_partitions(); ++p) {
      EXPECT_GE(idx.HostDepthOfPartition(p), 2u) << "fanout " << fanout;
    }
    // Descending deletes drain the right spine; every underflow rebalances.
    for (uint64_t key = 96; key >= 1; --key) {
      uint64_t old = 0;
      ASSERT_TRUE(idx.HostDelete(key, &old)) << "fanout " << fanout << " key " << key;
      EXPECT_EQ(old, key * 3);
      ExpectStructureClean(idx, "after sequential delete");
    }
    EXPECT_EQ(idx.HostSize(), 0u);
    // Delete-to-empty must return every node to the pools.
    for (uint32_t p = 0; p < idx.num_partitions(); ++p) {
      EXPECT_EQ(idx.NodesInUse(p), 1u) << "only the empty root leaf should remain";
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded property test against std::map
// ---------------------------------------------------------------------------

void HostPropertyRun(uint32_t fanout, uint64_t seed, int ops) {
  TmSystem sys(SmallConfig());
  OrderedIndexConfig cfg = SmallIndex(1, fanout, 96);
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  std::map<uint64_t, uint64_t> ref;
  Rng rng(seed);
  for (int k = 0; k < ops; ++k) {
    const uint64_t key = 1 + rng.NextBelow(96);
    const uint64_t roll = rng.NextBelow(10);
    if (roll < 4) {
      const uint64_t v = rng.Next();
      const bool inserted = idx.HostPut(key, &v);
      EXPECT_EQ(inserted, ref.find(key) == ref.end());
      ref[key] = v;
    } else if (roll < 7) {
      uint64_t old = 0;
      const bool removed = idx.HostDelete(key, &old);
      const auto it = ref.find(key);
      EXPECT_EQ(removed, it != ref.end());
      if (it != ref.end()) {
        EXPECT_EQ(old, it->second);
        ref.erase(it);
      }
    } else if (roll < 9) {
      uint64_t v = 0;
      const bool found = idx.HostGet(key, &v);
      const auto it = ref.find(key);
      EXPECT_EQ(found, it != ref.end());
      if (it != ref.end()) {
        EXPECT_EQ(v, it->second);
      }
    } else {
      const uint64_t hi = key + rng.NextBelow(16);
      const std::vector<KvEntry> got = idx.HostRangeScan(key, hi, 100);
      std::vector<uint64_t> want;
      for (auto it = ref.lower_bound(key); it != ref.end() && it->first <= hi; ++it) {
        want.push_back(it->first);
      }
      ASSERT_EQ(got.size(), want.size());
      for (size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got[j].key, want[j]);
        EXPECT_EQ(got[j].value[0], ref[want[j]]);
      }
    }
    if (k % 64 == 0) {
      ExpectStructureClean(idx, "mid property run");
    }
  }
  ExpectStructureClean(idx, "after property run");
  // Full-order comparison against the reference.
  std::vector<std::pair<uint64_t, uint64_t>> all;
  idx.HostForEach([&](uint64_t key, const uint64_t* v) { all.emplace_back(key, v[0]); });
  ASSERT_EQ(all.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [key, value] : all) {
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value, it->second);
    ++it;
  }
  // Drain to empty, refill, and re-verify: node recycling across the whole
  // lifecycle.
  while (!ref.empty()) {
    EXPECT_TRUE(idx.HostDelete(ref.begin()->first, nullptr));
    ref.erase(ref.begin());
  }
  EXPECT_EQ(idx.HostSize(), 0u);
  ExpectStructureClean(idx, "after drain to empty");
  for (uint64_t key = 1; key <= 96; ++key) {
    const uint64_t v = key + seed;
    EXPECT_TRUE(idx.HostPut(key, &v));
  }
  EXPECT_EQ(idx.HostSize(), 96u);
  ExpectStructureClean(idx, "after refill");
}

TEST(OrderedIndexProperty, HostModeMatchesStdMap) {
  for (const uint32_t fanout : {3u, 4u, 6u}) {
    HostPropertyRun(fanout, 17 * fanout + 1, 600);
  }
}

// The same mix through the transactional wrappers (splits/merges as
// deferred write-sets, scratch-carried node allocation), single-core so
// every wrapper call's outcome is deterministic against the reference.
TEST(OrderedIndexProperty, TxModeMatchesStdMap) {
  TmSystem sys(SmallConfig());
  OrderedIndexConfig cfg = SmallIndex(1, 4, 96);
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  std::map<uint64_t, uint64_t> ref;
  bool agree = true;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    Rng rng(99);
    for (int k = 0; k < 300; ++k) {
      const uint64_t key = 1 + rng.NextBelow(96);
      const uint64_t roll = rng.NextBelow(10);
      if (roll < 3) {
        const uint64_t v = rng.Next();
        agree &= idx.Put(rt, key, &v) == (ref.find(key) == ref.end());
        ref[key] = v;
      } else if (roll < 5) {
        const uint64_t v = rng.Next();
        const bool was_absent = ref.find(key) == ref.end();
        agree &= idx.Insert(rt, key, &v) == was_absent;
        if (was_absent) {
          ref[key] = v;
        }
      } else if (roll < 8) {
        std::vector<uint64_t> old;
        const auto it = ref.find(key);
        agree &= idx.Delete(rt, key, &old) == (it != ref.end());
        if (it != ref.end()) {
          agree &= old.size() == 1 && old[0] == it->second;
          ref.erase(it);
        }
      } else {
        std::vector<uint64_t> got;
        const auto it = ref.find(key);
        agree &= idx.Get(rt, key, &got) == (it != ref.end());
        if (it != ref.end()) {
          agree &= got.size() == 1 && got[0] == it->second;
        }
      }
    }
  });
  sys.Run();
  EXPECT_TRUE(agree);
  ExpectStructureClean(idx, "after tx property run");
  EXPECT_EQ(idx.HostSize(), ref.size());
  auto it = ref.begin();
  idx.HostForEach([&](uint64_t key, const uint64_t* v) {
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(v[0], it->second);
    ++it;
  });
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

// ---------------------------------------------------------------------------
// Contention
// ---------------------------------------------------------------------------

// Several cores hammer a tiny keyspace with insert/delete. Conservation:
// successful inserts minus successful deletes equals the final resident
// count, the tree stays well-formed, and no lock remains held.
TEST(OrderedIndex, InsertDeleteUnderContention) {
  TmSystem sys(SmallConfig(8, 4));
  OrderedIndexConfig cfg = SmallIndex(1, 4, 24);
  cfg.capacity_per_partition = 64;
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  constexpr uint64_t kKeys = 24;
  constexpr int kOpsPerCore = 120;
  const uint32_t n = sys.num_app_cores();
  std::vector<uint64_t> inserts(n, 0), deletes(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    sys.SetAppBody(i, [&, i](CoreEnv&, TxRuntime& rt) {
      Rng rng(1000 + i * 37);
      for (int k = 0; k < kOpsPerCore; ++k) {
        const uint64_t key = 1 + rng.NextBelow(kKeys);
        if (rng.NextPercent(50)) {
          const uint64_t value = (uint64_t{i} << 32) | static_cast<uint64_t>(k);
          if (idx.Insert(rt, key, &value)) {
            ++inserts[i];
          }
        } else {
          if (idx.Delete(rt, key)) {
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
  EXPECT_EQ(total_inserts - total_deletes, idx.HostSize());
  EXPECT_LE(idx.HostSize(), kKeys);
  ExpectStructureClean(idx, "after contention run");
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

// One core range-scans while the others churn puts and deletes through
// split/merge territory. Every scan must be a consistent ordered snapshot:
// strictly ascending keys within bounds carrying their key-deterministic
// values.
TEST(OrderedIndex, ScanVsConcurrentSplitsAndMerges) {
  TmSystem sys(SmallConfig(6, 2));
  OrderedIndexConfig cfg = SmallIndex(2, 4, 32);
  cfg.capacity_per_partition = 64;
  OrderedIndex idx(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  constexpr uint64_t kKeys = 32;
  for (uint64_t key = 1; key <= kKeys; ++key) {
    const uint64_t value[2] = {key * 7, key * 11};
    idx.HostPut(key, value);
  }
  const uint32_t n = sys.num_app_cores();
  uint64_t scans_done = 0, entries_seen = 0;
  bool scans_consistent = true;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    Rng rng(7);
    for (int s = 0; s < 60; ++s) {
      const uint64_t start = 1 + rng.NextBelow(kKeys);
      const std::vector<KvEntry> got = idx.RangeScan(rt, start, start + 9, 8);
      ++scans_done;
      entries_seen += got.size();
      if (got.size() > 8) {
        scans_consistent = false;
      }
      uint64_t prev = 0;
      for (const KvEntry& e : got) {
        if (e.key < start || e.key > start + 9 || e.key <= prev ||
            e.value[0] != e.key * 7 || e.value[1] != e.key * 11) {
          scans_consistent = false;
        }
        prev = e.key;
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
          idx.Put(rt, key, value);
        } else {
          idx.Delete(rt, key);
        }
      }
    });
  }
  sys.Run();
  EXPECT_EQ(scans_done, 60u);
  EXPECT_GT(entries_seen, 0u);
  EXPECT_TRUE(scans_consistent);
  ExpectStructureClean(idx, "after scan-vs-writers run");
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

// ---------------------------------------------------------------------------
// Chaos + oracle (the --workload=index harness)
// ---------------------------------------------------------------------------

CheckRunConfig IndexCheckConfig(uint64_t seed, TxMode mode = TxMode::kNormal) {
  CheckRunConfig cfg;
  cfg.workload = CheckWorkload::kIndex;
  cfg.platform = "scc";
  cfg.cm = CmKind::kFairCm;
  cfg.tx_mode = mode;
  cfg.max_batch = 8;
  cfg.seed = seed;
  return cfg;
}

TEST(OrderedIndexChaos, CleanUnderNormalAndElasticEarly) {
  for (const TxMode mode : {TxMode::kNormal, TxMode::kElasticEarly}) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      const CheckRunResult result = RunCheckedWorkload(IndexCheckConfig(seed, mode));
      EXPECT_TRUE(result.report.ok())
          << IndexCheckConfig(seed, mode).Name() << ": " << result.report.Summary();
    }
  }
}

// The planted SMO fault — a leaf split that publishes the new leaf in the
// chain but skips the parent link — is invisible to the serializability
// oracle (every transaction is internally consistent), so the tree-shape
// invariants must flag it. The load phase already forces splits in every
// partition, so the detection is deterministic on EVERY seed, not
// probabilistic.
TEST(OrderedIndexChaos, SmoSkipParentLinkFlaggedOnEverySeed) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CheckRunConfig cfg = IndexCheckConfig(seed);
    cfg.fault = FaultMode::kSmoSkipParentLink;
    const CheckRunResult result = RunCheckedWorkload(cfg);
    EXPECT_FALSE(result.report.ok()) << "seed " << seed;
    bool tree_shape = false;
    for (const OracleViolation& v : result.report.violations) {
      tree_shape |= v.kind == "tree-shape";
    }
    EXPECT_TRUE(tree_shape) << "seed " << seed
                            << ": no tree-shape violation; " << result.report.Summary();
  }
}

// Nightly breadth: the property run over more fanouts and seeds, plus the
// chaos matrix (both CMs, batch on/off) clean and the SMO fault flagged on
// every seed of a 10-seed sweep. GTEST_SKIPs unless TM2C_LONG_TESTS is set;
// the `long`-labelled ctest entry (-DTM2C_ENABLE_LONG_TESTS=ON) sets it.
TEST(OrderedIndexLong, LongPropertySweep) {
  if (std::getenv("TM2C_LONG_TESTS") == nullptr) {
    GTEST_SKIP() << "set TM2C_LONG_TESTS=1 (nightly) to run the breadth sweep";
  }
  for (const uint32_t fanout : {3u, 4u, 6u, 8u, 16u}) {
    for (const uint64_t seed : {7u, 1001u, 4242u}) {
      HostPropertyRun(fanout, seed, 1500);
    }
  }
  for (const CmKind cm : {CmKind::kFairCm, CmKind::kWholly}) {
    for (const uint32_t max_batch : {1u, 8u}) {
      for (uint64_t seed = 1; seed <= 10; ++seed) {
        CheckRunConfig cfg = IndexCheckConfig(seed);
        cfg.cm = cm;
        cfg.max_batch = max_batch;
        const CheckRunResult clean = RunCheckedWorkload(cfg);
        EXPECT_TRUE(clean.report.ok()) << cfg.Name() << ": " << clean.report.Summary();
        cfg.fault = FaultMode::kSmoSkipParentLink;
        const CheckRunResult faulty = RunCheckedWorkload(cfg);
        bool tree_shape = false;
        for (const OracleViolation& v : faulty.report.violations) {
          tree_shape |= v.kind == "tree-shape";
        }
        EXPECT_TRUE(tree_shape) << cfg.Name() << ": SMO fault not flagged";
      }
    }
  }
}

}  // namespace
}  // namespace tm2c
