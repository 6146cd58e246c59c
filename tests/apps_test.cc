// Tests of the benchmark applications on the simulated many-core.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/apps/bank.h"
#include "src/apps/hash_table.h"
#include "src/apps/mapreduce.h"
#include "src/apps/node_pool.h"
#include "src/tm/tm_system.h"

namespace tm2c {
namespace {

constexpr SimTime kTestHorizon = MillisToSim(4000);

TmSystemConfig BaseConfig(uint32_t cores = 8, uint32_t service = 4,
                          CmKind cm = CmKind::kFairCm) {
  TmSystemConfig cfg;
  cfg.sim.platform = MakeSccPlatform(0);
  cfg.sim.num_cores = cores;
  cfg.sim.num_service = service;
  cfg.sim.shmem_bytes = 8 << 20;
  cfg.sim.seed = 7;
  cfg.tm.cm = cm;
  return cfg;
}

// ---------------------------------------------------------------- Bank --

TEST(BankApp, TransfersConserveTotalUnderContention) {
  TmSystem sys(BaseConfig());
  Bank bank(sys.allocator(), sys.shmem(), 128, 1000);
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [&bank, i](CoreEnv&, TxRuntime& rt) {
      Rng rng(100 + i);
      for (int k = 0; k < 60; ++k) {
        const auto from = static_cast<uint32_t>(rng.NextBelow(bank.num_accounts()));
        const auto to = static_cast<uint32_t>(rng.NextBelow(bank.num_accounts()));
        if (from == to) {
          continue;
        }
        rt.Execute([&](Tx& tx) { bank.TxTransfer(tx, from, to, 3); });
      }
    });
  }
  sys.Run(kTestHorizon);
  EXPECT_EQ(bank.HostTotal(), 128u * 1000);
}

TEST(BankApp, TxBalanceSeesConstantTotal) {
  TmSystem sys(BaseConfig());
  Bank bank(sys.allocator(), sys.shmem(), 64, 500);
  bool bad_balance = false;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    for (int k = 0; k < 15; ++k) {
      uint64_t total = 0;
      rt.Execute([&](Tx& tx) { total = bank.TxBalance(tx); });
      if (total != 64u * 500) {
        bad_balance = true;
      }
    }
  });
  for (uint32_t i = 1; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [&bank, i](CoreEnv&, TxRuntime& rt) {
      Rng rng(i);
      for (int k = 0; k < 40; ++k) {
        const auto from = static_cast<uint32_t>(rng.NextBelow(64));
        const auto to = static_cast<uint32_t>((from + 1 + rng.NextBelow(62)) % 64);
        rt.Execute([&](Tx& tx) { bank.TxTransfer(tx, from, to, 1); });
      }
    });
  }
  sys.Run(kTestHorizon);
  EXPECT_FALSE(bad_balance);
  EXPECT_EQ(bank.HostTotal(), 64u * 500);
}

TEST(BankApp, GlobalLockVersionConservesTotal) {
  TmSystem sys(BaseConfig());
  Bank bank(sys.allocator(), sys.shmem(), 64, 100);
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [&bank, i](CoreEnv& env, TxRuntime&) {
      Rng rng(200 + i);
      for (int k = 0; k < 50; ++k) {
        const auto from = static_cast<uint32_t>(rng.NextBelow(64));
        const auto to = static_cast<uint32_t>((from + 1) % 64);
        bank.LockTransfer(env, from, to, 2);
      }
    });
  }
  sys.Run(kTestHorizon);
  EXPECT_EQ(bank.HostTotal(), 64u * 100);
}

TEST(BankApp, LockBalanceConsistentWithConcurrentLockTransfers) {
  TmSystem sys(BaseConfig(4, 1));
  Bank bank(sys.allocator(), sys.shmem(), 32, 100);
  bool bad = false;
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime&) {
    for (int k = 0; k < 20; ++k) {
      if (bank.LockBalance(env) != 32u * 100) {
        bad = true;
      }
    }
  });
  for (uint32_t i = 1; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [&bank, i](CoreEnv& env, TxRuntime&) {
      Rng rng(i);
      for (int k = 0; k < 40; ++k) {
        const auto from = static_cast<uint32_t>(rng.NextBelow(32));
        bank.LockTransfer(env, from, (from + 3) % 32, 1);
      }
    });
  }
  sys.Run(kTestHorizon);
  EXPECT_FALSE(bad);
}

// ---------------------------------------------------------- Hash table --

TEST(HashTableApp, HostSetupAndLookup) {
  TmSystem sys(BaseConfig());
  ShmHashTable table(sys.allocator(), sys.shmem(), 16);
  EXPECT_TRUE(table.HostAdd(sys.allocator(), 5));
  EXPECT_TRUE(table.HostAdd(sys.allocator(), 21));  // same bucket likely
  EXPECT_FALSE(table.HostAdd(sys.allocator(), 5));
  EXPECT_TRUE(table.HostContains(5));
  EXPECT_TRUE(table.HostContains(21));
  EXPECT_FALSE(table.HostContains(6));
  EXPECT_EQ(table.HostSize(), 2u);
}

TEST(HashTableApp, TransactionalOpsMatchReferenceSet) {
  TmSystem sys(BaseConfig(4, 2));
  ShmHashTable table(sys.allocator(), sys.shmem(), 8);
  // Deterministic single-core op stream checked against std::set.
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    std::set<uint64_t> reference;
    Rng rng(99);
    for (int k = 0; k < 300; ++k) {
      const uint64_t key = 1 + rng.NextBelow(50);
      const uint64_t op = rng.NextBelow(3);
      if (op == 0) {
        EXPECT_EQ(table.Add(rt, env.allocator(), key), reference.insert(key).second);
      } else if (op == 1) {
        EXPECT_EQ(table.Remove(rt, key), reference.erase(key) == 1);
      } else {
        EXPECT_EQ(table.Contains(rt, key), reference.count(key) == 1);
      }
    }
    EXPECT_EQ(table.HostSize(), reference.size());
  });
  sys.Run(kTestHorizon);
}

TEST(HashTableApp, ConcurrentMixedOpsKeepStructureSane) {
  TmSystem sys(BaseConfig());
  ShmHashTable table(sys.allocator(), sys.shmem(), 32);
  for (uint64_t key = 1; key <= 64; ++key) {
    table.HostAdd(sys.allocator(), key);
  }
  std::vector<int64_t> net_adds(sys.num_app_cores(), 0);
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [&, i](CoreEnv& env, TxRuntime& rt) {
      Rng rng(31 * (i + 1));
      for (int k = 0; k < 60; ++k) {
        const uint64_t key = 1 + rng.NextBelow(128);
        if (rng.NextPercent(50)) {
          if (table.Add(rt, env.allocator(), key)) {
            ++net_adds[i];
          }
        } else {
          if (table.Remove(rt, key)) {
            --net_adds[i];
          }
        }
      }
    });
  }
  sys.Run(kTestHorizon);
  int64_t net = 64;
  for (int64_t d : net_adds) {
    net += d;
  }
  EXPECT_EQ(static_cast<int64_t>(table.HostSize()), net);
}

TEST(HashTableApp, MoveIsAtomic) {
  TmSystem sys(BaseConfig());
  ShmHashTable table(sys.allocator(), sys.shmem(), 16);
  // Start with even keys present; movers shuffle between even and odd,
  // scanners verify the element count never changes.
  for (uint64_t key = 2; key <= 128; key += 2) {
    table.HostAdd(sys.allocator(), key);
  }
  const uint64_t initial = table.HostSize();
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [&, i](CoreEnv& env, TxRuntime& rt) {
      Rng rng(17 * (i + 1));
      for (int k = 0; k < 40; ++k) {
        const uint64_t from = 1 + rng.NextBelow(128);
        const uint64_t to = 1 + rng.NextBelow(128);
        if (from != to) {
          table.Move(rt, env.allocator(), from, to);
        }
      }
    });
  }
  sys.Run(kTestHorizon);
  EXPECT_EQ(table.HostSize(), initial);  // moves never create or destroy
}

TEST(HashTableApp, SequentialBaselineWorks) {
  TmSystem sys(BaseConfig(2, 1));
  ShmHashTable table(sys.allocator(), sys.shmem(), 8);
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime&) {
    EXPECT_TRUE(table.SeqAdd(env, env.allocator(), 10));
    EXPECT_TRUE(table.SeqAdd(env, env.allocator(), 3));
    EXPECT_FALSE(table.SeqAdd(env, env.allocator(), 10));
    EXPECT_TRUE(table.SeqContains(env, 3));
    EXPECT_TRUE(table.SeqRemove(env, 10));
    EXPECT_FALSE(table.SeqContains(env, 10));
  });
  sys.Run(kTestHorizon);
  EXPECT_EQ(table.HostSize(), 1u);
}

// --------------------------------------------------------- Linked list --

TEST(LinkedListApp, SortedSetSemantics) {
  TmSystem sys(BaseConfig(4, 2));
  ShmHashTable list(sys.allocator(), sys.shmem(), 1);
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    std::set<uint64_t> reference;
    Rng rng(5);
    for (int k = 0; k < 200; ++k) {
      const uint64_t key = 1 + rng.NextBelow(40);
      const uint64_t op = rng.NextBelow(3);
      if (op == 0) {
        EXPECT_EQ(list.Add(rt, env.allocator(), key), reference.insert(key).second);
      } else if (op == 1) {
        EXPECT_EQ(list.Remove(rt, key), reference.erase(key) == 1);
      } else {
        EXPECT_EQ(list.Contains(rt, key), reference.count(key) == 1);
      }
    }
    EXPECT_EQ(list.HostSize(), reference.size());
  });
  sys.Run(kTestHorizon);
}

void RunListConcurrencyTest(TxMode mode) {
  TmSystemConfig cfg = BaseConfig(6, 3);
  cfg.tm.tx_mode = mode;
  TmSystem sys(std::move(cfg));
  ShmHashTable list(sys.allocator(), sys.shmem(), 1);
  for (uint64_t key = 2; key <= 64; key += 2) {
    list.HostAdd(sys.allocator(), key);
  }
  std::vector<int64_t> net(sys.num_app_cores(), 0);
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [&, i](CoreEnv& env, TxRuntime& rt) {
      Rng rng(7 * (i + 1));
      for (int k = 0; k < 50; ++k) {
        const uint64_t key = 1 + rng.NextBelow(96);
        const uint64_t op = rng.NextBelow(10);
        if (op < 1) {
          if (list.Add(rt, env.allocator(), key)) {
            ++net[i];
          }
        } else if (op < 2) {
          if (list.Remove(rt, key)) {
            --net[i];
          }
        } else {
          (void)list.Contains(rt, key);
        }
      }
    });
  }
  sys.Run(kTestHorizon);
  int64_t expected = 32;
  for (int64_t d : net) {
    expected += d;
  }
  EXPECT_EQ(static_cast<int64_t>(list.HostSize()), expected)
      << "mode=" << static_cast<int>(mode);
}

TEST(LinkedListApp, ConcurrentOpsNormalMode) { RunListConcurrencyTest(TxMode::kNormal); }
TEST(LinkedListApp, ConcurrentOpsElasticEarly) { RunListConcurrencyTest(TxMode::kElasticEarly); }
TEST(LinkedListApp, ConcurrentOpsElasticRead) { RunListConcurrencyTest(TxMode::kElasticRead); }

TEST(LinkedListApp, ElasticModesReduceAborts) {
  // The headline claim of Section 6: elastic transactions diminish the
  // abort rate of list traversals under concurrent updates.
  auto run = [](TxMode mode) {
    TmSystemConfig cfg = BaseConfig(6, 3);
    cfg.tm.tx_mode = mode;
    cfg.sim.seed = 11;
    TmSystem sys(std::move(cfg));
    ShmHashTable list(sys.allocator(), sys.shmem(), 1);
    for (uint64_t key = 1; key <= 128; ++key) {
      list.HostAdd(sys.allocator(), key);
    }
    for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
      sys.SetAppBody(i, [&list, i](CoreEnv& env, TxRuntime& rt) {
        Rng rng(13 * (i + 1));
        for (int k = 0; k < 40; ++k) {
          const uint64_t key = 1 + rng.NextBelow(128);
          if (rng.NextPercent(20)) {
            if (rng.NextPercent(50)) {
              list.Add(rt, env.allocator(), key);
            } else {
              list.Remove(rt, key);
            }
          } else {
            (void)list.Contains(rt, key);
          }
        }
      });
    }
    sys.Run(kTestHorizon);
    return sys.MergedStats();
  };
  const TxStats normal = run(TxMode::kNormal);
  const TxStats elastic = run(TxMode::kElasticRead);
  EXPECT_LT(elastic.aborts, normal.aborts);
}

// ----------------------------------------------------------- MapReduce --

TEST(MapReduceApp, ParallelCountMatchesGroundTruth) {
  TmSystemConfig cfg = BaseConfig(8, 1);
  cfg.sim.shmem_bytes = 4 << 20;
  TmSystem sys(std::move(cfg));
  MapReduceConfig mr_cfg;
  mr_cfg.input_bytes = 256 << 10;
  MapReduceApp app(sys.allocator(), sys.shmem(), mr_cfg);
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [&app](CoreEnv& env, TxRuntime& rt) { app.RunWorker(env, rt, 8 << 10); });
  }
  sys.Run(kTestHorizon);
  EXPECT_EQ(app.HostResultCounts(), app.HostExpectedCounts());
}

TEST(MapReduceApp, SequentialCountMatchesGroundTruth) {
  TmSystemConfig cfg = BaseConfig(2, 1);
  cfg.sim.shmem_bytes = 4 << 20;
  TmSystem sys(std::move(cfg));
  MapReduceConfig mr_cfg;
  mr_cfg.input_bytes = 128 << 10;
  MapReduceApp app(sys.allocator(), sys.shmem(), mr_cfg);
  sys.SetAppBody(0, [&app](CoreEnv& env, TxRuntime&) { app.RunSequential(env); });
  sys.Run(kTestHorizon);
  EXPECT_EQ(app.HostResultCounts(), app.HostExpectedCounts());
}

TEST(MapReduceApp, ParallelIsFasterThanSequential) {
  MapReduceConfig mr_cfg;
  // Large enough that per-chunk compute dominates the chunk-claim
  // transactions (the paper's inputs are 256MB+; Section 5.4 notes the
  // transactional load is low).
  mr_cfg.input_bytes = 512 << 10;

  auto run = [&mr_cfg](bool parallel) {
    TmSystemConfig cfg = BaseConfig(parallel ? 8 : 2, 1);
    cfg.sim.shmem_bytes = 16 << 20;
    TmSystem sys(std::move(cfg));
    MapReduceApp app(sys.allocator(), sys.shmem(), mr_cfg);
    SimTime duration = 0;
    if (parallel) {
      for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
        sys.SetAppBody(i, [&app](CoreEnv& env, TxRuntime& rt) { app.RunWorker(env, rt, 8 << 10); });
      }
    } else {
      sys.SetAppBody(0, [&app](CoreEnv& env, TxRuntime&) { app.RunSequential(env); });
    }
    duration = sys.Run(kTestHorizon);
    EXPECT_EQ(app.HostResultCounts(), app.HostExpectedCounts());
    return duration;
  };
  const SimTime seq = run(false);
  const SimTime par = run(true);
  EXPECT_LT(par, seq);
}

TEST(MapReduceApp, ResetRunClearsState) {
  TmSystemConfig cfg = BaseConfig(2, 1);
  cfg.sim.shmem_bytes = 2 << 20;
  TmSystem sys(std::move(cfg));
  MapReduceConfig mr_cfg;
  mr_cfg.input_bytes = 64 << 10;
  MapReduceApp app(sys.allocator(), sys.shmem(), mr_cfg);
  sys.SetAppBody(0, [&app](CoreEnv& env, TxRuntime&) { app.RunSequential(env); });
  sys.Run(kTestHorizon);
  EXPECT_EQ(app.HostResultCounts(), app.HostExpectedCounts());
  app.ResetRun();
  std::array<uint64_t, MapReduceApp::kLetters> zeros{};
  EXPECT_EQ(app.HostResultCounts(), zeros);
}

// ----------------------------------------------------------- Node pool --

// Each partition: a 2-word header, then 6 slots of 3 words.
constexpr uint64_t kPoolHeaderWords = 2;
constexpr uint64_t kPoolNodeWords = 3;
constexpr uint32_t kPoolCapacity = 6;

NodePool MakePool(TmSystem& sys) {
  return NodePool(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                  kPoolHeaderWords, kPoolNodeWords, kPoolCapacity);
}

uint64_t SlotAddr(const NodePool& pool, uint32_t partition, uint32_t slot) {
  return pool.Slab(partition).first + (kPoolHeaderWords + slot * kPoolNodeWords) * kWordBytes;
}

TEST(NodePool, BumpOrderThenLifoReuse) {
  TmSystem sys(BaseConfig(4, 2));
  NodePool pool = MakePool(sys);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(pool.Alloc(0), SlotAddr(pool, 0, i));
  }
  EXPECT_EQ(pool.Alloc(1), SlotAddr(pool, 1, 0));  // partitions count separately
  pool.Free(0, SlotAddr(pool, 0, 0));
  pool.Free(0, SlotAddr(pool, 0, 2));
  EXPECT_EQ(pool.InUse(0), 1u);
  EXPECT_EQ(pool.Alloc(0), SlotAddr(pool, 0, 2));  // the last freed first
  EXPECT_EQ(pool.Alloc(0), SlotAddr(pool, 0, 0));
  EXPECT_EQ(pool.Alloc(0), SlotAddr(pool, 0, 3));  // then the bump index again
  EXPECT_EQ(pool.InUse(0), 4u);
  EXPECT_EQ(pool.InUse(1), 1u);
}

TEST(NodePool, AllocReturnsZeroWhenExhausted) {
  TmSystem sys(BaseConfig(4, 2));
  NodePool pool = MakePool(sys);
  for (uint32_t i = 0; i < kPoolCapacity; ++i) {
    EXPECT_EQ(pool.Alloc(0), SlotAddr(pool, 0, i));
  }
  EXPECT_EQ(pool.Alloc(0), 0u);
  EXPECT_EQ(pool.InUse(0), kPoolCapacity);
  EXPECT_EQ(pool.Alloc(1), SlotAddr(pool, 1, 0));  // the other partition has room
  pool.Free(0, SlotAddr(pool, 0, 4));
  EXPECT_EQ(pool.Alloc(0), SlotAddr(pool, 0, 4));
  EXPECT_EQ(pool.Alloc(0), 0u);
}

TEST(NodePool, ContainsOnlyAlignedSlotsOfItsOwnPartition) {
  TmSystem sys(BaseConfig(4, 2));
  NodePool pool = MakePool(sys);
  for (uint32_t i = 0; i < kPoolCapacity; ++i) {
    EXPECT_TRUE(pool.Contains(0, SlotAddr(pool, 0, i)));
    EXPECT_EQ(pool.SlotOf(0, SlotAddr(pool, 0, i)), i);
    EXPECT_FALSE(pool.Contains(0, SlotAddr(pool, 0, i) + kWordBytes));  // misaligned
    EXPECT_FALSE(pool.Contains(1, SlotAddr(pool, 0, i)));  // another partition's
  }
  EXPECT_FALSE(pool.Contains(0, 0));
  EXPECT_FALSE(pool.Contains(0, pool.Slab(0).first));  // the header
  EXPECT_FALSE(pool.Contains(0, SlotAddr(pool, 0, 0) - kPoolNodeWords * kWordBytes));
  EXPECT_FALSE(pool.Contains(0, SlotAddr(pool, 0, kPoolCapacity)));  // past the end
}

TEST(NodePool, RebuildKeepsTheLiveSlotsAndFreesTheHolesBelowThem) {
  TmSystem sys(BaseConfig(4, 2));
  NodePool pool = MakePool(sys);
  EXPECT_NE(pool.Alloc(0), 0u);  // bookkeeping the rebuild replaces
  // Slots 1 and 3 live: holes 0 and 2 go on the free list in ascending
  // order (so the LIFO hands out 2 first), and slot 4 is the next
  // untouched one.
  pool.Rebuild(0, {false, true, false, true, false, false});
  EXPECT_EQ(pool.InUse(0), 2u);
  EXPECT_EQ(pool.Alloc(0), SlotAddr(pool, 0, 2));
  EXPECT_EQ(pool.Alloc(0), SlotAddr(pool, 0, 0));
  EXPECT_EQ(pool.Alloc(0), SlotAddr(pool, 0, 4));
  EXPECT_EQ(pool.Alloc(0), SlotAddr(pool, 0, 5));
  EXPECT_EQ(pool.Alloc(0), 0u);
  // Nothing live: the pool starts over at slot 0.
  pool.Rebuild(0, std::vector<bool>(kPoolCapacity, false));
  EXPECT_EQ(pool.InUse(0), 0u);
  EXPECT_EQ(pool.Alloc(0), SlotAddr(pool, 0, 0));
}

TEST(NodePool, SlabsAreStripeAlignedOwnedAndZeroed) {
  TmSystemConfig cfg = BaseConfig(6, 3);
  cfg.tm.stripe_bytes = 64;
  TmSystem sys(std::move(cfg));
  // Dirty the whole shared memory: whatever the allocator hands the pool,
  // the header and every slot Alloc hands out must read zero.
  for (uint64_t addr = 0; addr < sys.shmem().size_bytes(); addr += kWordBytes) {
    sys.shmem().StoreWord(addr, 0xDEADDEADDEADDEADull);
  }
  NodePool pool = MakePool(sys);
  ASSERT_EQ(pool.num_partitions(), 3u);
  for (uint32_t p = 0; p < pool.num_partitions(); ++p) {
    const auto [base, bytes] = pool.Slab(p);
    EXPECT_EQ(base % 64, 0u);
    EXPECT_EQ(bytes, 192u);  // 20 words, rounded up to whole stripes
    uint64_t foreign = 0;
    for (uint64_t addr = base; addr < base + bytes; addr += kWordBytes) {
      foreign += sys.address_map().PartitionOf(addr) == p ? 0 : 1;
    }
    EXPECT_EQ(foreign, 0u) << "partition " << p;
    uint64_t dirty = 0;
    for (uint64_t addr = base; addr < base + kPoolHeaderWords * kWordBytes; addr += kWordBytes) {
      dirty += sys.shmem().LoadWord(addr) == 0 ? 0 : 1;
    }
    for (uint32_t i = 0; i < kPoolCapacity; ++i) {
      const uint64_t node = pool.Alloc(p);
      ASSERT_EQ(node, SlotAddr(pool, p, i));
      for (uint64_t w = 0; w < kPoolNodeWords; ++w) {
        dirty += sys.shmem().LoadWord(node + w * kWordBytes) == 0 ? 0 : 1;
      }
    }
    EXPECT_EQ(dirty, 0u) << "partition " << p;
  }
}

TEST(NodePool, ZeroesFreshSlotsAChunkAheadOfAlloc) {
  // 1 MiB chunks of 8-word slots: 16384 slots each. Memory dirtied before
  // the pool is built stays dirty until the chunk holding the next fresh
  // slot is zeroed, and Contains admits only zeroed slots.
  constexpr uint64_t kNodeWords = 8;
  constexpr uint32_t kChunkSlots = (1u << 20) / (kNodeWords * kWordBytes);
  TmSystemConfig cfg = BaseConfig(4, 2);
  cfg.sim.shmem_bytes = 16 << 20;
  TmSystem sys(std::move(cfg));
  for (uint64_t addr = 0; addr < sys.shmem().size_bytes(); addr += kWordBytes) {
    sys.shmem().StoreWord(addr, 0xDEADDEADDEADDEADull);
  }
  NodePool pool(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                /*header_words=*/1, kNodeWords, 3 * kChunkSlots);
  const auto slot = [&](uint32_t i) {
    return pool.Slab(0).first + kNodeWords * kWordBytes + uint64_t{i} * kNodeWords * kWordBytes;
  };
  EXPECT_EQ(sys.shmem().LoadWord(pool.Slab(0).first), 0u);  // the header
  EXPECT_TRUE(pool.Contains(0, slot(kChunkSlots - 1)));
  EXPECT_FALSE(pool.Contains(0, slot(kChunkSlots)));
  EXPECT_NE(sys.shmem().LoadWord(slot(kChunkSlots)), 0u);  // not touched yet
  for (uint32_t i = 0; i <= kChunkSlots; ++i) {
    ASSERT_EQ(pool.Alloc(0), slot(i));
  }
  EXPECT_TRUE(pool.Contains(0, slot(2 * kChunkSlots - 1)));
  EXPECT_FALSE(pool.Contains(0, slot(2 * kChunkSlots)));
  for (uint64_t w = 0; w < kNodeWords; ++w) {
    EXPECT_EQ(sys.shmem().LoadWord(slot(2 * kChunkSlots - 1) + w * kWordBytes), 0u);
  }
  EXPECT_NE(sys.shmem().LoadWord(slot(2 * kChunkSlots)), 0u);
}

TEST(NodePool, LockUnitPadsTheHeaderAndEverySlotToWholeUnits) {
  // Every slot is one lock unit and the header words keep their own
  // stripes. Only the header is padded, and only to the slot's natural
  // alignment: the largest power of two dividing the slot, at most 64 B.
  struct Shape {
    uint64_t header_words, node_words, slot_align;
  };
  for (const Shape& shape : {Shape{2, 3, 8}, Shape{3, 6, 16}, Shape{1, 14, 16},
                             Shape{5, 16, 64}, Shape{1, 32, 64}}) {
    SCOPED_TRACE(testing::Message() << shape.header_words << "-word header, "
                                    << shape.node_words << "-word slots");
    TmSystem sys(BaseConfig(4, 2));
    NodePool pool(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(),
                  shape.header_words, shape.node_words, kPoolCapacity);
    const AddressMap& map = sys.address_map();
    const uint64_t node_bytes = shape.node_words * kWordBytes;
    const uint64_t header_bytes =
        (shape.header_words * kWordBytes + shape.slot_align - 1) / shape.slot_align *
        shape.slot_align;
    for (uint32_t p = 0; p < pool.num_partitions(); ++p) {
      const auto [base, bytes] = pool.Slab(p);
      EXPECT_EQ(base % 64, 0u);
      EXPECT_EQ(bytes, header_bytes + kPoolCapacity * node_bytes);  // slots packed
      for (uint64_t addr = base; addr < base + header_bytes; addr += kWordBytes) {
        EXPECT_EQ(map.StripeOf(addr), addr);
        EXPECT_EQ(map.LockBytesOf(addr), kWordBytes);
        EXPECT_FALSE(pool.Contains(p, addr));
      }
      for (uint32_t i = 0; i < kPoolCapacity; ++i) {
        const uint64_t slot = pool.Alloc(p);
        EXPECT_EQ(slot, base + header_bytes + i * node_bytes);
        EXPECT_EQ(slot % shape.slot_align, 0u);
        EXPECT_EQ(pool.SlotOf(p, slot), i);
        // One lock covers every word of the slot, and only the slot.
        for (uint64_t w = 0; w < shape.node_words; ++w) {
          EXPECT_EQ(map.StripeOf(slot + w * kWordBytes), slot);
          EXPECT_EQ(map.PartitionOf(slot + w * kWordBytes), p);
        }
        EXPECT_EQ(map.LockBytesOf(slot), node_bytes);
      }
    }
  }
}

}  // namespace
}  // namespace tm2c
