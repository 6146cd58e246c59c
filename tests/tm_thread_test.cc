// TM2C protocol on the std::thread backend: the same DtmService/TxRuntime
// code under real OS concurrency (the Section 7 port), wired by TmSystem
// exactly as every bench runs it — abort-status words and the write-back
// latch included. No simulator, no fibers, so the TSan CI job runs this
// suite. These tests are nondeterministic by nature and assert only safety
// and completion.
#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "src/check/history.h"
#include "src/check/oracle.h"
#include "src/tm/tm_system.h"

namespace tm2c {
namespace {

TmSystemConfig ThreadConfig(uint32_t cores, uint32_t service, CmKind cm) {
  TmSystemConfig cfg;
  cfg.backend = BackendKind::kThreads;
  cfg.sim.platform = MakeOpteronPlatform();
  cfg.sim.num_cores = cores;
  cfg.sim.num_service = service;
  cfg.sim.shmem_bytes = 1 << 20;
  cfg.tm.cm = cm;
  return cfg;
}

TEST(ThreadTm, ConcurrentIncrementsExact) {
  for (CmKind cm : {CmKind::kBackoffRetry, CmKind::kFairCm}) {
    TmSystem sys(ThreadConfig(4, 2, cm));
    const uint64_t counter = sys.allocator().AllocGlobal(8);
    constexpr int kIncs = 500;
    sys.SetAllAppBodies([counter](CoreEnv&, TxRuntime& rt) {
      for (int k = 0; k < kIncs; ++k) {
        rt.Execute([counter](Tx& tx) { tx.Write(counter, tx.Read(counter) + 1); });
      }
    });
    sys.Run();
    EXPECT_EQ(sys.shmem().LoadWord(counter),
              static_cast<uint64_t>(sys.num_app_cores()) * kIncs)
        << "cm=" << CmKindName(cm);
  }
}

// A traced run: every core appends to its own event log, and Run replays
// the logs into the History, merged by stamp. The counter workload of
// backend_identity_test.
TEST(ThreadTm, TracedCounterRunFillsTheHistory) {
  constexpr uint32_t kAccounts = 16;
  constexpr int kIncsPerCore = 200;
  TmSystem sys(ThreadConfig(4, 2, CmKind::kFairCm));
  const uint64_t base = sys.allocator().AllocGlobal(kAccounts * kWordBytes);
  History history;
  for (uint32_t a = 0; a < kAccounts; ++a) {
    sys.shmem().StoreWord(base + a * kWordBytes, 0);
    history.RecordInitial(base + a * kWordBytes, 0);
  }
  sys.AttachTrace(&history);
  sys.SetAllAppBodies([base](CoreEnv& env, TxRuntime& rt) {
    Rng rng(env.core_id() * 97 + 13);
    for (int k = 0; k < kIncsPerCore; ++k) {
      const uint64_t addr = base + rng.NextBelow(kAccounts) * kWordBytes;
      rt.Execute([addr](Tx& tx) { tx.Write(addr, tx.Read(addr) + 1); });
    }
  });
  sys.Run();

  // Program order per core: attempts in epoch order, and each attempt's
  // reads and stores after the previous attempt's outcome and before its
  // own.
  uint64_t committed = 0;
  std::map<uint32_t, const History::Tx*> previous;
  for (const History::Tx& tx : history.transactions()) {
    EXPECT_TRUE(tx.finished) << tx.Name();
    committed += tx.committed ? 1 : 0;
    uint64_t after = 0;
    if (previous.count(tx.core) != 0) {
      EXPECT_GT(tx.epoch, previous[tx.core]->epoch) << tx.Name();
      after = previous[tx.core]->end_seq;
    }
    for (const History::Read& r : tx.reads) {
      EXPECT_TRUE(r.seq > after && r.seq < tx.end_seq) << tx.Name();
    }
    for (const History::Write& w : tx.writes) {
      EXPECT_TRUE(w.seq > after && w.seq < tx.end_seq) << tx.Name();
    }
    previous[tx.core] = &tx;
  }
  EXPECT_EQ(previous.size(), sys.num_app_cores());
  EXPECT_EQ(committed, sys.MergedStats().commits);
  EXPECT_EQ(committed, uint64_t{sys.num_app_cores()} * kIncsPerCore);
  OracleReport report;
  CheckFinalState(history, [&sys](uint64_t addr) { return sys.shmem().LoadWord(addr); }, &report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ThreadTm, BankTransfersConserveTotal) {
  TmSystem sys(ThreadConfig(4, 1, CmKind::kFairCm));
  constexpr uint32_t kAccounts = 32;
  const uint64_t base = sys.allocator().AllocGlobal(kAccounts * 8);
  for (uint32_t a = 0; a < kAccounts; ++a) {
    sys.shmem().StoreWord(base + a * 8, 100);
  }
  std::atomic<uint32_t> next_seed{1};
  sys.SetAllAppBodies([base, &next_seed](CoreEnv&, TxRuntime& rt) {
    Rng rng(next_seed.fetch_add(1));
    for (int k = 0; k < 300; ++k) {
      const uint64_t from = base + rng.NextBelow(kAccounts) * 8;
      uint64_t to = base + rng.NextBelow(kAccounts) * 8;
      if (to == from) {
        to = base + ((to - base) / 8 + 1) % kAccounts * 8;
      }
      rt.Execute([from, to](Tx& tx) {
        tx.Write(from, tx.Read(from) - 1);
        tx.Write(to, tx.Read(to) + 1);
      });
    }
  });
  sys.Run();
  uint64_t total = 0;
  for (uint32_t a = 0; a < kAccounts; ++a) {
    total += sys.shmem().LoadWord(base + a * 8);
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kAccounts) * 100);
}

TEST(ThreadTm, ScansSeeConsistentPairs) {
  TmSystem sys(ThreadConfig(4, 2, CmKind::kFairCm));
  const uint64_t base = sys.allocator().AllocGlobal(16);
  sys.shmem().StoreWord(base, 500);
  sys.shmem().StoreWord(base + 8, 500);
  std::atomic<bool> violation{false};
  std::atomic<uint32_t> role{0};
  sys.SetAllAppBodies([base, &violation, &role](CoreEnv&, TxRuntime& rt) {
    const uint32_t my_role = role.fetch_add(1);
    if (my_role % 2 == 0) {
      Rng rng(my_role + 10);
      for (int k = 0; k < 200; ++k) {
        const uint64_t d = rng.NextBelow(5);
        rt.Execute([base, d](Tx& tx) {
          tx.Write(base, tx.Read(base) - d);
          tx.Write(base + 8, tx.Read(base + 8) + d);
        });
      }
    } else {
      for (int k = 0; k < 200; ++k) {
        uint64_t a = 0;
        uint64_t b = 0;
        rt.Execute([&](Tx& tx) {
          a = tx.Read(base);
          b = tx.Read(base + 8);
        });
        if (a + b != 1000) {
          violation.store(true);
        }
      }
    }
  });
  sys.Run();
  EXPECT_FALSE(violation.load());
}

}  // namespace
}  // namespace tm2c
