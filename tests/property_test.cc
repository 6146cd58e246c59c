// Parameterized property sweep: the safety invariants must hold for every
// combination of contention manager, transaction mode, write-acquisition
// policy, batching, deployment strategy and platform. Each configuration
// runs a mixed adversarial workload (transfers + scans + a shared set) and
// checks:
//   1. conservation    — transfers never create or destroy money,
//   2. snapshot safety — scans only ever observe constant pair sums,
//   3. exactness       — per-core operation counts all took effect,
//   4. quiescence      — every lock table drains once the work completes.
//
// Scope notes. Offset-Greedy is excluded: it is livelock-prone by the
// paper's own analysis (Section 4.3) and this adversarial mix reliably
// triggers it. The multitasked deployment runs without the full-array
// scans: long read-lock footprints combined with zero-pause retries tip
// cooperative multitasking into congestion collapse (one of the reasons
// the paper adopted dedicated service cores); the dedicated rows keep the
// scans.
#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>

#include "src/apps/hash_table.h"
#include "src/tm/tm_system.h"

namespace tm2c {
namespace {

struct SweepParam {
  CmKind cm;
  TxMode mode;
  WriteAcquire acquire;
  uint32_t max_batch;  // 1 = unbatched protocol, >1 = kBatchAcquire chunks
  DeployStrategy strategy;
  const char* platform;
  // Simulation + workload seed. The default matrix runs one seed (tier-1
  // speed); the LongSeedMatrix instantiation sweeps several and only runs
  // when TM2C_LONG_TESTS is set (nightly breadth).
  uint64_t seed = 1234;
  bool long_run = false;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  std::string name = CmKindName(p.cm);
  name += p.mode == TxMode::kNormal ? "_normal"
          : p.mode == TxMode::kElasticEarly ? "_early" : "_eread";
  name += p.acquire == WriteAcquire::kLazy ? "_lazy" : "_eager";
  name += p.max_batch > 1 ? "_b" + std::to_string(p.max_batch) : "_nobatch";
  name += p.strategy == DeployStrategy::kDedicated ? "_ded" : "_multi";
  name += "_";
  name += p.platform;
  name += "_s" + std::to_string(p.seed);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

class TmPropertySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TmPropertySweep, InvariantsHold) {
  const SweepParam& p = GetParam();
  if (p.long_run && std::getenv("TM2C_LONG_TESTS") == nullptr) {
    GTEST_SKIP() << "set TM2C_LONG_TESTS=1 (nightly) to run the seed-sweep breadth suite";
  }
  TmSystemConfig cfg;
  cfg.sim.platform = PlatformByName(p.platform);
  cfg.sim.num_cores = 8;
  cfg.sim.num_service = p.strategy == DeployStrategy::kMultitasked ? 0 : 4;
  cfg.sim.strategy = p.strategy;
  cfg.sim.shmem_bytes = 2 << 20;
  cfg.sim.seed = p.seed;
  cfg.tm.cm = p.cm;
  cfg.tm.tx_mode = p.mode;
  cfg.tm.write_acquire = p.acquire;
  cfg.tm.max_batch = p.max_batch;
  TmSystem sys(std::move(cfg));

  constexpr uint32_t kAccounts = 24;
  constexpr uint64_t kInitial = 100;
  const uint64_t base = sys.allocator().AllocGlobal(kAccounts * 8);
  for (uint32_t a = 0; a < kAccounts; ++a) {
    sys.shmem().StoreWord(base + a * 8, kInitial);
  }
  ShmHashTable list(sys.allocator(), sys.shmem(), 1);
  for (uint64_t key = 2; key <= 32; key += 2) {
    list.HostAdd(sys.allocator(), key);
  }

  const uint32_t n = sys.num_app_cores();
  std::vector<bool> snapshot_ok(n, true);
  std::vector<int64_t> list_net(n, 0);
  std::vector<bool> done(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    sys.SetAppBody(i, [&, i](CoreEnv& env, TxRuntime& rt) {
      Rng rng(31 * (i + 1) + p.seed);
      for (int k = 0; k < 40; ++k) {
        const uint64_t kind = rng.NextBelow(3);
        if (kind == 0) {
          // Transfer between two accounts.
          const uint64_t from = base + rng.NextBelow(kAccounts) * 8;
          uint64_t to = base + rng.NextBelow(kAccounts) * 8;
          if (to == from) {
            to = base + ((to - base) / 8 + 1) % kAccounts * 8;
          }
          rt.Execute([from, to](Tx& tx) {
            tx.Write(from, tx.Read(from) - 1);
            tx.Write(to, tx.Read(to) + 1);
          });
        } else if (kind == 1 && p.strategy == DeployStrategy::kDedicated) {
          // Scan: under normal transactions the total must be invariant
          // inside one transaction. Elastic modes deliberately relax the
          // read prefix's atomicity (they are meant for search structures),
          // so a torn scan there is expected, not a bug.
          uint64_t total = 0;
          rt.Execute([&](Tx& tx) {
            total = 0;
            for (uint32_t a = 0; a < kAccounts; ++a) {
              total += tx.Read(base + a * 8);
            }
          });
          if (p.mode == TxMode::kNormal && total != kAccounts * kInitial) {
            snapshot_ok[i] = false;
          }
        } else {
          // Shared set churn. Multitasked rows use a short key range
          // (short traversals): long read-lock chains tip cooperative
          // multitasking into its congestion-collapse regime (see the
          // scope notes above).
          const uint64_t key =
              1 + rng.NextBelow(p.strategy == DeployStrategy::kDedicated ? 48 : 12);
          if (rng.NextPercent(50)) {
            if (list.Add(rt, env.allocator(), key)) {
              ++list_net[i];
            }
          } else {
            if (list.Remove(rt, key)) {
              --list_net[i];
            }
          }
        }
      }
      done[i] = true;
    });
  }
  sys.Run(MillisToSim(4000));

  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(done[i]) << "core " << i << " did not finish (livelock?)";
    EXPECT_TRUE(snapshot_ok[i]) << "core " << i << " observed a torn scan";
  }
  uint64_t total = 0;
  for (uint32_t a = 0; a < kAccounts; ++a) {
    total += sys.shmem().LoadWord(base + a * 8);
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kAccounts) * kInitial);
  int64_t expected_size = 16;
  for (int64_t d : list_net) {
    expected_size += d;
  }
  EXPECT_EQ(static_cast<int64_t>(list.HostSize()), expected_size);
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

// Starvation-free CMs across every mode/acquisition/batching/deployment
// combination, on two platforms. (kNone/kBackoffRetry/kOffsetGreedy are
// excluded: they may legitimately livelock this adversarial mix.)
INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, TmPropertySweep,
    ::testing::ValuesIn([] {
      std::vector<SweepParam> params;
      for (CmKind cm : {CmKind::kWholly, CmKind::kFairCm}) {
        for (TxMode mode : {TxMode::kNormal, TxMode::kElasticEarly, TxMode::kElasticRead}) {
          for (WriteAcquire acq : {WriteAcquire::kLazy, WriteAcquire::kEager}) {
            for (uint32_t max_batch : {uint32_t{8}, uint32_t{1}}) {
              for (DeployStrategy strategy :
                   {DeployStrategy::kDedicated, DeployStrategy::kMultitasked}) {
                params.push_back(
                    SweepParam{cm, mode, acq, max_batch, strategy, "scc"});
              }
            }
          }
        }
      }
      // Platform variation on the default configuration.
      params.push_back(SweepParam{CmKind::kFairCm, TxMode::kNormal, WriteAcquire::kLazy, 8,
                                  DeployStrategy::kDedicated, "scc800"});
      params.push_back(SweepParam{CmKind::kFairCm, TxMode::kNormal, WriteAcquire::kLazy, 8,
                                  DeployStrategy::kDedicated, "opteron"});
      return params;
    }()),
    ParamName);

// Nightly breadth: the same invariants over five more seeds, on a reduced
// but representative matrix (both starvation-free CMs, every tx mode, both
// batch settings, dedicated deployment, plus one opteron row per seed).
// Each case GTEST_SKIPs unless TM2C_LONG_TESTS is set; the `long`-labelled
// ctest entry registered under -DTM2C_ENABLE_LONG_TESTS=ON sets it.
INSTANTIATE_TEST_SUITE_P(
    LongSeedMatrix, TmPropertySweep,
    ::testing::ValuesIn([] {
      std::vector<SweepParam> params;
      for (uint64_t seed : {7u, 1001u, 4242u, 90210u, 31337u}) {
        for (CmKind cm : {CmKind::kWholly, CmKind::kFairCm}) {
          for (TxMode mode : {TxMode::kNormal, TxMode::kElasticEarly, TxMode::kElasticRead}) {
            for (uint32_t max_batch : {uint32_t{8}, uint32_t{1}}) {
              params.push_back(SweepParam{cm, mode, WriteAcquire::kLazy, max_batch,
                                          DeployStrategy::kDedicated, "scc", seed, true});
            }
          }
        }
        params.push_back(SweepParam{CmKind::kFairCm, TxMode::kNormal, WriteAcquire::kLazy, 8,
                                    DeployStrategy::kDedicated, "opteron", seed, true});
      }
      return params;
    }()),
    ParamName);

}  // namespace
}  // namespace tm2c
