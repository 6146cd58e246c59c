// The paper's workload mixes, shared by the figure benches, plus the
// YCSB-style key-value mixes for bench_ycsb.
#ifndef TM2C_BENCH_WORKLOADS_H_
#define TM2C_BENCH_WORKLOADS_H_

#include <cmath>
#include <memory>

#include "bench/bench_util.h"
#include "src/apps/bank.h"
#include "src/apps/hash_table.h"
#include "src/apps/kvstore.h"

namespace tm2c {

// Fixed per-operation application cost, in core cycles: the benchmark
// harness work (operation draw, key generation, hashing, bookkeeping) that
// the 533 MHz in-order P54C pays around every operation, transactional or
// not. Calibrated so that absolute throughputs line up with the paper:
// with ~10k cycles (~19 us on the SCC) the dedicated 48-core hash table
// reaches the paper's ~250 ops/ms (Figure 4(a)) while the lock-based bank
// peaks near the paper's ~350 ops/ms (Figure 5(d)), because the harness
// cost sits outside the lock's critical section.
constexpr uint64_t kOpOverheadCycles = 10000;

// Synchrobench-style hash table mix: `update_pct` of operations try to
// modify (half add, half remove — a failed update counts as a read-only
// transaction, as in the paper); the rest are contains. Keys are uniform in
// [1, key_range]. On a one-bucket table this is the linked-list mix
// (Sections 6.2, 7.2).
inline OpFn HashTableMix(const ShmHashTable* table, uint32_t update_pct, uint64_t key_range) {
  return [table, update_pct, key_range](CoreEnv& env, TxRuntime& rt, Rng& rng) {
    env.Compute(kOpOverheadCycles);
    const uint64_t key = 1 + rng.NextBelow(key_range);
    if (rng.NextPercent(update_pct)) {
      if (rng.NextPercent(50)) {
        table->Add(rt, env.allocator(), key);
      } else {
        table->Remove(rt, key);
      }
    } else {
      table->Contains(rt, key);
    }
  };
}

// Figure 4(c)'s mix: `move_pct` moves plus (update_pct - move_pct)
// add/remove updates, the rest contains.
inline OpFn HashTableMixWithMoves(const ShmHashTable* table, uint32_t update_pct,
                                  uint32_t move_pct, uint64_t key_range) {
  return [table, update_pct, move_pct, key_range](CoreEnv& env, TxRuntime& rt, Rng& rng) {
    env.Compute(kOpOverheadCycles);
    const uint64_t key = 1 + rng.NextBelow(key_range);
    const uint64_t roll = rng.NextBelow(100);
    if (roll < move_pct) {
      uint64_t to = 1 + rng.NextBelow(key_range);
      if (to == key) {
        to = 1 + to % key_range;
      }
      table->Move(rt, env.allocator(), key, to);
    } else if (roll < update_pct) {
      if (rng.NextPercent(50)) {
        table->Add(rt, env.allocator(), key);
      } else {
        table->Remove(rt, key);
      }
    } else {
      table->Contains(rt, key);
    }
  };
}

// Populates a table to `elements` keys drawn from [1, 2*elements] so the
// size stays roughly stable under a balanced add/remove mix.
inline uint64_t FillHashTable(ShmHashTable& table, ShmAllocator& allocator, Rng& rng,
                              uint64_t elements) {
  const uint64_t key_range = 2 * elements;
  uint64_t added = 0;
  while (added < elements) {
    if (table.HostAdd(allocator, 1 + rng.NextBelow(key_range))) {
      ++added;
    }
  }
  return key_range;
}

// Bank mix: `balance_pct` balance scans, the rest single-unit transfers
// between uniformly random accounts (Section 5.3).
inline OpFn BankMix(const Bank* bank, uint32_t balance_pct) {
  return [bank, balance_pct](CoreEnv& env, TxRuntime& rt, Rng& rng) {
    env.Compute(kOpOverheadCycles);
    if (balance_pct > 0 && rng.NextPercent(balance_pct)) {
      rt.Execute([bank](Tx& tx) { (void)bank->TxBalance(tx); });
      return;
    }
    const uint32_t n = bank->num_accounts();
    const auto from = static_cast<uint32_t>(rng.NextBelow(n));
    auto to = static_cast<uint32_t>(rng.NextBelow(n));
    if (to == from) {
      to = (to + 1) % n;
    }
    rt.Execute([&](Tx& tx) { bank->TxTransfer(tx, from, to, 1); });
  };
}

// Lock-based bank mix for the Figure 5(d) baseline. Counts operations into
// `*ops` (shared across cores; the simulator is single-threaded).
inline OpFn BankLockMix(const Bank* bank, uint32_t balance_pct, uint64_t* ops) {
  return [bank, balance_pct, ops](CoreEnv& env, TxRuntime&, Rng& rng) {
    env.Compute(kOpOverheadCycles);
    if (balance_pct > 0 && rng.NextPercent(balance_pct)) {
      (void)bank->LockBalance(env);
      ++*ops;
      return;
    }
    const uint32_t n = bank->num_accounts();
    const auto from = static_cast<uint32_t>(rng.NextBelow(n));
    auto to = static_cast<uint32_t>(rng.NextBelow(n));
    if (to == from) {
      to = (to + 1) % n;
    }
    bank->LockTransfer(env, from, to, 1);
    ++*ops;
  };
}

// ---------------------------------------------------------------------------
// YCSB-style key-value workload (bench_ycsb)
// ---------------------------------------------------------------------------

// Zipfian rank generator over [0, n), Gray et al.'s "Quickly generating
// billion-record synthetic databases" rejection-free algorithm (the one
// YCSB uses). theta in (0, 1); YCSB's default skew is theta = 0.99, where
// the hottest key draws a few percent of all requests. Ranks are scrambled
// through a full-avalanche hash before use (YCSB's "scrambled zipfian") so
// the hot keys spread over the whole keyspace instead of clustering at the
// low ids — without it, hot keys would also share store partitions.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
    TM2C_CHECK(n >= 2 && theta > 0.0 && theta < 1.0);
    zetan_ = Zeta(n, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - Zeta(2, theta) / zetan_);
  }

  // Next rank, 0 = the hottest. O(1) per draw.
  uint64_t NextRank(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < 1.0 + std::pow(0.5, theta_)) {
      return 1;
    }
    const auto rank = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
  }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

// Draws keys in [1, num_keys] (keys are non-zero), either uniformly or
// zipfian-skewed with scrambling. theta == 0 selects uniform. Stateless
// per draw, so one shared instance serves every core.
class KeyChooser {
 public:
  KeyChooser(uint64_t num_keys, double theta) : num_keys_(num_keys) {
    if (theta > 0.0) {
      zipf_ = std::make_unique<ZipfianGenerator>(num_keys, theta);
    }
  }

  uint64_t Next(Rng& rng) const {
    if (zipf_ == nullptr) {
      return 1 + rng.NextBelow(num_keys_);
    }
    // FNV-1a-style scramble of the rank (see ZipfianGenerator).
    uint64_t h = zipf_->NextRank(rng) * 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return 1 + h % num_keys_;
  }

  uint64_t num_keys() const { return num_keys_; }

 private:
  uint64_t num_keys_;
  std::unique_ptr<ZipfianGenerator> zipf_;
};

// The YCSB core workload mixes, written against TxStoreApi so the same
// mix logic measures either index structure (`--index={hash,btree}`).
// Every point operation targets one key drawn from the chooser. Updates
// overwrite the whole value (YCSB writes whole records); workload F's
// read-modify-write increments the first value word inside one
// transaction; workload E's scans read the next `scan_len` entries from a
// zipfian-drawn start key via TxStoreApi::Scan — a real ordered range scan
// on the B+-tree, the hash store's honest bounded partition traversal on
// the hash index (see src/apps/tx_store_api.h).
//
//   A: 50% read / 50% update   (session store)
//   B: 95% read /  5% update   (photo tagging)
//   C: 100% read               (profile cache)
//   E:  5% update / 95% scan   (threaded conversations)
//   F: 50% read / 50% RMW      (user database)
struct YcsbMixSpec {
  const char* name;
  uint32_t read_pct;
  uint32_t update_pct;
  uint32_t rmw_pct;
  uint32_t scan_pct;
};

inline const std::vector<YcsbMixSpec>& YcsbCoreMixes() {
  static const std::vector<YcsbMixSpec> mixes = {
      {"A", 50, 50, 0, 0},
      {"B", 95, 5, 0, 0},
      {"C", 100, 0, 0, 0},
      {"E", 0, 5, 0, 95},
      {"F", 50, 0, 50, 0},
  };
  return mixes;
}

inline OpFn YcsbMix(TxStoreApi* store, const YcsbMixSpec& mix,
                    std::shared_ptr<const KeyChooser> keys, uint32_t scan_len = 1) {
  // The update-value and scan-result buffers live in the lambda (one per
  // core: InstallLoopBodies copies the OpFn per body) so value generation
  // adds no per-op allocation. The store wrappers' ReadMany plumbing still
  // allocates small scratch vectors per call — equally on every path and
  // every bench that uses the Tx API, so relative numbers are unaffected.
  return [store, mix, keys, scan_len,
          value = std::vector<uint64_t>(store->value_words()),
          scanned = std::vector<KvEntry>()](
             CoreEnv& env, TxRuntime& rt, Rng& rng) mutable {
    env.Compute(kOpOverheadCycles);
    const uint64_t key = keys->Next(rng);
    const uint64_t roll = rng.NextBelow(100);
    if (roll < mix.read_pct) {
      store->Get(rt, key, nullptr);
    } else if (roll < mix.read_pct + mix.update_pct) {
      for (uint64_t& w : value) {
        w = rng.Next();
      }
      store->Put(rt, key, value.data());
    } else if (roll < mix.read_pct + mix.update_pct + mix.rmw_pct) {
      store->ReadModifyWrite(rt, key, [](uint64_t* v) { v[0] += 1; });
    } else {
      scanned = store->Scan(rt, key, scan_len);
    }
  };
}

// Load phase: every key in [1, num_keys] resident, with a deterministic
// value derived from the key (host-side, zero simulated cost).
inline void FillStore(TxStoreApi& store, uint64_t num_keys) {
  std::vector<uint64_t> value(store.value_words());
  for (uint64_t key = 1; key <= num_keys; ++key) {
    for (uint32_t w = 0; w < store.value_words(); ++w) {
      value[w] = key * 1000003 + w;
    }
    store.HostPut(key, value.data());
  }
}

}  // namespace tm2c

#endif  // TM2C_BENCH_WORKLOADS_H_
