// The benchmark's four workloads, one table entry each (the KVell
// workload-interface shape): deployment, load, op mix, invariants and a
// planted fault. Why each exists is in README.md; in short, each one
// drives a different layer hard and leaves the others idle:
//
//   kv-read         threads, hash store larger than L3, uniform 95/5
//                   Get/Put: SPSC transport, read locks, lock table.
//   kv-durable      processes, small zipfian hash store, 50/50 Get/RMW,
//                   buffered WAL: wire codec, socket round trip, WAL.
//   index-scan      threads, B+-tree, zipfian 95/5 Scan(16)/Put: many
//                   stripes per transaction, tree descent, leaf chains.
//   tpcc-contended  threads, the TPC-C-style mix on 4 warehouses:
//                   contention manager, revocations, aborted work.
#include <cmath>
#include <memory>

#include "bench/e2e/e2e.h"
#include "src/apps/kvstore.h"
#include "src/apps/ordered_index.h"
#include "src/durability/partition_log.h"

namespace tm2c::e2e {
namespace {

// Keys in [1, n], uniform (theta == 0) or zipfian with the hot ranks
// scrambled over the key space (YCSB's "scrambled zipfian", Gray et al.'s
// generator), so the hot keys do not share a partition or a tree leaf.
class KeyDraw {
 public:
  KeyDraw(uint64_t n, double theta) : n_(n), theta_(theta) {
    if (theta_ == 0.0) {
      return;
    }
    zetan_ = Zeta(n_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - Zeta(2) / zetan_);
  }

  uint64_t Next(Rng& rng) const {
    if (theta_ == 0.0) {
      return 1 + rng.NextBelow(n_);
    }
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    uint64_t rank = 0;
    if (uz >= 1.0) {
      rank = uz < 1.0 + std::pow(0.5, theta_)
                 ? 1
                 : static_cast<uint64_t>(static_cast<double>(n_) *
                                         std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    uint64_t h = std::min(rank, n_ - 1) * 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return 1 + h % n_;
  }

 private:
  double Zeta(uint64_t n) const {
    double sum = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    return sum;
  }

  uint64_t n_;
  double theta_;
  double zetan_ = 0.0, alpha_ = 0.0, eta_ = 0.0;
};

// Deterministic load-phase value of word `w` of `key`.
uint64_t LoadedWord(uint64_t key, uint32_t w) { return key * 1000003 + w; }

void FillStore(TxStoreApi& store, uint64_t keys) {
  std::vector<uint64_t> value(store.value_words());
  for (uint64_t key = 1; key <= keys; ++key) {
    for (uint32_t w = 0; w < store.value_words(); ++w) {
      value[w] = LoadedWord(key, w);
    }
    store.HostPut(key, value.data());
  }
}

// Hash store sized for `keys` resident entries: four keys per bucket on
// average and 1/32 pool headroom for the hash imbalance across partitions.
std::unique_ptr<KvStore> MakeHashStore(TmSystem& sys, uint64_t keys, uint32_t value_words) {
  const uint64_t per_part = keys / sys.deployment().num_service();
  KvStoreConfig cfg;
  cfg.value_words = value_words;
  cfg.buckets_per_partition = static_cast<uint32_t>(std::max<uint64_t>(16, per_part / 4));
  cfg.capacity_per_partition = static_cast<uint32_t>(per_part + per_part / 32 + 64);
  return std::make_unique<KvStore>(sys.allocator(), sys.shmem(), sys.address_map(),
                                   sys.deployment(), cfg);
}

// Per-thread buffers, so no op allocates its value or result storage.
struct ThreadScratch {
  std::vector<uint64_t> value;
  std::vector<KvEntry> out;
  OrderedIndex::SmoScratch smo;
};

std::vector<ThreadScratch> MakeScratch(TmSystem& sys, uint32_t value_words) {
  std::vector<ThreadScratch> scratch(sys.num_app_cores());
  for (ThreadScratch& s : scratch) {
    s.value.resize(value_words);
  }
  return scratch;
}

// ---------------------------------------------------------------------------
// kv-read: 2^21 keys x 4 words (about 100 MB of nodes), uniform keys,
// 95% Get / 5% Put. Every key is loaded, so a Get that misses is wrong and
// a Put always updates in place.
// ---------------------------------------------------------------------------
class KvReadWorkload : public Workload {
 public:
  static constexpr uint64_t kKeys = uint64_t{1} << 21;
  static constexpr uint32_t kValueWords = 4;

  void Load(TmSystem& sys) override {
    store_ = MakeHashStore(sys, kKeys, kValueWords);
    FillStore(*store_, kKeys);
    scratch_ = MakeScratch(sys, kValueWords);
  }

  void RunOp(uint32_t thread, Rng& rng, TxRuntime& rt, OpRecorder& rec) override {
    ThreadScratch& s = scratch_[thread];
    const uint64_t key = keys_.Next(rng);
    if (rng.NextBelow(100) < 95) {
      bool found = false;
      rec.Execute(rt, "kv.get", false,
                  [&](Tx& tx) { found = store_->TxGet(tx, key, s.value.data()); });
      if (!found) {
        rec.Fail();
      }
      return;
    }
    for (uint64_t& w : s.value) {
      w = rng.Next();
    }
    // Node 0: the key is resident, so the put updates in place and never
    // links a node (an absent key fails the store's own check).
    rec.Execute(rt, "kv.put", true,
                [&](Tx& tx) { store_->TxPut(tx, key, s.value.data(), /*node_addr=*/0); });
  }

  std::vector<std::string> Check(TmSystem&, const Tally&) const override {
    std::vector<std::string> problems;
    std::vector<uint64_t> value(kValueWords);
    uint64_t missing = 0;
    for (uint64_t key = 1; key <= kKeys; ++key) {
      missing += store_->HostGet(key, value.data()) ? 0 : 1;
    }
    if (missing != 0) {
      problems.push_back(std::to_string(missing) + " loaded keys are no longer readable");
    }
    return problems;
  }

  // Rewrites the key word of the first node in partition 0's first
  // non-empty bucket (node layout [key][next][value...], buckets first).
  void PlantFault(TmSystem& sys) override {
    const uint64_t base = store_->SlabRange(0).first;
    for (uint32_t b = 0; b < store_->buckets_per_partition(); ++b) {
      const uint64_t node = sys.shmem().LoadWord(base + uint64_t{b} * kWordBytes);
      if (node != 0) {
        sys.shmem().StoreWord(node, sys.shmem().LoadWord(node) | (uint64_t{1} << 62));
        return;
      }
    }
  }

  const TxStoreApi& ProbeStore() const override { return *store_; }
  uint64_t ProbeKey(Rng& rng) const override { return keys_.Next(rng); }

 private:
  KeyDraw keys_{kKeys, 0.0};
  std::unique_ptr<KvStore> store_;
  std::vector<ThreadScratch> scratch_;
};

// ---------------------------------------------------------------------------
// kv-durable: 16,384 keys x 4 words (fits in cache), zipfian 0.99, 50% Get
// / 50% RMW incrementing word 0, buffered WAL with group_commit_txs = 1 and
// a checkpoint every 4096 records. Tally slot 0: committed RMWs.
// ---------------------------------------------------------------------------
class KvDurableWorkload : public Workload {
 public:
  static constexpr uint64_t kKeys = 16384;
  static constexpr uint32_t kValueWords = 4;

  void Load(TmSystem& sys) override {
    store_ = MakeHashStore(sys, kKeys, kValueWords);
    FillStore(*store_, kKeys);
    sys.CaptureDurableCheckpoint0();
    scratch_ = MakeScratch(sys, kValueWords);
  }

  void RunOp(uint32_t thread, Rng& rng, TxRuntime& rt, OpRecorder& rec) override {
    ThreadScratch& s = scratch_[thread];
    const uint64_t key = keys_.Next(rng);
    bool found = false;
    if (rng.NextBelow(100) < 50) {
      rec.Execute(rt, "kv.get", false,
                  [&](Tx& tx) { found = store_->TxGet(tx, key, s.value.data()); });
    } else {
      rec.Execute(rt, "kv.rmw", true, [&](Tx& tx) {
        found = store_->TxReadModifyWrite(tx, key, [](uint64_t* v) { v[0] += 1; });
      });
      rec.Add(0, found ? 1 : 0);
    }
    if (!found) {
      rec.Fail();
    }
  }

  std::vector<std::string> Check(TmSystem& sys, const Tally& tally) const override {
    std::vector<std::string> problems;
    uint64_t sum = 0, initial = 0;
    std::vector<uint64_t> value(kValueWords);
    for (uint64_t key = 1; key <= kKeys; ++key) {
      if (!store_->HostGet(key, value.data())) {
        problems.push_back("key " + std::to_string(key) + " is no longer readable");
        return problems;
      }
      sum += value[0];
      initial += LoadedWord(key, 0);
    }
    if (sum != initial + tally[0]) {
      problems.push_back("counter sum " + std::to_string(sum) + " != initial " +
                         std::to_string(initial) + " + committed RMWs " +
                         std::to_string(tally[0]));
    }
    // Checkpoint 0 plus every WAL record, replayed in order, must rebuild
    // the final slab word for word.
    uint64_t records = 0;
    for (uint32_t p = 0; p < sys.deployment().num_service(); ++p) {
      const CheckpointImage& cp0 = sys.DurabilityAt(p).checkpoints().at(0);
      std::unordered_map<uint64_t, uint64_t> image(cp0.pairs.begin(), cp0.pairs.end());
      const std::string path = sys.config().run_dir + "/part" + std::to_string(p) + ".wal";
      const WalReadResult wal = ReadWalFile(path);
      if (!wal.clean() || wal.torn_tail) {
        problems.push_back(path + " is not a clean log");
        continue;
      }
      for (const WalRecord& r : wal.records) {
        CommitRecord rec;
        if (!ParseCommitRecord(r, &rec)) {
          problems.push_back(path + " holds a malformed commit record");
          break;
        }
        for (const auto& [addr, v] : rec.pairs) {
          image[addr] = v;
        }
      }
      records += wal.records.size();
      uint64_t diff = 0;
      for (const auto& [addr, v] : image) {
        diff += sys.shmem().LoadWord(addr) != v ? 1 : 0;
      }
      if (diff != 0) {
        problems.push_back("WAL replay over checkpoint 0 differs from the slab in " +
                           std::to_string(diff) + " words (partition " + std::to_string(p) +
                           ")");
      }
    }
    if (records != tally[0]) {
      problems.push_back("WAL holds " + std::to_string(records) + " records for " +
                         std::to_string(tally[0]) + " committed RMWs");
    }
    return problems;
  }

  void PlantFault(TmSystem&) override {
    std::vector<uint64_t> value(kValueWords);
    store_->HostGet(1, value.data());
    value[0] += 1;
    store_->HostPut(1, value.data());
  }

  const TxStoreApi& ProbeStore() const override { return *store_; }
  uint64_t ProbeKey(Rng& rng) const override { return keys_.Next(rng); }

 private:
  KeyDraw keys_{kKeys, 0.99};
  std::unique_ptr<KvStore> store_;
  std::vector<ThreadScratch> scratch_;
};

// ---------------------------------------------------------------------------
// index-scan: B+-tree of 65,536 keys x 4 words, fanout 6, zipfian start
// keys, 95% Scan(16) / 5% Put. Every key in range is resident, so a scan
// must return exactly the consecutive keys from its start.
// ---------------------------------------------------------------------------
class IndexScanWorkload : public Workload {
 public:
  static constexpr uint64_t kKeys = 65536;
  static constexpr uint32_t kValueWords = 4;
  static constexpr uint32_t kScanLen = 16;

  void Load(TmSystem& sys) override {
    OrderedIndexConfig cfg;
    cfg.key_min = 1;
    cfg.key_max = kKeys;
    cfg.value_words = kValueWords;
    cfg.fanout = 6;
    cfg.capacity_per_partition =
        static_cast<uint32_t>(kKeys / sys.deployment().num_service() + 64);
    index_ = std::make_unique<OrderedIndex>(sys.allocator(), sys.shmem(), sys.address_map(),
                                            sys.deployment(), cfg);
    FillStore(*index_, kKeys);
    scratch_ = MakeScratch(sys, kValueWords);
  }

  void RunOp(uint32_t thread, Rng& rng, TxRuntime& rt, OpRecorder& rec) override {
    ThreadScratch& s = scratch_[thread];
    const uint64_t key = keys_.Next(rng);
    if (rng.NextBelow(100) < 95) {
      rec.Execute(rt, "btree.scan", false, [&](Tx& tx) {
        s.out.clear();
        index_->TxScan(tx, key, kScanLen, &s.out);
      });
      const uint64_t expect = std::min<uint64_t>(kScanLen, kKeys - key + 1);
      bool ok = s.out.size() == expect;
      for (size_t i = 0; ok && i < s.out.size(); ++i) {
        ok = s.out[i].key == key + i;
      }
      if (!ok) {
        rec.Fail();
      }
      return;
    }
    for (uint64_t& w : s.value) {
      w = rng.Next();
    }
    rec.Execute(rt, "btree.put", true, [&](Tx& tx) {
      s.smo.ResetAttempt();
      index_->TxPut(tx, key, s.value.data(), &s.smo);
    });
    index_->SettleScratch(&s.smo);
  }

  std::vector<std::string> Check(TmSystem&, const Tally&) const override {
    std::vector<std::string> problems;
    index_->HostCheckStructure(&problems);
    if (index_->HostSize() != kKeys) {
      problems.push_back("tree holds " + std::to_string(index_->HostSize()) + " keys, not " +
                         std::to_string(kKeys));
    }
    return problems;
  }

  // Pushes the root's first key above every other key of partition 0
  // (node layout [meta][next][keys...]; slab word 0 is the root pointer).
  void PlantFault(TmSystem& sys) override {
    const uint64_t root = sys.shmem().LoadWord(index_->SlabRange(0).first);
    sys.shmem().StoreWord(root + 2 * kWordBytes, kKeys + 1);
  }

  const TxStoreApi& ProbeStore() const override { return *index_; }
  uint64_t ProbeKey(Rng& rng) const override { return keys_.Next(rng); }

 private:
  KeyDraw keys_{kKeys, 0.99};
  std::unique_ptr<OrderedIndex> index_;
  std::vector<ThreadScratch> scratch_;
};

// ---------------------------------------------------------------------------
// tpcc-contended: the bench_tpcc mix on 4 warehouses. Warehouse rows
// [next_o_id, ytd] in a hash store, order lines in a B+-tree keyed by
// (warehouse, order slot, line); orders recycle through 64 slots per
// warehouse. new-order 45%, payment 43%, order-status 12%. Tally slots:
// 0 committed new-orders, 1 committed payments, 2 their summed amounts.
// ---------------------------------------------------------------------------
class TpccWorkload : public Workload {
 public:
  static constexpr uint32_t kWarehouses = 4;
  static constexpr uint32_t kMaxLines = 4;
  static constexpr uint64_t kOrderWindow = 64;

  static uint64_t LineKey(uint32_t warehouse, uint64_t slot, uint32_t line) {
    return (uint64_t{warehouse - 1} * kOrderWindow + slot) * kMaxLines + line + 1;
  }

  void Load(TmSystem& sys) override {
    KvStoreConfig wcfg;
    wcfg.value_words = 2;
    wcfg.buckets_per_partition = 16;
    wcfg.capacity_per_partition = kWarehouses + 16;
    wh_ = std::make_unique<KvStore>(sys.allocator(), sys.shmem(), sys.address_map(),
                                    sys.deployment(), wcfg);
    OrderedIndexConfig ocfg;
    ocfg.key_min = 1;
    ocfg.key_max = LineKey(kWarehouses, kOrderWindow - 1, kMaxLines - 1);
    ocfg.value_words = 1;
    ocfg.fanout = 6;
    ocfg.capacity_per_partition =
        static_cast<uint32_t>(ocfg.key_max / sys.deployment().num_service() + 64);
    lines_ = std::make_unique<OrderedIndex>(sys.allocator(), sys.shmem(), sys.address_map(),
                                            sys.deployment(), ocfg);
    // Every warehouse starts with a full window of two-line orders.
    for (uint32_t w = 1; w <= kWarehouses; ++w) {
      const uint64_t init[2] = {kOrderWindow, 0};
      wh_->HostPut(w, init);
      for (uint64_t slot = 0; slot < kOrderWindow; ++slot) {
        for (uint32_t l = 0; l < 2; ++l) {
          const uint64_t qty = 1 + (slot + l) % 10;
          lines_->HostPut(LineKey(w, slot, l), &qty);
        }
      }
    }
    scratch_ = MakeScratch(sys, 0);
  }

  void RunOp(uint32_t thread, Rng& rng, TxRuntime& rt, OpRecorder& rec) override {
    ThreadScratch& s = scratch_[thread];
    const auto w = static_cast<uint32_t>(1 + rng.NextBelow(kWarehouses));
    const uint64_t roll = rng.NextBelow(100);
    bool found = false;
    if (roll < 45) {
      const auto nlines = static_cast<uint32_t>(1 + rng.NextBelow(kMaxLines));
      rec.Execute(rt, "tpcc.new_order", true, [&](Tx& tx) {
        s.smo.ResetAttempt();
        uint64_t o_id = 0;
        found = wh_->TxReadModifyWrite(tx, w, [&o_id](uint64_t* v) {
          o_id = v[0];
          v[0] += 1;
        });
        if (!found) {
          return;
        }
        const uint64_t slot = o_id % kOrderWindow;
        for (uint32_t l = 0; l < kMaxLines; ++l) {
          const uint64_t key = LineKey(w, slot, l);
          if (l < nlines) {
            const uint64_t qty = 1 + (o_id + l) % 10;
            lines_->TxPut(tx, key, &qty, &s.smo);
          } else {
            lines_->TxDelete(tx, key, nullptr, &s.smo);
          }
        }
      });
      lines_->SettleScratch(&s.smo);
      rec.Add(0, found ? 1 : 0);
    } else if (roll < 88) {
      const uint64_t amount = 1 + rng.NextBelow(500);
      rec.Execute(rt, "tpcc.payment", true, [&](Tx& tx) {
        found = wh_->TxReadModifyWrite(tx, w, [amount](uint64_t* v) { v[1] += amount; });
      });
      if (found) {
        rec.Add(1);
        rec.Add(2, amount);
      }
    } else {
      const uint64_t back = 1 + rng.NextBelow(kOrderWindow / 2);
      rec.Execute(rt, "tpcc.order_status", false, [&](Tx& tx) {
        s.out.clear();
        uint64_t v[2] = {0, 0};
        found = wh_->TxGet(tx, w, v);
        if (!found) {
          return;
        }
        const uint64_t slot = (v[0] - std::min(back, v[0])) % kOrderWindow;
        lines_->TxRangeScan(tx, LineKey(w, slot, 0), LineKey(w, slot, kMaxLines - 1),
                            kMaxLines, &s.out);
      });
      for (size_t i = 1; found && i < s.out.size(); ++i) {
        found = s.out[i - 1].key < s.out[i].key;
      }
    }
    if (!found) {
      rec.Fail();
    }
  }

  std::vector<std::string> Check(TmSystem&, const Tally& tally) const override {
    std::vector<std::string> problems;
    uint64_t o_id_sum = 0, ytd_sum = 0;
    for (uint32_t w = 1; w <= kWarehouses; ++w) {
      uint64_t v[2] = {0, 0};
      if (!wh_->HostGet(w, v)) {
        problems.push_back("warehouse " + std::to_string(w) + " is missing");
        return problems;
      }
      o_id_sum += v[0];
      ytd_sum += v[1];
    }
    const uint64_t advance = o_id_sum - uint64_t{kWarehouses} * kOrderWindow;
    if (advance != tally[0]) {
      problems.push_back("next_o_id advanced " + std::to_string(advance) + " for " +
                         std::to_string(tally[0]) + " committed new-orders");
    }
    if (ytd_sum != tally[2]) {
      problems.push_back("ytd total " + std::to_string(ytd_sum) + " != committed payments' " +
                         std::to_string(tally[2]));
    }
    lines_->HostCheckStructure(&problems);
    return problems;
  }

  void PlantFault(TmSystem&) override {
    uint64_t v[2] = {0, 0};
    wh_->HostGet(1, v);
    v[1] += 1;
    wh_->HostPut(1, v);
  }

  const TxStoreApi& ProbeStore() const override { return *lines_; }
  uint64_t ProbeKey(Rng& rng) const override { return 1 + rng.NextBelow(lines_->key_max()); }

 private:
  std::unique_ptr<KvStore> wh_;
  std::unique_ptr<OrderedIndex> lines_;
  std::vector<ThreadScratch> scratch_;
};

}  // namespace

const std::vector<WorkloadSpec>& AllSpecs() {
  // Every deployment keeps exactly four OS threads or processes busy:
  // threads = 2 app + 2 service threads; processes = 2 app threads + 1
  // router thread + 1 partition server (its cold standby sleeps).
  static const std::vector<WorkloadSpec> specs = {
      {"kv-read", BackendKind::kThreads, 4, 2, 256ull << 20, false,
       "hash, 2^21 keys x 4 words, uniform, 95% Get / 5% Put"},
      {"kv-durable", BackendKind::kProcesses, 3, 1, 16ull << 20, true,
       "hash, 16384 keys x 4 words, zipfian 0.99, 50% Get / 50% RMW, buffered WAL"},
      {"index-scan", BackendKind::kThreads, 4, 2, 64ull << 20, false,
       "btree fanout 6, 65536 keys x 4 words, zipfian 0.99, 95% Scan(16) / 5% Put"},
      {"tpcc-contended", BackendKind::kThreads, 4, 2, 32ull << 20, false,
       "tpcc mix, 4 warehouses: 45% new-order, 43% payment, 12% order-status"},
  };
  return specs;
}

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& spec : AllSpecs()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

TmSystemConfig MakeSystemConfig(const WorkloadSpec& spec, uint64_t seed,
                                const std::string& run_dir) {
  TmSystemConfig cfg;
  cfg.sim.platform = PlatformByName("scc");
  cfg.sim.num_cores = spec.cores;
  cfg.sim.num_service = spec.service;
  cfg.sim.strategy = DeployStrategy::kDedicated;
  cfg.sim.shmem_bytes = spec.shmem_bytes;
  cfg.sim.seed = seed;
  cfg.tm.cm = CmKind::kFairCm;
  cfg.tm.tx_mode = TxMode::kNormal;
  cfg.tm.write_acquire = WriteAcquire::kLazy;
  cfg.tm.max_batch = 16;
  cfg.tm.pipeline_depth = 1;
  if (spec.durable) {
    cfg.tm.durability = DurabilityMode::kBuffered;
    cfg.tm.group_commit_txs = 1;
    cfg.tm.checkpoint_every_records = 4096;
  }
  cfg.backend = spec.backend;
  cfg.channel = ChannelKind::kSpscRing;
  cfg.pin_threads = false;
  if (spec.backend == BackendKind::kProcesses) {
    cfg.run_dir = run_dir;
  }
  return cfg;
}

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec) {
  const std::string name = spec.name;
  if (name == "kv-read") {
    return std::make_unique<KvReadWorkload>();
  }
  if (name == "kv-durable") {
    return std::make_unique<KvDurableWorkload>();
  }
  if (name == "index-scan") {
    return std::make_unique<IndexScanWorkload>();
  }
  return std::make_unique<TpccWorkload>();
}

}  // namespace tm2c::e2e
