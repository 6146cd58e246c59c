#include "src/apps/kvstore.h"

#include <algorithm>

#include "src/common/check.h"

namespace tm2c {

KvStore::KvStore(ShmAllocator& allocator, SharedMemory& mem, AddressMap& map,
                 const DeploymentPlan& plan, KvStoreConfig cfg)
    : mem_(&mem),
      cfg_(cfg),
      plan_(&plan),
      pool_(allocator, mem, map, plan, cfg.buckets_per_partition, 2 + uint64_t{cfg.value_words},
            cfg.capacity_per_partition) {
  TM2C_CHECK(cfg_.buckets_per_partition >= 1);
  TM2C_CHECK(cfg_.value_words >= 1);
}

uint64_t KvStore::Hash(uint64_t key) {
  // MurmurHash3 finalizer: full-avalanche, so the partition (low half) and
  // bucket (high half) selections are decorrelated.
  uint64_t h = key;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

uint32_t KvStore::PartitionOfKey(uint64_t key) const {
  return static_cast<uint32_t>(Hash(key)) % num_partitions();
}

uint32_t KvStore::OwnerCore(uint64_t key) const {
  return plan_->ServiceCore(PartitionOfKey(key));
}

uint32_t KvStore::BucketIndexOf(uint64_t key) const {
  return static_cast<uint32_t>(Hash(key) >> 32) % cfg_.buckets_per_partition;
}

uint64_t KvStore::BucketAddrAt(uint32_t partition, uint32_t bucket) const {
  return pool_.Slab(partition).first + uint64_t{bucket} * kWordBytes;
}

uint64_t KvStore::BucketAddr(uint64_t key) const {
  return BucketAddrAt(PartitionOfKey(key), BucketIndexOf(key));
}

std::vector<uint64_t> KvStore::ValueAddrs(uint64_t node) const {
  std::vector<uint64_t> addrs(cfg_.value_words);
  for (uint32_t w = 0; w < cfg_.value_words; ++w) {
    addrs[w] = ValueAddr(node) + uint64_t{w} * kWordBytes;
  }
  return addrs;
}

std::pair<uint64_t, uint64_t> KvStore::SlabRange(uint32_t partition) const {
  TM2C_CHECK(partition < num_partitions());
  return pool_.Slab(partition);
}

uint64_t KvStore::NodesInUse(uint32_t partition) const { return pool_.InUse(partition); }

// ---------------------------------------------------------------------------
// Composable transactional operations
// ---------------------------------------------------------------------------

// A chain can never legally hold more nodes than the partition pool owns,
// so every chain walk is bounded by capacity_per_partition. The bound only
// bites when the structure is corrupted — which cannot happen under the
// intact protocol, but is the expected outcome of the planted FaultModes
// the verification harness runs: a lost link update can weave a cycle into
// a chain, and an unbounded traversal would wedge the checked run instead
// of letting the oracle flag the corruption. Past the bound the walk gives
// up (not-found / partial scan): a bounded wrong answer the invariants see.
template <typename Acc>
ChainPos KvStore::Locate(const Acc& acc, uint64_t key) const {
  TM2C_DCHECK(key != 0);
  return LocateInChain(acc, BucketAddr(key), key, cfg_.capacity_per_partition);
}

template <typename Acc, typename NewNode>
bool KvStore::Upsert(const Acc& acc, uint64_t key, const uint64_t* value, bool insert_only,
                     NewNode new_node) const {
  const auto store_value = [&](uint64_t node) {
    for (uint32_t w = 0; w < cfg_.value_words; ++w) {
      acc.Store(ValueAddr(node) + uint64_t{w} * kWordBytes, value[w]);
    }
  };
  const ChainPos pos = Locate(acc, key);
  if (pos.found) {
    if (!insert_only) {
      store_value(pos.at);
    }
    return false;
  }
  const uint64_t node = new_node();
  TM2C_CHECK_MSG(node != 0, "KvStore insert needs a node (partition pool exhausted?)");
  // The successor is the node the walk stopped at: re-read the link
  // (served from the attempt's read cache, no extra round trip). The link
  // word is written last — the node is fully initialized before it is
  // reachable.
  const uint64_t succ = acc.Load(pos.prev_link);
  acc.Store(ChainKeyAddr(node), key);
  acc.Store(ChainNextAddr(node), succ);
  store_value(node);
  acc.Store(pos.prev_link, node);
  return true;
}

bool KvStore::TxGet(Tx& tx, uint64_t key, uint64_t* value) const {
  const ChainPos pos = Locate(TxAccess{&tx}, key);
  if (!pos.found) {
    return false;
  }
  const std::vector<uint64_t> vals = tx.ReadMany(ValueAddrs(pos.at));
  std::copy(vals.begin(), vals.end(), value);
  return true;
}

bool KvStore::TxPut(Tx& tx, uint64_t key, const uint64_t* value, uint64_t node_addr) const {
  return Upsert(TxAccess{&tx}, key, value, /*insert_only=*/false,
                [node_addr] { return node_addr; });
}

bool KvStore::TxDelete(Tx& tx, uint64_t key, uint64_t* old_value,
                       uint64_t* removed_node) const {
  const ChainPos pos = Locate(TxAccess{&tx}, key);
  if (!pos.found) {
    return false;
  }
  if (old_value != nullptr) {
    const std::vector<uint64_t> vals = tx.ReadMany(ValueAddrs(pos.at));
    std::copy(vals.begin(), vals.end(), old_value);
  }
  tx.Write(pos.prev_link, tx.Read(ChainNextAddr(pos.at)));
  if (removed_node != nullptr) {
    *removed_node = pos.at;
  }
  return true;
}

bool KvStore::TxReadModifyWrite(Tx& tx, uint64_t key,
                                const std::function<void(uint64_t*)>& fn) const {
  const ChainPos pos = Locate(TxAccess{&tx}, key);
  if (!pos.found) {
    return false;
  }
  const std::vector<uint64_t> addrs = ValueAddrs(pos.at);
  std::vector<uint64_t> vals = tx.ReadMany(addrs);
  fn(vals.data());
  for (uint32_t w = 0; w < cfg_.value_words; ++w) {
    tx.Write(addrs[w], vals[w]);
  }
  return true;
}

uint32_t KvStore::TxHashScan(Tx& tx, uint64_t start_key, uint32_t limit,
                             std::vector<KvEntry>* out) const {
  TM2C_DCHECK(start_key != 0);
  constexpr uint32_t kHeadBatch = 8;
  const uint32_t partition = PartitionOfKey(start_key);
  const uint32_t first_bucket = BucketIndexOf(start_key);
  const uint32_t num_buckets = cfg_.buckets_per_partition;
  uint32_t appended = 0;
  uint32_t visited = 0;
  while (visited < num_buckets && appended < limit) {
    const uint32_t window = std::min(kHeadBatch, num_buckets - visited);
    std::vector<uint64_t> head_addrs(window);
    for (uint32_t i = 0; i < window; ++i) {
      head_addrs[i] = BucketAddrAt(partition, (first_bucket + visited + i) % num_buckets);
    }
    const std::vector<uint64_t> heads = tx.ReadMany(head_addrs);
    for (uint32_t i = 0; i < window && appended < limit; ++i) {
      uint64_t node = heads[i];
      uint32_t steps = 0;  // corruption bound, see Locate
      // Not ForEachInChain: the walk stops at `limit`, and the next word of
      // the limit-th node is still read (and locked) before it does.
      while (node != 0 && appended < limit && ++steps <= cfg_.capacity_per_partition) {
        const uint64_t node_key = tx.Read(ChainKeyAddr(node));
        // In the start bucket, skip the sorted prefix below start_key.
        if (visited + i > 0 || node_key >= start_key) {
          KvEntry entry;
          entry.key = node_key;
          entry.value = tx.ReadMany(ValueAddrs(node));
          out->push_back(std::move(entry));
          ++appended;
        }
        node = tx.Read(ChainNextAddr(node));
      }
    }
    visited += window;
  }
  return appended;
}

// ---------------------------------------------------------------------------
// One-transaction wrappers
// ---------------------------------------------------------------------------

bool KvStore::Get(TxRuntime& rt, uint64_t key, std::vector<uint64_t>* value) const {
  bool found = false;
  std::vector<uint64_t> buf(cfg_.value_words);
  rt.Execute([&](Tx& tx) { found = TxGet(tx, key, buf.data()); });
  if (found && value != nullptr) {
    *value = std::move(buf);
  }
  return found;
}

bool KvStore::UpsertTx(TxRuntime& rt, uint64_t key, const uint64_t* value, bool insert_only) {
  const uint32_t partition = PartitionOfKey(key);
  uint64_t node = 0;  // allocated lazily on first miss, reused across retries
  bool inserted = false;
  rt.Execute([&](Tx& tx) {
    inserted = Upsert(TxAccess{&tx}, key, value, insert_only, [&] {
      if (node == 0) {
        node = pool_.Alloc(partition);
      }
      return node;
    });
  });
  if (!inserted && node != 0) {
    pool_.Free(partition, node);  // a retry found the key present
  }
  return inserted;
}

bool KvStore::Put(TxRuntime& rt, uint64_t key, const uint64_t* value) {
  return UpsertTx(rt, key, value, /*insert_only=*/false);
}

bool KvStore::Insert(TxRuntime& rt, uint64_t key, const uint64_t* value) {
  return UpsertTx(rt, key, value, /*insert_only=*/true);
}

bool KvStore::Delete(TxRuntime& rt, uint64_t key, std::vector<uint64_t>* old_value) {
  bool removed = false;
  uint64_t removed_node = 0;
  std::vector<uint64_t> buf(cfg_.value_words);
  rt.Execute([&](Tx& tx) {
    removed_node = 0;
    removed = TxDelete(tx, key, old_value != nullptr ? buf.data() : nullptr, &removed_node);
  });
  if (removed) {
    if (old_value != nullptr) {
      *old_value = std::move(buf);
    }
    // Recycle only after the unlink committed: until then another attempt
    // could still need the node in place.
    pool_.Free(PartitionOfKey(key), removed_node);
  }
  return removed;
}

bool KvStore::ReadModifyWrite(TxRuntime& rt, uint64_t key,
                              const std::function<void(uint64_t*)>& fn) const {
  bool found = false;
  rt.Execute([&](Tx& tx) { found = TxReadModifyWrite(tx, key, fn); });
  return found;
}

std::vector<KvEntry> KvStore::HashScan(TxRuntime& rt, uint64_t start_key,
                                       uint32_t limit) const {
  std::vector<KvEntry> out;
  rt.Execute([&](Tx& tx) {
    out.clear();  // an aborted attempt may have appended partial results
    TxHashScan(tx, start_key, limit, &out);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

void KvStore::RecoverPartition(uint32_t partition,
                               const std::vector<std::pair<uint64_t, uint64_t>>& checkpoint_pairs,
                               const std::vector<std::pair<uint64_t, uint64_t>>& replay_pairs) {
  TM2C_CHECK(partition < num_partitions());
  const std::pair<uint64_t, uint64_t> slab = pool_.Slab(partition);
  // Start from a clean slab: the crash may have left arbitrary garbage, and
  // every word the durable state does not mention must read as 0 (null).
  for (uint64_t off = 0; off < slab.second; off += kWordBytes) {
    mem_->StoreWord(slab.first + off, 0);
  }
  const auto apply = [&](const std::vector<std::pair<uint64_t, uint64_t>>& pairs) {
    for (const auto& [addr, value] : pairs) {
      TM2C_CHECK_MSG(addr >= slab.first && addr < slab.first + slab.second,
                     "recovery pair addressed outside the partition slab");
      TM2C_CHECK(addr % kWordBytes == 0);
      mem_->StoreWord(addr, value);
    }
  };
  apply(checkpoint_pairs);
  apply(replay_pairs);

  // Rebuild the pool bookkeeping from the recovered structure alone: a pool
  // slot is live iff some bucket chain reaches it. Unreachable slots were
  // either never handed out or belong to transactions whose link-in never
  // became durable; either way the pool may hand them out again.
  std::vector<bool> live(cfg_.capacity_per_partition, false);
  const auto mark_live = [&](uint64_t node) {
    TM2C_CHECK_MSG(pool_.Contains(partition, node), "recovered chain points outside the node pool");
    const uint32_t slot = pool_.SlotOf(partition, node);
    TM2C_CHECK_MSG(!live[slot], "recovered chains share a node");
    live[slot] = true;
  };
  for (uint32_t b = 0; b < cfg_.buckets_per_partition; ++b) {
    const uint64_t end = ForEachInChain(HostAccess{mem_}, BucketAddrAt(partition, b),
                                        cfg_.capacity_per_partition, mark_live);
    TM2C_CHECK_MSG(end == 0, "recovered chain longer than the pool (cycle?)");
  }
  pool_.Rebuild(partition, live);
}

// ---------------------------------------------------------------------------
// Host-side helpers
// ---------------------------------------------------------------------------

bool KvStore::HostPut(uint64_t key, const uint64_t* value) {
  const uint32_t partition = PartitionOfKey(key);
  return Upsert(HostAccess{mem_}, key, value, /*insert_only=*/false, [&] {
    const uint64_t node = pool_.Alloc(partition);
    TM2C_CHECK_MSG(node != 0, "KvStore load exceeds capacity_per_partition");
    return node;
  });
}

bool KvStore::HostGet(uint64_t key, uint64_t* value) const {
  const ChainPos pos = Locate(HostAccess{mem_}, key);
  if (!pos.found) {
    return false;
  }
  for (uint32_t w = 0; w < cfg_.value_words; ++w) {
    value[w] = mem_->LoadWord(ValueAddr(pos.at) + uint64_t{w} * kWordBytes);
  }
  return true;
}

uint64_t KvStore::HostSizeOfPartition(uint32_t partition) const {
  TM2C_CHECK(partition < num_partitions());
  uint64_t count = 0;
  for (uint32_t b = 0; b < cfg_.buckets_per_partition; ++b) {
    ForEachInChain(HostAccess{mem_}, BucketAddrAt(partition, b), cfg_.capacity_per_partition,
                   [&](uint64_t) { ++count; });
  }
  return count;
}

uint64_t KvStore::HostSize() const {
  uint64_t count = 0;
  for (uint32_t p = 0; p < num_partitions(); ++p) {
    count += HostSizeOfPartition(p);
  }
  return count;
}

void KvStore::HostForEach(const std::function<void(uint64_t, const uint64_t*)>& fn) const {
  std::vector<uint64_t> value(cfg_.value_words);
  const auto visit = [&](uint64_t node) {
    for (uint32_t w = 0; w < cfg_.value_words; ++w) {
      value[w] = mem_->LoadWord(ValueAddr(node) + uint64_t{w} * kWordBytes);
    }
    fn(mem_->LoadWord(ChainKeyAddr(node)), value.data());
  };
  for (uint32_t p = 0; p < num_partitions(); ++p) {
    for (uint32_t b = 0; b < cfg_.buckets_per_partition; ++b) {
      ForEachInChain(HostAccess{mem_}, BucketAddrAt(p, b), cfg_.capacity_per_partition, visit);
    }
  }
}

}  // namespace tm2c
