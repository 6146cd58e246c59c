// Partitioned transactional key-value store (the service-shaped workload).
//
// The store divides its keyspace into one partition per DTM service core
// and lays each partition's memory — a bucket array plus its node slots —
// in its own slab of a NodePool (src/apps/node_pool.h), registered with
// AddressMap::AddOwnedRange so every lock acquisition for a partition's
// data is routed to the partition's owning service core. A bucket head is
// a lock and a node one lock unit (key, next and value words), so a Get of
// the k-th key of a chain takes 1 + k locks. This is the
// KVell share-little design: each service core owns the locks (and, via
// the locality-aware allocator, usually the memory controller) of exactly
// the keys that hash to it, so a mixed read/write workload decomposes into
// per-core request streams instead of scattering every transaction across
// all partitions.
//
// Within a partition, keys hash to chained buckets; each bucket is a
// sorted chain (src/apps/access.h), walked by the same LocateInChain as
// the hash table's. Keys are non-zero 64-bit integers; 0 is the null
// pointer. Values are a fixed number of words
// (KvStoreConfig::value_words), stored inline in the node:
//
//   node layout: [key][next][v0][v1]...[v_{value_words-1}]
//
// Operations: Get / Put (insert-or-update) / Delete / ReadModifyWrite,
// plus a bounded Scan whose bucket-head traversal goes through
// Tx::ReadMany — under the batched protocol that amortizes the lock
// round trips, and under the elastic modes it is exactly the paper's
// Section 6 traversal (a sliding window of protected reads).
//
// Deleted nodes go back to the partition's pool (a real store cannot leak
// memory under a delete/reinsert workload); recycling is safe because
// every node word is read and written under the DS-Lock protocol —
// address reuse is just another write-after-release. The chaos
// harness (tm2c_check --workload=kv) sweeps exactly this: lost updates on
// hot keys and delete/reinsert node reuse under adversarial schedules.
//
// Three access modes share the layout, as in the other apps:
//  - Tx* methods compose inside a caller-provided transaction,
//  - wrapper methods run their own transaction via a TxRuntime, handling
//    node allocation/recycling across retries,
//  - Host* helpers touch memory directly at zero simulated cost for the
//    load phase and for verification.
#ifndef TM2C_SRC_APPS_KVSTORE_H_
#define TM2C_SRC_APPS_KVSTORE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/apps/access.h"
#include "src/apps/node_pool.h"
#include "src/apps/tx_store_api.h"
#include "src/runtime/core_env.h"
#include "src/shmem/allocator.h"
#include "src/tm/address_map.h"
#include "src/tm/tx_runtime.h"

namespace tm2c {

struct KvStoreConfig {
  // Buckets per partition; keys hash to (partition, bucket) independently.
  uint32_t buckets_per_partition = 64;
  // Inline value payload, in words (>= 1).
  uint32_t value_words = 1;
  // Node-pool capacity per partition: the maximum number of resident
  // entries a partition can hold. Sized by the caller; exhaustion is a
  // checked error.
  uint32_t capacity_per_partition = 1024;
};

class KvStore : public TxStoreApi {
 public:
  // Carves one slab per DTM partition out of `allocator` (placed near the
  // owning service core) and registers each slab with `map` so the
  // partition's lock traffic routes to its owner. Registration happens
  // here, at setup time — construct the store before the system runs.
  // Typical wiring from a TmSystem `sys`:
  //   KvStore store(sys.allocator(), sys.shmem(), sys.address_map(),
  //                 sys.deployment(), cfg);
  KvStore(ShmAllocator& allocator, SharedMemory& mem, AddressMap& map,
          const DeploymentPlan& plan, KvStoreConfig cfg);

  // -- Composable transactional operations --------------------------------
  // Reads `key`'s value into value[0..value_words) (batched via ReadMany).
  // Returns false when the key is absent.
  bool TxGet(Tx& tx, uint64_t key, uint64_t* value) const override;
  // Insert-or-update. On update the value is written in place and the
  // caller keeps `node_addr` (returns false: node not consumed). On insert
  // `node_addr` is linked in (returns true: node consumed).
  bool TxPut(Tx& tx, uint64_t key, const uint64_t* value, uint64_t node_addr) const;
  // Unlinks `key`. When present, the removed value is read into
  // `old_value` (if non-null) and the removed node's address is stored in
  // `removed_node` (if non-null) so the caller can recycle it after the
  // transaction commits. Returns false when the key is absent.
  bool TxDelete(Tx& tx, uint64_t key, uint64_t* old_value, uint64_t* removed_node) const;
  // Reads the value, applies `fn` to it in place, writes it back. Returns
  // false when the key is absent. `fn` must be side-effect-free: it runs
  // once per attempt.
  bool TxReadModifyWrite(Tx& tx, uint64_t key,
                         const std::function<void(uint64_t*)>& fn) const override;
  // Bounded scan, hash-ordered (the honest semantics of a hash store —
  // hence the name): walks the owning partition's buckets starting at
  // `start_key`'s bucket (within that first bucket, at the first key >=
  // start_key), wrapping around the partition, and appends entries to
  // `out` until `limit` entries were collected or the whole partition was
  // visited. Bucket heads are read in ReadMany batches; chains are walked
  // read-by-read. Returns the number of entries appended. No key-order or
  // cross-partition completeness promise — the ordered range scan is
  // OrderedIndex::TxScan.
  uint32_t TxHashScan(Tx& tx, uint64_t start_key, uint32_t limit,
                      std::vector<KvEntry>* out) const;
  // TxStoreApi's generic scan delegates to TxHashScan (hash-order
  // semantics; see the interface header's honesty contract).
  uint32_t TxScan(Tx& tx, uint64_t start_key, uint32_t limit,
                  std::vector<KvEntry>* out) const override {
    return TxHashScan(tx, start_key, limit, out);
  }

  // -- One-transaction wrappers -------------------------------------------
  bool Get(TxRuntime& rt, uint64_t key, std::vector<uint64_t>* value) const override;
  // Returns true if the key was inserted, false if an existing value was
  // overwritten. `value` must point at value_words() words.
  bool Put(TxRuntime& rt, uint64_t key, const uint64_t* value) override;
  // Returns true if the key was removed; the removed value lands in
  // `old_value` (if non-null). The node returns to the partition pool.
  bool Delete(TxRuntime& rt, uint64_t key,
              std::vector<uint64_t>* old_value = nullptr) override;
  // Insert-only variant: returns false (and writes nothing) when the key
  // already exists. The conservation-checked chaos workload needs "put if
  // absent" — a blind Put would overwrite a concurrent counter.
  bool Insert(TxRuntime& rt, uint64_t key, const uint64_t* value) override;
  bool ReadModifyWrite(TxRuntime& rt, uint64_t key,
                       const std::function<void(uint64_t*)>& fn) const override;
  std::vector<KvEntry> HashScan(TxRuntime& rt, uint64_t start_key, uint32_t limit) const;
  std::vector<KvEntry> Scan(TxRuntime& rt, uint64_t start_key,
                            uint32_t limit) const override {
    return HashScan(rt, start_key, limit);
  }

  // -- Crash recovery ------------------------------------------------------
  // Rebuilds one partition from its durable state: zeroes the slab, applies
  // the checkpoint image, replays the log suffix (both as [addr, value]
  // pairs in append order), then rebuilds the pool's bookkeeping
  // (NodePool::Rebuild) from the slots the recovered bucket chains reach.
  // Checked errors on pairs outside the slab or on structurally corrupt
  // chains. Deterministic: recovering twice from the same inputs
  // yields a byte-identical slab and identical pool state.
  void RecoverPartition(uint32_t partition,
                        const std::vector<std::pair<uint64_t, uint64_t>>& checkpoint_pairs,
                        const std::vector<std::pair<uint64_t, uint64_t>>& replay_pairs);

  // -- Host-side helpers (zero simulated cost; load phase + verification) --
  bool HostPut(uint64_t key, const uint64_t* value) override;  // insert-or-update
  bool HostGet(uint64_t key, uint64_t* value) const override;
  uint64_t HostSize() const override;
  uint64_t HostSizeOfPartition(uint32_t partition) const;
  // Invokes fn(key, value_ptr) for every resident entry (host-side).
  void HostForEach(const std::function<void(uint64_t, const uint64_t*)>& fn) const override;

  // -- Introspection -------------------------------------------------------
  uint32_t PartitionOfKey(uint64_t key) const;
  uint32_t num_partitions() const override { return pool_.num_partitions(); }
  uint32_t value_words() const override { return cfg_.value_words; }
  uint32_t buckets_per_partition() const { return cfg_.buckets_per_partition; }
  // [base, base + bytes) of a partition's slab, for tests and the chaos
  // harness's initial-state recording.
  std::pair<uint64_t, uint64_t> SlabRange(uint32_t partition) const override;
  // Live nodes currently allocated out of a partition's pool.
  uint64_t NodesInUse(uint32_t partition) const override;
  const char* IndexKindName() const override { return "hash"; }

  uint64_t node_words() const { return 2 + uint64_t{cfg_.value_words}; }

 private:
  // 64-bit finalizer; low half selects the partition, high half the bucket.
  static uint64_t Hash(uint64_t key);
  uint32_t BucketIndexOf(uint64_t key) const;
  uint64_t BucketAddr(uint64_t key) const;
  uint64_t BucketAddrAt(uint32_t partition, uint32_t bucket) const;
  static uint64_t ValueAddr(uint64_t node) { return node + 2 * kWordBytes; }
  // The value_words addresses of a node's value.
  std::vector<uint64_t> ValueAddrs(uint64_t node) const;

  // Walks `key`'s bucket chain (see LocateInChain).
  template <typename Acc>
  ChainPos Locate(const Acc& acc, uint64_t key) const;
  // Insert-or-update: on a hit writes the value in place (unless
  // `insert_only`) and returns false; on a miss links in the node
  // `new_node()` returns and returns true. The callback runs only on a
  // miss.
  template <typename Acc, typename NewNode>
  bool Upsert(const Acc& acc, uint64_t key, const uint64_t* value, bool insert_only,
              NewNode new_node) const;
  // Put/Insert in their own transaction, drawing the node from the pool.
  bool UpsertTx(TxRuntime& rt, uint64_t key, const uint64_t* value, bool insert_only);

  SharedMemory* mem_;
  KvStoreConfig cfg_;
  NodePool pool_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_APPS_KVSTORE_H_
