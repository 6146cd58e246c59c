// Partitioned transactional B+-tree (the ordered store).
//
// The index divides its key RANGE — not a hash of it — into one contiguous
// sub-range per DTM service core and gives each partition its own B+-tree
// in its own slab of a NodePool (src/apps/node_pool.h; a root pointer,
// then the node slots), registered with AddressMap::AddOwnedRange with one
// lock unit per node slot. As in the KV store this is the share-little
// layout: every lock acquisition for a partition's keys routes to the
// partition's owning service core, and because the partitioning is by
// range, a range scan's lock traffic walks the service cores in key order
// instead of spraying them.
//
// Within a partition the tree is a B+-tree of uniform node slots. Every
// node — leaf or inner — holds up to `fanout` sorted entries:
//
//   node layout: [meta][next][k0..k_{F-1}][payload0 .. payload_{F-1}]
//
// where meta packs (is_leaf, count) and, once the node is unlinked, the
// dead mark (its top bit); `next` chains leaves left-to-right
// (0-terminated per partition; inner nodes keep it 0), and each payload
// slot is `value_words` wide: a leaf entry's inline value, or — word 0
// only — an inner entry's child pointer. Inner entries are (separator,
// child) pairs where the separator is the child subtree's minimum key at
// the time it was linked; routing descends the rightmost entry whose
// separator is <= the key (entry 0 also catches smaller keys), which keeps
// lookups and inserts consistent even while separators age.
//
// Node reads go through one Tx::ReadMany covering meta, next, keys and
// payload word 0 of every slot. All of them lie in the node's lock unit,
// so a locked node read costs one lock: one round trip to the owning
// service core (or zero messages on the owner-local fast path).
//
// Lookups and scans lock only the leaves their result depends on. Get,
// ReadModifyWrite, a Put of a present key, and the first leaf of each
// partition a scan visits walk down with unlocked reads (Tx::Peek, through
// PeekAccess) and then read the leaf they land on under its lock. They keep
// it only if, under that lock, it is a live leaf with at least one key and
// a first key no greater than the search key; lookups and scans then step
// right along the leaf chain, locked, while the next leaf starts at or
// below the key, and a Put whose key is not in the landing leaf inserts.
// Everything else runs the locked descent, one lock per level: a failed
// check, every insert, every delete and every SMO. The result depends only
// on locked reads because
//  - every change to a leaf's keys or liveness writes that leaf (an unlink
//    writes a dead mark into the node's meta word),
//  - the leaf chain is sorted, so every key left of a leaf is below its
//    first key, and
//  - the walk to the right along the chain stays locked.
// Every peeked pointer passes NodePool::Contains before it is followed, so
// a torn or stale peek dead-ends or lands on a node the check rejects. In
// the elastic modes the landing read is an ordinary read of that mode; the
// locked descent is exactly the paper's Section 6 sliding-window
// traversal.
//
// Structure-modification operations — leaf/inner splits, sibling merges,
// borrows, root growth and collapse — are ordinary deferred writes inside
// the caller's transaction: the whole SMO commits atomically or not at
// all. Node allocation is host-side, from the same NodePool the KV store
// uses; an SmoScratch carries allocations across the retries of one
// transaction and returns unused or unlinked nodes to the pool only after
// the commit.
//
// The algorithms are written once, as templates over the memory accessors
// of src/apps/access.h: the Tx* methods run them on TxAccess, the Host*
// helpers on HostAccess.
//
// Scan(lo, hi) lands on the leaf containing `lo`, then walks the leaf
// chain, landing again in the next partition's tree when a chain ends.
// Under TxMode::kNormal the scan is snapshot-consistent (every visited
// leaf stays read-locked to the commit); the elastic modes trade that for
// the paper's sliding window, exactly as in their list traversals.
#ifndef TM2C_SRC_APPS_ORDERED_INDEX_H_
#define TM2C_SRC_APPS_ORDERED_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/node_pool.h"
#include "src/apps/tx_store_api.h"
#include "src/runtime/core_env.h"
#include "src/shmem/allocator.h"
#include "src/tm/address_map.h"
#include "src/tm/tx_runtime.h"

namespace tm2c {

struct OrderedIndexConfig {
  // Inclusive key range served by the index; keys are non-zero and the
  // range is split evenly into one contiguous sub-range per partition.
  uint64_t key_min = 1;
  uint64_t key_max = 1 << 20;
  // Inline value payload, in words (>= 1).
  uint32_t value_words = 1;
  // Maximum entries per node (leaf values or inner children); the node,
  // 2 + fanout * (1 + value_words) words, is one lock unit whatever its
  // size. 3 <= fanout <= 16.
  uint32_t fanout = 6;
  // Node-pool capacity per partition (leaves + inner nodes). Sized by the
  // caller; exhaustion is a checked error. A tree of N entries needs at
  // most ~2*ceil(2N/fanout) nodes.
  uint32_t capacity_per_partition = 1024;
  // Planted application fault (verification only; every other mode is
  // ignored here):
  //  - kSmoSkipParentLink: a leaf split publishes the new right leaf in
  //    the leaf chain but SKIPS linking it into its parent — the classic
  //    publish-child-before-parent-link bug. Descents miss every key in
  //    the orphan leaf while chain scans still see them;
  //    HostCheckStructure must flag the tree.
  //  - kLandSkipCheck: a transaction keeps the leaf its unlocked walk
  //    landed on without the under-lock check.
  //  - kSmoSkipDeadMark: an unlink writes no dead mark.
  FaultMode fault = FaultMode::kNone;
};

class OrderedIndex : public TxStoreApi {
 public:
  // Carves one slab per DTM partition out of `allocator` (placed near the
  // owning service core) and registers each slab with `map`. Each
  // partition starts as a single empty leaf. Setup-time only.
  OrderedIndex(ShmAllocator& allocator, SharedMemory& mem, AddressMap& map,
               const DeploymentPlan& plan, OrderedIndexConfig cfg);

  // Node allocations carried across the retries of one transaction.
  // Pattern (the wrappers below do exactly this):
  //   OrderedIndex::SmoScratch scratch;
  //   rt.Execute([&](Tx& tx) {
  //     scratch.ResetAttempt();
  //     index.TxPut(tx, key, value, &scratch);
  //   });
  //   index.SettleScratch(&scratch);  // after commit
  struct SmoScratch {
    // Nodes handed out by the pools for this transaction; `taken` flags
    // which ones the current attempt consumed (an abort resets the flags,
    // so a retry reuses the same nodes instead of leaking them).
    std::vector<std::pair<uint32_t, uint64_t>> fresh;  // (partition, node)
    std::vector<bool> taken;
    // Nodes the current attempt unlinked (merge victims, collapsed
    // roots); recycled by SettleScratch once the unlink has committed.
    std::vector<std::pair<uint32_t, uint64_t>> freed;

    void ResetAttempt() {
      std::fill(taken.begin(), taken.end(), false);
      freed.clear();
    }
  };

  // -- Composable transactional operations --------------------------------
  bool TxGet(Tx& tx, uint64_t key, uint64_t* value) const override;
  bool TxReadModifyWrite(Tx& tx, uint64_t key,
                         const std::function<void(uint64_t*)>& fn) const override;
  // Ordered range scan over [lo, hi]: entries in ascending key order,
  // appended to `out`, at most `limit` of them. Returns the count.
  uint32_t TxRangeScan(Tx& tx, uint64_t lo, uint64_t hi, uint32_t limit,
                       std::vector<KvEntry>* out) const;
  // TxStoreApi scan: ascending from `start_key` to the end of the range.
  uint32_t TxScan(Tx& tx, uint64_t start_key, uint32_t limit,
                  std::vector<KvEntry>* out) const override {
    return TxRangeScan(tx, start_key, cfg_.key_max, limit, out);
  }
  // Insert-or-update; returns true on insert. Splits draw from `scratch`.
  bool TxPut(Tx& tx, uint64_t key, const uint64_t* value, SmoScratch* scratch);
  // Insert-only; returns false (writing nothing) when the key exists.
  bool TxInsert(Tx& tx, uint64_t key, const uint64_t* value, SmoScratch* scratch);
  // Removes `key`; the old value lands in `old_value` (if non-null).
  // Underfull leaves merge with or borrow from a sibling; unlinked nodes
  // land in scratch->freed for SettleScratch.
  bool TxDelete(Tx& tx, uint64_t key, uint64_t* old_value, SmoScratch* scratch);
  // After the transaction committed: recycles scratch->freed and the
  // untaken remainder of scratch->fresh back to the pools.
  void SettleScratch(SmoScratch* scratch);

  // -- One-transaction wrappers -------------------------------------------
  bool Get(TxRuntime& rt, uint64_t key, std::vector<uint64_t>* value) const override;
  bool Put(TxRuntime& rt, uint64_t key, const uint64_t* value) override;
  bool Insert(TxRuntime& rt, uint64_t key, const uint64_t* value) override;
  bool Delete(TxRuntime& rt, uint64_t key,
              std::vector<uint64_t>* old_value = nullptr) override;
  bool ReadModifyWrite(TxRuntime& rt, uint64_t key,
                       const std::function<void(uint64_t*)>& fn) const override;
  std::vector<KvEntry> Scan(TxRuntime& rt, uint64_t start_key,
                            uint32_t limit) const override;
  std::vector<KvEntry> RangeScan(TxRuntime& rt, uint64_t lo, uint64_t hi,
                                 uint32_t limit) const;

  // -- Host-side helpers (zero simulated cost; load phase + verification) --
  bool HostPut(uint64_t key, const uint64_t* value) override;  // insert-or-update
  bool HostDelete(uint64_t key, uint64_t* old_value = nullptr);
  bool HostGet(uint64_t key, uint64_t* value) const override;
  uint64_t HostSize() const override;
  // Ascending key order (the leaf chains, partition by partition).
  void HostForEach(const std::function<void(uint64_t, const uint64_t*)>& fn) const override;
  std::vector<KvEntry> HostRangeScan(uint64_t lo, uint64_t hi, uint32_t limit) const;

  // Tree-shape invariants, host-side, appended to `problems` as one string
  // each (empty = intact). Checks, per partition: node counts and key
  // order within every reachable node; separator consistency (child
  // subtrees strictly ordered around their parent separators); leaf keys
  // strictly ascending along the chain and within the partition's key
  // sub-range; linked-leaf completeness (the leaf chain visits exactly the
  // leaves the inner nodes reach, in the same order); and node accounting
  // (reachable nodes == the pool's live-node count). This is what catches
  // the planted SMO fault: an orphan leaf is chained but not parented.
  void HostCheckStructure(std::vector<std::string>* problems) const;

  // -- Introspection -------------------------------------------------------
  uint32_t PartitionOfKey(uint64_t key) const;
  // First key of a partition's contiguous sub-range.
  uint64_t PartitionMinKey(uint32_t partition) const;
  // Tree height of a partition (1 = the root is a leaf). Host-side; the
  // chaos harness uses it to assert its trees are non-vacuously deep.
  uint32_t HostDepthOfPartition(uint32_t partition) const;
  uint32_t num_partitions() const override { return pool_.num_partitions(); }
  uint32_t value_words() const override { return cfg_.value_words; }
  uint32_t fanout() const { return cfg_.fanout; }
  uint64_t key_min() const { return cfg_.key_min; }
  uint64_t key_max() const { return cfg_.key_max; }
  std::pair<uint64_t, uint64_t> SlabRange(uint32_t partition) const override;
  uint64_t NodesInUse(uint32_t partition) const override;
  const char* IndexKindName() const override { return "btree"; }

  // [meta][next][keys][payloads]; each payload slot is value_words wide.
  uint64_t node_words() const { return 2 + uint64_t{cfg_.fanout} * (1 + cfg_.value_words); }

 private:
  // One node as read by a single ReadMany: meta, next, every key and
  // payload word 0 of every slot (an inner entry's child pointer, a leaf
  // entry's first value word). Counts are clamped to the fanout on read so
  // a corrupted meta word yields a bounded wrong answer, not a wild walk.
  struct NodeView {
    uint64_t addr = 0;
    bool is_leaf = false;
    bool dead = false;  // unlinked: the meta word carries the dead mark
    uint32_t count = 0;
    uint64_t next = 0;
    uint32_t down_index = 0;  // child slot a descent took (inner nodes)
    std::vector<uint64_t> keys;      // fanout words
    std::vector<uint64_t> payload0;  // fanout words
  };
  // One entry with its full payload (value_words words; inner entries use
  // word 0 as the child pointer and keep the rest zero).
  struct FullEntry {
    uint64_t key = 0;
    std::vector<uint64_t> payload;
  };
  struct Descent {
    std::vector<NodeView> path;  // root..parent-of-leaf, with down_index
    NodeView leaf;
  };

  // The slab header's one word.
  uint64_t RootPtrAddr(uint32_t partition) const { return pool_.Slab(partition).first; }
  uint64_t MetaAddr(uint64_t node) const { return node; }
  uint64_t NextAddr(uint64_t node) const { return node + kWordBytes; }
  uint64_t KeyAddr(uint64_t node, uint32_t i) const {
    return node + (2 + uint64_t{i}) * kWordBytes;
  }
  uint64_t PayloadAddr(uint64_t node, uint32_t i) const {
    return node + (2 + uint64_t{cfg_.fanout} + uint64_t{i} * cfg_.value_words) * kWordBytes;
  }

  // Draws a node for `partition` from the scratch (reusing an untaken
  // earlier allocation first). Checked error on pool exhaustion.
  uint64_t TakeScratchNode(uint32_t partition, SmoScratch* scratch);

  // The algorithms, templated over a memory accessor so the transactional
  // and host paths share one implementation (defined in the .cc). Every
  // pointer read from shared memory passes pool_.Contains before it is
  // dereferenced, so corrupted links dead-end instead of walking wild.
  template <typename Acc>
  NodeView ReadNode(const Acc& acc, uint64_t node) const;
  template <typename Acc>
  bool Descend(const Acc& acc, uint32_t partition, uint64_t key, bool want_path,
               Descent* d) const;
  // The leaf a transaction lands on for `key`, without locking the way
  // down (see the header comment): peeks to a leaf and reads it under its
  // lock. False: it fails the landing check, and the caller runs the
  // locked descent.
  bool LandLeaf(Tx& tx, uint32_t partition, uint64_t key, NodeView* leaf) const;
  // The leaf that holds `key` if the partition holds it. A transaction
  // lands (LandLeaf) and steps right along the chain, locked, while the
  // next leaf starts at or below `key`; every other accessor, and a failed
  // landing, take the locked descent.
  template <typename Acc>
  bool LeafOf(const Acc& acc, uint32_t partition, uint64_t key, NodeView* leaf) const;
  template <typename Acc>
  std::vector<FullEntry> MaterializeEntries(const Acc& acc, const NodeView& view) const;
  template <typename Acc>
  void WriteEntries(const Acc& acc, uint64_t node, bool is_leaf,
                    const std::vector<FullEntry>& entries, uint32_t from) const;
  template <typename Acc>
  void WriteMeta(const Acc& acc, uint64_t node, bool is_leaf, uint32_t count) const;
  // Unlinks `node`: writes its dead mark (meta keeps its shape and gains
  // the mark) and queues the node for SettleScratch to recycle.
  template <typename Acc>
  void Unlink(const Acc& acc, uint32_t partition, uint64_t node, bool is_leaf, uint32_t count,
              SmoScratch* scratch) const;
  // Links a freshly split-off child into the ancestors: inserts
  // (separator, child) right of the slot the descent took, splitting inner
  // nodes upward as needed, growing a new root when the old one splits.
  template <typename Acc>
  void InsertUpImpl(const Acc& acc, uint32_t partition, const std::vector<NodeView>& path,
                    uint64_t split_node, uint64_t separator, uint64_t child,
                    SmoScratch* scratch);
  // Merges/borrows an underfull node back to health, ascending while inner
  // nodes underflow in turn, collapsing the root when it ends up with a
  // single child.
  template <typename Acc>
  void RebalanceImpl(const Acc& acc, uint32_t partition, const Descent& d,
                     std::vector<FullEntry> cur_entries, SmoScratch* scratch);
  template <typename Acc>
  bool GetImpl(const Acc& acc, uint64_t key, uint64_t* value) const;
  template <typename Acc>
  bool RmwImpl(const Acc& acc, uint64_t key,
               const std::function<void(uint64_t*)>& fn) const;
  template <typename Acc>
  uint32_t ScanImpl(const Acc& acc, uint64_t lo, uint64_t hi, uint32_t limit,
                    const std::function<void(uint64_t, const uint64_t*)>& sink) const;
  template <typename Acc>
  bool PutImpl(const Acc& acc, uint64_t key, const uint64_t* value, bool insert_only,
               SmoScratch* scratch);
  template <typename Acc>
  bool DeleteImpl(const Acc& acc, uint64_t key, uint64_t* old_value, SmoScratch* scratch);

  SharedMemory* mem_;
  OrderedIndexConfig cfg_;
  NodePool pool_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_APPS_ORDERED_INDEX_H_
