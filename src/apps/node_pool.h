// Per-partition pools of fixed-size node slots for the partitioned stores
// (KvStore, OrderedIndex).
//
// For each DTM partition, in partition order, the pool carves one slab out
// of the allocator near the partition's service core, starts it on a
// 64-byte line, registers it with AddressMap::AddOwnedRange so every lock
// acquisition for the partition's data routes to its owning service core,
// and zeroes it (0 is the null pointer everywhere; the allocator may hand
// back recycled memory). A slab is `header_words` words owned by the store
// (bucket heads, a root pointer) followed by `capacity` node slots of
// `node_words` words each.
//
// Every slot is one lock unit, so a node read whole takes one lock and no
// node shares a lock with another; the header keeps stripe locks, so
// writers of neighbouring bucket heads do not conflict. Slots are packed:
// the header is padded only to the slot's natural alignment (the largest
// power of two dividing the slot size, at most a line).
//
// Slot bookkeeping is host-side: Alloc reuses freed slots last-in
// first-out and otherwise hands out the next untouched slot, in ascending
// order. Reuse is safe because every node word is read and written under
// the DS-Lock protocol — address reuse is just another
// write-after-release. The wrappers on the native backends allocate
// concurrently, so each partition's bookkeeping sits behind its own mutex.
#ifndef TM2C_SRC_APPS_NODE_POOL_H_
#define TM2C_SRC_APPS_NODE_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/runtime/deployment.h"
#include "src/shmem/allocator.h"
#include "src/tm/address_map.h"

namespace tm2c {

class NodePool {
 public:
  NodePool(ShmAllocator& allocator, SharedMemory& mem, AddressMap& map,
           const DeploymentPlan& plan, uint64_t header_words, uint64_t node_words,
           uint32_t capacity);

  // The last freed slot of `partition`'s pool, else its next untouched
  // slot, else 0: the pool is exhausted.
  uint64_t Alloc(uint32_t partition);
  // Returns a slot Alloc handed out.
  void Free(uint32_t partition, uint64_t node);
  // Slots currently handed out.
  uint64_t InUse(uint32_t partition) const;

  // True iff `node` is a properly aligned slot of the partition's pool —
  // the guard a pointer read from shared memory passes before it is
  // dereferenced, so corrupted links dead-end instead of walking wild.
  bool Contains(uint32_t partition, uint64_t node) const {
    const Partition& part = *parts_[partition];
    return node >= part.pool_base && node < part.pool_base + capacity_ * node_bytes_ &&
           (node - part.pool_base) % node_bytes_ == 0;
  }
  // The slot index of a node the pool Contains.
  uint32_t SlotOf(uint32_t partition, uint64_t node) const {
    return static_cast<uint32_t>((node - parts_[partition]->pool_base) / node_bytes_);
  }
  // [base, bytes) of the partition's slab; the header starts at base.
  std::pair<uint64_t, uint64_t> Slab(uint32_t partition) const {
    return {parts_[partition]->slab_base, slab_bytes_};
  }

  // Crash recovery: resets the partition's bookkeeping to exactly the
  // slots marked in `live` (indexed by slot). Slots past the highest live
  // one are untouched again; the holes below it go on the free list in
  // ascending order, so the rebuilt state is deterministic.
  void Rebuild(uint32_t partition, const std::vector<bool>& live);

  uint32_t num_partitions() const { return static_cast<uint32_t>(parts_.size()); }

 private:
  struct Partition {
    uint64_t slab_base = 0;  // line-aligned, registered with the map
    uint64_t pool_base = 0;  // slot 0, right after the header
    uint32_t next_unused = 0;
    std::vector<uint64_t> free_nodes;
    uint64_t in_use = 0;
    mutable std::mutex mu;
  };

  uint64_t capacity_;
  uint64_t node_bytes_;
  uint64_t slab_bytes_;
  std::vector<std::unique_ptr<Partition>> parts_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_APPS_NODE_POOL_H_
