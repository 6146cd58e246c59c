#include "src/apps/hash_table.h"

#include "src/apps/access.h"
#include "src/common/check.h"

namespace tm2c {
namespace {

// The three set operations on one bucket's chain, for every accessor.
template <typename Acc>
bool ChainContains(const Acc& acc, uint64_t head, uint64_t key) {
  TM2C_DCHECK(key != 0);
  return LocateInChain(acc, head, key).found;
}

// Links a node from `new_node()` in front of the first larger key. The
// callback runs only when the key is missing.
template <typename Acc, typename NewNode>
bool ChainAdd(const Acc& acc, uint64_t head, uint64_t key, NewNode new_node) {
  TM2C_DCHECK(key != 0);
  const ChainPos pos = LocateInChain(acc, head, key);
  if (pos.found) {
    return false;
  }
  const uint64_t node = new_node();
  TM2C_DCHECK(node != 0);
  acc.Store(ChainKeyAddr(node), key);
  acc.Store(ChainNextAddr(node), pos.at);
  acc.Store(pos.prev_link, node);
  return true;
}

template <typename Acc>
bool ChainRemove(const Acc& acc, uint64_t head, uint64_t key) {
  TM2C_DCHECK(key != 0);
  const ChainPos pos = LocateInChain(acc, head, key);
  if (!pos.found) {
    return false;
  }
  acc.Store(pos.prev_link, acc.Load(ChainNextAddr(pos.at)));
  return true;  // the node itself is leaked (see header)
}

}  // namespace

ShmHashTable::ShmHashTable(ShmAllocator& allocator, SharedMemory& mem, uint32_t num_buckets)
    : mem_(&mem), num_buckets_(num_buckets) {
  TM2C_CHECK(num_buckets >= 1);
  base_ = allocator.AllocGlobal(static_cast<uint64_t>(num_buckets) * kWordBytes);
  for (uint32_t b = 0; b < num_buckets; ++b) {
    mem_->StoreWord(base_ + b * kWordBytes, 0);
  }
}

bool ShmHashTable::TxContains(Tx& tx, uint64_t key) const {
  return ChainContains(TxAccess{&tx}, BucketAddr(key), key);
}

bool ShmHashTable::TxAdd(Tx& tx, uint64_t key, uint64_t node_addr) const {
  return ChainAdd(TxAccess{&tx}, BucketAddr(key), key, [node_addr] { return node_addr; });
}

bool ShmHashTable::TxRemove(Tx& tx, uint64_t key) const {
  return ChainRemove(TxAccess{&tx}, BucketAddr(key), key);
}

bool ShmHashTable::Contains(TxRuntime& rt, uint64_t key) const {
  bool found = false;
  rt.Execute([&](Tx& tx) { found = TxContains(tx, key); });
  return found;
}

bool ShmHashTable::Add(TxRuntime& rt, ShmAllocator& allocator, uint64_t key) const {
  uint64_t node = 0;  // allocated once, reused across retries
  bool inserted = false;
  rt.Execute([&](Tx& tx) {
    if (node == 0) {
      node = allocator.Alloc(kNodeBytes, rt.env().core_id());
    }
    inserted = TxAdd(tx, key, node);
  });
  if (!inserted && node != 0) {
    allocator.Free(node);
  }
  return inserted;
}

bool ShmHashTable::Remove(TxRuntime& rt, uint64_t key) const {
  bool removed = false;
  rt.Execute([&](Tx& tx) { removed = TxRemove(tx, key); });
  return removed;
}

bool ShmHashTable::Move(TxRuntime& rt, ShmAllocator& allocator, uint64_t from_key,
                        uint64_t to_key) const {
  uint64_t node = 0;
  uint64_t undo_node = 0;
  bool moved = false;
  bool used_undo = false;
  rt.Execute([&](Tx& tx) {
    moved = false;
    used_undo = false;
    // Remove first, insert second — the paper's move "removes an element
    // and inserts a new one". Under eager acquisition the removal's write
    // lock is held across the insertion's traversal, which is exactly the
    // window Figure 4(c) measures. If the destination turns out to be
    // occupied, the removal is undone inside the same transaction (the
    // reads stay consistent, so the re-insertion cannot fail).
    if (!TxRemove(tx, from_key)) {
      return;  // source missing: nothing to move
    }
    if (node == 0) {
      node = allocator.Alloc(kNodeBytes, rt.env().core_id());
    }
    if (!TxAdd(tx, to_key, node)) {
      if (undo_node == 0) {
        undo_node = allocator.Alloc(kNodeBytes, rt.env().core_id());
      }
      const bool restored = TxAdd(tx, from_key, undo_node);
      TM2C_CHECK(restored);
      used_undo = true;
      return;  // destination occupied: commit restores the original state
    }
    moved = true;
  });
  if (!moved && node != 0) {
    allocator.Free(node);
  }
  if (!used_undo && undo_node != 0) {
    allocator.Free(undo_node);
  }
  return moved;
}

bool ShmHashTable::SeqContains(CoreEnv& env, uint64_t key) const {
  return ChainContains(EnvAccess{&env}, BucketAddr(key), key);
}

bool ShmHashTable::SeqAdd(CoreEnv& env, ShmAllocator& allocator, uint64_t key) const {
  return ChainAdd(EnvAccess{&env}, BucketAddr(key), key,
                  [&] { return allocator.Alloc(kNodeBytes, env.core_id()); });
}

bool ShmHashTable::SeqRemove(CoreEnv& env, uint64_t key) const {
  return ChainRemove(EnvAccess{&env}, BucketAddr(key), key);
}

bool ShmHashTable::HostAdd(ShmAllocator& allocator, uint64_t key) const {
  return ChainAdd(HostAccess{mem_}, BucketAddr(key), key,
                  [&] { return allocator.AllocGlobal(kNodeBytes); });
}

bool ShmHashTable::HostContains(uint64_t key) const {
  return ChainContains(HostAccess{mem_}, BucketAddr(key), key);
}

uint64_t ShmHashTable::HostSize() const {
  uint64_t count = 0;
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    ForEachInChain(HostAccess{mem_}, base_ + b * kWordBytes, UINT64_MAX,
                   [&](uint64_t) { ++count; });
  }
  return count;
}

}  // namespace tm2c
