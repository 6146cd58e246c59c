// The synchrobench-style hash table and sorted linked list benchmark
// structures (Sections 5.2, 6.2 and 7.2).
//
// A fixed bucket array in shared memory; each bucket is a sorted chain of
// nodes [key, next] (src/apps/access.h). Keys are non-zero 64-bit
// integers; 0 is the null pointer. Operations: contains / add / remove,
// plus the move operation (remove one key, insert another, atomically)
// introduced for the eager-vs-lazy write acquisition experiment (Figure
// 4(c)).
//
// The sorted linked list is the table with one bucket: every key maps to
// the single head word, so the structure is one global sorted list. That
// is the structure the elastic transaction evaluation uses: run the Tx*
// operations under TxMode::kElasticEarly or kElasticRead to relax the
// read-prefix atomicity, exactly as Section 6 describes (node i no longer
// matters once the search passed node i+1).
//
// Three access modes share one implementation of each operation:
//  - Tx* methods compose inside a caller-provided transaction,
//  - wrapper methods (Add/Remove/Contains/Move) run their own transaction
//    via a TxRuntime, handling node allocation across retries,
//  - Seq* methods run unsynchronized through a CoreEnv (the sequential
//    baseline), and Host* helpers touch memory directly at zero cost for
//    setup and verification.
//
// Removed nodes are leaked, as in synchrobench: reclamation would require
// epochs/quiescence, which neither the paper nor the benchmarks model.
#ifndef TM2C_SRC_APPS_HASH_TABLE_H_
#define TM2C_SRC_APPS_HASH_TABLE_H_

#include <cstdint>

#include "src/runtime/core_env.h"
#include "src/shmem/allocator.h"
#include "src/tm/tx_runtime.h"

namespace tm2c {

class ShmHashTable {
 public:
  // Allocates the bucket array host-side (region 0, like the paper's
  // initial table living in a single memory controller). One bucket makes
  // the table a sorted linked list.
  ShmHashTable(ShmAllocator& allocator, SharedMemory& mem, uint32_t num_buckets);

  // -- Composable transactional operations --------------------------------
  bool TxContains(Tx& tx, uint64_t key) const;
  // Inserts `key` using `node_addr` as the new node if insertion happens.
  // Returns true if inserted (node consumed), false if the key existed.
  bool TxAdd(Tx& tx, uint64_t key, uint64_t node_addr) const;
  bool TxRemove(Tx& tx, uint64_t key) const;

  // -- One-transaction wrappers -------------------------------------------
  bool Contains(TxRuntime& rt, uint64_t key) const;
  bool Add(TxRuntime& rt, ShmAllocator& allocator, uint64_t key) const;
  bool Remove(TxRuntime& rt, uint64_t key) const;
  // Atomically removes `from_key` and inserts `to_key`. Returns true if
  // both halves took effect.
  bool Move(TxRuntime& rt, ShmAllocator& allocator, uint64_t from_key, uint64_t to_key) const;

  // -- Sequential baseline (unsynchronized, timed through env) ------------
  bool SeqContains(CoreEnv& env, uint64_t key) const;
  bool SeqAdd(CoreEnv& env, ShmAllocator& allocator, uint64_t key) const;
  bool SeqRemove(CoreEnv& env, uint64_t key) const;

  // -- Host-side helpers (zero simulated cost) -----------------------------
  bool HostAdd(ShmAllocator& allocator, uint64_t key) const;
  bool HostContains(uint64_t key) const;
  uint64_t HostSize() const;

  uint32_t num_buckets() const { return num_buckets_; }
  static constexpr uint64_t kNodeBytes = 2 * kWordBytes;

 private:
  uint64_t BucketAddr(uint64_t key) const {
    const uint64_t h = key * 0xff51afd7ed558ccdull;
    return base_ + (h >> 32) % num_buckets_ * kWordBytes;
  }

  SharedMemory* mem_;
  uint32_t num_buckets_;
  uint64_t base_ = 0;
};

}  // namespace tm2c

#endif  // TM2C_SRC_APPS_HASH_TABLE_H_
