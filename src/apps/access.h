// Memory accessors and the sorted-chain walk shared by the app structures.
//
// Each structure writes its algorithms once, as templates over an
// accessor, and instantiates them for every access mode it offers:
//  - TxAccess: inside a transaction (reads take DS-Locks, writes are
//    deferred to commit),
//  - PeekAccess: inside a transaction, read-only and unlocked (Tx::Peek),
//    for a walk whose result the structure re-checks under a lock,
//  - EnvAccess: unsynchronized but timed through a CoreEnv (the
//    sequential baselines),
//  - HostAccess: direct shared-memory access at zero simulated cost (load
//    phases and verification).
//
// A sorted chain is a singly linked list of nodes that start
// [key][next], in ascending key order, behind one head word; 0 is the null
// pointer. The hash table's buckets (a sorted list is the one-bucket
// table) and the KV store's buckets are sorted chains.
#ifndef TM2C_SRC_APPS_ACCESS_H_
#define TM2C_SRC_APPS_ACCESS_H_

#include <cstdint>
#include <vector>

#include "src/runtime/core_env.h"
#include "src/shmem/shared_memory.h"
#include "src/tm/tx_runtime.h"

namespace tm2c {

struct TxAccess {
  Tx* tx;
  uint64_t Load(uint64_t addr) const { return tx->Read(addr); }
  void Store(uint64_t addr, uint64_t value) const { tx->Write(addr, value); }
  std::vector<uint64_t> LoadMany(const std::vector<uint64_t>& addrs) const {
    return tx->ReadMany(addrs);
  }
};

struct PeekAccess {
  Tx* tx;
  uint64_t Load(uint64_t addr) const { return tx->Peek(addr); }
};

struct EnvAccess {
  CoreEnv* env;
  uint64_t Load(uint64_t addr) const { return env->ShmemRead(addr); }
  void Store(uint64_t addr, uint64_t value) const { env->ShmemWrite(addr, value); }
};

struct HostAccess {
  SharedMemory* mem;
  uint64_t Load(uint64_t addr) const { return mem->LoadWord(addr); }
  void Store(uint64_t addr, uint64_t value) const { mem->StoreWord(addr, value); }
  std::vector<uint64_t> LoadMany(const std::vector<uint64_t>& addrs) const {
    std::vector<uint64_t> vals(addrs.size());
    for (size_t i = 0; i < addrs.size(); ++i) {
      vals[i] = mem->LoadWord(addrs[i]);
    }
    return vals;
  }
};

inline uint64_t ChainKeyAddr(uint64_t node) { return node; }
inline uint64_t ChainNextAddr(uint64_t node) { return node + kWordBytes; }

// Where a key sits in a sorted chain.
struct ChainPos {
  uint64_t prev_link = 0;  // the word that points at `at`
  uint64_t at = 0;         // first node whose key is >= the key; 0 past the end
  bool found = false;      // at's key equals the key
};

// Walks the chain behind `head` to `key`: reads the head, then each node's
// key and, while the key is smaller, its next word. A walk that has visited
// `max_steps` nodes gives up, reporting not-found at the next node: a
// corrupted (cyclic) chain then yields a bounded wrong answer instead of a
// wedged walk.
template <typename Acc>
ChainPos LocateInChain(const Acc& acc, uint64_t head, uint64_t key,
                       uint64_t max_steps = UINT64_MAX) {
  ChainPos pos;
  pos.prev_link = head;
  pos.at = acc.Load(head);
  for (uint64_t steps = 0; pos.at != 0 && ++steps <= max_steps;) {
    const uint64_t node_key = acc.Load(ChainKeyAddr(pos.at));
    if (node_key >= key) {
      pos.found = node_key == key;
      break;
    }
    pos.prev_link = ChainNextAddr(pos.at);
    pos.at = acc.Load(pos.prev_link);
  }
  return pos;
}

// Calls fn(node) for each node of the chain behind `head`, at most
// `max_steps` of them. Returns the node the walk stopped at: 0 at the end
// of an intact chain.
template <typename Acc, typename Fn>
uint64_t ForEachInChain(const Acc& acc, uint64_t head, uint64_t max_steps, Fn fn) {
  uint64_t node = acc.Load(head);
  for (uint64_t steps = 0; node != 0 && ++steps <= max_steps;
       node = acc.Load(ChainNextAddr(node))) {
    fn(node);
  }
  return node;
}

}  // namespace tm2c

#endif  // TM2C_SRC_APPS_ACCESS_H_
