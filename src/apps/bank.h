// The bank application (Section 5.3).
//
// A fixed array of accounts in shared memory. Operations:
//  - transfer: move one unit between two accounts (4 shared accesses),
//  - balance: sum every account (long read-only scan).
//
// Three implementations share the same layout:
//  - transactional (TM2C),
//  - lock-based, using a single global test-and-set spin lock (the paper
//    compares against this because the SCC's one-TAS-register-per-core
//    budget precludes fine-grained locking),
//  - sequential host-side helpers for initialization and verification.
#ifndef TM2C_SRC_APPS_BANK_H_
#define TM2C_SRC_APPS_BANK_H_

#include <cstdint>

#include "src/runtime/core_env.h"
#include "src/shmem/allocator.h"
#include "src/tm/tx_runtime.h"

namespace tm2c {

class Bank {
 public:
  // Allocates the account array (and the global lock word) in shared
  // memory region 0 and deposits `initial` in every account. Host-side.
  Bank(ShmAllocator& allocator, SharedMemory& mem, uint32_t num_accounts, uint64_t initial);

  uint32_t num_accounts() const { return num_accounts_; }
  uint64_t AccountAddr(uint32_t account) const { return base_ + account * kWordBytes; }

  // -- Transactional operations -----------------------------------------
  void TxTransfer(Tx& tx, uint32_t from, uint32_t to, uint64_t amount) const;
  uint64_t TxBalance(Tx& tx) const;

  // -- Lock-based operations (global spin lock) --------------------------
  void LockTransfer(CoreEnv& env, uint32_t from, uint32_t to, uint64_t amount) const;
  uint64_t LockBalance(CoreEnv& env) const;

  // Host-side verification: total across all accounts at zero cost.
  uint64_t HostTotal() const;

 private:
  void AcquireGlobalLock(CoreEnv& env) const;
  void ReleaseGlobalLock(CoreEnv& env) const;

  SharedMemory* mem_;
  uint32_t num_accounts_;
  uint64_t base_ = 0;
  uint64_t lock_addr_ = 0;
};

}  // namespace tm2c

#endif  // TM2C_SRC_APPS_BANK_H_
