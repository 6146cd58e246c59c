#include "src/apps/bank.h"

#include "src/common/check.h"

namespace tm2c {

Bank::Bank(ShmAllocator& allocator, SharedMemory& mem, uint32_t num_accounts, uint64_t initial)
    : mem_(&mem), num_accounts_(num_accounts) {
  TM2C_CHECK(num_accounts >= 2);
  base_ = allocator.AllocGlobal(static_cast<uint64_t>(num_accounts) * kWordBytes);
  lock_addr_ = allocator.AllocGlobal(kWordBytes);
  for (uint32_t a = 0; a < num_accounts; ++a) {
    mem_->StoreWord(AccountAddr(a), initial);
  }
  mem_->StoreWord(lock_addr_, 0);
}

void Bank::TxTransfer(Tx& tx, uint32_t from, uint32_t to, uint64_t amount) const {
  const uint64_t from_balance = tx.Read(AccountAddr(from));
  const uint64_t to_balance = tx.Read(AccountAddr(to));
  tx.Write(AccountAddr(from), from_balance - amount);
  tx.Write(AccountAddr(to), to_balance + amount);
}

uint64_t Bank::TxBalance(Tx& tx) const {
  uint64_t total = 0;
  for (uint32_t a = 0; a < num_accounts_; ++a) {
    total += tx.Read(AccountAddr(a));
  }
  return total;
}

void Bank::AcquireGlobalLock(CoreEnv& env) const {
  // Test-and-test-and-set: spin on a plain read, attempt the TAS only when
  // the lock looks free — the usual way to keep a TAS register usable.
  for (;;) {
    if (env.ShmemTestAndSet(lock_addr_)) {
      return;
    }
    while (env.ShmemRead(lock_addr_) != 0) {
      env.Compute(50);
    }
  }
}

void Bank::ReleaseGlobalLock(CoreEnv& env) const { env.ShmemWrite(lock_addr_, 0); }

void Bank::LockTransfer(CoreEnv& env, uint32_t from, uint32_t to, uint64_t amount) const {
  AcquireGlobalLock(env);
  const uint64_t from_balance = env.ShmemRead(AccountAddr(from));
  const uint64_t to_balance = env.ShmemRead(AccountAddr(to));
  env.ShmemWrite(AccountAddr(from), from_balance - amount);
  env.ShmemWrite(AccountAddr(to), to_balance + amount);
  ReleaseGlobalLock(env);
}

uint64_t Bank::LockBalance(CoreEnv& env) const {
  AcquireGlobalLock(env);
  uint64_t total = 0;
  for (uint32_t a = 0; a < num_accounts_; ++a) {
    total += env.ShmemRead(AccountAddr(a));
  }
  ReleaseGlobalLock(env);
  return total;
}

uint64_t Bank::HostTotal() const {
  uint64_t total = 0;
  for (uint32_t a = 0; a < num_accounts_; ++a) {
    total += mem_->LoadWord(AccountAddr(a));
  }
  return total;
}

}  // namespace tm2c
