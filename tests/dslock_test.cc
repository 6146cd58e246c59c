#include <gtest/gtest.h>

#include "src/dslock/lock_table.h"

namespace tm2c {
namespace {

TxInfo Tx1(uint32_t core, uint64_t metric = 0) {
  TxInfo info;
  info.core = core;
  info.epoch = (static_cast<uint64_t>(core) << 32) | 1;
  info.metric = metric;
  return info;
}

class LockTableTest : public ::testing::Test {
 protected:
  LockTableTest() : faircm_(MakeContentionManager(CmKind::kFairCm)),
                    nocm_(MakeContentionManager(CmKind::kNone)) {}

  LockTable table_;
  std::unique_ptr<ContentionManager> faircm_;
  std::unique_ptr<ContentionManager> nocm_;
};

TEST_F(LockTableTest, ReadLockGrantedOnFreeObject) {
  const auto r = table_.ReadLock(Tx1(1), 0x100, *faircm_);
  EXPECT_EQ(r.refused, ConflictKind::kNone);
  EXPECT_TRUE(r.victims.empty());
  EXPECT_TRUE(table_.HasReader(0x100, 1));
  EXPECT_TRUE(table_.CheckInvariants());
}

TEST_F(LockTableTest, MultipleReadersShareTheLock) {
  for (uint32_t core = 1; core <= 5; ++core) {
    EXPECT_EQ(table_.ReadLock(Tx1(core), 0x100, *faircm_).refused, ConflictKind::kNone);
  }
  for (uint32_t core = 1; core <= 5; ++core) {
    EXPECT_TRUE(table_.HasReader(0x100, core));
  }
  EXPECT_TRUE(table_.CheckInvariants());
}

TEST_F(LockTableTest, WriteLockGrantedOnFreeObject) {
  const auto r = table_.WriteLock(Tx1(2), 0x200, *faircm_);
  EXPECT_EQ(r.refused, ConflictKind::kNone);
  uint32_t writer = 0;
  EXPECT_TRUE(table_.HasWriter(0x200, &writer));
  EXPECT_EQ(writer, 2u);
}

TEST_F(LockTableTest, RawConflictRequesterLoses) {
  // Writer core 1 has metric 5; reader core 2 with worse metric 9 loses.
  ASSERT_EQ(table_.WriteLock(Tx1(1, 5), 0x300, *faircm_).refused, ConflictKind::kNone);
  const auto r = table_.ReadLock(Tx1(2, 9), 0x300, *faircm_);
  EXPECT_EQ(r.refused, ConflictKind::kReadAfterWrite);
  EXPECT_TRUE(r.victims.empty());
  EXPECT_TRUE(table_.HasWriter(0x300, nullptr));  // writer keeps the lock
}

TEST_F(LockTableTest, RawConflictRequesterWinsRevokesWriter) {
  ASSERT_EQ(table_.WriteLock(Tx1(1, 9), 0x300, *faircm_).refused, ConflictKind::kNone);
  const auto r = table_.ReadLock(Tx1(2, 5), 0x300, *faircm_);
  EXPECT_EQ(r.refused, ConflictKind::kNone);
  ASSERT_EQ(r.victims.size(), 1u);
  EXPECT_EQ(r.victims[0].info.core, 1u);
  EXPECT_EQ(r.victims[0].kind, ConflictKind::kReadAfterWrite);
  EXPECT_FALSE(table_.HasWriter(0x300, nullptr));
  EXPECT_TRUE(table_.HasReader(0x300, 2));
  EXPECT_TRUE(table_.CheckInvariants());
}

TEST_F(LockTableTest, WawConflictResolvedByPriority) {
  ASSERT_EQ(table_.WriteLock(Tx1(1, 5), 0x400, *faircm_).refused, ConflictKind::kNone);
  // Worse requester loses.
  EXPECT_EQ(table_.WriteLock(Tx1(2, 9), 0x400, *faircm_).refused,
            ConflictKind::kWriteAfterWrite);
  // Better requester revokes.
  const auto r = table_.WriteLock(Tx1(3, 1), 0x400, *faircm_);
  EXPECT_EQ(r.refused, ConflictKind::kNone);
  ASSERT_EQ(r.victims.size(), 1u);
  EXPECT_EQ(r.victims[0].info.core, 1u);
  EXPECT_EQ(r.victims[0].kind, ConflictKind::kWriteAfterWrite);
  uint32_t writer = 0;
  ASSERT_TRUE(table_.HasWriter(0x400, &writer));
  EXPECT_EQ(writer, 3u);
}

TEST_F(LockTableTest, WarConflictMustBeatAllReaders) {
  ASSERT_EQ(table_.ReadLock(Tx1(1, 3), 0x500, *faircm_).refused, ConflictKind::kNone);
  ASSERT_EQ(table_.ReadLock(Tx1(2, 7), 0x500, *faircm_).refused, ConflictKind::kNone);
  // Beats reader 2 but not reader 1: refused with WAR.
  EXPECT_EQ(table_.WriteLock(Tx1(3, 5), 0x500, *faircm_).refused,
            ConflictKind::kWriteAfterRead);
  EXPECT_TRUE(table_.HasReader(0x500, 1));
  EXPECT_TRUE(table_.HasReader(0x500, 2));
  // Beats both: all readers revoked, each reported as a WAR victim.
  const auto r = table_.WriteLock(Tx1(4, 1), 0x500, *faircm_);
  EXPECT_EQ(r.refused, ConflictKind::kNone);
  EXPECT_EQ(r.victims.size(), 2u);
  for (const auto& v : r.victims) {
    EXPECT_EQ(v.kind, ConflictKind::kWriteAfterRead);
  }
  EXPECT_FALSE(table_.HasReader(0x500, 1));
  EXPECT_FALSE(table_.HasReader(0x500, 2));
  EXPECT_TRUE(table_.CheckInvariants());
}

TEST_F(LockTableTest, OwnReadLockDoesNotBlockUpgrade) {
  ASSERT_EQ(table_.ReadLock(Tx1(1), 0x600, *nocm_).refused, ConflictKind::kNone);
  // Under no-CM any conflict aborts the requester — but upgrading one's own
  // read lock is not a conflict.
  const auto r = table_.WriteLock(Tx1(1), 0x600, *nocm_);
  EXPECT_EQ(r.refused, ConflictKind::kNone);
  EXPECT_TRUE(r.victims.empty());
  EXPECT_TRUE(table_.HasReader(0x600, 1));
  EXPECT_TRUE(table_.HasWriter(0x600, nullptr));
  EXPECT_TRUE(table_.CheckInvariants());
}

TEST_F(LockTableTest, OwnWriteLockAllowsReacquire) {
  ASSERT_EQ(table_.WriteLock(Tx1(1), 0x700, *nocm_).refused, ConflictKind::kNone);
  EXPECT_EQ(table_.WriteLock(Tx1(1), 0x700, *nocm_).refused, ConflictKind::kNone);
  EXPECT_EQ(table_.ReadLock(Tx1(1), 0x700, *nocm_).refused, ConflictKind::kNone);
}

TEST_F(LockTableTest, NoCmRefusesForeignConflicts) {
  ASSERT_EQ(table_.WriteLock(Tx1(1), 0x800, *nocm_).refused, ConflictKind::kNone);
  EXPECT_EQ(table_.ReadLock(Tx1(2), 0x800, *nocm_).refused, ConflictKind::kReadAfterWrite);
  EXPECT_EQ(table_.WriteLock(Tx1(2), 0x800, *nocm_).refused, ConflictKind::kWriteAfterWrite);
}

TEST_F(LockTableTest, ReleaseReadIsIdempotent) {
  ASSERT_EQ(table_.ReadLock(Tx1(1), 0x900, *faircm_).refused, ConflictKind::kNone);
  table_.ReleaseRead(1, 0x900);
  EXPECT_FALSE(table_.HasReader(0x900, 1));
  table_.ReleaseRead(1, 0x900);  // no-op
  table_.ReleaseRead(2, 0xAAA);  // never held: no-op
  EXPECT_EQ(table_.NumEntries(), 0u);  // empty entries erased
}

TEST_F(LockTableTest, StaleWriteReleaseCannotClobberNewOwner) {
  ASSERT_EQ(table_.WriteLock(Tx1(1, 9), 0xB00, *faircm_).refused, ConflictKind::kNone);
  // Core 2 revokes core 1 and takes the lock.
  ASSERT_EQ(table_.WriteLock(Tx1(2, 1), 0xB00, *faircm_).refused, ConflictKind::kNone);
  // Core 1's release (sent before it learned of the revocation) arrives.
  table_.ReleaseWrite(1, 0xB00);
  uint32_t writer = 0;
  ASSERT_TRUE(table_.HasWriter(0xB00, &writer));
  EXPECT_EQ(writer, 2u);  // unaffected
}

TEST_F(LockTableTest, ReleaseAllOfClearsEverything) {
  table_.ReadLock(Tx1(1), 0x10, *faircm_);
  table_.ReadLock(Tx1(1), 0x20, *faircm_);
  table_.WriteLock(Tx1(1), 0x30, *faircm_);
  table_.ReadLock(Tx1(2), 0x20, *faircm_);
  table_.ReleaseAllOf(1);
  EXPECT_FALSE(table_.HasReader(0x10, 1));
  EXPECT_FALSE(table_.HasReader(0x20, 1));
  EXPECT_FALSE(table_.HasWriter(0x30, nullptr));
  EXPECT_TRUE(table_.HasReader(0x20, 2));
  EXPECT_TRUE(table_.CheckInvariants());
}

TEST_F(LockTableTest, EntriesErasedWhenFullyReleased) {
  table_.ReadLock(Tx1(1), 0x10, *faircm_);
  table_.WriteLock(Tx1(1), 0x10, *faircm_);
  EXPECT_EQ(table_.NumEntries(), 1u);
  table_.ReleaseWrite(1, 0x10);
  table_.ReleaseRead(1, 0x10);
  EXPECT_EQ(table_.NumEntries(), 0u);
}

TEST_F(LockTableTest, TryAcquireManyEmptyBatchIsFullyGranted) {
  const BatchAcquireResult r = table_.TryAcquireMany(Tx1(1), nullptr, 0, 0, *faircm_);
  EXPECT_EQ(r.granted_bitmap, 0u);
  EXPECT_EQ(r.granted_count, 0u);
  EXPECT_EQ(r.refused, ConflictKind::kNone);
  EXPECT_TRUE(r.victims.empty());
  EXPECT_EQ(table_.NumEntries(), 0u);
}

TEST_F(LockTableTest, TryAcquireManyMixedReadWriteGrants) {
  const uint64_t addrs[] = {0x10, 0x20, 0x30};
  // Entries 0 and 2 want the write lock, entry 1 the read lock.
  const BatchAcquireResult r = table_.TryAcquireMany(Tx1(1), addrs, 3, 0b101, *faircm_);
  EXPECT_EQ(r.granted_bitmap, PrefixBitmap(3));
  EXPECT_EQ(r.granted_count, 3u);
  EXPECT_EQ(r.refused, ConflictKind::kNone);
  EXPECT_TRUE(table_.HasWriter(0x10, nullptr));
  EXPECT_TRUE(table_.HasReader(0x20, 1));
  EXPECT_FALSE(table_.HasWriter(0x20, nullptr));
  EXPECT_TRUE(table_.HasWriter(0x30, nullptr));
  EXPECT_TRUE(table_.CheckInvariants());
}

TEST_F(LockTableTest, TryAcquireManyDuplicateAddressesAreReacquisitions) {
  // Read+write of the same stripe in one batch: the write upgrades the
  // requester's own read lock, the second write re-acquires; no conflicts.
  const uint64_t addrs[] = {0x40, 0x40, 0x40};
  const BatchAcquireResult r = table_.TryAcquireMany(Tx1(1), addrs, 3, 0b110, *nocm_);
  EXPECT_EQ(r.granted_bitmap, PrefixBitmap(3));
  EXPECT_EQ(r.granted_count, 3u);
  EXPECT_TRUE(r.victims.empty());
  EXPECT_TRUE(table_.HasReader(0x40, 1));
  EXPECT_TRUE(table_.HasWriter(0x40, nullptr));
  EXPECT_TRUE(table_.CheckInvariants());
}

TEST_F(LockTableTest, TryAcquireManyPartialGrantStopsAtFirstRefusal) {
  // A foreign writer sits on the third of five stripes: the batch is
  // granted as the two-entry prefix, entries after the refusal untouched.
  ASSERT_EQ(table_.WriteLock(Tx1(9), 0x70, *nocm_).refused, ConflictKind::kNone);
  const uint64_t addrs[] = {0x50, 0x60, 0x70, 0x80, 0x90};
  const BatchAcquireResult r = table_.TryAcquireMany(Tx1(1), addrs, 5, PrefixBitmap(5), *nocm_);
  EXPECT_EQ(r.granted_bitmap, PrefixBitmap(2));
  EXPECT_EQ(r.granted_count, 2u);
  EXPECT_EQ(r.refused, ConflictKind::kWriteAfterWrite);
  EXPECT_TRUE(table_.HasWriter(0x50, nullptr));
  EXPECT_TRUE(table_.HasWriter(0x60, nullptr));
  EXPECT_FALSE(table_.HasWriter(0x80, nullptr));  // never attempted
  EXPECT_FALSE(table_.HasWriter(0x90, nullptr));
  uint32_t writer = 0;
  ASSERT_TRUE(table_.HasWriter(0x70, &writer));
  EXPECT_EQ(writer, 9u);  // the holder kept its lock
  EXPECT_TRUE(table_.CheckInvariants());
}

TEST_F(LockTableTest, TryAcquireManyCollectsVictimsAcrossThePrefix) {
  // Two foreign readers on different stripes, both beaten by the batch's
  // writer: every revocation across the prefix is reported.
  ASSERT_EQ(table_.ReadLock(Tx1(7, 100), 0xA0, *faircm_).refused, ConflictKind::kNone);
  ASSERT_EQ(table_.ReadLock(Tx1(8, 100), 0xB0, *faircm_).refused, ConflictKind::kNone);
  const uint64_t addrs[] = {0xA0, 0xB0};
  const BatchAcquireResult r =
      table_.TryAcquireMany(Tx1(1, /*metric=*/1), addrs, 2, PrefixBitmap(2), *faircm_);
  EXPECT_EQ(r.granted_count, 2u);
  ASSERT_EQ(r.victims.size(), 2u);
  EXPECT_EQ(r.victims[0].info.core, 7u);
  EXPECT_EQ(r.victims[1].info.core, 8u);
  EXPECT_TRUE(table_.CheckInvariants());
}

TEST_F(LockTableTest, StatsCountAcquiresRefusalsRevocations) {
  table_.ReadLock(Tx1(1, 1), 0x10, *faircm_);
  table_.WriteLock(Tx1(2, 0), 0x10, *faircm_);  // revokes reader 1
  table_.ReadLock(Tx1(3, 9), 0x10, *faircm_);   // refused (RAW vs writer 2)
  const LockTableStats& s = table_.stats();
  EXPECT_EQ(s.read_acquires, 1u);
  EXPECT_EQ(s.write_acquires, 1u);
  EXPECT_EQ(s.read_refused, 1u);
  EXPECT_EQ(s.revocations, 1u);
}

// Regression: revoking a writer that acquired via lock upgrade (reader +
// writer on the same stripe) must also revoke its read bit. Leaving the bit
// behind created a ghost reader with no TxInfo whose default metric (0)
// beat every subsequent write request — on the thread backend two cores
// could revoke/refuse each other through that ghost forever (the
// FairCm livelock the native backend exposed).
TEST_F(LockTableTest, RevokingUpgradedWriterClearsItsReadBit) {
  // Core 2 (weaker, higher metric) read-locks then upgrades: holds the
  // stripe as reader + committing writer.
  EXPECT_EQ(table_.ReadLock(Tx1(2, 100), 0x38, *faircm_).refused, ConflictKind::kNone);
  EXPECT_EQ(table_.WriteLock(Tx1(2, 100), 0x38, *faircm_, /*committing=*/true).refused,
            ConflictKind::kNone);

  // Core 1 (stronger, lower metric) reads: RAW, core 1 wins, core 2's
  // write lock is revoked — and its upgrade read bit must die with it.
  const auto r = table_.ReadLock(Tx1(1, 10), 0x38, *faircm_);
  EXPECT_EQ(r.refused, ConflictKind::kNone);
  ASSERT_EQ(r.victims.size(), 1u);
  EXPECT_EQ(r.victims[0].info.core, 2u);
  EXPECT_FALSE(table_.HasReader(0x38, 2));
  EXPECT_TRUE(table_.CheckInvariants());

  // Core 1's own commit-time upgrade must now succeed: no ghost reader
  // refuses it, no phantom victim is reported.
  const auto w = table_.WriteLock(Tx1(1, 10), 0x38, *faircm_, /*committing=*/true);
  EXPECT_EQ(w.refused, ConflictKind::kNone);
  EXPECT_TRUE(w.victims.empty());
  EXPECT_TRUE(table_.CheckInvariants());
}

// Same ghost via the WAW path: a stronger writer revokes a weaker upgraded
// writer; the loser must leave no reader bit behind.
TEST_F(LockTableTest, WawRevocationClearsLosersReadBit) {
  EXPECT_EQ(table_.ReadLock(Tx1(2, 100), 0x40, *faircm_).refused, ConflictKind::kNone);
  EXPECT_EQ(table_.WriteLock(Tx1(2, 100), 0x40, *faircm_, /*committing=*/true).refused,
            ConflictKind::kNone);

  const auto w = table_.WriteLock(Tx1(1, 10), 0x40, *faircm_, /*committing=*/true);
  EXPECT_EQ(w.refused, ConflictKind::kNone);
  ASSERT_EQ(w.victims.size(), 1u);
  EXPECT_EQ(w.victims[0].info.core, 2u);
  EXPECT_FALSE(table_.HasReader(0x40, 2));
  EXPECT_TRUE(table_.CheckInvariants());
}

// FairCm's decision, plus a record of every holder list it was handed.
class RecordingCm : public ContentionManager {
 public:
  CmKind kind() const override { return CmKind::kFairCm; }
  CmDecision Decide(const TxInfo& requester, const std::vector<TxInfo>& holders,
                    ConflictKind conflict) const override {
    calls.push_back(holders);
    return fair_->Decide(requester, holders, conflict);
  }

  mutable std::vector<std::vector<TxInfo>> calls;

 private:
  std::unique_ptr<ContentionManager> fair_ = MakeContentionManager(CmKind::kFairCm);
};

// A stripe with far more holders than the entry's inline holder slots: the
// holders spill to the heap, releases from either side reshuffle them, and
// every reader bit must still map to its own TxInfo when the CM arbitrates.
TEST_F(LockTableTest, CrowdedStripeSpillsHoldersAndKeepsEachTxInfo) {
  constexpr uint64_t kStripe = 0x700;
  constexpr uint32_t kReaders = 40;
  RecordingCm cm;
  const auto reader = [](uint32_t core) { return Tx1(core, 100 + core); };
  for (uint32_t core = 1; core <= kReaders; ++core) {
    ASSERT_EQ(table_.ReadLock(reader(core), kStripe, cm).refused, ConflictKind::kNone);
    ASSERT_TRUE(table_.CheckInvariants()) << "after reader " << core;
  }

  // Release readers that sit in the inline slots (the first few acquired)
  // and in the spill (the last few), then take them back.
  const std::vector<uint32_t> churn = {2, 39, 1, 40, 3, 25};
  for (uint32_t core : churn) {
    table_.ReleaseRead(core, kStripe);
    EXPECT_FALSE(table_.HasReader(kStripe, core));
    ASSERT_TRUE(table_.CheckInvariants()) << "after releasing " << core;
  }
  for (uint32_t core : churn) {
    ASSERT_EQ(table_.ReadLock(reader(core), kStripe, cm).refused, ConflictKind::kNone);
    ASSERT_TRUE(table_.CheckInvariants()) << "after re-acquiring " << core;
  }
  EXPECT_TRUE(cm.calls.empty());  // readers never conflict with readers

  // A stronger writer beats the whole reader set in one WAR arbitration.
  const auto w = table_.WriteLock(Tx1(kReaders + 1, 1), kStripe, cm);
  EXPECT_EQ(w.refused, ConflictKind::kNone);
  ASSERT_EQ(cm.calls.size(), 1u);
  ASSERT_EQ(cm.calls[0].size(), kReaders);
  ASSERT_EQ(w.victims.size(), kReaders);
  for (uint32_t i = 0; i < kReaders; ++i) {
    const uint32_t core = i + 1;
    EXPECT_EQ(cm.calls[0][i].core, core);
    EXPECT_EQ(cm.calls[0][i].metric, 100 + core);
    EXPECT_EQ(cm.calls[0][i].epoch, reader(core).epoch);
    EXPECT_EQ(w.victims[i].info.core, core);
    EXPECT_EQ(w.victims[i].kind, ConflictKind::kWriteAfterRead);
    EXPECT_FALSE(table_.HasReader(kStripe, core));
  }
  EXPECT_EQ(table_.stats().revocations, kReaders);
  EXPECT_TRUE(table_.CheckInvariants());

  table_.ReleaseWrite(kReaders + 1, kStripe);
  EXPECT_TRUE(table_.CheckInvariants());
  EXPECT_EQ(table_.NumEntries(), 0u);
}

}  // namespace
}  // namespace tm2c
