// Wire-protocol-level tests of the DTM service: one service core driven by
// a raw-message client core on the simulator.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

#include "src/tm/dtm_service.h"

#include "src/runtime/sim_system.h"
#include "src/tm/address_map.h"

namespace tm2c {
namespace {

// Harness: core 0 runs the service loop; core 1 runs `client` and can send
// raw protocol messages and await responses.
class ServiceHarness {
 public:
  explicit ServiceHarness(TmConfig tm = TmConfig{}) {
    SimSystemConfig cfg;
    cfg.platform = MakeSccPlatform(0);
    cfg.num_cores = 4;
    cfg.num_service = 1;  // core 0
    cfg.shmem_bytes = 1 << 20;
    cfg.seed = 3;
    sys_ = std::make_unique<SimSystem>(cfg);
    service_ = std::make_unique<DtmService>(sys_->env(0), tm);
    sys_->SetCoreMain(0, [this](CoreEnv&) { service_->RunLoop(); });
  }

  void RunClient(std::function<void(CoreEnv&)> client) {
    sys_->SetCoreMain(1, std::move(client));
    sys_->Run(MillisToSim(1000));
  }

  DtmService& service() { return *service_; }
  SimSystem& sys() { return *sys_; }

  static Message ReadReq(uint64_t addr, uint64_t epoch, uint64_t metric = 0) {
    Message m;
    m.type = MsgType::kReadLockReq;
    m.w0 = addr;
    m.w1 = epoch;
    m.w2 = metric;
    return m;
  }
  static Message WriteReq(uint64_t addr, uint64_t epoch, uint64_t metric = 0) {
    Message m = ReadReq(addr, epoch, metric);
    m.type = MsgType::kWriteLockReq;
    return m;
  }

 private:
  std::unique_ptr<SimSystem> sys_;
  std::unique_ptr<DtmService> service_;
};

TEST(DtmService, EchoRespondsImmediately) {
  ServiceHarness h;
  bool ok = false;
  h.RunClient([&ok](CoreEnv& env) {
    Message m;
    m.type = MsgType::kEcho;
    m.w0 = 77;
    env.Send(0, std::move(m));
    const Message rsp = env.Recv();
    ok = rsp.type == MsgType::kEchoRsp && rsp.w0 == 77;
  });
  EXPECT_TRUE(ok);
}

TEST(DtmService, GrantsFreeLocksAndEchoesEpoch) {
  ServiceHarness h;
  h.RunClient([](CoreEnv& env) {
    env.Send(0, ServiceHarness::ReadReq(0x100, 11));
    Message rsp = env.Recv();
    ASSERT_EQ(rsp.type, MsgType::kLockGranted);
    EXPECT_EQ(rsp.w0, 0x100u);
    EXPECT_EQ(rsp.w1, 11u);
    env.Send(0, ServiceHarness::WriteReq(0x100, 11));
    rsp = env.Recv();
    ASSERT_EQ(rsp.type, MsgType::kLockGranted);  // own-lock upgrade
  });
  EXPECT_TRUE(h.service().lock_table().HasReader(0x100, 1));
  EXPECT_TRUE(h.service().lock_table().HasWriter(0x100, nullptr));
}

TEST(DtmService, ConflictResponseCarriesKind) {
  TmConfig tm;
  tm.cm = CmKind::kNone;  // requester always loses
  ServiceHarness h(tm);
  ConflictKind kind = ConflictKind::kNone;
  h.RunClient([&kind](CoreEnv& env) {
    env.Send(0, ServiceHarness::WriteReq(0x200, 1));
    (void)env.Recv();  // granted
    // Second client (core 2) not used; reuse core 1 with a different
    // epoch — but the same core never conflicts with itself, so drive the
    // conflict through a direct HandleLocal-style message from core 2.
    env.Send(0, ServiceHarness::ReadReq(0x200, 2));
    const Message rsp = env.Recv();
    kind = static_cast<ConflictKind>(rsp.w2);
  });
  // Same core: no conflict. This asserts the OWN-lock path instead.
  EXPECT_EQ(kind, ConflictKind::kNone);
}

TEST(DtmService, ForeignConflictRefusedWithKind) {
  TmConfig tm;
  tm.cm = CmKind::kNone;
  ServiceHarness h(tm);
  ConflictKind kind = ConflictKind::kNone;
  // Core 2 takes the write lock; core 1's read is refused RAW.
  h.sys().SetCoreMain(2, [](CoreEnv& env) {
    env.Send(0, ServiceHarness::WriteReq(0x300, 21));
    (void)env.Recv();
  });
  h.RunClient([&kind](CoreEnv& env) {
    env.Compute(1000000);  // let core 2 acquire first
    env.Send(0, ServiceHarness::ReadReq(0x300, 11));
    const Message rsp = env.Recv();
    ASSERT_EQ(rsp.type, MsgType::kLockConflict);
    kind = static_cast<ConflictKind>(rsp.w2);
  });
  EXPECT_EQ(kind, ConflictKind::kReadAfterWrite);
}

TEST(DtmService, RevocationNotifiesVictimOnce) {
  TmConfig tm;
  tm.cm = CmKind::kFairCm;
  ServiceHarness h(tm);
  int notifies = 0;
  // Core 2 (victim, worse metric) read-locks two addresses; core 1 write-
  // locks both with a better metric, revoking core 2 twice — but only one
  // notification per transaction attempt may be sent.
  h.sys().SetCoreMain(2, [&notifies](CoreEnv& env) {
    env.Send(0, ServiceHarness::ReadReq(0x400, 42, /*metric=*/100));
    (void)env.Recv();
    env.Send(0, ServiceHarness::ReadReq(0x408, 42, /*metric=*/100));
    (void)env.Recv();
    for (;;) {
      const Message m = env.Recv();
      if (m.type == MsgType::kAbortNotify) {
        EXPECT_EQ(m.w1, 42u);
        ++notifies;
      }
    }
  });
  h.RunClient([](CoreEnv& env) {
    env.Compute(2000000);  // let the victim acquire first
    env.Send(0, ServiceHarness::WriteReq(0x400, 7, /*metric=*/1));
    ASSERT_EQ(env.Recv().type, MsgType::kLockGranted);
    env.Send(0, ServiceHarness::WriteReq(0x408, 7, /*metric=*/1));
    ASSERT_EQ(env.Recv().type, MsgType::kLockGranted);
  });
  EXPECT_EQ(notifies, 1);
}

TEST(DtmService, StaleEpochRequestsRefused) {
  TmConfig tm;
  tm.cm = CmKind::kFairCm;
  ServiceHarness h(tm);
  bool second_refused = false;
  // Victim core 2 is revoked under epoch 42, then (not having processed
  // the notification) sends another request with the same epoch: the node
  // must refuse it outright.
  h.sys().SetCoreMain(2, [&second_refused](CoreEnv& env) {
    env.Send(0, ServiceHarness::ReadReq(0x500, 42, 100));
    (void)env.Recv();
    env.Compute(4000000);  // revoked meanwhile; notification ignored here
    env.Send(0, ServiceHarness::ReadReq(0x508, 42, 100));
    for (;;) {
      const Message m = env.Recv();
      if (m.type == MsgType::kLockConflict) {
        second_refused = true;
        return;
      }
      if (m.type == MsgType::kLockGranted) {
        return;
      }
    }
  });
  h.RunClient([](CoreEnv& env) {
    env.Compute(2000000);
    env.Send(0, ServiceHarness::WriteReq(0x500, 7, 1));  // revokes core 2
    ASSERT_EQ(env.Recv().type, MsgType::kLockGranted);
  });
  EXPECT_TRUE(second_refused);
  EXPECT_GT(h.service().stats().stale_requests_refused, 0u);
}

TEST(DtmService, BatchPrefixGrantStopsAtConflict) {
  TmConfig tm;
  tm.cm = CmKind::kNone;  // requester always loses a foreign conflict
  ServiceHarness h(tm);
  // Core 2 holds 0x610; core 1's batch {0x600, 0x608, 0x610} is granted as
  // the prefix {0x600, 0x608} — all-or-prefix, no rollback: the requester
  // keeps (and later releases) what was granted.
  h.sys().SetCoreMain(2, [](CoreEnv& env) {
    env.Send(0, ServiceHarness::WriteReq(0x610, 21));
    (void)env.Recv();
  });
  h.RunClient([](CoreEnv& env) {
    env.Compute(1000000);
    Message batch;
    batch.type = MsgType::kBatchAcquire;
    batch.w1 = 11;
    batch.w3 = PrefixBitmap(3);  // all three entries want the write lock
    batch.extra = {0x600, 0x608, 0x610};
    env.Send(0, std::move(batch));
    const Message rsp = env.Recv();
    ASSERT_EQ(rsp.type, MsgType::kBatchReply);
    EXPECT_EQ(rsp.w0, PrefixBitmap(2));  // grant bitmap: entries 0 and 1
    EXPECT_EQ(rsp.w3, 2u);               // granted count
    EXPECT_EQ(static_cast<ConflictKind>(rsp.w2), ConflictKind::kWriteAfterWrite);
  });
  uint32_t writer = 0;
  ASSERT_TRUE(h.service().lock_table().HasWriter(0x600, &writer));
  EXPECT_EQ(writer, 1u);
  EXPECT_TRUE(h.service().lock_table().HasWriter(0x608, nullptr));
  ASSERT_TRUE(h.service().lock_table().HasWriter(0x610, &writer));
  EXPECT_EQ(writer, 2u);  // the holder was untouched
}

TEST(DtmService, BatchMixedReadWriteFullyGranted) {
  ServiceHarness h;
  h.RunClient([](CoreEnv& env) {
    Message batch;
    batch.type = MsgType::kBatchAcquire;
    batch.w1 = 11;
    batch.w3 = 0b101;  // entries 0 and 2 write, entry 1 read
    batch.extra = {0x700, 0x708, 0x710};
    env.Send(0, std::move(batch));
    const Message rsp = env.Recv();
    ASSERT_EQ(rsp.type, MsgType::kBatchReply);
    EXPECT_EQ(rsp.w0, PrefixBitmap(3));
    EXPECT_EQ(rsp.w3, 3u);
    EXPECT_EQ(static_cast<ConflictKind>(rsp.w2), ConflictKind::kNone);
  });
  EXPECT_TRUE(h.service().lock_table().HasWriter(0x700, nullptr));
  EXPECT_TRUE(h.service().lock_table().HasReader(0x708, 1));
  EXPECT_FALSE(h.service().lock_table().HasWriter(0x708, nullptr));
  EXPECT_TRUE(h.service().lock_table().HasWriter(0x710, nullptr));
  EXPECT_EQ(h.service().stats().batch_requests, 1u);
  EXPECT_EQ(h.service().stats().batch_entries, 3u);
}

TEST(DtmService, BatchEmptyIsTriviallyGranted) {
  ServiceHarness h;
  h.RunClient([](CoreEnv& env) {
    Message batch;
    batch.type = MsgType::kBatchAcquire;
    batch.w1 = 11;
    env.Send(0, std::move(batch));
    const Message rsp = env.Recv();
    ASSERT_EQ(rsp.type, MsgType::kBatchReply);
    EXPECT_EQ(rsp.w0, 0u);
    EXPECT_EQ(rsp.w3, 0u);
    EXPECT_EQ(static_cast<ConflictKind>(rsp.w2), ConflictKind::kNone);
  });
  EXPECT_EQ(h.service().lock_table().NumEntries(), 0u);
}

TEST(DtmService, BatchStaleEpochRefusedWhole) {
  TmConfig tm;
  tm.cm = CmKind::kFairCm;
  ServiceHarness h(tm);
  // Core 2's read lock under epoch 42 is revoked by core 1's write; core
  // 2's follow-up batch under the same epoch must get zero grants.
  h.sys().SetCoreMain(2, [](CoreEnv& env) {
    env.Send(0, ServiceHarness::ReadReq(0xA00, 42, /*metric=*/100));
    (void)env.Recv();
    env.Compute(4000000);  // revoked meanwhile
    Message batch;
    batch.type = MsgType::kBatchAcquire;
    batch.w1 = 42;
    batch.w3 = PrefixBitmap(2);
    batch.extra = {0xA08, 0xA10};
    env.Send(0, std::move(batch));
    for (;;) {
      const Message m = env.Recv();
      if (m.type == MsgType::kBatchReply) {
        EXPECT_EQ(m.w0, 0u);
        EXPECT_EQ(m.w3, 0u);
        EXPECT_NE(static_cast<ConflictKind>(m.w2), ConflictKind::kNone);
        return;
      }
    }
  });
  h.RunClient([](CoreEnv& env) {
    env.Compute(2000000);
    env.Send(0, ServiceHarness::WriteReq(0xA00, 7, /*metric=*/1));  // revokes core 2
    ASSERT_EQ(env.Recv().type, MsgType::kLockGranted);
  });
  EXPECT_GT(h.service().stats().stale_requests_refused, 0u);
  EXPECT_FALSE(h.service().lock_table().HasWriter(0xA08, nullptr));
  EXPECT_FALSE(h.service().lock_table().HasWriter(0xA10, nullptr));
}

TEST(DtmService, BatchMisroutedEntryTerminatesPrefix) {
  // Two service cores (0 and 2) and an AddressMap: a batch sent to core 0
  // containing a stripe that hashes to core 2 must stop the grant prefix at
  // the misrouted entry instead of splitting that stripe's lock state
  // across two tables.
  SimSystemConfig cfg;
  cfg.platform = MakeSccPlatform(0);
  cfg.num_cores = 4;
  cfg.num_service = 2;  // service cores 0 and 2
  cfg.shmem_bytes = 1 << 20;
  cfg.seed = 3;
  SimSystem sys(cfg);
  TmConfig tm;
  AddressMap map(sys.deployment(), tm.stripe_bytes);
  DtmService service(sys.env(0), tm, &map);
  sys.SetCoreMain(0, [&service](CoreEnv&) { service.RunLoop(); });

  // Find one stripe owned by core 0 and one owned by core 2.
  uint64_t own = UINT64_MAX;
  uint64_t foreign = UINT64_MAX;
  for (uint64_t addr = 0x100; own == UINT64_MAX || foreign == UINT64_MAX; addr += 8) {
    (map.ResponsibleCore(addr) == 0 ? own : foreign) = addr;
  }
  sys.SetCoreMain(1, [own, foreign](CoreEnv& env) {
    Message batch;
    batch.type = MsgType::kBatchAcquire;
    batch.w1 = 5;
    batch.w3 = PrefixBitmap(3);
    batch.extra = {own, foreign, own};
    env.Send(0, std::move(batch));
    const Message rsp = env.Recv();
    ASSERT_EQ(rsp.type, MsgType::kBatchReply);
    EXPECT_EQ(rsp.w0, PrefixBitmap(1));  // only the leading owned entry
    EXPECT_EQ(rsp.w3, 1u);
  });
  sys.Run(MillisToSim(1000));
  EXPECT_TRUE(service.lock_table().HasWriter(own, nullptr));
  EXPECT_FALSE(service.lock_table().HasWriter(foreign, nullptr));
  EXPECT_EQ(service.stats().misrouted_refused, 1u);
}

// Two-service fixture with an AddressMap that pins [0x1000, +0x100) to
// partition 0: the migration protocol needs a registered owned range and a
// second partition to move it to.
struct MigrationFixture {
  MigrationFixture() {
    SimSystemConfig cfg;
    cfg.platform = MakeSccPlatform(0);
    cfg.num_cores = 4;
    cfg.num_service = 2;  // service cores 0 and 2
    cfg.shmem_bytes = 1 << 20;
    cfg.seed = 3;
    sys = std::make_unique<SimSystem>(cfg);
    map = std::make_unique<AddressMap>(sys->deployment(), TmConfig{}.stripe_bytes);
    map->AddOwnedRange(0x1000, 0x100, 0);
    service = std::make_unique<DtmService>(sys->env(0), TmConfig{}, map.get());
    sys->SetCoreMain(0, [this](CoreEnv&) { service->RunLoop(); });
  }

  static Message MigrateReq(uint64_t base, uint64_t bytes, uint32_t target) {
    Message m;
    m.type = MsgType::kMigrateRange;
    m.w0 = base;
    m.w1 = bytes;
    m.w2 = target;
    return m;
  }

  std::unique_ptr<SimSystem> sys;
  std::unique_ptr<AddressMap> map;
  std::unique_ptr<DtmService> service;
};

TEST(DtmServiceMigration, DrainRevokesHoldersAndFlipsOwnership) {
  MigrationFixture f;
  ConflictKind notify_kind = ConflictKind::kNone;
  ConflictKind stale_route_kind = ConflictKind::kNone;
  Message update;
  f.sys->SetCoreMain(1, [&](CoreEnv& env) {
    env.Send(0, ServiceHarness::ReadReq(0x1000, 7, /*metric=*/100));
    ASSERT_EQ(env.Recv().type, MsgType::kLockGranted);
    env.Send(0, MigrationFixture::MigrateReq(0x1000, 0x100, 1));
    // The drain revokes our revocable read lock through the CM path...
    Message m = env.Recv();
    ASSERT_EQ(m.type, MsgType::kAbortNotify);
    EXPECT_EQ(m.w1, 7u);
    notify_kind = static_cast<ConflictKind>(m.w2);
    // ...the range is then empty, so the flip broadcast follows at once.
    update = env.Recv();
    ASSERT_EQ(update.type, MsgType::kOwnershipUpdate);
    // A request still routed to the old owner is refused whole, retryably.
    env.Send(0, ServiceHarness::ReadReq(0x1040, 9));
    m = env.Recv();
    ASSERT_EQ(m.type, MsgType::kLockConflict);
    stale_route_kind = static_cast<ConflictKind>(m.w2);
  });
  f.sys->Run(MillisToSim(1000));
  EXPECT_EQ(notify_kind, ConflictKind::kMigrating);
  EXPECT_EQ(stale_route_kind, ConflictKind::kMigrating);
  EXPECT_EQ(update.w0, 0x1000u);
  EXPECT_EQ(update.w1, 0x100u);
  EXPECT_EQ(update.w2, 1u);  // new owning partition
  EXPECT_EQ(update.w3, 1u);  // directory version after the flip
  EXPECT_EQ(f.map->PartitionOf(0x1000), 1u);
  EXPECT_EQ(f.map->version(), 1u);
  EXPECT_EQ(f.service->stats().migrations_started, 1u);
  EXPECT_EQ(f.service->stats().migrations_completed, 1u);
  EXPECT_EQ(f.service->stats().misrouted_refused, 1u);
  EXPECT_EQ(f.service->lock_table().NumEntries(), 0u);
}

TEST(DtmServiceMigration, CommittingWriterHoldsTheWindowOpenUntilRelease) {
  MigrationFixture f;
  ConflictKind refused_kind = ConflictKind::kNone;
  bool refused_while_draining = false;
  f.sys->SetCoreMain(1, [&](CoreEnv& env) {
    // A commit-phase write lock (w3 != 0) is not revocable by the drain.
    Message commit_write = ServiceHarness::WriteReq(0x1000, 7);
    commit_write.w3 = 1;
    env.Send(0, std::move(commit_write));
    ASSERT_EQ(env.Recv().type, MsgType::kLockGranted);
    env.Send(0, MigrationFixture::MigrateReq(0x1000, 0x100, 1));
    // While the window is open, new acquires in the range are refused.
    env.Send(0, ServiceHarness::ReadReq(0x1080, 9));
    const Message m = env.Recv();
    refused_while_draining = m.type == MsgType::kLockConflict;
    refused_kind = static_cast<ConflictKind>(m.w2);
    // The committing writer's release closes the window.
    Message rel;
    rel.type = MsgType::kReleaseAllWrites;
    rel.w1 = 7;
    rel.extra = {0x1000};
    env.Send(0, std::move(rel));
    ASSERT_EQ(env.Recv().type, MsgType::kOwnershipUpdate);
  });
  f.sys->Run(MillisToSim(1000));
  EXPECT_TRUE(refused_while_draining);
  EXPECT_EQ(refused_kind, ConflictKind::kMigrating);
  EXPECT_GE(f.service->stats().migrating_refused, 1u);
  EXPECT_EQ(f.service->stats().migrations_completed, 1u);
  EXPECT_EQ(f.map->PartitionOf(0x1000), 1u);
}

TEST(DtmServiceMigration, StaleAndNonsenseMigrateRequestsIgnored) {
  MigrationFixture f;
  f.sys->SetCoreMain(1, [&](CoreEnv& env) {
    // Target == current owner: nothing to move.
    env.Send(0, MigrationFixture::MigrateReq(0x1000, 0x100, 0));
    // Target out of range: ignored rather than crashing the service.
    env.Send(0, MigrationFixture::MigrateReq(0x1000, 0x100, 9));
    // The range must still be owned and servable afterwards.
    env.Send(0, ServiceHarness::ReadReq(0x1000, 5));
    ASSERT_EQ(env.Recv().type, MsgType::kLockGranted);
  });
  f.sys->Run(MillisToSim(1000));
  EXPECT_EQ(f.service->stats().migrations_started, 0u);
  EXPECT_EQ(f.map->PartitionOf(0x1000), 0u);
}

TEST(DtmService, OverloadRefusesNonCommittingAcquiresAboveHighWater) {
  TmConfig tm;
  tm.overload_high_water = 2;
  ServiceHarness h(tm);
  uint64_t overload_refusals = 0;
  uint64_t grants = 0;
  bool committing_granted = false;
  h.RunClient([&](CoreEnv& env) {
    // Flood the service: six scalar read acquires queued back-to-back. The
    // service sees the first with five still queued behind it (> high
    // water), so leading requests are shed with kOverload; as the backlog
    // drains below the mark, grants resume.
    for (uint64_t i = 0; i < 6; ++i) {
      env.Send(0, ServiceHarness::ReadReq(0x100 + i * 64, 5));
    }
    // A commit-phase write acquire is exempt: shedding a committer that
    // already holds its read set would only prolong the backlog.
    Message commit_write = ServiceHarness::WriteReq(0x900, 5);
    commit_write.w3 = 1;
    env.Send(0, std::move(commit_write));
    for (uint64_t i = 0; i < 7; ++i) {
      const Message m = env.Recv();
      if (m.type == MsgType::kLockGranted) {
        ++grants;
        committing_granted = committing_granted || m.w0 == 0x900;
      } else if (m.type == MsgType::kLockConflict &&
                 static_cast<ConflictKind>(m.w2) == ConflictKind::kOverload) {
        ++overload_refusals;
      }
    }
  });
  EXPECT_GT(overload_refusals, 0u);
  EXPECT_GT(grants, 0u);
  EXPECT_TRUE(committing_granted);
  EXPECT_EQ(h.service().stats().overload_refused, overload_refusals);
}

TEST(DtmService, ReleaseAllDrainsLocks) {
  ServiceHarness h;
  h.RunClient([](CoreEnv& env) {
    env.Send(0, ServiceHarness::ReadReq(0x800, 5));
    (void)env.Recv();
    env.Send(0, ServiceHarness::ReadReq(0x808, 5));
    (void)env.Recv();
    Message wb;
    wb.type = MsgType::kBatchAcquire;
    wb.w1 = 5;
    wb.w3 = PrefixBitmap(1);
    wb.extra = {0x810};
    env.Send(0, std::move(wb));
    (void)env.Recv();

    Message rel_reads;
    rel_reads.type = MsgType::kReleaseAllReads;
    rel_reads.w1 = 5;
    rel_reads.extra = {0x800, 0x808};
    env.Send(0, std::move(rel_reads));
    Message rel_writes;
    rel_writes.type = MsgType::kReleaseAllWrites;
    rel_writes.w1 = 5;
    rel_writes.extra = {0x810};
    env.Send(0, std::move(rel_writes));
  });
  EXPECT_EQ(h.service().lock_table().NumEntries(), 0u);
  EXPECT_EQ(h.service().stats().releases, 2u);
}

TEST(DtmService, EarlyReadReleaseDropsSingleLock) {
  ServiceHarness h;
  h.RunClient([](CoreEnv& env) {
    env.Send(0, ServiceHarness::ReadReq(0x900, 5));
    (void)env.Recv();
    env.Send(0, ServiceHarness::ReadReq(0x908, 5));
    (void)env.Recv();
    Message rel;
    rel.type = MsgType::kEarlyReadRelease;
    rel.w0 = 0x900;
    rel.w1 = 5;
    env.Send(0, std::move(rel));
  });
  EXPECT_FALSE(h.service().lock_table().HasReader(0x900, 1));
  EXPECT_TRUE(h.service().lock_table().HasReader(0x908, 1));
}

// --- One acquisition sequence behind three entries -------------------------
//
// The scalar kReadLockReq/kWriteLockReq, the kBatchAcquire and the
// owner-local AcquireSpanDirect entries share one acquisition sequence. The
// harness below drives each entry from the service's own core (core 0 of
// two partitions, with [0x1000, +0x100) owned by partition 0): setup
// requests from other cores go through HandleLocal under their own `src`,
// then one probe from core 0 goes through the chosen entry.

enum class Entry { kScalar, kBatchOfOne, kOwnerLocal };

const char* EntryName(Entry entry) {
  switch (entry) {
    case Entry::kScalar:
      return "scalar";
    case Entry::kBatchOfOne:
      return "batch-of-one";
    case Entry::kOwnerLocal:
      return "owner-local";
  }
  return "?";
}

constexpr uint64_t kRange = 0x1000;
constexpr uint64_t kRangeBytes = 0x100;
constexpr uint64_t kProbeEpoch = 5;

struct Probe {
  uint64_t stripe = 0;
  bool is_write = false;
  uint64_t metric = 0;
};

struct ProbeOutcome {
  uint32_t granted = 0;
  ConflictKind refused = ConflictKind::kNone;
  // Revocations and grants traced while the probe ran: (kind, w0, w1, w2).
  std::vector<std::tuple<TraceKind, uint64_t, uint64_t, uint64_t>> events;
  DtmServiceStats delta;  // without the entry's own request counters
};

class RecordingSink : public TxTraceSink {
 public:
  void OnEvent(const TraceEvent& e) override {
    if (recording) {
      events.emplace_back(e.kind, e.w0, e.w1, e.w2);
    }
  }
  bool recording = false;
  std::vector<std::tuple<TraceKind, uint64_t, uint64_t, uint64_t>> events;
};

Message LockReq(uint32_t src, uint64_t stripe, uint64_t epoch, uint64_t metric, bool is_write,
                bool committing = false) {
  Message m = is_write ? ServiceHarness::WriteReq(stripe, epoch, metric)
                       : ServiceHarness::ReadReq(stripe, epoch, metric);
  m.src = src;
  m.w3 = committing ? 1 : 0;
  return m;
}

using ProbeSetup = std::function<void(DtmService&, AddressMap&)>;

// Fresh system per call: the setup, then the probe through `entry`.
// `queued` peer messages wait in core 0's inbox during the probe
// (admission control reads the inbox depth).
ProbeOutcome RunThroughEntry(Entry entry, const ProbeSetup& setup, const Probe& probe,
                             TmConfig tm = TmConfig{}, uint32_t queued = 0) {
  SimSystemConfig cfg;
  cfg.platform = MakeSccPlatform(0);
  cfg.num_cores = 4;
  cfg.num_service = 2;  // service cores 0 and 2
  cfg.shmem_bytes = 1 << 20;
  cfg.seed = 3;
  SimSystem sys(cfg);
  AddressMap map(sys.deployment(), tm.stripe_bytes);
  map.AddOwnedRange(kRange, kRangeBytes, 0);
  DtmService service(sys.env(0), tm, &map);
  RecordingSink sink;
  service.set_trace(&sink);
  service.SetLocalAbortSink([](uint64_t, ConflictKind) {});
  sys.SetCoreMain(1, [queued](CoreEnv& env) {
    for (uint32_t k = 0; k < queued; ++k) {
      Message echo;
      echo.type = MsgType::kEcho;
      env.Send(0, std::move(echo));
    }
  });
  ProbeOutcome out;
  sys.SetCoreMain(0, [&](CoreEnv& env) {
    setup(service, map);
    if (queued > 0) {
      env.Compute(1000000);  // let the peer's messages land
      EXPECT_EQ(env.InboxDepth(), queued);
    }
    const DtmServiceStats before = service.stats();
    sink.recording = true;
    switch (entry) {
      case Entry::kScalar: {
        const Message rsp = service.HandleLocal(
            LockReq(0, probe.stripe, kProbeEpoch, probe.metric, probe.is_write));
        out.granted = rsp.type == MsgType::kLockGranted ? 1 : 0;
        out.refused = static_cast<ConflictKind>(rsp.w2);
        break;
      }
      case Entry::kBatchOfOne: {
        Message batch;
        batch.type = MsgType::kBatchAcquire;
        batch.src = 0;
        batch.w1 = kProbeEpoch;
        batch.w2 = probe.metric;
        batch.w3 = probe.is_write ? PrefixBitmap(1) : 0;
        batch.extra = {probe.stripe};
        const Message rsp = service.HandleLocal(batch);
        out.granted = static_cast<uint32_t>(rsp.w3 & kBatchReqIdMask);
        out.refused = static_cast<ConflictKind>(rsp.w2);
        EXPECT_EQ(rsp.w0, PrefixBitmap(out.granted));
        break;
      }
      case Entry::kOwnerLocal: {
        const DtmService::AcquireOutcome r = service.AcquireSpanDirect(
            kProbeEpoch, probe.metric, &probe.stripe, 1, probe.is_write, /*committing=*/false);
        out.granted = r.granted;
        out.refused = r.refused;
        break;
      }
    }
    sink.recording = false;
    out.events = sink.events;
    const DtmServiceStats& after = service.stats();
    DtmServiceStats::ForEachField([&](const char*, auto member, FieldMerge) {
      out.delta.*member = after.*member - before.*member;
    });
  });
  sys.Run(MillisToSim(1000));
  // Each entry bumps its own request counters, and only those.
  const DtmServiceStats& d = out.delta;
  EXPECT_EQ(d.requests, 1u) << EntryName(entry);
  EXPECT_EQ(d.batch_requests, entry == Entry::kBatchOfOne ? 1u : 0u) << EntryName(entry);
  EXPECT_EQ(d.batch_entries, entry == Entry::kBatchOfOne ? 1u : 0u) << EntryName(entry);
  EXPECT_EQ(d.local_direct_requests, entry == Entry::kOwnerLocal ? 1u : 0u) << EntryName(entry);
  EXPECT_EQ(d.local_direct_entries, entry == Entry::kOwnerLocal ? 1u : 0u) << EntryName(entry);
  out.delta.requests = out.delta.batch_requests = out.delta.batch_entries = 0;
  out.delta.local_direct_requests = out.delta.local_direct_entries = 0;
  return out;
}

void ExpectGranted(DtmService& s, const Message& req) {
  ASSERT_EQ(s.HandleLocal(req).type, MsgType::kLockGranted);
}

// Probe setups, run on core 0 before the probe.
void RevokeTheProbedAttempt(DtmService& s, AddressMap&) {
  ExpectGranted(s, LockReq(0, kRange, kProbeEpoch, 100, false));
  ExpectGranted(s, LockReq(1, kRange, 7, 1, true));  // the better metric revokes core 0
}

void OpenADrainWindow(DtmService& s, AddressMap&) {
  // A commit-phase writer is not revocable, so the drain stays open.
  ExpectGranted(s, LockReq(1, kRange, 7, 1, true, /*committing=*/true));
  s.BeginMigration(kRange, kRangeBytes, 1);
  ASSERT_TRUE(s.migrating());
}

void MoveTheRangeAway(DtmService&, AddressMap& map) {
  map.MoveOwnedRange(kRange, kRangeBytes, 1);
}

void WriteLockOnCore1(DtmService& s, AddressMap&) {
  ExpectGranted(s, LockReq(1, kRange, 7, 1, true));
}

void ReadLockOnCore1(DtmService& s, AddressMap&) {
  ExpectGranted(s, LockReq(1, kRange, 7, 100, false));
}

TEST(DtmServiceAcquire, OwnerLocalRefusesAStripeItNoLongerOwns) {
  // A directory flip (here applied directly, as MaybeCompleteMigrations
  // does) moves the range to partition 1. A multitasked runtime that
  // grouped a span under this core before the flip — it can serve the
  // emptying release while waiting on a remote batch — must be refused
  // retryably, as the wire entries are, not granted a stripe whose lock
  // state now lives in partition 1's table.
  const ProbeOutcome out =
      RunThroughEntry(Entry::kOwnerLocal, MoveTheRangeAway, Probe{kRange + 0x40, false, 0});
  EXPECT_EQ(out.granted, 0u);
  EXPECT_EQ(out.refused, ConflictKind::kMigrating);
  EXPECT_EQ(out.delta.misrouted_refused, 1u);
}

TEST(DtmServiceAcquire, EveryEntryGivesTheSameAnswer) {
  TmConfig tm;
  tm.cm = CmKind::kFairCm;  // the lower metric wins an arbitration
  struct Situation {
    const char* name;
    ProbeSetup setup;
    Probe probe;
    uint32_t granted;
    ConflictKind refused;
    uint64_t DtmServiceStats::*bumped;  // the counter the outcome bumps
  };
  const Situation situations[] = {
      {"stale epoch", RevokeTheProbedAttempt, {kRange + 8, false, 100}, 0,
       ConflictKind::kWriteAfterRead, &DtmServiceStats::stale_requests_refused},
      {"open drain window", OpenADrainWindow, {kRange + 0x40, false, 0}, 0,
       ConflictKind::kMigrating, &DtmServiceStats::migrating_refused},
      {"misrouted stripe", MoveTheRangeAway, {kRange + 0x40, false, 0}, 0,
       ConflictKind::kMigrating, &DtmServiceStats::misrouted_refused},
      {"contention-manager refusal", WriteLockOnCore1, {kRange, false, 100}, 0,
       ConflictKind::kReadAfterWrite, nullptr},
      {"grant revoking a reader", ReadLockOnCore1, {kRange, true, 1}, 1, ConflictKind::kNone,
       &DtmServiceStats::notifications_sent},
  };
  for (const Situation& sit : situations) {
    const ProbeOutcome scalar = RunThroughEntry(Entry::kScalar, sit.setup, sit.probe, tm);
    EXPECT_EQ(scalar.granted, sit.granted) << sit.name;
    EXPECT_EQ(scalar.refused, sit.refused) << sit.name;
    if (sit.bumped != nullptr) {
      EXPECT_EQ(scalar.delta.*sit.bumped, 1u) << sit.name;
    }
    for (const Entry entry : {Entry::kBatchOfOne, Entry::kOwnerLocal}) {
      const ProbeOutcome other = RunThroughEntry(entry, sit.setup, sit.probe, tm);
      EXPECT_EQ(other.granted, scalar.granted) << sit.name << " via " << EntryName(entry);
      EXPECT_EQ(other.refused, scalar.refused) << sit.name << " via " << EntryName(entry);
      EXPECT_EQ(other.events, scalar.events) << sit.name << " via " << EntryName(entry);
      const char* differs = FirstDifferingField(other.delta, scalar.delta);
      EXPECT_EQ(differs, nullptr) << sit.name << " via " << EntryName(entry) << ": " << differs;
    }
  }
  // The revoking grant notified exactly its victim, and traced its grant.
  const ProbeOutcome grant =
      RunThroughEntry(Entry::kOwnerLocal, situations[4].setup, situations[4].probe, tm);
  ASSERT_EQ(grant.events.size(), 2u);
  EXPECT_EQ(grant.events[0], std::make_tuple(TraceKind::kRevocation, uint64_t{1}, uint64_t{7},
                                             static_cast<uint64_t>(ConflictKind::kWriteAfterRead)));
  EXPECT_EQ(grant.events[1],
            std::make_tuple(TraceKind::kLockGrant, uint64_t{0}, kRange, uint64_t{0}));
}

TEST(DtmServiceAcquire, AdmissionControlShedsOnlyTheWireEntries) {
  // Three peer messages queued above a high-water mark of one: both wire
  // entries are shed with kOverload, the owner-local entry (which never
  // queues) is granted.
  TmConfig tm;
  tm.overload_high_water = 1;
  const ProbeSetup none = [](DtmService&, AddressMap&) {};
  const Probe probe{kRange, false, 0};
  for (const Entry entry : {Entry::kScalar, Entry::kBatchOfOne}) {
    const ProbeOutcome out = RunThroughEntry(entry, none, probe, tm, /*queued=*/3);
    EXPECT_EQ(out.granted, 0u) << EntryName(entry);
    EXPECT_EQ(out.refused, ConflictKind::kOverload) << EntryName(entry);
    EXPECT_EQ(out.delta.overload_refused, 1u) << EntryName(entry);
  }
  const ProbeOutcome local = RunThroughEntry(Entry::kOwnerLocal, none, probe, tm, /*queued=*/3);
  EXPECT_EQ(local.granted, 1u);
  EXPECT_EQ(local.refused, ConflictKind::kNone);
  EXPECT_EQ(local.delta.overload_refused, 0u);
}

// Every DtmServiceStats field is in the X-macro table, so the comparisons
// that walk it (FirstDifferingField, the entry-equivalence tests above)
// miss no counter.
TEST(DtmServiceStatsFields, TableCoversTheStruct) {
  size_t fields = 0;
  DtmServiceStats::ForEachField([&](const char*, auto, FieldMerge) { ++fields; });
  EXPECT_EQ(fields * sizeof(uint64_t), sizeof(DtmServiceStats));
}

// Lock-table entries are lock units (AddressMap::StripeOf): a request
// naming another address inside a unit would give the unit a second
// entry. Debug builds stop it at the service.
TEST(DtmServiceDeathTest, EntryInsideAWideUnitFailsTheDcheck) {
#ifdef NDEBUG
  GTEST_SKIP() << "TM2C_DCHECK is compiled out of release builds";
#else
  EXPECT_DEATH(
      {
        SimSystemConfig cfg;
        cfg.platform = MakeSccPlatform(0);
        cfg.num_cores = 4;
        cfg.num_service = 2;  // service cores 0 and 2
        cfg.shmem_bytes = 1 << 20;
        SimSystem sys(cfg);
        AddressMap map(sys.deployment(), TmConfig{}.stripe_bytes);
        map.AddOwnedRange(0x1000, 0x100, 0, /*lock_bytes=*/0x40);
        DtmService service(sys.env(0), TmConfig{}, &map);
        sys.SetCoreMain(0, [&service](CoreEnv&) { service.RunLoop(); });
        sys.SetCoreMain(1, [](CoreEnv& env) {
          env.Send(0, ServiceHarness::ReadReq(0x1008, 1));  // unit 0x1000
          (void)env.Recv();
        });
        sys.Run(MillisToSim(1000));
      },
      "StripeOf");
#endif
}

}  // namespace
}  // namespace tm2c
