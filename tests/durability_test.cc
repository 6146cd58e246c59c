// Tests for the durability layer (src/durability/) and the crash-restart
// oracle on top of it: WAL framing edge cases (torn tails, CRC corruption,
// empty logs, file round trips), partition log + checkpoint mechanics,
// KvStore recovery determinism, group-commit flush accounting, planted
// write-ahead-rule violations, and small crash-recovery chaos sweeps.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/apps/kvstore.h"
#include "src/check/checker.h"
#include "src/check/crash.h"
#include "src/durability/partition_log.h"
#include "src/durability/wal.h"
#include "src/tm/tm_system.h"

namespace tm2c {
namespace {

using Payloads = std::vector<std::vector<uint64_t>>;

// Every record's payload, read back in log order.
Payloads PayloadsOf(const WalRecords& records) {
  Payloads out;
  for (const WalRecord& record : records) {
    out.push_back(record.payload);
  }
  return out;
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

TEST(Wal, EmptyLogIsCleanAndHoldsOnlyTheHeader) {
  Wal wal(Wal::Options{});
  EXPECT_EQ(wal.image().size(), kWalHeaderBytes);
  EXPECT_EQ(wal.durable_bytes(), kWalHeaderBytes);
  EXPECT_EQ(wal.appended_records(), 0u);
  const WalReadResult r = ReadWal(wal.image());
  EXPECT_TRUE(r.clean());
  EXPECT_FALSE(r.torn_tail);
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.valid_bytes, kWalHeaderBytes);
}

TEST(Wal, MissingOrWrongMagicIsBadMagic) {
  EXPECT_TRUE(ReadWal({}).bad_magic);
  EXPECT_TRUE(ReadWal({'T', 'M'}).bad_magic);
  std::vector<uint8_t> wrong(kWalHeaderBytes, 0x42);
  EXPECT_TRUE(ReadWal(wrong).bad_magic);
}

TEST(Wal, AppendedRecordsReadBackInOrder) {
  Wal wal(Wal::Options{});
  const uint64_t a[] = {1, 2, 3};
  const uint64_t b[] = {0xdeadbeefcafef00dull};
  EXPECT_EQ(wal.Append(a, 3), 0u);
  EXPECT_EQ(wal.Append(b, 1), 1u);
  EXPECT_EQ(wal.unflushed_records(), 2u);
  wal.Flush();
  EXPECT_EQ(wal.unflushed_records(), 0u);
  EXPECT_EQ(wal.durable_bytes(), wal.image().size());

  const WalReadResult r = ReadWal(wal.image());
  ASSERT_TRUE(r.clean());
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(PayloadsOf(r.records), (Payloads{{1, 2, 3}, {0xdeadbeefcafef00dull}}));
  EXPECT_EQ(r.valid_bytes, wal.image().size());
}

TEST(Wal, TornFinalRecordKeepsThePrefix) {
  Wal wal(Wal::Options{});
  const uint64_t a[] = {10, 11};
  const uint64_t b[] = {20, 21, 22};
  wal.Append(a, 2);
  const uint64_t prefix_bytes = wal.image().size();
  wal.Append(b, 3);

  // Cut the image anywhere strictly inside the second frame: incomplete
  // header and incomplete payload are both torn tails, never corruption.
  for (uint64_t cut = prefix_bytes + 1; cut < wal.image().size(); ++cut) {
    std::vector<uint8_t> torn(wal.image().begin(), wal.image().begin() + cut);
    const WalReadResult r = ReadWal(torn);
    EXPECT_TRUE(r.clean()) << "cut at " << cut;
    EXPECT_TRUE(r.torn_tail) << "cut at " << cut;
    ASSERT_EQ(r.records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(PayloadsOf(r.records), (Payloads{{10, 11}})) << "cut at " << cut;
    EXPECT_EQ(r.valid_bytes, prefix_bytes) << "cut at " << cut;
  }
}

TEST(Wal, CorruptByteAnywhereInAFrameIsCaught) {
  Wal wal(Wal::Options{});
  const uint64_t a[] = {10, 11};
  const uint64_t b[] = {20};
  wal.Append(a, 2);
  wal.Append(b, 1);
  const uint64_t first_frame_end = kWalHeaderBytes + kWalFrameOverheadBytes + 2 * 8;

  // Flip one bit at a sweep of offsets inside the first frame: the scan
  // must stop there (crc/length mismatch) and keep zero records.
  for (uint64_t off = kWalHeaderBytes; off < first_frame_end; off += 3) {
    std::vector<uint8_t> img = wal.image();
    img[off] ^= 0x40;
    const WalReadResult r = ReadWal(img);
    EXPECT_TRUE(r.bad_magic || r.crc_mismatch || r.torn_tail) << "offset " << off;
    if (r.crc_mismatch) {
      EXPECT_TRUE(r.records.empty()) << "offset " << off;
      EXPECT_EQ(r.valid_bytes, kWalHeaderBytes) << "offset " << off;
    }
  }

  // A zero or non-word-multiple length field is corruption, not a tear.
  std::vector<uint8_t> img = wal.image();
  img[kWalHeaderBytes] = 0;
  img[kWalHeaderBytes + 1] = 0;
  img[kWalHeaderBytes + 2] = 0;
  img[kWalHeaderBytes + 3] = 0;
  EXPECT_TRUE(ReadWal(img).crc_mismatch);
}

TEST(Wal, FileBackedLogRoundTripsThroughFsync) {
  const std::string path = testing::TempDir() + "/tm2c_wal_test.log";
  Wal::Options opts;
  opts.path = path;
  opts.fsync_on_flush = true;
  Wal wal(opts);
  const uint64_t payload[] = {7, 8, 9};
  wal.Append(payload, 3);
  wal.Flush();

  const WalReadResult r = ReadWalFile(path);
  ASSERT_TRUE(r.clean());
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(PayloadsOf(r.records), (Payloads{{7, 8, 9}}));
  EXPECT_TRUE(ReadWalFile(path + ".does-not-exist").bad_magic);
  std::remove(path.c_str());
}

// The reader walks a file in fixed-size chunks: frames straddle chunk
// edges, and one frame is longer than a whole chunk.
TEST(Wal, FileLogReadsBackAcrossChunkEdges) {
  const std::string path = testing::TempDir() + "/tm2c_wal_chunk_test.log";
  Wal::Options opts;
  opts.path = path;
  Payloads appended;
  {
    Wal wal(opts);
    for (uint64_t i = 0; i < 3000; ++i) {
      // 1..13 words, plus one 12,000-word (96 KB) record in the middle.
      std::vector<uint64_t> payload(i == 1500 ? 12000 : 1 + i % 13);
      for (uint64_t w = 0; w < payload.size(); ++w) {
        payload[w] = i * 100003 + w;
      }
      wal.Append(payload.data(), payload.size());
      appended.push_back(std::move(payload));
    }
    wal.Flush();
  }
  const WalReadResult r = ReadWalFile(path);
  ASSERT_TRUE(r.clean());
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.records.size(), appended.size());
  EXPECT_EQ(PayloadsOf(r.records), appended);
  std::remove(path.c_str());
}

// A forked process inherits the log's stdio buffer. A fresh log has
// already flushed its header, so the child's appends and the parent's
// close leave exactly one header and the child's record in the file.
TEST(Wal, ForkedAppenderLeavesOneCleanRecord) {
  const std::string path = testing::TempDir() + "/tm2c_wal_fork_test.log";
  Wal::Options opts;
  opts.path = path;
  auto wal = std::make_unique<Wal>(opts);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const uint64_t payload[] = {4, 5, 6};
    wal->Append(payload, 3);
    wal->Flush();
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  wal.reset();

  const WalReadResult r = ReadWalFile(path);
  EXPECT_TRUE(r.clean());
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(PayloadsOf(r.records), (Payloads{{4, 5, 6}}));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Partition log + checkpoints
// ---------------------------------------------------------------------------

TEST(PartitionLog, CommitRecordRoundTripAndMalformedPayloads) {
  PartitionDurability::Options opts;
  PartitionDurability dur(0, opts);
  dur.SealInitialCheckpoint();
  dur.LogCommit(3, 17, {{0x100, 42}, {0x108, 43}});
  dur.Flush();

  const WalReadResult r = ReadWal(dur.wal().image());
  ASSERT_TRUE(r.clean());
  ASSERT_EQ(r.records.size(), 1u);
  CommitRecord rec;
  ASSERT_TRUE(ParseCommitRecord(*r.records.begin(), &rec));
  EXPECT_EQ(rec.core, 3u);
  EXPECT_EQ(rec.epoch, 17u);
  EXPECT_EQ(rec.pairs,
            (std::vector<std::pair<uint64_t, uint64_t>>{{0x100, 42}, {0x108, 43}}));

  CommitRecord bad;
  EXPECT_FALSE(ParseCommitRecord(WalRecord{{1, 2}}, &bad));        // too short
  EXPECT_FALSE(ParseCommitRecord(WalRecord{{1, 2, 2, 5, 6}}, &bad));  // n mismatch
}

TEST(PartitionLog, CheckpointCadenceAndShadowContents) {
  PartitionDurability::Options opts;
  opts.checkpoint_every_records = 2;
  PartitionDurability dur(1, opts);
  dur.CaptureInitial(0x100, 7);
  dur.CaptureInitial(0x108, 8);
  dur.SealInitialCheckpoint();
  ASSERT_EQ(dur.checkpoints().size(), 1u);
  EXPECT_EQ(dur.checkpoints()[0].records_covered, 0u);
  EXPECT_EQ(dur.checkpoints()[0].pairs,
            (std::vector<std::pair<uint64_t, uint64_t>>{{0x100, 7}, {0x108, 8}}));

  EXPECT_FALSE(dur.LogCommit(0, 1, {{0x100, 70}}));
  EXPECT_TRUE(dur.LogCommit(1, 1, {{0x108, 80}}));  // 2nd record: due
  EXPECT_EQ(dur.Flush(), 2u);
  dur.TakeCheckpoint();
  ASSERT_EQ(dur.checkpoints().size(), 2u);
  const CheckpointImage& ck = dur.checkpoints()[1];
  EXPECT_EQ(ck.index, 1u);
  EXPECT_EQ(ck.records_covered, 2u);
  EXPECT_EQ(dur.ImageAt(1),
            (std::vector<std::pair<uint64_t, uint64_t>>{{0x100, 70}, {0x108, 80}}));
  EXPECT_EQ(dur.Flush(), 0u);  // nothing new: no event, no progress
}

TEST(PartitionLog, CheckpointZeroIsTheLoadedSlabWordForWord) {
  TmSystemConfig cfg;
  cfg.sim.platform = PlatformByName("scc");
  cfg.sim.num_cores = 4;
  cfg.sim.num_service = 2;
  cfg.sim.shmem_bytes = 2 << 20;
  cfg.tm.durability = DurabilityMode::kBuffered;
  TmSystem sys(cfg);
  KvStoreConfig kv;
  kv.buckets_per_partition = 4;
  kv.capacity_per_partition = 32;
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), kv);
  for (uint64_t key = 1; key <= 12; ++key) {
    const uint64_t value = key * 1000 + 7;
    store.HostPut(key, &value);
  }
  sys.CaptureDurableCheckpoint0();

  for (uint32_t p = 0; p < store.num_partitions(); ++p) {
    const auto [base, bytes] = store.SlabRange(p);
    std::vector<std::pair<uint64_t, uint64_t>> slab;
    for (uint64_t addr = base; addr < base + bytes; addr += kWordBytes) {
      slab.emplace_back(addr, sys.shmem().LoadWord(addr));
    }
    const std::vector<CheckpointImage>& checkpoints = sys.DurabilityAt(p).checkpoints();
    ASSERT_EQ(checkpoints.size(), 1u) << "partition " << p;
    EXPECT_EQ(checkpoints[0].pairs, slab) << "partition " << p;
  }
}

TEST(PartitionLogDeathTest, CaptureOutOfAddressOrderIsChecked) {
  PartitionDurability dur(0, PartitionDurability::Options{});
  dur.CaptureInitial(0x108, 1);
  EXPECT_DEATH(dur.CaptureInitial(0x100, 2), "out of address order");
  EXPECT_DEATH(dur.CaptureInitial(0x108, 2), "out of address order");
}

// ---------------------------------------------------------------------------
// KvStore recovery
// ---------------------------------------------------------------------------

class RecoveryFixture : public testing::Test {
 protected:
  RecoveryFixture() {
    TmSystemConfig cfg;
    cfg.sim.platform = PlatformByName("scc");
    cfg.sim.num_cores = 4;
    cfg.sim.num_service = 2;
    cfg.sim.shmem_bytes = 2 << 20;
    sys_ = std::make_unique<TmSystem>(cfg);
    KvStoreConfig kv;
    kv.buckets_per_partition = 4;
    kv.capacity_per_partition = 32;
    store_ = std::make_unique<KvStore>(sys_->allocator(), sys_->shmem(), sys_->address_map(),
                                       sys_->deployment(), kv);
  }

  std::vector<uint64_t> SlabWords(uint32_t p) {
    const auto [base, bytes] = store_->SlabRange(p);
    std::vector<uint64_t> words;
    for (uint64_t addr = base; addr < base + bytes; addr += kWordBytes) {
      words.push_back(sys_->shmem().LoadWord(addr));
    }
    return words;
  }

  std::vector<std::pair<uint64_t, uint64_t>> SlabPairs(uint32_t p) {
    const auto [base, bytes] = store_->SlabRange(p);
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (uint64_t addr = base; addr < base + bytes; addr += kWordBytes) {
      pairs.emplace_back(addr, sys_->shmem().LoadWord(addr));
    }
    return pairs;
  }

  std::unique_ptr<TmSystem> sys_;
  std::unique_ptr<KvStore> store_;
};

TEST_F(RecoveryFixture, RecoverTwiceIsByteIdenticalAndRebuildsThePool) {
  for (uint64_t key = 1; key <= 12; ++key) {
    const uint64_t value = key * 1000 + 7;
    store_->HostPut(key, &value);
  }
  for (uint32_t p = 0; p < store_->num_partitions(); ++p) {
    const auto checkpoint = SlabPairs(p);
    const uint64_t in_use_before = store_->NodesInUse(p);
    const auto words_before = SlabWords(p);

    // Clobber, recover, compare.
    const auto [base, bytes] = store_->SlabRange(p);
    for (uint64_t addr = base; addr < base + bytes; addr += kWordBytes) {
      sys_->shmem().StoreWord(addr, 0xDEADDEADDEADDEADull);
    }
    store_->RecoverPartition(p, checkpoint, {});
    EXPECT_EQ(SlabWords(p), words_before);
    EXPECT_EQ(store_->NodesInUse(p), in_use_before);

    // Recover again from the same inputs: byte-identical (idempotent).
    store_->RecoverPartition(p, checkpoint, {});
    EXPECT_EQ(SlabWords(p), words_before);
    EXPECT_EQ(store_->NodesInUse(p), in_use_before);

    // Replaying the same pairs as a log suffix is an idempotent overlay.
    store_->RecoverPartition(p, checkpoint, checkpoint);
    EXPECT_EQ(SlabWords(p), words_before);
  }
  for (uint64_t key = 1; key <= 12; ++key) {
    uint64_t value = 0;
    ASSERT_TRUE(store_->HostGet(key, &value));
    EXPECT_EQ(value, key * 1000 + 7);
  }
}

// ---------------------------------------------------------------------------
// Checked runs with durability on
// ---------------------------------------------------------------------------

uint64_t CountEvents(const History& h, History::DurabilityEvent::Kind kind) {
  uint64_t n = 0;
  for (const auto& ev : h.durability_events()) {
    n += ev.kind == kind ? 1 : 0;
  }
  return n;
}

CheckRunConfig DurableKvConfig(uint64_t seed) {
  CheckRunConfig cfg;
  cfg.workload = CheckWorkload::kKv;
  cfg.durability = DurabilityMode::kBuffered;
  cfg.seed = seed;
  return cfg;
}

TEST(DurableRuns, GroupCommitStrictlyCutsFlushes) {
  CheckRunConfig cfg = DurableKvConfig(5);
  cfg.group_commit_txs = 1;
  const CheckRunResult per_tx = RunCheckedWorkload(cfg);
  ASSERT_TRUE(per_tx.report.ok()) << per_tx.report.Summary();

  cfg.group_commit_txs = 8;
  const CheckRunResult grouped = RunCheckedWorkload(cfg);
  ASSERT_TRUE(grouped.report.ok()) << grouped.report.Summary();

  const uint64_t appends1 = CountEvents(per_tx.history, History::DurabilityEvent::Kind::kAppend);
  const uint64_t appendsG = CountEvents(grouped.history, History::DurabilityEvent::Kind::kAppend);
  const uint64_t flushes1 = CountEvents(per_tx.history, History::DurabilityEvent::Kind::kFlush);
  const uint64_t flushesG = CountEvents(grouped.history, History::DurabilityEvent::Kind::kFlush);
  ASSERT_GT(appends1, 0u);
  ASSERT_GT(appendsG, 0u);
  // Per-tx commit flushes once per record; the same workload under group
  // commit flushes strictly less often.
  EXPECT_EQ(flushes1, appends1);
  EXPECT_LT(flushesG, flushes1);
}

TEST(DurableRuns, DurabilityOffRecordsNoEvents) {
  CheckRunConfig cfg;
  cfg.workload = CheckWorkload::kKv;
  cfg.seed = 3;
  const CheckRunResult result = RunCheckedWorkload(cfg);
  ASSERT_TRUE(result.report.ok()) << result.report.Summary();
  EXPECT_TRUE(result.history.durability_events().empty());
}

TEST(DurableRuns, CrashSweepRecoversCleanly) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    CheckRunConfig cfg = DurableKvConfig(seed);
    cfg.crash = true;
    cfg.group_commit_txs = 4;
    cfg.checkpoint_every_records = 8;
    const CheckRunResult result = RunCheckedWorkload(cfg);
    EXPECT_TRUE(result.report.ok()) << "seed " << seed << ": " << result.report.Summary();
  }
}

TEST(DurableRuns, CrashSweepRecoversCleanlyUnderFsync) {
  CheckRunConfig cfg = DurableKvConfig(2);
  cfg.crash = true;
  cfg.durability = DurabilityMode::kFsync;
  const CheckRunResult result = RunCheckedWorkload(cfg);
  EXPECT_TRUE(result.report.ok()) << result.report.Summary();
}

TEST(DurableRuns, AckBeforeLogFlushIsFlaggedOnEverySeed) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CheckRunConfig cfg = DurableKvConfig(seed);
    cfg.crash = true;
    cfg.group_commit_txs = 4;  // deferred acks are the whole point of the fault
    cfg.fault = FaultMode::kAckBeforeLogFlush;
    const CheckRunResult result = RunCheckedWorkload(cfg);
    ASSERT_FALSE(result.report.ok()) << "seed " << seed;
    bool write_ahead_flagged = false;
    for (const OracleViolation& v : result.report.violations) {
      write_ahead_flagged |= v.kind == "ack-before-durable";
    }
    EXPECT_TRUE(write_ahead_flagged)
        << "seed " << seed << ": " << result.report.Summary();
  }
}

TEST(DurableRuns, HistoryJsonCarriesDurabilityEvents) {
  CheckRunConfig cfg = DurableKvConfig(1);
  cfg.checkpoint_every_records = 8;
  const CheckRunResult result = RunCheckedWorkload(cfg);
  ASSERT_TRUE(result.report.ok()) << result.report.Summary();
  const std::string json = result.history.ToJson();
  EXPECT_NE(json.find("\"durability_events\""), std::string::npos);
  EXPECT_NE(json.find("\"flush\""), std::string::npos);
  EXPECT_NE(json.find("\"append\""), std::string::npos);
}

// AnalyzeCrashCut on a hand-built event sequence: the watermark must track
// flushes and checkpoints monotonically, per partition.
TEST(CrashCut, WatermarksFollowFlushesAndCheckpoints) {
  History h;
  h.OnWalAppend(0, 1, 1, 0, {{0x10, 1}});       // seq 1
  h.OnWalFlush(0, 1, 40);                        // seq 2
  h.OnCommitLogAck(0, 1, 1, 0);                  // seq 3
  h.OnWalAppend(1, 2, 1, 0, {{0x20, 2}});        // seq 4
  h.OnWalAppend(0, 3, 1, 1, {{0x18, 3}});        // seq 5
  h.OnWalFlush(0, 2, 72);                        // seq 6
  h.OnCheckpoint(0, 1, 2);                       // seq 7

  const CrashCutReport early = AnalyzeCrashCut(h, 2, 2);
  EXPECT_EQ(early.partitions[0].durable_records, 1u);
  EXPECT_EQ(early.partitions[0].durable_bytes, 40u);
  EXPECT_EQ(early.partitions[1].durable_records, 0u);
  EXPECT_EQ(early.partitions[1].durable_bytes, kWalHeaderBytes);

  const CrashCutReport late = AnalyzeCrashCut(h, 7, 2);
  EXPECT_EQ(late.partitions[0].durable_records, 2u);
  EXPECT_EQ(late.partitions[0].checkpoint_index, 1u);
  EXPECT_EQ(late.partitions[0].checkpoint_records, 2u);
  EXPECT_EQ(late.partitions[1].durable_records, 0u);
}

}  // namespace
}  // namespace tm2c
