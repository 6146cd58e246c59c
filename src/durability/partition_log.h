// Per-partition durability: the commit log plus periodic checkpoints.
//
// Each DS-Lock partition (one DtmService) owns one PartitionDurability.
// The service appends one CommitRecord per committed transaction that
// wrote into the partition — payload layout
//
//   [core, epoch, n, addr0, val0, ..., addr_{n-1}, val_{n-1}]
//
// — in lock order (the committer holds its write locks until the append
// is acknowledged, so per-address record order equals persist order), and
// flushes in groups (see TmConfig::group_commit_txs). Checkpoint 0 is the
// post-load image, a sorted (addr, value) snapshot of every owned word;
// later ones, cut every checkpoint_every_records appends, keep only the
// log prefix they cover, which replayed over checkpoint 0 is their image
// (ImageAt). LogCommit() only *reports* that a
// checkpoint is due: the service flushes first and then calls
// TakeCheckpoint(), so a checkpoint never covers unflushed records and
// the durable watermark stays monotone.
//
// Recovery replays checkpoint + log suffix: pick the newest checkpoint
// whose records_covered is at or below the durable record count, apply
// its image, then replay the records [records_covered, durable) in index
// order (see KvStore::Recover).
#ifndef TM2C_SRC_DURABILITY_PARTITION_LOG_H_
#define TM2C_SRC_DURABILITY_PARTITION_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/durability/wal.h"
#include "src/tm/config.h"
#include "src/tm/trace.h"

namespace tm2c {

// One commit's durable effect, as framed into the WAL.
struct CommitRecord {
  uint32_t core = 0;
  uint64_t epoch = 0;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;  // (addr, value), lock order
};

// Decodes a WAL record payload; false on a malformed layout.
bool ParseCommitRecord(const WalRecord& record, CommitRecord* out);

// A checkpoint: the log prefix it subsumes and, for checkpoint 0 only, the
// sorted (addr, value) image of the partition's owned words.
struct CheckpointImage {
  uint64_t index = 0;            // 0 = post-load initial image
  uint64_t records_covered = 0;  // log records the image subsumes
  std::vector<std::pair<uint64_t, uint64_t>> pairs;  // checkpoint 0: sorted by addr
};

class PartitionDurability {
 public:
  struct Options {
    DurabilityMode mode = DurabilityMode::kBuffered;
    uint64_t checkpoint_every_records = 0;  // 0 = log only, never checkpoint
    std::string path;                       // optional WAL file backing
  };

  PartitionDurability(uint32_t partition, Options options);

  void set_trace(TxTraceSink* trace) { trace_ = trace; }

  // Load-phase capture of one owned word (before SealInitialCheckpoint).
  void CaptureInitial(uint64_t addr, uint64_t value);

  // Freezes the captured image as checkpoint 0 (no trace event: it is the
  // pre-run baseline, not a runtime durability action).
  void SealInitialCheckpoint();

  // Appends one commit record (emits OnWalAppend). Returns true when a
  // periodic checkpoint is due — the caller must Flush() first, then
  // TakeCheckpoint().
  bool LogCommit(uint32_t core, uint64_t epoch,
                 const std::vector<std::pair<uint64_t, uint64_t>>& pairs);

  // Advances the durable watermark over every appended record (emits
  // OnWalFlush when anything was unflushed). Returns the number of
  // records made durable by this call.
  uint64_t Flush();

  // Cuts the next checkpoint at the current log length (emits
  // OnCheckpoint). Pre-condition: no unflushed records (the caller flushed
  // first).
  void TakeCheckpoint();

  // Checkpoint `index`'s image, sorted by addr: checkpoint 0's pairs with
  // the log records it covers replayed over them.
  std::vector<std::pair<uint64_t, uint64_t>> ImageAt(uint64_t index) const;

  // (core, epoch) -> record index for every commit that survived a
  // RecoverFromBackingFile.
  using RecoveredCommits = std::map<std::pair<uint32_t, uint64_t>, uint64_t>;

  // Restart recovery for the process backend: a freshly activated standby
  // server calls this on the PartitionDurability it inherited at fork
  // time, after its predecessor was killed mid-run. Rebuilds the Wal from
  // the backing file's valid prefix (truncating any torn tail) and emits
  // OnWalTruncate with the surviving record count — the oracle's signal
  // that appends beyond it were legitimately lost. Returns each kept
  // commit's (core, epoch) -> record index so a retransmitted kCommitLog
  // can be acknowledged with its original index instead of re-appended.
  RecoveredCommits RecoverFromBackingFile();

  uint32_t partition() const { return partition_; }
  DurabilityMode mode() const { return options_.mode; }
  const Wal& wal() const { return wal_; }
  uint64_t unflushed_records() const { return wal_.unflushed_records(); }
  const std::vector<CheckpointImage>& checkpoints() const { return checkpoints_; }

 private:
  uint32_t partition_;
  Options options_;
  Wal wal_;
  TxTraceSink* trace_ = nullptr;
  // Load-phase captures, sealed into checkpoint 0.
  std::map<uint64_t, uint64_t> initial_;
  std::vector<CheckpointImage> checkpoints_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_DURABILITY_PARTITION_LOG_H_
