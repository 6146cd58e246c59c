// DS-Lock: the distributed multiple-readers/single-writer revocable lock
// table (Section 3.2).
//
// Each DTM service core owns one LockTable covering its partition of the
// shared address space. The table implements Algorithms 1 and 2: read-lock
// and write-lock acquisition with RAW/WAW/WAR conflict detection, delegating
// winner selection to the contention manager. Revocation (the CM aborting a
// holder) is reported back to the caller as a list of victims so the service
// loop can send the abort notifications.
//
// Correctness note on releases: messages between one app core and one
// service core are FIFO, and an aborted transaction always releases its
// locks before starting its next attempt, so a release can never arrive
// after the same core's re-acquisition. Release of a lock that was already
// revoked is a silent no-op; releasing a write lock checks ownership so a
// stale release cannot clobber a lock that has since moved to another core.
#ifndef TM2C_SRC_DSLOCK_LOCK_TABLE_H_
#define TM2C_SRC_DSLOCK_LOCK_TABLE_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cm/contention_manager.h"
#include "src/common/core_set.h"
#include "src/runtime/message.h"

namespace tm2c {

constexpr uint32_t kNoWriter = UINT32_MAX;

// A transaction whose lock was revoked in the requester's favour, plus the
// conflict kind it lost on (for the abort notification and statistics).
struct Victim {
  TxInfo info;
  ConflictKind kind = ConflictKind::kNone;
};

// Outcome of an acquire: either granted (possibly after revoking victims)
// or refused with the conflict kind the requester lost on.
struct AcquireResult {
  ConflictKind refused = ConflictKind::kNone;  // kNone == granted
  // Transactions whose locks were revoked in the requester's favour; the
  // caller must notify each victim core.
  std::vector<Victim> victims;
};

// Outcome of a batched acquire (TryAcquireMany). Grants are all-or-prefix:
// entries are attempted in order and the pass stops at the first refusal,
// so `granted_bitmap` is always PrefixBitmap(granted_count). Granted
// entries stay granted — the requester owns their release (or abort) path.
struct BatchAcquireResult {
  uint64_t granted_bitmap = 0;
  uint32_t granted_count = 0;                  // prefix length
  ConflictKind refused = ConflictKind::kNone;  // why the prefix stopped
  std::vector<Victim> victims;                 // across the whole prefix
};

// Outcome of a homogeneous span acquisition (TryAcquireSpan). Same
// all-or-prefix contract as BatchAcquireResult, but with no grant bitmap —
// the caller knows the span order — and therefore no kMaxBatchEntries cap.
struct SpanAcquireResult {
  uint32_t granted_count = 0;                  // prefix length
  ConflictKind refused = ConflictKind::kNone;  // why the prefix stopped
  std::vector<Victim> victims;                 // across the whole prefix
};

// Counters for the service-side statistics the benches report.
struct LockTableStats {
  uint64_t read_acquires = 0;
  uint64_t write_acquires = 0;
  uint64_t read_refused = 0;
  uint64_t write_refused = 0;
  uint64_t revocations = 0;
  uint64_t releases = 0;
};

class LockTable {
 public:
  LockTable() = default;

  // Algorithm 1: dsl_read_lock. `requester` carries the already-decoded
  // metric. On success the requester is added to the reader set.
  AcquireResult ReadLock(const TxInfo& requester, uint64_t addr, const ContentionManager& cm);

  // Algorithm 2: dsl_write_lock. Checks the writer (WAW) first, then the
  // reader set (WAR); the requester's own read lock does not conflict.
  //
  // `committing` records that the acquisition happened in the owner's
  // commit phase (introspection/debugging metadata). Revocation of
  // commit-phase locks is safe because revocations are also published to
  // the victim's shared-memory abort status word, which the victim checks
  // atomically with its persist (see TxRuntime::TxCommit).
  AcquireResult WriteLock(const TxInfo& requester, uint64_t addr, const ContentionManager& cm,
                          bool committing = false);

  // Vectorized acquisition for the kBatchAcquire protocol: one pass over
  // `addrs` (bit i of `write_bitmap` selects write vs read lock for entry
  // i), stopping at the first refusal (all-or-prefix). The requester's
  // metric has already been decoded once for the whole batch; the CM is
  // consulted only for the entries that actually conflict. Duplicate
  // addresses are legal (the second acquisition is a same-core
  // re-acquisition and always succeeds). `n` must be <= kMaxBatchEntries;
  // an empty batch is trivially fully granted.
  BatchAcquireResult TryAcquireMany(const TxInfo& requester, const uint64_t* addrs, uint32_t n,
                                    uint64_t write_bitmap, const ContentionManager& cm,
                                    bool committing = false);

  // Homogeneous prefix acquisition for the owner-local direct path: one
  // pass over `addrs`, all read locks or all write locks, stopping at the
  // first refusal. Unlike TryAcquireMany there is no grant bitmap on the
  // wire, so the span is not capped at kMaxBatchEntries — a local caller
  // takes a whole node group in one table pass.
  SpanAcquireResult TryAcquireSpan(const TxInfo& requester, const uint64_t* addrs, uint32_t n,
                                   bool is_write, const ContentionManager& cm,
                                   bool committing = false);

  // Releases. Idempotent; wrong-owner write releases are ignored (see the
  // correctness note above).
  void ReleaseRead(uint32_t core, uint64_t addr);
  void ReleaseWrite(uint32_t core, uint64_t addr);

  // Removes every lock `core` holds under `epoch` (or any epoch), used when
  // the service core learns the owner aborted. Linear in table size; only
  // used by tests and recovery paths, not the hot protocol.
  void ReleaseAllOf(uint32_t core);

  // Migration drain pass over [base, base + bytes): revokes every revocable
  // holder (readers, and writers not in their commit phase) and reports
  // them as victims for the caller's notification path. Commit-phase
  // writers are left in place — revoking a committer would waste its whole
  // persisted write set; the drain instead waits for its release. Returns
  // the victims; `remaining` (if non-null) receives the number of entries
  // still held in the range after the pass (0 == drained). Linear in table
  // size, like ReleaseAllOf: migration is a rare, cold operation.
  std::vector<Victim> DrainRange(uint64_t base, uint64_t bytes, uint64_t* remaining);

  // Entries currently held in [base, base + bytes) — the drain's progress
  // gauge: a migration completes when this reaches zero.
  uint64_t EntriesInRange(uint64_t base, uint64_t bytes) const;

  // Introspection for tests and invariant checks.
  bool HasWriter(uint64_t addr, uint32_t* writer = nullptr) const;
  bool HasReader(uint64_t addr, uint32_t core) const;
  size_t NumEntries() const { return entries_.size(); }
  const LockTableStats& stats() const { return stats_; }

  // Debug/introspection: invokes fn(addr, writer_core_or_kNoWriter,
  // writer_committing, readers) for every entry.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [addr, entry] : entries_) {
      fn(addr, entry.writer, entry.writer_committing, entry.readers);
    }
  }

  // Invariant check: no entry has both a writer and a non-owner reader, no
  // entry is empty (empty entries must be erased), and every entry holds
  // exactly one TxInfo per holder core. Returns true when consistent.
  bool CheckInvariants() const;

 private:
  // Last-known metadata of each holder of one entry, for CM decisions, in
  // ascending TxInfo::core order — the reader set's order, so the WAR path
  // collects its enemies in one pass. A stripe rarely has more than a couple
  // of holders, so the list scans linearly and lives inline in the entry;
  // only a crowded stripe spills past kInline slots to the heap.
  class HolderList {
   public:
    const TxInfo* Find(uint32_t core) const;
    void Put(const TxInfo& info);  // inserts, or overwrites the core's slot
    void Erase(uint32_t core);     // no-op when absent
    size_t size() const { return size_; }

    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (size_t i = 0; i < size_; ++i) {
        fn(Slot(i));
      }
    }

   private:
    static constexpr size_t kInline = 4;
    size_t LowerBound(uint32_t core) const;  // first slot whose core >= `core`
    TxInfo& Slot(size_t i) { return i < kInline ? inline_[i] : spill_[i - kInline]; }
    const TxInfo& Slot(size_t i) const { return i < kInline ? inline_[i] : spill_[i - kInline]; }

    std::array<TxInfo, kInline> inline_;
    std::vector<TxInfo> spill_;  // slots kInline.. of the list
    size_t size_ = 0;
  };

  struct Entry {
    CoreSet readers;
    uint32_t writer = kNoWriter;
    uint64_t writer_epoch = 0;
    bool writer_committing = false;
    HolderList holders;  // one TxInfo per reader bit and per writer
  };

  // The holder's TxInfo, which every reader bit and writer must have: a
  // miss would let a default metric-0 ghost win every arbitration. Hard
  // CHECK, not DCHECK: the callers are conflict and drain paths, which are
  // cold, and the Release-build alternative feeds garbage into the CM.
  static const TxInfo& HolderOf(const Entry& entry, uint32_t core, const char* what);

  void EraseIfEmpty(uint64_t addr, Entry& entry);

  std::unordered_map<uint64_t, Entry> entries_;
  LockTableStats stats_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_DSLOCK_LOCK_TABLE_H_
