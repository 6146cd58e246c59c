#include "src/dslock/lock_table.h"

#include "src/common/check.h"

namespace tm2c {

size_t LockTable::HolderList::LowerBound(uint32_t core) const {
  size_t pos = 0;
  while (pos < size_ && Slot(pos).core < core) {
    ++pos;
  }
  return pos;
}

const TxInfo* LockTable::HolderList::Find(uint32_t core) const {
  const size_t pos = LowerBound(core);
  return pos < size_ && Slot(pos).core == core ? &Slot(pos) : nullptr;
}

void LockTable::HolderList::Put(const TxInfo& info) {
  const size_t pos = LowerBound(info.core);
  if (pos < size_ && Slot(pos).core == info.core) {
    Slot(pos) = info;
    return;
  }
  if (size_ >= kInline) {
    spill_.emplace_back();
  }
  for (size_t i = size_; i > pos; --i) {
    Slot(i) = Slot(i - 1);
  }
  Slot(pos) = info;
  ++size_;
}

void LockTable::HolderList::Erase(uint32_t core) {
  const size_t pos = LowerBound(core);
  if (pos == size_ || Slot(pos).core != core) {
    return;
  }
  for (size_t i = pos; i + 1 < size_; ++i) {
    Slot(i) = Slot(i + 1);
  }
  if (size_ > kInline) {
    spill_.pop_back();
  }
  --size_;
}

const TxInfo& LockTable::HolderOf(const Entry& entry, uint32_t core, const char* what) {
  const TxInfo* info = entry.holders.Find(core);
  TM2C_CHECK_MSG(info != nullptr, what);
  return *info;
}

AcquireResult LockTable::ReadLock(const TxInfo& requester, uint64_t addr,
                                  const ContentionManager& cm) {
  AcquireResult result;
  Entry& entry = entries_[addr];

  // Algorithm 1 line 2-7: a foreign writer is a read-after-write conflict.
  if (entry.writer != kNoWriter && entry.writer != requester.core) {
    const TxInfo writer_info = HolderOf(entry, entry.writer, "writer without holder TxInfo");
    if (cm.Decide(requester, {writer_info}, ConflictKind::kReadAfterWrite) ==
        CmDecision::kAbortRequester) {
      ++stats_.read_refused;
      EraseIfEmpty(addr, entry);
      result.refused = ConflictKind::kReadAfterWrite;
      return result;
    }
    // CM aborted the enemy writer: revoke its lock and report the victim.
    // The victim's read bit goes with it — a committing writer holds the
    // stripe in upgrade mode (reader + writer), and leaving the reader bit
    // behind would create a ghost holder with no TxInfo whose
    // default-constructed metric (0) then beats every later write request:
    // on the thread backend two cores can revoke/refuse each other through
    // that ghost in a perfectly timed cycle forever (found by the native
    // backend, invisible to the deterministic simulator's schedules).
    result.victims.push_back(Victim{writer_info, ConflictKind::kReadAfterWrite});
    entry.readers.Erase(entry.writer);
    entry.holders.Erase(entry.writer);
    entry.writer = kNoWriter;
    entry.writer_epoch = 0;
    entry.writer_committing = false;
    ++stats_.revocations;
  }

  // Algorithm 1 line 9: add_reader.
  entry.readers.Insert(requester.core);
  entry.holders.Put(requester);
  ++stats_.read_acquires;
  return result;
}

AcquireResult LockTable::WriteLock(const TxInfo& requester, uint64_t addr,
                                   const ContentionManager& cm, bool committing) {
  AcquireResult result;
  Entry& entry = entries_[addr];

  // Algorithm 2 lines 2-7: a foreign writer is a write-after-write conflict.
  if (entry.writer != kNoWriter && entry.writer != requester.core) {
    const TxInfo writer_info = HolderOf(entry, entry.writer, "writer without holder TxInfo");
    if (cm.Decide(requester, {writer_info}, ConflictKind::kWriteAfterWrite) ==
        CmDecision::kAbortRequester) {
      ++stats_.write_refused;
      EraseIfEmpty(addr, entry);
      result.refused = ConflictKind::kWriteAfterWrite;
      return result;
    }
    // As in ReadLock: revoke the loser's upgrade read bit together with its
    // write lock, or it lingers as a ghost reader with no TxInfo.
    result.victims.push_back(Victim{writer_info, ConflictKind::kWriteAfterWrite});
    entry.readers.Erase(entry.writer);
    entry.holders.Erase(entry.writer);
    entry.writer = kNoWriter;
    entry.writer_epoch = 0;
    entry.writer_committing = false;
    ++stats_.revocations;
  }

  // Algorithm 2 lines 9-14: foreign readers are a write-after-read
  // conflict; the requester must beat the whole reader set. Any foreign
  // writer is gone by now, so every other holder is a reader, and the
  // holder list yields them in reader-set order.
  std::vector<TxInfo> enemies;
  entry.holders.ForEach([&](const TxInfo& holder) {
    if (holder.core != requester.core) {
      TM2C_CHECK_MSG(entry.readers.Contains(holder.core), "holder TxInfo without a reader bit");
      enemies.push_back(holder);
    }
  });
  // Every reader bit must have its TxInfo, or the CM would never see that
  // reader and its lock would outlive the arbitration (the ghost reader).
  TM2C_CHECK_MSG(enemies.size() + entry.readers.Contains(requester.core) == entry.readers.Count(),
                 "reader bit without holder TxInfo");
  if (!enemies.empty()) {
    if (cm.Decide(requester, enemies, ConflictKind::kWriteAfterRead) ==
        CmDecision::kAbortRequester) {
      ++stats_.write_refused;
      EraseIfEmpty(addr, entry);
      result.refused = ConflictKind::kWriteAfterRead;
      return result;
    }
    for (const TxInfo& enemy : enemies) {
      entry.readers.Erase(enemy.core);
      entry.holders.Erase(enemy.core);
      result.victims.push_back(Victim{enemy, ConflictKind::kWriteAfterRead});
      ++stats_.revocations;
    }
  }

  // Algorithm 2 line 16: take the write lock. The requester may keep its
  // own read lock (upgrade); other readers are gone. Re-acquisition by the
  // current owner upgrades the lock to commit phase.
  entry.writer = requester.core;
  entry.writer_epoch = requester.epoch;
  entry.writer_committing = entry.writer_committing || committing;
  entry.holders.Put(requester);
  ++stats_.write_acquires;
  return result;
}

BatchAcquireResult LockTable::TryAcquireMany(const TxInfo& requester, const uint64_t* addrs,
                                             uint32_t n, uint64_t write_bitmap,
                                             const ContentionManager& cm, bool committing) {
  TM2C_CHECK_MSG(n <= kMaxBatchEntries, "batch larger than the grant bitmap");
  BatchAcquireResult result;
  for (uint32_t i = 0; i < n; ++i) {
    const bool is_write = (write_bitmap >> i) & 1;
    AcquireResult one = is_write ? WriteLock(requester, addrs[i], cm, committing)
                                 : ReadLock(requester, addrs[i], cm);
    for (Victim& victim : one.victims) {
      result.victims.push_back(std::move(victim));
    }
    if (one.refused != ConflictKind::kNone) {
      // All-or-prefix: stop here; entries [0, i) stay acquired and the
      // requester's release (or abort) path covers them.
      result.refused = one.refused;
      break;
    }
    result.granted_bitmap |= uint64_t{1} << i;
    ++result.granted_count;
  }
  return result;
}

void LockTable::ReleaseRead(uint32_t core, uint64_t addr) {
  auto it = entries_.find(addr);
  if (it == entries_.end()) {
    return;  // already revoked
  }
  Entry& entry = it->second;
  if (!entry.readers.Contains(core)) {
    return;  // already revoked
  }
  entry.readers.Erase(core);
  if (entry.writer != core) {
    entry.holders.Erase(core);
  }
  ++stats_.releases;
  EraseIfEmpty(addr, entry);
}

void LockTable::ReleaseWrite(uint32_t core, uint64_t addr) {
  auto it = entries_.find(addr);
  if (it == entries_.end()) {
    return;  // already revoked
  }
  Entry& entry = it->second;
  if (entry.writer != core) {
    return;  // revoked and re-acquired by someone else; stale release
  }
  entry.writer = kNoWriter;
  entry.writer_epoch = 0;
  entry.writer_committing = false;
  if (!entry.readers.Contains(core)) {
    entry.holders.Erase(core);
  }
  ++stats_.releases;
  EraseIfEmpty(addr, entry);
}

void LockTable::ReleaseAllOf(uint32_t core) {
  std::vector<uint64_t> to_erase;
  for (auto& [addr, entry] : entries_) {
    if (entry.readers.Contains(core)) {
      entry.readers.Erase(core);
      if (entry.writer != core) {
        entry.holders.Erase(core);
      }
    }
    if (entry.writer == core) {
      entry.writer = kNoWriter;
      entry.writer_epoch = 0;
      entry.writer_committing = false;
      entry.holders.Erase(core);
    }
    if (entry.readers.Empty() && entry.writer == kNoWriter) {
      to_erase.push_back(addr);
    }
  }
  for (uint64_t addr : to_erase) {
    entries_.erase(addr);
  }
}

std::vector<Victim> LockTable::DrainRange(uint64_t base, uint64_t bytes, uint64_t* remaining) {
  std::vector<Victim> victims;
  std::vector<uint64_t> to_erase;
  uint64_t held = 0;
  for (auto& [addr, entry] : entries_) {
    if (addr - base >= bytes) {
      continue;
    }
    if (entry.writer != kNoWriter && entry.writer_committing) {
      // A committing writer keeps the entry; its release finishes the drain.
      ++held;
      continue;
    }
    if (entry.writer != kNoWriter) {
      victims.push_back(Victim{HolderOf(entry, entry.writer, "writer without holder TxInfo"),
                               ConflictKind::kMigrating});
      // The writer's upgrade read bit goes with it, as on the CM paths.
      entry.readers.Erase(entry.writer);
      entry.holders.Erase(entry.writer);
      entry.writer = kNoWriter;
      entry.writer_epoch = 0;
      entry.writer_committing = false;
      ++stats_.revocations;
    }
    entry.readers.ForEach([&](uint32_t reader) {
      victims.push_back(Victim{HolderOf(entry, reader, "reader bit without holder TxInfo"),
                               ConflictKind::kMigrating});
      ++stats_.revocations;
    });
    entry.readers.ForEach([&](uint32_t reader) { entry.holders.Erase(reader); });
    entry.readers = CoreSet();
    if (entry.readers.Empty() && entry.writer == kNoWriter) {
      to_erase.push_back(addr);
    }
  }
  for (uint64_t addr : to_erase) {
    entries_.erase(addr);
  }
  if (remaining != nullptr) {
    *remaining = held;
  }
  return victims;
}

uint64_t LockTable::EntriesInRange(uint64_t base, uint64_t bytes) const {
  uint64_t held = 0;
  for (const auto& [addr, entry] : entries_) {
    if (addr - base < bytes) {
      ++held;
    }
  }
  return held;
}

bool LockTable::HasWriter(uint64_t addr, uint32_t* writer) const {
  auto it = entries_.find(addr);
  if (it == entries_.end() || it->second.writer == kNoWriter) {
    return false;
  }
  if (writer != nullptr) {
    *writer = it->second.writer;
  }
  return true;
}

bool LockTable::HasReader(uint64_t addr, uint32_t core) const {
  auto it = entries_.find(addr);
  return it != entries_.end() && it->second.readers.Contains(core);
}

bool LockTable::CheckInvariants() const {
  for (const auto& [addr, entry] : entries_) {
    if (entry.readers.Empty() && entry.writer == kNoWriter) {
      return false;  // empty entries must have been erased
    }
    bool bad = false;
    entry.readers.ForEach([&](uint32_t reader) {
      // A writer excludes all readers except itself (lock upgrade).
      if (entry.writer != kNoWriter && reader != entry.writer) {
        bad = true;
      }
      if (entry.holders.Find(reader) == nullptr) {
        bad = true;
      }
    });
    if (bad) {
      return false;
    }
    if (entry.writer != kNoWriter && entry.holders.Find(entry.writer) == nullptr) {
      return false;
    }
    // No stale holders: one TxInfo per reader bit, plus one for a writer
    // that does not also read.
    const bool writer_reads = entry.writer != kNoWriter && entry.readers.Contains(entry.writer);
    const size_t holders = entry.readers.Count() + (entry.writer != kNoWriter && !writer_reads);
    if (entry.holders.size() != holders) {
      return false;
    }
  }
  return true;
}

void LockTable::EraseIfEmpty(uint64_t addr, Entry& entry) {
  if (entry.readers.Empty() && entry.writer == kNoWriter) {
    entries_.erase(addr);
  }
}

}  // namespace tm2c
