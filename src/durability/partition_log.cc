#include "src/durability/partition_log.h"

#include "src/common/check.h"

namespace tm2c {

bool ParseCommitRecord(const WalRecord& record, CommitRecord* out) {
  const std::vector<uint64_t>& p = record.payload;
  if (p.size() < 3) {
    return false;
  }
  const uint64_t n = p[2];
  if (p.size() != 3 + 2 * n) {
    return false;
  }
  out->core = static_cast<uint32_t>(p[0]);
  out->epoch = p[1];
  out->pairs.clear();
  out->pairs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    out->pairs.emplace_back(p[3 + 2 * i], p[3 + 2 * i + 1]);
  }
  return true;
}

PartitionDurability::PartitionDurability(uint32_t partition, Options options)
    : partition_(partition),
      options_(std::move(options)),
      wal_(Wal::Options{options_.mode == DurabilityMode::kFsync, options_.path}) {
  TM2C_CHECK(options_.mode != DurabilityMode::kOff);
}

void PartitionDurability::CaptureInitial(uint64_t addr, uint64_t value) {
  TM2C_CHECK_MSG(checkpoints_.empty(), "CaptureInitial after SealInitialCheckpoint");
  TM2C_CHECK_MSG(initial_.empty() || initial_.back().first < addr,
                 "CaptureInitial out of address order");
  initial_.emplace_back(addr, value);
}

void PartitionDurability::SealInitialCheckpoint() {
  TM2C_CHECK(checkpoints_.empty() && wal_.appended_records() == 0);
  checkpoints_.push_back(CheckpointImage{0, 0, std::move(initial_)});
  initial_ = {};
}

bool PartitionDurability::LogCommit(uint32_t core, uint64_t epoch,
                                    const std::vector<std::pair<uint64_t, uint64_t>>& pairs) {
  TM2C_CHECK(!pairs.empty());
  std::vector<uint64_t> payload;
  payload.reserve(3 + 2 * pairs.size());
  payload.push_back(core);
  payload.push_back(epoch);
  payload.push_back(pairs.size());
  for (const auto& [addr, value] : pairs) {
    payload.push_back(addr);
    payload.push_back(value);
  }
  const uint64_t record_index = wal_.Append(payload.data(), payload.size());
  if (trace_ != nullptr) {
    trace_->OnWalAppend(partition_, core, epoch, record_index, pairs);
  }
  return options_.checkpoint_every_records > 0 &&
         wal_.appended_records() % options_.checkpoint_every_records == 0;
}

uint64_t PartitionDurability::Flush() {
  const uint64_t newly_durable = wal_.unflushed_records();
  if (newly_durable == 0) {
    return 0;
  }
  wal_.Flush();
  if (trace_ != nullptr) {
    trace_->OnWalFlush(partition_, wal_.durable_records(), wal_.durable_bytes());
  }
  return newly_durable;
}

PartitionDurability::RecoveredCommits PartitionDurability::RecoverFromBackingFile() {
  const WalReadResult kept = wal_.RecoverBackingFile();
  TM2C_CHECK(kept.clean() && !kept.torn_tail);
  RecoveredCommits recovered;
  uint64_t index = 0;
  for (const WalRecord& kept_record : kept.records) {
    CommitRecord record;
    TM2C_CHECK_MSG(ParseCommitRecord(kept_record, &record),
                   "wal recovery: malformed commit record in the valid prefix");
    recovered[{record.core, record.epoch}] = index++;
  }
  if (trace_ != nullptr) {
    trace_->OnWalTruncate(partition_, wal_.durable_records(), wal_.durable_bytes());
  }
  return recovered;
}

void PartitionDurability::TakeCheckpoint() {
  TM2C_CHECK_MSG(wal_.unflushed_records() == 0,
                 "checkpoint may not cover unflushed records: flush first");
  TM2C_CHECK_MSG(!checkpoints_.empty(), "SealInitialCheckpoint before the run");
  CheckpointImage image;
  image.index = checkpoints_.size();
  image.records_covered = wal_.appended_records();
  if (trace_ != nullptr) {
    trace_->OnCheckpoint(partition_, image.index, image.records_covered);
  }
  checkpoints_.push_back(std::move(image));
}

std::vector<std::pair<uint64_t, uint64_t>> PartitionDurability::ImageAt(uint64_t index) const {
  TM2C_CHECK(index < checkpoints_.size());
  const std::vector<std::pair<uint64_t, uint64_t>>& initial = checkpoints_[0].pairs;
  std::map<uint64_t, uint64_t> image(initial.begin(), initial.end());
  const WalReadResult log = ReadWal(wal_.image());
  uint64_t left = checkpoints_[index].records_covered;
  TM2C_CHECK(left <= log.records.size());
  for (auto it = log.records.begin(); left > 0; ++it, --left) {
    CommitRecord record;
    TM2C_CHECK_MSG(ParseCommitRecord(*it, &record), "malformed commit record");
    for (const auto& [addr, value] : record.pairs) {
      image[addr] = value;
    }
  }
  return {image.begin(), image.end()};
}

}  // namespace tm2c
