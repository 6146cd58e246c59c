#include "src/tm/trace.h"

#include <algorithm>
#include <cstdio>
#include <new>

#include "src/common/check.h"

namespace tm2c {
namespace {

// A record's stamp, kind/pairs/core word and w0..w3.
constexpr uint64_t kRecordHeaderWords = 6;
// The mapping starts with the stamp counter's cache line, and each core's
// log with its published length's.
constexpr uint64_t kLineWords = 8;
constexpr uint64_t kLogStrideWords = kLineWords + EventLogs::kCapacityWords;

uint64_t PairCount(const uint64_t* record) { return record[1] >> 8 & 0xFFFFFF; }

}  // namespace

EventLogs::EventLogs(uint32_t num_cores, TxTraceSink* into)
    : into_(into),
      mapping_((kLineWords + num_cores * kLogStrideWords) * sizeof(uint64_t)),
      stamp_(new (mapping_.data()) std::atomic<uint64_t>(0)) {
  writers_.reserve(num_cores);
  for (uint32_t c = 0; c < num_cores; ++c) {
    new (&published(c)) std::atomic<uint64_t>(0);
    writers_.emplace_back(this, c);
  }
}

std::atomic<uint64_t>& EventLogs::published(uint32_t core) const {
  uint64_t* line = static_cast<uint64_t*>(mapping_.data()) + kLineWords + core * kLogStrideWords;
  return *reinterpret_cast<std::atomic<uint64_t>*>(line);
}

uint64_t* EventLogs::words(uint32_t core) const {
  return static_cast<uint64_t*>(mapping_.data()) + 2 * kLineWords + core * kLogStrideWords;
}

uint64_t EventLogs::Write(uint32_t core, const TraceEvent& event) {
  const uint64_t at = published(core).load(std::memory_order_acquire);
  const uint64_t end = at + kRecordHeaderWords + 2 * event.pairs.size();
  if (end > kCapacityWords) {
    char msg[96];
    std::snprintf(msg, sizeof(msg), "the event log of core %u is full: capacity %llu words", core,
                  static_cast<unsigned long long>(kCapacityWords));
    CheckFailed(__FILE__, __LINE__, msg);
  }
  uint64_t* record = words(core) + at;
  record[0] = stamp_->fetch_add(1);
  record[1] = static_cast<uint64_t>(event.kind) | event.pairs.size() << 8 |
              static_cast<uint64_t>(event.core) << 32;
  record[2] = event.w0;
  record[3] = event.w1;
  record[4] = event.w2;
  record[5] = event.w3;
  uint64_t* pair = record + kRecordHeaderWords;
  for (const auto& [addr, value] : event.pairs) {
    *pair++ = addr;
    *pair++ = value;
  }
  return end;
}

void EventLogs::Publish(uint32_t core, uint64_t length) {
  published(core).store(length, std::memory_order_release);
}

void EventLogs::Replay() {
  std::vector<const uint64_t*> records;
  for (uint32_t c = 0; c < writers_.size(); ++c) {
    const uint64_t* log = words(c);
    const uint64_t end = published(c).exchange(0, std::memory_order_acquire);
    for (uint64_t at = 0; at < end; at += kRecordHeaderWords + 2 * PairCount(log + at)) {
      records.push_back(log + at);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const uint64_t* a, const uint64_t* b) { return a[0] < b[0]; });
  for (const uint64_t* r : records) {
    TraceEvent event{static_cast<TraceKind>(r[1] & 0xFF), static_cast<uint32_t>(r[1] >> 32),
                     r[2], r[3], r[4], r[5], {}};
    const uint64_t* pair = r + kRecordHeaderWords;
    for (uint64_t i = 0; i < PairCount(r); ++i, pair += 2) {
      event.pairs.emplace_back(pair[0], pair[1]);
    }
    into_->OnEvent(event);
  }
}

}  // namespace tm2c
