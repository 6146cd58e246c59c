// Per-core transaction statistics, and the field-table helpers shared with
// DtmServiceStats (src/tm/dtm_service.h).
//
// Each stats struct is written once, as an X-macro field table that declares
// the plain named members and a static ForEachField(f) calling f(name,
// member pointer, FieldMerge) per field in table order. Equality, Merge and
// the process backend's exit report are generated from it.
#ifndef TM2C_SRC_TM_STATS_H_
#define TM2C_SRC_TM_STATS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "src/sim/time.h"

namespace tm2c {

// How Merge combines a field of two stats values: kSum adds (element-wise
// for arrays), kMax keeps the larger.
enum class FieldMerge : uint8_t { kSum, kMax };

// Name of the first field, in table order, where `a` and `b` differ;
// nullptr when they are equal.
template <typename Stats>
const char* FirstDifferingField(const Stats& a, const Stats& b) {
  const char* differs = nullptr;
  Stats::ForEachField([&](const char* name, auto member, FieldMerge) {
    if (differs == nullptr && !(a.*member == b.*member)) {
      differs = name;
    }
  });
  return differs;
}

// Folds `from` into `*into`, each field by its FieldMerge.
template <typename Stats>
void MergeFields(Stats* into, const Stats& from) {
  Stats::ForEachField([&](const char*, auto member, FieldMerge how) {
    auto merge = [how](uint64_t* a, uint64_t b) {
      *a = how == FieldMerge::kMax ? std::max(*a, b) : *a + b;
    };
    if constexpr (std::is_same_v<std::decay_t<decltype(from.*member)>, uint64_t>) {
      merge(&(into->*member), from.*member);
    } else {  // an array: element-wise
      for (size_t i = 0; i < (from.*member).size(); ++i) {
        merge(&(into->*member)[i], (from.*member)[i]);
      }
    }
  });
}

// In-flight pipeline occupancy: bucket min(depth_at_issue, 8) - 1 counts one
// kBatchAcquire issued while depth_at_issue requests (itself included) were
// outstanding. The lockstep depth-1 path lands every batch in bucket 0;
// local fast-path span calls are never in flight and do not count.
using InflightDepthHist = std::array<uint64_t, 8>;

// The TxStats table: X(type, name, merge).
//  - Lock acquisition: lock_acquires are stripes requested from a DTM node
//    (granted or refused), batch_messages the batches among those requests,
//    acquire_time the local time spent awaiting their responses (so
//    acquire_time / lock_acquires is the per-stripe mean acquire latency).
//    local_acquires + remote_acquires == lock_acquires: stripes taken by
//    calling the caller's own LockTable directly (zero messages) vs through
//    the message protocol; with the fast path off everything is remote.
//  - Durability: kCommitLog messages sent at commit time, and the local time
//    spent waiting for their acks (zero with durability off).
//  - Service-side pushback: attempts refused with kMigrating (range draining
//    for migration) or kOverload (load shed), and the kOwnershipUpdate
//    notifications this runtime consumed.
#define TM2C_TX_STATS_FIELDS(X)                                     \
  X(uint64_t, commits, kSum)                                        \
  X(uint64_t, aborts, kSum)                                         \
  X(uint64_t, raw_conflicts, kSum)                                  \
  X(uint64_t, waw_conflicts, kSum)                                  \
  X(uint64_t, war_conflicts, kSum)                                  \
  X(uint64_t, notify_aborts, kSum) /* aborted by a CM revocation */ \
  X(uint64_t, reads, kSum)                                          \
  X(uint64_t, writes, kSum)                                         \
  X(uint64_t, messages_sent, kSum)                                  \
  X(uint64_t, early_releases, kSum)                                 \
  X(uint64_t, validation_failures, kSum) /* elastic-read */         \
  X(SimTime, busy_time, kSum) /* local time inside attempts */      \
  X(uint64_t, max_attempts_per_tx, kMax) /* worst tx's retries */   \
  X(uint64_t, lock_acquires, kSum)                                  \
  X(uint64_t, batch_messages, kSum)                                 \
  X(SimTime, acquire_time, kSum)                                    \
  X(uint64_t, local_acquires, kSum)                                 \
  X(uint64_t, remote_acquires, kSum)                                \
  X(uint64_t, commit_log_msgs, kSum)                                \
  X(SimTime, commit_log_wait, kSum)                                 \
  X(uint64_t, migrating_aborts, kSum)                               \
  X(uint64_t, overload_aborts, kSum)                                \
  X(uint64_t, ownership_updates, kSum)                              \
  X(InflightDepthHist, inflight_depth_hist, kSum)

struct TxStats {
#define TM2C_DECLARE_FIELD(type, name, merge) type name{};
  TM2C_TX_STATS_FIELDS(TM2C_DECLARE_FIELD)
#undef TM2C_DECLARE_FIELD

  template <typename F>
  static void ForEachField(F&& f) {
#define TM2C_VISIT_FIELD(type, name, merge) f(#name, &TxStats::name, FieldMerge::merge);
    TM2C_TX_STATS_FIELDS(TM2C_VISIT_FIELD)
#undef TM2C_VISIT_FIELD
  }

  double CommitRate() const {
    const uint64_t attempts = commits + aborts;
    return attempts == 0 ? 1.0 : static_cast<double>(commits) / static_cast<double>(attempts);
  }

  // Whole-value equality, used by the determinism regression tests (same
  // seed and chaos configuration => identical statistics).
  bool operator==(const TxStats& other) const {
    return FirstDifferingField(*this, other) == nullptr;
  }
  bool operator!=(const TxStats& other) const { return !(*this == other); }

  void Merge(const TxStats& other) { MergeFields(this, other); }
};

}  // namespace tm2c

#endif  // TM2C_SRC_TM_STATS_H_
