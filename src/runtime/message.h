// Wire format for on-chip messages.
//
// The SCC exchanges small MPB-resident messages; TM2C's protocol needs only
// a type tag, the sender, a few word-sized arguments, and (for multi-address
// batching and bulk releases) a variable-length list of addresses. The same
// struct is used by every backend; the process backend serializes it with
// src/runtime/wire.h.
#ifndef TM2C_SRC_RUNTIME_MESSAGE_H_
#define TM2C_SRC_RUNTIME_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tm2c {

enum class MsgType : uint8_t {
  kInvalid = 0,

  // DTM service requests (app core -> service core).
  kReadLockReq,        // w0=addr, w1=tx epoch, w2=priority metric
  kWriteLockReq,       // as kReadLockReq; w3=1 marks a commit-phase acquisition
  kBatchAcquire,       // multi-address acquisition, see "Batch protocol" below
  kReadRelease,        // w0=addr, w1=tx epoch (no response)
  kWriteRelease,       // w0=addr, w1=tx epoch, w2=new value? (persist handled by app)
  kReleaseAllReads,    // w1=tx epoch, extra=addresses (no response)
  kReleaseAllWrites,   // w1=tx epoch, extra=addresses (no response)
  kEarlyReadRelease,   // elastic-early: w0=addr, w1=tx epoch (no response)

  // DTM service responses (service core -> app core).
  kLockGranted,   // w0=addr (or batch id)
  kLockConflict,  // w0=addr, w1=conflict kind (RAW/WAW/WAR)
  kBatchReply,    // response to kBatchAcquire, see "Batch protocol" below

  // Asynchronous abort notification (service core -> app core): the CM
  // revoked this transaction's locks in favour of a higher-priority one.
  kAbortNotify,  // w1=victim tx epoch, w2=conflict kind

  // Durability (src/durability/): the committer ships its persisted
  // (addr, value) pairs for one partition to that partition's service,
  // which appends them to the commit log and acknowledges once the record
  // is covered by a group-commit flush. Write locks stay held until every
  // ack arrives, so per-address record order equals persist order.
  kCommitLog,     // w1=tx epoch, extra=[addr0, val0, addr1, val1, ...]
  kCommitLogAck,  // w1=tx epoch

  // Stripe-ownership migration (src/tm/dtm_service.cc). A migration drains
  // the range on the old owner (new acquires are refused with
  // ConflictKind::kMigrating until the lock table holds no entry in the
  // range), then flips the shared ownership directory and broadcasts the
  // flip. kOwnershipUpdate is a pure notification: the directory itself is
  // shared state, so receivers only need to observe that a new version
  // exists — stale batches already in flight are refused by the owner
  // checks on both ends of the flip.
  kMigrateRange,     // w0=range base, w1=range bytes, w2=target partition
  kOwnershipUpdate,  // w0=range base, w1=range bytes, w2=new partition,
                     // w3=directory version after the flip

  // Infrastructure.
  kEcho,      // latency bench: request
  kEchoRsp,   // latency bench: response
  kBarrier,   // runtime barrier token
  kShutdown,  // tells a service core to exit its loop
  kApp,       // application-defined payload
};

// Batch protocol (one request/response round trip per responsible node):
//
//   kBatchAcquire   w0 = flags in the low kBatchReqIdShift bits
//                   (kBatchFlagCommit marks commit-phase write acquisitions)
//                   with the requester's request id in the bits above, w1 =
//                   tx epoch, w2 = priority metric (decoded by the CM once
//                   for the whole batch), w3 = write bitmap (bit i set:
//                   entry i wants the write lock, clear: the read lock),
//                   extra = stripe addresses, at most kMaxBatchEntries of
//                   them.
//   kBatchReply     w0 = grant bitmap (bit i set: entry i acquired), w1 =
//                   tx epoch, w2 = ConflictKind the first refused entry lost
//                   on (kNone when fully granted), w3 = granted count in the
//                   low kBatchReqIdShift bits, request id echoed above.
//
// The request id lets a runtime keep several batches in flight at once
// (TmConfig::pipeline_depth > 1) and match interleaved replies to their
// requests; the service is stateless about it — it only echoes the id. It
// rides in previously-zero bits of existing words (the granted count is at
// most kMaxBatchEntries, so it fits below the shift), keeping the message
// size — and therefore the modelled wire timing — identical to the
// lockstep protocol.
//
// Grants are all-or-prefix: the service stops at the first refused entry,
// so the grant bitmap is always a prefix mask of the batch. The requester
// keeps the granted prefix (its release path covers it); there is no
// service-side rollback.
constexpr uint32_t kMaxBatchEntries = 64;  // bitmap width
constexpr uint64_t kBatchFlagCommit = 1;
constexpr uint32_t kBatchReqIdShift = 8;  // flags/count below, request id above
constexpr uint64_t kBatchReqIdMask = (uint64_t{1} << kBatchReqIdShift) - 1;

// Bitmap with the low `n` bits set (n <= 64).
constexpr uint64_t PrefixBitmap(uint32_t n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

struct Message {
  MsgType type = MsgType::kInvalid;
  uint32_t src = 0;
  uint64_t w0 = 0;
  uint64_t w1 = 0;
  uint64_t w2 = 0;
  uint64_t w3 = 0;
  std::vector<uint64_t> extra;

  // Payload size in words, used by the latency model to charge for larger
  // (batched) messages.
  size_t SizeWords() const { return 5 + extra.size(); }
};

// Conflict kinds, matching the paper's RAW/WAW/WAR terminology. NO_CONFLICT
// mirrors Algorithm 1/2's success return. kMigrating and kOverload are not
// data conflicts: they are service-side refusals (a draining range, an
// admission-controlled inbox) that ride the same refusal words so the
// runtime's retry path handles them uniformly — both mean "back off and
// retry", never "another transaction beat you".
enum class ConflictKind : uint8_t {
  kNone = 0,
  kReadAfterWrite = 1,   // RAW: reader found an existing writer
  kWriteAfterWrite = 2,  // WAW: writer found an existing writer
  kWriteAfterRead = 3,   // WAR: writer found existing readers
  kMigrating = 4,        // stripe's range is draining for ownership migration
  kOverload = 5,         // service inbox above the admission high-water mark
};

inline const char* ConflictKindName(ConflictKind k) {
  switch (k) {
    case ConflictKind::kNone:
      return "NO_CONFLICT";
    case ConflictKind::kReadAfterWrite:
      return "RAW";
    case ConflictKind::kWriteAfterWrite:
      return "WAW";
    case ConflictKind::kWriteAfterRead:
      return "WAR";
    case ConflictKind::kMigrating:
      return "MIGRATING";
    case ConflictKind::kOverload:
      return "OVERLOAD";
  }
  return "?";
}

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_MESSAGE_H_
