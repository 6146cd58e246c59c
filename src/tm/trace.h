// Execution-trace stream for the verification subsystem (src/check/).
//
// TxRuntime, DtmService and PartitionDurability report each semantically
// meaningful instant of the protocol as one TraceEvent record (see
// TraceKind). A sink implements the single OnEvent; the typed OnTxBegin(...)
// … OnMigrationComplete(...) emitters only build the record. The sink lives
// here (tm layer) so the tm code does not depend on src/check/, whose
// History implements it.
//
// The simulator calls the attached sink at once, from its one host thread,
// so call order is the real execution order. The native backends append
// each core's events to that core's EventLogs log instead (below), and
// TmSystem replays the logs, merged by stamp, into the sink after Run. The
// stamp order keeps each core's program order and every message's send
// before its receipt, which is what the crash-restart and migration
// oracles need. The serializability oracle still requires the simulator:
// a store's stamp can trail a read that already saw the stored value.
#ifndef TM2C_SRC_TM_TRACE_H_
#define TM2C_SRC_TM_TRACE_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/shared_mapping.h"
#include "src/runtime/message.h"
#include "src/sim/time.h"

namespace tm2c {

// What happened, and how TraceEvent's `core` and w0..w3 carry its fields.
// Times are SimTime; ConflictKinds travel as their integer value.
enum class TraceKind : uint8_t {
  // Transaction attempts on `core`.
  kTxBegin,    // w0 epoch, w1 start time
  kTxRead,     // w0 addr read from shared memory, w1 value observed. Buffered
               // (read-own-write) and cached re-reads carry no new
               // information about the shared state and are not reported.
  kTxPersist,  // w0 addr, w1 value stored at commit: per word, in store
               // order, at the instant of the actual store
  kTxCommit,   // w0 end time
  kTxAbort,    // w0 end time, w1 ConflictKind reason
  // The DTM service on `core` revoked the locks of (w0 victim core, w1
  // victim epoch) on w2 ConflictKind. Recorded even when a planted fault
  // suppresses the delivery of the revocation to the victim.
  kRevocation,
  // Pipelined acquisition by the attempt on `core`: issue and completion
  // are separate events because pipelining (TmConfig::pipeline_depth > 1)
  // keeps several requests outstanding at once, and the oracle must see
  // that window. Owner-local fast-path spans complete at their issue instant.
  kAcquireIssue,     // w0 request id, w1 node, w2 stripes, w3 1 for write locks
  kAcquireComplete,  // w0 request id, w1 stripes granted, w2 refusal's
                     // ConflictKind (kNone when fully granted)
  // Durability (src/durability/), `core` = partition: the crash-restart
  // oracle rebuilds per-partition durable watermarks from these.
  kWalAppend,     // w0 core, w1 epoch, w2 record index; `pairs` = write set
  kCommitLogAck,  // w0 core, w1 epoch, w2 record index acked to the
                  // committer: after the covering flush, unless the planted
                  // FaultMode::kAckBeforeLogFlush inverts the order
  kWalFlush,      // w0 durable records, w1 durable bytes after the flush
  kCheckpoint,    // w0 checkpoint index, w1 records covered
  kWalTruncate,   // restart recovery kept w0 records / w1 bytes; appends
                  // beyond them were lost with the dead process
  // Migration oracle inputs, `core` = reporting service. A grant by a core
  // draining the stripe's range, or no longer owning it, is the violation
  // the planted kGrantDuringMigration fault manufactures.
  kLockGrant,          // w0 requester core, w1 stripe (one per granted stripe)
  kMigrationBegin,     // drain of [w1, w1 + w2) towards w0 target core began
  kMigrationComplete,  // as kMigrationBegin, w3 directory version after the flip
};

struct TraceEvent {
  TraceKind kind = TraceKind::kTxBegin;
  uint32_t core = 0;  // reporting core; the partition for durability kinds
  uint64_t w0 = 0;
  uint64_t w1 = 0;
  uint64_t w2 = 0;
  uint64_t w3 = 0;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;  // kWalAppend: [addr, value]
};

class TxTraceSink {
 public:
  virtual ~TxTraceSink() = default;

  virtual void OnEvent(const TraceEvent& event) = 0;

  // Typed emitters, one per TraceKind (see there for the meaning).
  void OnTxBegin(uint32_t core, uint64_t epoch, SimTime now) {
    Emit(TraceKind::kTxBegin, core, epoch, now);
  }
  void OnTxRead(uint32_t core, uint64_t addr, uint64_t value) {
    Emit(TraceKind::kTxRead, core, addr, value);
  }
  void OnTxPersist(uint32_t core, uint64_t addr, uint64_t value) {
    Emit(TraceKind::kTxPersist, core, addr, value);
  }
  void OnTxCommit(uint32_t core, SimTime now) { Emit(TraceKind::kTxCommit, core, now); }
  void OnTxAbort(uint32_t core, SimTime now, ConflictKind reason) {
    Emit(TraceKind::kTxAbort, core, now, static_cast<uint64_t>(reason));
  }
  void OnRevocation(uint32_t service_core, uint32_t victim_core, uint64_t victim_epoch,
                    ConflictKind kind) {
    Emit(TraceKind::kRevocation, service_core, victim_core, victim_epoch,
         static_cast<uint64_t>(kind));
  }
  void OnAcquireIssue(uint32_t core, uint64_t request_id, uint32_t node, uint32_t n,
                      bool is_write) {
    Emit(TraceKind::kAcquireIssue, core, request_id, node, n, is_write ? 1 : 0);
  }
  void OnAcquireComplete(uint32_t core, uint64_t request_id, uint32_t granted,
                         ConflictKind kind) {
    Emit(TraceKind::kAcquireComplete, core, request_id, granted, static_cast<uint64_t>(kind));
  }
  void OnWalAppend(uint32_t partition, uint32_t core, uint64_t epoch, uint64_t record_index,
                   const std::vector<std::pair<uint64_t, uint64_t>>& pairs) {
    OnEvent(TraceEvent{TraceKind::kWalAppend, partition, core, epoch, record_index, 0, pairs});
  }
  void OnCommitLogAck(uint32_t partition, uint32_t core, uint64_t epoch, uint64_t record_index) {
    Emit(TraceKind::kCommitLogAck, partition, core, epoch, record_index);
  }
  void OnWalFlush(uint32_t partition, uint64_t durable_records, uint64_t durable_bytes) {
    Emit(TraceKind::kWalFlush, partition, durable_records, durable_bytes);
  }
  void OnCheckpoint(uint32_t partition, uint64_t checkpoint_index, uint64_t records_covered) {
    Emit(TraceKind::kCheckpoint, partition, checkpoint_index, records_covered);
  }
  void OnWalTruncate(uint32_t partition, uint64_t records_remaining, uint64_t valid_bytes) {
    Emit(TraceKind::kWalTruncate, partition, records_remaining, valid_bytes);
  }
  void OnLockGrant(uint32_t service_core, uint32_t requester_core, uint64_t stripe) {
    Emit(TraceKind::kLockGrant, service_core, requester_core, stripe);
  }
  void OnMigrationBegin(uint32_t from_core, uint32_t to_core, uint64_t base, uint64_t bytes) {
    Emit(TraceKind::kMigrationBegin, from_core, to_core, base, bytes);
  }
  void OnMigrationComplete(uint32_t from_core, uint32_t to_core, uint64_t base, uint64_t bytes,
                           uint64_t version) {
    Emit(TraceKind::kMigrationComplete, from_core, to_core, base, bytes, version);
  }

 private:
  void Emit(TraceKind kind, uint32_t core, uint64_t w0, uint64_t w1 = 0, uint64_t w2 = 0,
            uint64_t w3 = 0) {
    OnEvent(TraceEvent{kind, core, w0, w1, w2, w3, {}});
  }
};

// The native backends' trace: one append-only event log per core, all in
// one SharedMapping made before Run, so a forked partition server writes
// the very words the host replays. A record is
//
//   [stamp][kind | pairs << 8 | core << 32][w0][w1][w2][w3][addr, value]...
//
// and its stamp comes from one counter shared by every core (fetch_add):
// a server stamps an event before it pushes the reply that follows it, and
// the receiver stamps what it does after the pop. Each log has one writer
// at a time. A record is written past the log's published length and
// becomes visible with one release store of the new length, so a SIGKILLed
// server leaves a clean published prefix, and its standby, which writes
// the same core's log, appends after it.
class EventLogs {
 public:
  // Words in each core's log. The mapping's pages are backed only once
  // written, so an unused tail costs address space, not memory.
  static constexpr uint64_t kCapacityWords = uint64_t{1} << 21;

  // Logs for cores [0, num_cores), replayed into `into`.
  EventLogs(uint32_t num_cores, TxTraceSink* into);
  EventLogs(const EventLogs&) = delete;
  EventLogs& operator=(const EventLogs&) = delete;

  // The sink that appends to `core`'s log.
  TxTraceSink* sink(uint32_t core) { return &writers_[core]; }

  // The two halves of an append, apart so a test can stop between them as
  // a SIGKILL can: Write stores `event` past `core`'s published length and
  // returns the length that publishes it, and Publish makes it visible.
  // A full log is a CHECK failure that names the capacity.
  uint64_t Write(uint32_t core, const TraceEvent& event);
  void Publish(uint32_t core, uint64_t length);

  // Replays every published event, in stamp order, into the sink given at
  // construction, and empties the logs. Call with no writer running.
  void Replay();

 private:
  class Writer : public TxTraceSink {
   public:
    Writer(EventLogs* logs, uint32_t core) : logs_(logs), core_(core) {}
    void OnEvent(const TraceEvent& event) override {
      logs_->Publish(core_, logs_->Write(core_, event));
    }

   private:
    EventLogs* logs_;
    uint32_t core_;
  };

  // Core `core`'s published length, and the words of its log.
  std::atomic<uint64_t>& published(uint32_t core) const;
  uint64_t* words(uint32_t core) const;

  TxTraceSink* into_;
  SharedMapping mapping_;
  std::atomic<uint64_t>* stamp_;
  std::vector<Writer> writers_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_TM_TRACE_H_
