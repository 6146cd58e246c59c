// Per-run execution history for the offline serializability oracle.
//
// A History is a TxTraceSink that records, for every transaction attempt,
// the read set (address and observed value), the persisted write set, and
// the commit/abort outcome. Every recorded event carries a global sequence
// number assigned in call order; because the simulator is single-threaded,
// that order IS the real execution order, which lets the oracle reason
// about "the last value stored before this read" exactly, without relying
// on (possibly tied) simulated timestamps. On threads and processes the
// events arrive after the run, replayed from the per-core event logs in
// stamp order (src/tm/trace.h).
//
// Service-side revocations are recorded too, for human-readable dumps and
// replay context; the oracle itself derives everything from reads/persists.
#ifndef TM2C_SRC_CHECK_HISTORY_H_
#define TM2C_SRC_CHECK_HISTORY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/tm/trace.h"

namespace tm2c {

class History : public TxTraceSink {
 public:
  struct Read {
    uint64_t addr = 0;
    uint64_t value = 0;
    uint64_t seq = 0;  // global event order
  };
  struct Write {
    uint64_t addr = 0;
    uint64_t value = 0;
    uint64_t seq = 0;  // global event order of the store
  };
  struct Tx {
    uint32_t core = 0;
    uint64_t epoch = 0;
    SimTime begin_time = 0;
    SimTime end_time = 0;
    bool committed = false;
    bool finished = false;  // saw a commit or abort (false: cut by a horizon)
    uint64_t end_seq = 0;   // global event order of the outcome (0: unfinished)
    ConflictKind abort_reason = ConflictKind::kNone;
    std::vector<Read> reads;
    std::vector<Write> writes;

    bool read_only() const { return writes.empty(); }
    std::string Name() const;  // "c3/e12" style label for reports
  };
  struct Revocation {
    uint64_t seq = 0;
    uint32_t service_core = 0;
    uint32_t victim_core = 0;
    uint64_t victim_epoch = 0;
    ConflictKind kind = ConflictKind::kNone;
  };
  // One batch acquisition, as two separately-sequenced events: under
  // pipelining (pipeline_depth > 1) several can be outstanding per core,
  // and the gap between issue_seq and complete_seq is exactly the window
  // the oracle's read/persist ordering must stay correct across.
  struct Acquire {
    uint64_t issue_seq = 0;
    uint64_t complete_seq = 0;  // 0 while still outstanding (cut by horizon)
    uint32_t core = 0;
    uint64_t request_id = 0;
    uint32_t node = 0;
    uint32_t n = 0;         // stripes requested
    uint32_t granted = 0;   // granted prefix length (valid once completed)
    bool is_write = false;
    ConflictKind kind = ConflictKind::kNone;  // refusal kind, kNone if granted
  };
  // One durability-layer event on a partition's commit log. The crash
  // oracle replays these in seq order to find each partition's durable
  // watermark at an arbitrary cut, and to prove every commit ack was
  // preceded by a flush (or checkpoint) covering its record.
  struct DurabilityEvent {
    enum class Kind { kAppend, kAck, kFlush, kCheckpoint, kTruncate };
    Kind kind = Kind::kAppend;
    uint64_t seq = 0;
    uint32_t partition = 0;
    uint32_t core = 0;          // kAppend/kAck: committing app core
    uint64_t epoch = 0;         // kAppend/kAck: committing tx epoch
    uint64_t record_index = 0;  // kAppend/kAck: 0-based index in the log
    std::vector<std::pair<uint64_t, uint64_t>> pairs;  // kAppend: [addr, value]
    // kFlush: the watermark after the flush. kTruncate (a restarted
    // partition server cut its WAL back to the valid prefix): the records
    // and bytes that survived — appends beyond them were lost with the
    // dead process and are void, not durability violations.
    uint64_t durable_records = 0;
    uint64_t durable_bytes = 0;
    uint64_t checkpoint_index = 0;  // kCheckpoint
    uint64_t records_covered = 0;   // kCheckpoint: log prefix the image covers
  };
  // One service-side lock grant, per granted stripe. The migration oracle
  // (CheckMigrationHistory) replays these in seq order against the
  // migration windows below.
  struct GrantEvent {
    uint64_t seq = 0;
    uint32_t service_core = 0;
    uint32_t requester_core = 0;
    uint64_t stripe = 0;
  };
  // One end of a stripe-ownership migration: kBegin opens the old owner's
  // drain window, kComplete closes it at the directory flip.
  struct MigrationEvent {
    enum class Kind { kBegin, kComplete };
    Kind kind = Kind::kBegin;
    uint64_t seq = 0;
    uint32_t from_core = 0;
    uint32_t to_core = 0;
    uint64_t base = 0;
    uint64_t bytes = 0;
    uint64_t version = 0;  // kComplete: directory version after the flip
  };

  // Registers the pre-run content of `addr`. Optional: the oracle infers
  // initial values from pre-write reads when they are not registered, but
  // explicit registration turns "first read of an address" into a checked
  // event instead of a definition.
  void RecordInitial(uint64_t addr, uint64_t value) { initial_[addr] = value; }

  // TxTraceSink implementation: files each event into its kind's vector.
  void OnEvent(const TraceEvent& event) override;

  const std::vector<Tx>& transactions() const { return txs_; }
  const std::vector<Revocation>& revocations() const { return revocations_; }
  const std::vector<Acquire>& acquires() const { return acquires_; }
  const std::vector<DurabilityEvent>& durability_events() const { return durability_events_; }
  const std::vector<GrantEvent>& grants() const { return grants_; }
  const std::vector<MigrationEvent>& migrations() const { return migrations_; }
  const std::unordered_map<uint64_t, uint64_t>& initial_values() const { return initial_; }
  uint64_t num_events() const { return next_seq_; }

  // Serializes the whole history (transactions, outcomes, read/write sets,
  // revocations) as one JSON document, for failing-seed artifacts.
  std::string ToJson() const;

 private:
  uint64_t NextSeq() { return next_seq_++; }
  Tx* OpenTx(uint32_t core);

  std::vector<Tx> txs_;
  // Index into txs_ of the attempt currently running on each core, or -1.
  std::unordered_map<uint32_t, size_t> open_;
  std::unordered_map<uint64_t, uint64_t> initial_;
  std::vector<Revocation> revocations_;
  std::vector<Acquire> acquires_;
  // (core, request_id) -> index into acquires_ of the outstanding request.
  std::unordered_map<uint64_t, size_t> open_acquires_;
  std::vector<DurabilityEvent> durability_events_;
  std::vector<GrantEvent> grants_;
  std::vector<MigrationEvent> migrations_;
  uint64_t next_seq_ = 1;  // 0 is reserved as "before everything"
};

}  // namespace tm2c

#endif  // TM2C_SRC_CHECK_HISTORY_H_
