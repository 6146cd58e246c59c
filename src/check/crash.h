// Post-hoc crash simulation and the crash-restart oracle.
//
// A checked crash run completes normally with the history recorder
// attached, then picks a cut point: a global event sequence number at
// which the machine "loses power". Everything the durability layer had
// flushed (or checkpointed) by the cut survives; everything after it —
// buffered log bytes, the in-memory slab — is gone. AnalyzeCrashCut
// replays the recorded durability events up to the cut and computes each
// partition's durable watermark: how many log records, and how many log
// bytes, a restart is entitled to find, and which checkpoint bounds the
// replay suffix.
//
// CheckCrashRestartHistory then holds the recovered state to account:
//
//  - ack-before-durable: every commit-log ack the service ever sent must
//    have been preceded by a flush (or checkpoint) covering the acked
//    record. This is the write-ahead rule itself, checked at every ack —
//    not just the ones the cut happens to expose — so a service that acks
//    before flushing (FaultMode::kAckBeforeLogFlush) is flagged in every
//    run, whatever the cut.
//  - unlogged-commit / commit-before-ack: a committed update transaction
//    must have appended one record to, and been acked by, every partition
//    its writes route to, before the commit was reported to the app.
//  - logged-write-mismatch: the logged record must carry exactly the
//    transaction's persisted writes for that partition, in persist order.
//  - lost-committed-write: a transaction whose commit was reported before
//    the cut must have every one of its records inside the durable prefix.
//  - durable-log-divergence: the records parsed back out of the surviving
//    (truncated) log image must match the recorded appends one-for-one.
//  - recovered-state-mismatch: the recovered memory must equal the initial
//    image overlaid with the durable record prefix, word for word.
//
// Violations are appended to an OracleReport, same convention as
// CheckFinalState; the harness (checker.cc) composes this with the
// standard serializability oracle and the workload's own invariants.
#ifndef TM2C_SRC_CHECK_CRASH_H_
#define TM2C_SRC_CHECK_CRASH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/check/history.h"
#include "src/check/oracle.h"
#include "src/durability/partition_log.h"
#include "src/durability/wal.h"

namespace tm2c {

// One partition's durable watermark at the cut.
struct PartitionCut {
  // Log records (and image bytes) covered by the last flush at or before
  // the cut. An unflushed log is still a valid empty one: its magic header
  // is written at creation, hence the byte floor.
  uint64_t durable_records = 0;
  uint64_t durable_bytes = kWalHeaderBytes;
  // Newest checkpoint taken at or before the cut; index 0 (covering 0
  // records) is the post-load initial image every partition starts with.
  uint64_t checkpoint_index = 0;
  uint64_t checkpoint_records = 0;
};

struct CrashCutReport {
  uint64_t cut_seq = 0;
  std::vector<PartitionCut> partitions;
};

// Computes the durable watermarks from the history's durability events
// with seq <= cut_seq.
CrashCutReport AnalyzeCrashCut(const History& history, uint64_t cut_seq,
                               uint32_t num_partitions);

// Turns partition `partition`'s parsed WAL into its durable commit-record
// list. A bad magic or CRC mismatch is a "torn-log" violation reading
// "partition <p>: <parse_failure> (bad magic|crc mismatch)"; the list stops
// before the first record that is not a well-formed commit record, also a
// "torn-log" violation.
std::vector<CommitRecord> DurableLogFromWal(const WalReadResult& parsed, uint32_t partition,
                                            const std::string& parse_failure,
                                            OracleReport* report);

// Runs the crash-restart checks described above. `durable_log[p]` holds
// the commit records parsed back from partition p's truncated log image;
// `load_recovered` reads the post-recovery memory; `partition_of` maps an
// address to its owning partition (AddressMap::PartitionOf). Violations
// are appended to `report`.
void CheckCrashRestartHistory(const History& history, const CrashCutReport& cut,
                              const std::vector<std::vector<CommitRecord>>& durable_log,
                              const std::function<uint64_t(uint64_t)>& load_recovered,
                              const std::function<uint32_t(uint64_t)>& partition_of,
                              OracleReport* report);

}  // namespace tm2c

#endif  // TM2C_SRC_CHECK_CRASH_H_
