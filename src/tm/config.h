// TM2C configuration knobs.
#ifndef TM2C_SRC_TM_CONFIG_H_
#define TM2C_SRC_TM_CONFIG_H_

#include <cstdint>

#include "src/cm/contention_manager.h"

namespace tm2c {

// When write locks are acquired (Section 3.3). TM2C's default is lazy
// (deferred writes / write-back, locks taken at commit); eager takes the
// lock at txwrite time and is kept as the Figure 4(c) ablation.
enum class WriteAcquire : uint8_t {
  kLazy = 0,
  kEager = 1,
};

// Transaction execution mode (Sections 3 and 6).
enum class TxMode : uint8_t {
  kNormal = 0,        // visible reads, read locks held to commit
  kElasticEarly = 1,  // early release of read locks outside the window
  kElasticRead = 2,   // no read locks; value-based read validation
};

// Planted protocol mutations for the verification subsystem (src/check/).
// Each mode breaks one safety-critical step of the protocol; the
// serializability oracle must flag every one of them (tests/check_test.cc
// asserts it does), which is the evidence that the oracle has teeth.
// Production configurations always run kNone.
enum class FaultMode : uint8_t {
  kNone = 0,
  // The runtime performs visible reads WITHOUT acquiring the read lock:
  // reads are no longer visible to writers, so a concurrent commit can
  // slide between a read and the reader's commit point (lost updates,
  // torn snapshots).
  kSkipReadLock = 1,
  // The service revokes locks (the CM's decision stands and the winner
  // proceeds) but never tells the victim: no stale-epoch refusal of the
  // victim's later requests — stale-epoch batch entries are granted — no
  // abort-status publication, no notification. Winner and victim both
  // reach their commit points on conflicting lock sets.
  kIgnoreRevocation = 2,
  // The committing runtime releases its write locks BEFORE persisting the
  // write-back buffer (word at a time), opening a window in which other
  // transactions lock, read and overwrite stale data.
  kReleaseBeforePersist = 3,
  // Durability only: the DTM service acknowledges a kCommitLog append
  // IMMEDIATELY, before the group-commit flush makes the record durable.
  // The commit completes against a volatile log tail; a crash between the
  // ack and the flush silently loses an acknowledged commit. The
  // crash-restart oracle (CheckCrashRestartHistory) must flag it.
  kAckBeforeLogFlush = 4,
  // Migration only: the old owner keeps GRANTING acquires for a range it
  // is draining instead of refusing them with kMigrating. The range never
  // empties (new holders keep arriving), the flip never happens, and every
  // grant inside the drain window is a grant the protocol forbids. The
  // migration oracle (CheckMigrationHistory) must flag each one.
  kGrantDuringMigration = 5,
  // Application-level SMO fault (the protocol itself stays intact): a
  // B+-tree leaf split publishes the new leaf in the leaf chain but skips
  // linking it into its parent. The serializability oracle sees nothing —
  // every transaction is internally correct — which is exactly the point:
  // OrderedIndex::HostCheckStructure's tree-shape invariants must catch
  // it. Applied by OrderedIndex (src/apps/ordered_index.h) when the chaos
  // harness plumbs it through; ignored by the runtime and lock service.
  kSmoSkipParentLink = 6,
};

inline const char* FaultModeName(FaultMode f) {
  switch (f) {
    case FaultMode::kNone:
      return "none";
    case FaultMode::kSkipReadLock:
      return "skip-read-lock";
    case FaultMode::kIgnoreRevocation:
      return "ignore-revocation";
    case FaultMode::kReleaseBeforePersist:
      return "release-before-persist";
    case FaultMode::kAckBeforeLogFlush:
      return "ack-before-log-flush";
    case FaultMode::kGrantDuringMigration:
      return "grant-during-migration";
    case FaultMode::kSmoSkipParentLink:
      return "smo-skip-parent-link";
  }
  return "?";
}

// Durability of the per-partition commit log (src/durability/). kOff is
// the paper's in-memory DTM and leaves the commit path byte-identical to
// the pre-durability protocol; kBuffered appends and flushes to the OS
// (library) buffer only; kFsync additionally fsyncs the backing file on
// every group-commit flush.
enum class DurabilityMode : uint8_t {
  kOff = 0,
  kBuffered = 1,
  kFsync = 2,
};

inline const char* DurabilityModeName(DurabilityMode m) {
  switch (m) {
    case DurabilityMode::kOff:
      return "off";
    case DurabilityMode::kBuffered:
      return "buffered";
    case DurabilityMode::kFsync:
      return "fsync";
  }
  return "?";
}

struct TmConfig {
  CmKind cm = CmKind::kFairCm;
  WriteAcquire write_acquire = WriteAcquire::kLazy;
  TxMode tx_mode = TxMode::kNormal;

  // Lock granularity in bytes (power of two): the lock unit of every
  // hash-routed address and owned-range header, and the default unit of an
  // owned range (see AddressMap::AddOwnedRange). The paper maps single
  // bytes; a word stripe is the simulator's natural unit.
  uint64_t stripe_bytes = 8;

  // Maximum number of lock acquisitions travelling in one kBatchAcquire
  // message. The runtime groups pending read/write-set acquisitions by
  // responsible node and flushes each group in chunks of at most this many
  // addresses. 1 (the default) disables the batch protocol entirely: every
  // acquisition is its own kReadLockReq/kWriteLockReq round trip, the
  // pre-batching wire behaviour. Capped at kMaxBatchEntries (the grant
  // bitmap width).
  uint32_t max_batch = 1;

  // Maximum number of kBatchAcquire requests a runtime keeps in flight at
  // once. 1 (the default) is the lockstep protocol: every batch waits for
  // its reply before the next is issued — bit-identical to the pre-pipeline
  // wire behaviour. Larger depths let ReadMany / commit-time acquisition
  // overlap the per-node round trips (and enable Tx::Prefetch), hiding the
  // message latency that bounds throughput once batching has amortized the
  // per-message cost. Only batched acquisitions pipeline; the scalar
  // kReadLockReq/kWriteLockReq path stays synchronous.
  uint32_t pipeline_depth = 1;

  // Owner-local fast path: when the caller's own core is the responsible
  // node for a stripe (multitasked deployment with AddressMap owned ranges
  // — the share-little layout), call the local LockTable directly instead
  // of building a self-addressed message. Same CM arbitration, revocation
  // and stale-epoch semantics, zero messages and no coroutine-switch
  // charge. Off by default because it changes the modelled timing of
  // multitasked runs (the depth-1 identity guarantee); benches enable it
  // explicitly. TxStats::local_acquires vs remote_acquires records the
  // split.
  bool local_fast_path = false;

  // Elastic window: how many trailing reads stay protected/validated.
  uint32_t elastic_window = 2;

  // Service-side processing cost per request, in service-core cycles
  // (drives the service saturation behaviour of Figure 5(b)). Simulator
  // only (CoreEnv::ChargeModelled): native backends pay the real handling.
  uint64_t service_base_cycles = 120;
  uint64_t service_per_item_cycles = 40;

  // Base address of the per-core abort status words in shared memory
  // (one word per core, indexed by core id), or kNoAbortStatus when the
  // mechanism is disabled. The DS-Lock service publishes a revocation by
  // storing the victim's epoch here — the paper's "status atomically
  // switched from pending to aborted" — and the victim reads it atomically
  // with its write-set persist, closing the race between an in-flight
  // abort notification and the commit point. TmSystem sets this up
  // automatically, and TxRuntime requires it; a bare DtmService harness
  // (no runtime) may leave it disabled.
  uint64_t abort_status_base = kNoAbortStatus;
  static constexpr uint64_t kNoAbortStatus = UINT64_MAX;

  // Multitasked deployment only: cost of the libtask coroutine switch into
  // and out of the service task, charged per request an application core
  // serves. Dedicated cores never pay it — one reason the dedicated
  // deployment wins (Figure 4(a)). Simulator only
  // (CoreEnv::ChargeModelled).
  uint64_t multitask_switch_cycles = 250;

  // Planted protocol mutation (verification only; see FaultMode above).
  FaultMode fault = FaultMode::kNone;

  // Commit-log durability (dedicated deployment only; see src/durability/).
  // kOff keeps the commit path — and therefore every modelled timing —
  // byte-identical to the pre-durability protocol.
  DurabilityMode durability = DurabilityMode::kOff;

  // Group commit: the service defers kCommitLogAck and the log flush until
  // this many transactions' records are buffered (or its inbox drains).
  // 1 = flush per transaction, the no-grouping baseline.
  uint32_t group_commit_txs = 1;

  // Take a checkpoint of the partition image every N appended records so
  // recovery replays a bounded suffix; 0 = log only, never checkpoint.
  uint64_t checkpoint_every_records = 0;

  // Simulated costs of the durability path, charged on the service core:
  // per payload word appended, and per flush in each mode. Calibrated so
  // the ablation's expected ordering (off >= buffered >= fsync) is the
  // model's behaviour, not an accident: an fsync is ~a disk round trip.
  // Simulator only: native backends pay the real write and flush.
  uint64_t log_append_cycles_per_word = 30;
  uint64_t log_flush_buffered_cycles = 400;
  uint64_t log_flush_fsync_cycles = 20000;

  // --- Stripe-ownership migration and admission control ------------------
  // Migration policy loop: every `migrate_check_every` acquire requests a
  // service tallies per-range traffic; if the window saw at least
  // `migrate_hot_threshold` requests to one owned range, that range is
  // migrated to the next partition round-robin. 0 disables the policy
  // (migrations then happen only on explicit kMigrateRange requests, which
  // tests and the chaos harness use for determinism).
  uint32_t migrate_check_every = 0;
  uint32_t migrate_hot_threshold = 0;

  // Admission control: when a service observes more than this many pending
  // inbox messages, it refuses non-committing acquires with kOverload
  // instead of queueing them. 0 disables admission control. Commit-phase
  // acquisitions are always admitted: refusing a committer wastes every
  // lock it already holds.
  uint32_t overload_high_water = 0;
};

}  // namespace tm2c

#endif  // TM2C_SRC_TM_CONFIG_H_
