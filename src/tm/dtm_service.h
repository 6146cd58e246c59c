// The DTM service: one instance per service core (Figure 1).
//
// Wraps a LockTable partition and a contention manager behind the wire
// protocol. The dedicated deployment runs RunLoop() as the core's main; the
// multitasked deployment calls HandleMessage() from the application task's
// wait loops, and HandleLocal() for requests whose responsible node is the
// requesting core itself.
#ifndef TM2C_SRC_TM_DTM_SERVICE_H_
#define TM2C_SRC_TM_DTM_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cm/contention_manager.h"
#include "src/dslock/lock_table.h"
#include "src/runtime/core_env.h"
#include "src/tm/address_map.h"
#include "src/tm/config.h"
#include "src/tm/stats.h"
#include "src/tm/trace.h"

namespace tm2c {

class PartitionDurability;

// The DtmServiceStats table (see src/tm/stats.h): X(name), every field a
// summed uint64_t counter.
#define TM2C_DTM_SERVICE_STATS_FIELDS(X)                                \
  X(requests)                                                           \
  X(releases)                                                           \
  X(notifications_sent)                                                 \
  X(stale_requests_refused)                                             \
  X(batch_requests)          /* kBatchAcquire messages served */        \
  X(batch_entries)           /* addresses across those batches */       \
  X(misrouted_refused)       /* batch entries outside this partition */ \
  X(local_direct_requests)   /* owner-local fast-path span calls */     \
  X(local_direct_entries)    /* stripes across those spans */           \
  X(commit_records)          /* kCommitLog records appended */          \
  X(log_flushes)             /* group-commit flushes performed */       \
  X(migrations_started)      /* drain windows opened on this core */    \
  X(migrations_completed)    /* directory flips performed */            \
  X(migrating_refused)       /* acquires refused: range draining */     \
  X(overload_refused)        /* acquires refused: inbox high water */

struct DtmServiceStats {
#define TM2C_DECLARE_FIELD(name) uint64_t name = 0;
  TM2C_DTM_SERVICE_STATS_FIELDS(TM2C_DECLARE_FIELD)
#undef TM2C_DECLARE_FIELD

  template <typename F>
  static void ForEachField(F&& f) {
#define TM2C_VISIT_FIELD(name) f(#name, &DtmServiceStats::name, FieldMerge::kSum);
    TM2C_DTM_SERVICE_STATS_FIELDS(TM2C_VISIT_FIELD)
#undef TM2C_VISIT_FIELD
  }
};

// A partition server's parting report on the process backend, carried as
// the extra words of a kHostStats frame: the lock table's final occupancy,
// then every DtmServiceStats field in table order.
struct ServiceExitReport {
  uint64_t lock_entries = 0;
  DtmServiceStats stats;

  std::vector<uint64_t> Encode() const;
  // CHECK-fails unless `words` holds exactly one encoded report.
  static ServiceExitReport Decode(const std::vector<uint64_t>& words);
};

class DtmService {
 public:
  // `map`, when provided, lets the service refuse stripes that belong to a
  // different partition (a misrouted request would otherwise corrupt two
  // nodes' views of the same stripe). TmSystem always passes it; bare
  // harnesses may skip the check.
  DtmService(CoreEnv& env, const TmConfig& config, const AddressMap* map = nullptr);

  // Dedicated-deployment main: serve until the engine stops the run or a
  // kShutdown message arrives.
  void RunLoop();

  // Handles one DTM message; responses and abort notifications are sent
  // through the environment. Returns false when the message is not a DTM
  // request (the caller owns it).
  bool HandleMessage(const Message& msg);

  // Synchronous processing of a request originating from this very core
  // (multitasked deployment). Notifications to third parties are still
  // sent; the response is returned directly.
  Message HandleLocal(const Message& request);

  // What one acquisition request got: the granted prefix length and, when
  // the prefix stops short, the refusal's kind (kNone when fully granted).
  struct AcquireOutcome {
    uint32_t granted = 0;
    ConflictKind refused = ConflictKind::kNone;
  };

  // Owner-local fast path: the requesting runtime runs on this very core
  // and skips the message layer entirely — no Message is built and no
  // coroutine-switch cost is charged; only the service processing cost is.
  // The span (all read or all write locks, any length) takes the same
  // acquisition sequence as a kBatchAcquire from this core — stale-epoch
  // refusal, ownership and drain-window cut, all-or-prefix grants, victims
  // notified through the normal paths (including the local abort sink) —
  // minus admission control: it never queues, so it has no backlog to shed.
  AcquireOutcome AcquireSpanDirect(uint64_t epoch, uint64_t metric_wire, const uint64_t* addrs,
                                   uint32_t n, bool is_write, bool committing);

  // Multitasked deployment: a victim of a revocation can be a transaction
  // running on this very core; the sink delivers the abort locally instead
  // of a self-addressed message.
  void SetLocalAbortSink(std::function<void(uint64_t epoch, ConflictKind kind)> sink) {
    local_abort_sink_ = std::move(sink);
  }

  // Attaches this partition's durability object (dedicated deployment
  // only). Commits then ship their write sets here as kCommitLog messages;
  // the service appends them, group-commits, and acknowledges. The service
  // does not own the object (TmSystem does — checkpoints and the log image
  // outlive the service for recovery).
  void AttachDurability(PartitionDurability* durability);

  // Process-backend restart: the (core, epoch) pairs whose commit records
  // survived in the recovered WAL prefix, mapped to their record index. A
  // retransmitted kCommitLog matching an entry is acknowledged with its
  // original index instead of appended again — the record is already
  // durable, and re-logging it would duplicate it in the replayed log.
  void SetRecoveredCommits(std::map<std::pair<uint32_t, uint64_t>, uint64_t> commits) {
    recovered_commits_ = std::move(commits);
  }

  // Group commit: flushes every appended-but-unflushed record and sends
  // the deferred kCommitLogAck responses. Called when the group fills,
  // when the inbox drains (flush-before-block), at checkpoints and at
  // shutdown. No-op without durability or with nothing unflushed.
  void FlushCommitLog();

  // Horizon quiesce (called by TmSystem after the run ends): makes every
  // appended record durable without modelling service compute — the
  // simulated horizon can freeze the service fiber between an append and
  // the group-commit flush, and the records are already in the log.
  // Deferred acks are dropped, not sent: their committers are frozen past
  // the horizon too, and a post-run ack would be a fabricated event.
  void QuiesceFlush();

  // Opens a drain window for the exact registered range [base,
  // base + bytes): revocable holders are revoked through the normal CM
  // notification path, new acquires touching the range are refused with
  // ConflictKind::kMigrating, and once the lock table holds no entry in
  // the range the ownership directory flips to `target_partition` and a
  // kOwnershipUpdate is broadcast. Ignored when this core is not the
  // range's current owner (a stale request racing a previous migration)
  // or when a drain of the range is already open.
  void BeginMigration(uint64_t base, uint64_t bytes, uint32_t target_partition);

  // True while any migration drain window is open on this service.
  bool migrating() const { return !migrating_out_.empty(); }

  const LockTable& lock_table() const { return table_; }
  const DtmServiceStats& stats() const { return stats_; }

  // Attaches the execution-trace recorder (verification harnesses only);
  // the service reports revocations — and durability events — through it.
  void set_trace(TxTraceSink* trace);

 private:
  struct RemoteCoreState {
    uint64_t aborted_epoch = 0;  // most recent epoch this node revoked
    ConflictKind aborted_kind = ConflictKind::kNone;
  };

  // Dispatches a request and produces the response (no response for
  // release-type messages: Message.type stays kInvalid).
  Message Process(const Message& msg);

  // One lock acquisition, whichever entry it came through: `n` stripes for
  // `core`'s attempt `epoch`. Bit i of `write_bitmap` asks for a write lock
  // on entry i; a span longer than kMaxBatchEntries is homogeneous (0 or
  // all ones) and every 64-entry chunk reuses the bitmap. `admission` marks
  // the wire entries, which admission control may shed.
  struct AcquireRequest {
    uint32_t core = 0;
    uint64_t epoch = 0;
    uint64_t metric_wire = 0;
    const uint64_t* addrs = nullptr;
    uint32_t n = 0;
    uint64_t write_bitmap = 0;
    bool committing = false;
    bool admission = false;
  };
  // The acquisition sequence every entry shares (see docs/ARCHITECTURE.md,
  // "Lock acquisition"): stale-epoch refusal, admission control, policy
  // tally, ownership and drain-window cut, the lock-table pass, victim
  // notification, grant tracing. The entries own only their decoding,
  // request counters, processing charge and reply encoding.
  AcquireOutcome Acquire(const AcquireRequest& req);
  Message HandleAcquire(const Message& msg, bool is_write);
  Message HandleBatchAcquire(const Message& msg);
  void HandleCommitLog(const Message& msg);
  void SendCommitLogAck(uint32_t core, uint64_t epoch, uint64_t record_index);
  void HandleRelease(const Message& msg);
  void NotifyVictims(const std::vector<Victim>& victims);
  void ChargeProcessing(uint64_t items);

  // True when `stripe` falls inside a range this service is draining.
  bool MigratingStripe(uint64_t stripe) const;
  // Completes every open drain whose range has emptied: directory flip,
  // kOwnershipUpdate broadcast, trace event. Called after drains and after
  // every release.
  void MaybeCompleteMigrations();
  // Admission control: true when a non-committing acquire must be refused
  // with ConflictKind::kOverload (inbox above the high-water mark).
  bool Overloaded(bool committing) const;
  // Migration policy: tallies the acquire against its owned range (if any)
  // and, every migrate_check_every requests, migrates the hottest
  // above-threshold range to the next partition.
  void NoteAcquiresForPolicy(const uint64_t* addrs, uint32_t n);
  // Per-granted-stripe trace emission (migration-oracle input).
  void TraceGrants(uint32_t requester_core, const uint64_t* addrs, uint32_t n);

  CoreEnv& env_;
  TmConfig config_;
  const AddressMap* map_;
  std::unique_ptr<ContentionManager> cm_;
  LockTable table_;
  std::unordered_map<uint32_t, RemoteCoreState> remote_state_;
  std::function<void(uint64_t, ConflictKind)> local_abort_sink_;
  TxTraceSink* trace_ = nullptr;
  PartitionDurability* durability_ = nullptr;
  // Acks deferred by group commit; drained by FlushCommitLog().
  struct PendingAck {
    uint32_t core;
    uint64_t epoch;
    uint64_t record_index;
  };
  std::vector<PendingAck> pending_acks_;
  // (core, epoch) -> record index of commits that survived a restart's WAL
  // recovery; consumed by their retransmissions (see SetRecoveredCommits).
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> recovered_commits_;
  // Open drain windows: range base -> (bytes, target partition). Usually
  // empty or a single entry; lookups are a bounded map walk.
  struct MigratingRange {
    uint64_t bytes = 0;
    uint32_t target_partition = 0;
  };
  std::map<uint64_t, MigratingRange> migrating_out_;
  // Migration-policy tallies: owned-range base -> acquires since the last
  // policy check, plus the request countdown to the next check.
  std::unordered_map<uint64_t, uint64_t> range_hits_;
  uint32_t policy_countdown_ = 0;
  DtmServiceStats stats_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_TM_DTM_SERVICE_H_
