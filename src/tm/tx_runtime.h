// Application-side transactional runtime (Section 3.3).
//
// One TxRuntime per application core. Transactions are written as lambdas
// over a Tx handle:
//
//   TxRuntime rt(env, config, address_map);
//   rt.Execute([&](Tx& tx) {
//     uint64_t v = tx.Read(account_a);
//     tx.Write(account_a, v - 10);
//     tx.Write(account_b, tx.Read(account_b) + 10);
//   });
//
// Reads are visible: the read lock is acquired from the responsible DTM
// node before the shared-memory read (Algorithm 4). Writes are deferred:
// buffered locally and persisted at commit after (lazily) acquiring the
// write locks (Algorithm 3); an eager write-lock mode exists as an
// ablation. Aborts restart the body; the body must therefore be free of
// side effects other than tx.Read/tx.Write (the paper's model).
//
// Elastic transactions (Section 6) are selected by TmConfig::tx_mode:
// kElasticEarly keeps only a sliding window of read locks, sending an early
// release for older ones; kElasticRead takes no read locks at all and
// value-validates the window instead.
//
// Tx::Peek is the per-read version of that argument, for a data structure
// that re-checks under a lock what its result depends on: an unlocked,
// untracked read. It shares elastic-read's unlocked load, without the
// window.
//
// Control-flow contract: aborts and end-of-run teardown are delivered by
// exception (TxAbortException, Fiber::Unwound) THROUGH the transaction
// body. A body may catch its own exception types, but must never swallow
// these with a catch-all: the runtime detects both swallows and treats
// them as fatal programming errors (see tests/check_test.cc).
#ifndef TM2C_SRC_TM_TX_RUNTIME_H_
#define TM2C_SRC_TM_TX_RUNTIME_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/runtime/core_env.h"
#include "src/tm/address_map.h"
#include "src/tm/attempt_table.h"
#include "src/tm/config.h"
#include "src/tm/dtm_service.h"
#include "src/tm/stats.h"
#include "src/tm/trace.h"

namespace tm2c {

// Internal control-flow signal for aborts. Thrown only by the runtime and
// caught by Execute's retry loop; application code must not catch it.
struct TxAbortException {
  ConflictKind reason = ConflictKind::kNone;
};

class TxRuntime;

// Handle passed to transaction bodies.
class Tx {
 public:
  uint64_t Read(uint64_t addr);
  void Write(uint64_t addr, uint64_t value);

  // Visible-read batch: acquires the read locks for every address in
  // `addrs`, grouped by responsible node and flushed as kBatchAcquire
  // messages of at most TmConfig::max_batch entries, then performs the
  // shared-memory reads. With TmConfig::pipeline_depth > 1 the per-node
  // batches are issued before any reply is awaited, overlapping the round
  // trips. Semantically identical to calling Read() per address under
  // TxMode::kNormal; the elastic modes and max_batch == 1 fall back to
  // exactly that.
  std::vector<uint64_t> ReadMany(const std::vector<uint64_t>& addrs);

  // Asynchronous read-lock prefetch: issues the batch acquisitions for
  // `addrs` like ReadMany but returns without waiting for the replies (up
  // to pipeline_depth - 1 may stay outstanding) and without performing the
  // shared-memory reads, letting the body overlap acquisition with
  // compute. A later Read()/ReadMany() of a prefetched address waits for
  // its request to resolve; a refused prefetch aborts the transaction at
  // the next transactional operation. No-op under the elastic modes and
  // with max_batch == 1 (scalar semantics have nothing to overlap);
  // pipeline_depth == 1 degenerates to the synchronous ReadMany
  // acquisition without the reads.
  void Prefetch(const std::vector<uint64_t>& addrs);

  // Unlocked read: the attempt's buffered write or first-read value for
  // `addr` if it has one, else the word shared memory holds now (a timed
  // access on the simulator). It takes no lock, adds no attempt-table
  // entry, records no trace event and polls no inbox, so nothing protects
  // the value and no conflict can come of it: a caller must re-read under
  // a lock whatever its result depends on (see OrderedIndex's landing
  // leaf). Every mode peeks the same way.
  uint64_t Peek(uint64_t addr);

 private:
  friend class TxRuntime;
  explicit Tx(TxRuntime* rt) : rt_(rt) {}
  TxRuntime* rt_;
};

class TxRuntime {
 public:
  // `local_service` must be non-null in the multitasked deployment: it is
  // used to serve incoming DTM requests while this core waits for its own
  // responses and to process self-addressed requests synchronously.
  TxRuntime(CoreEnv& env, const TmConfig& config, const AddressMap& map,
            DtmService* local_service = nullptr);

  // Runs `body` as one transaction, retrying on aborts until it commits.
  void Execute(const std::function<void(Tx&)>& body);

  // Like Execute but gives up after `max_attempts` attempts. Returns true
  // on commit. Used by the livelock/starvation property tests.
  bool TryExecute(const std::function<void(Tx&)>& body, uint64_t max_attempts);

  // Drains pending inbox messages: records abort notifications for the
  // running attempt and (in the multitasked deployment) serves incoming DTM
  // requests. Called automatically at every transaction start; long-running
  // non-transactional phases may call it explicitly to model a coroutine
  // yield point. Returns true when it left the inbox empty (the drain is
  // bounded, see tx_runtime.cc).
  bool ServePending();

  // Asks the current owner of the exact registered owned range [base,
  // base + bytes) to migrate it to `target_partition`. Fire-and-forget and
  // idempotent: a stale request (the range already moved, or a drain is
  // already open) is ignored by the owner. Completion surfaces as a
  // kOwnershipUpdate broadcast (counted in TxStats::ownership_updates) and,
  // in between, as retryable kMigrating refusals. Must be called outside a
  // transaction.
  void RequestMigration(uint64_t base, uint64_t bytes, uint32_t target_partition);

  // Privatization barrier (Section 8): blocks until every application core
  // has reached its matching barrier call, implemented with the message
  // paths among the application cores — after it returns, all transactions
  // started before the barrier have completed on every core, so data can
  // safely be accessed non-transactionally. Must be called outside a
  // transaction, the same number of times on every application core.
  void PrivatizationBarrier();

  TxStats& stats() { return stats_; }
  const TmConfig& config() const { return config_; }
  CoreEnv& env() { return env_; }

  // Attaches the execution-trace recorder (verification harnesses only;
  // see src/tm/trace.h for the single-threaded-backend caveat).
  void set_trace(TxTraceSink* trace) { trace_ = trace; }

  // CM bookkeeping, exposed for tests.
  uint64_t commits_count() const { return commits_count_; }
  SimTime effective_tx_time() const { return effective_tx_time_; }

 private:
  friend class Tx;

  // Transactional wrappers (Algorithms 3-4).
  uint64_t TxRead(uint64_t addr);
  std::vector<uint64_t> TxReadMany(const std::vector<uint64_t>& addrs);
  void TxPrefetch(const std::vector<uint64_t>& addrs);
  uint64_t TxPeek(uint64_t addr);
  void TxWrite(uint64_t addr, uint64_t value);
  void TxCommit();

  // The value the attempt already has for `addr`: its buffered write, else
  // the value it first read (Algorithm 4 lines 2-5); null for a fresh word.
  // Valid until the next table insert. Elastic-read records no first
  // reads, so there it is the buffered write alone.
  const uint64_t* KnownValue(uint64_t addr);
  // The unlocked read Tx::Peek and elastic-read share: KnownValue if the
  // attempt has one, else a timed load of shared memory. `poll` polls the
  // inbox before the load, as elastic-read does; *loaded says whether the
  // value came from shared memory.
  uint64_t LoadUnlocked(uint64_t addr, bool poll, bool* loaded);
  uint64_t ReadNormal(uint64_t addr, bool elastic_early);
  uint64_t ReadElasticValidated(uint64_t addr);
  void ValidateWindowOrAbort();

  void BeginAttempt();
  [[noreturn]] void AbortSelf(ConflictKind reason);
  // Durability (dedicated deployment only): after the write-back persist
  // and before releasing the write locks, ships the persisted (addr,
  // value) pairs to each owner partition's service as one kCommitLog and
  // waits for every kCommitLogAck. Holding the locks across the wait makes
  // per-address record order equal persist order.
  void LogCommitDurable();
  void ReleaseAllLocks();
  // Polls the inbox (ServePending) and aborts if a notification or a
  // pipelined refusal is pending. Returns ServePending's verdict: true
  // when the inbox was left empty, so a poll at the same instant would
  // find nothing.
  bool CheckPendingAbort();
  // Fatal at the first transactional op after a contract violation: the
  // body swallowed Fiber::Unwound (the calling fiber is being unwound) or
  // TxAbortException (an abort is in flight for this attempt) with a
  // catch(...).
  void CheckBodyContract() const;

  // Every message a wait loop is not waiting for: abort notifications,
  // barrier tokens, ownership updates, pipelined batch replies and (in the
  // multitasked deployment) requests for the local DTM partition. The five
  // receive loops (ServePending, PrivatizationBarrier, Rpc, WaitOneReply,
  // LogCommitDurable) each keep only the message they wait for.
  void HandleInboxMessage(const Message& msg);

  // Sends a scalar lock request and waits for the kLockGranted or
  // kLockConflict response, handling everything else meanwhile.
  Message Rpc(uint32_t dst, Message request);
  void FireAndForget(uint32_t dst, Message msg);
  uint64_t WireMetric();

  // Pipelined batch acquisition. A kBatchAcquire is issued without waiting
  // for its reply; the in-flight table keyed by a per-runtime request id
  // matches interleaved replies back to their requests. At most
  // TmConfig::pipeline_depth requests are outstanding at once;
  // pipeline_depth == 1 reproduces the lockstep request/reply sequence —
  // and its statistics — bit for bit.
  struct InFlightAcquire {
    uint64_t request_id = 0;
    uint32_t node = 0;
    std::vector<uint64_t> stripes;  // the chunk, in request order
    bool is_write = false;
    bool prefetch = false;    // the stripes are marked kPrefetching
    SimTime issue_start = 0;  // local clock at issue, for acquire_time
  };

  // Stripes (or flattened commit-log pairs) bucketed by destination core,
  // with the cores that have a bucket kept in ascending order: the order
  // the messages go out in. The buckets are reused from call to call.
  struct NodeGroups {
    std::vector<std::vector<uint64_t>> by_node;  // indexed by core id
    std::vector<uint32_t> nodes;                 // ascending
    void Add(uint32_t node, uint64_t value);
    void Clear();
  };

  // Issues one chunk towards `node`. Self-addressed requests (multitasked
  // deployment) resolve synchronously at the issue position, preserving
  // the lockstep ordering; everything else enters the in-flight table.
  // `prefetch` marks the chunk's stripes kPrefetching until the reply.
  void IssueBatch(uint32_t node, const uint64_t* stripes, uint32_t len, bool is_write,
                  bool committing, bool prefetch);
  // Records a kBatchReply: the granted prefix enters the held locks
  // immediately (an abort releases it with everything else — the protocol
  // is all-or-prefix, no service-side rollback); a refusal is noted in
  // pending_refusal_ for the caller to act on.
  void CompleteBatch(const Message& rsp);
  // Blocks until one in-flight batch completes, serving the local DTM
  // partition (multitasked) and recording abort notifications meanwhile.
  void WaitOneReply();
  void DrainInFlight();
  // Blocks until the prefetch covering `stripe` (if any) has resolved.
  void WaitForStripe(uint64_t stripe);
  // Queues in groups_ the lock units of `addrs` that a read still needs:
  // one with a word neither buffered nor read, held by no lock and not yet
  // queued. Each run of addresses inside one unit is resolved with one
  // StripeOf/LockBytesOf. A ReadMany (`prefetch` false) first waits for a
  // unit's prefetch in flight; a Prefetch skips such a unit.
  void QueueUnreadUnits(const std::vector<uint64_t>& addrs, bool prefetch);
  // Clears the kQueued marks of everything in groups_.
  void UnmarkQueued();
  // Issues every group in groups_ in chunks of max_batch, up to
  // pipeline_depth in flight, stopping once a refusal is pending.
  // Owner-local groups take the fast path (LocalAcquireSpanOrAbort)
  // instead of the wire.
  void IssueGroups(bool is_write, bool committing, bool prefetch);
  // Acquires every group in groups_: all chunks are issued before any
  // reply is awaited, then the in-flight table is drained and the first
  // refusal aborts.
  void AcquireGroupsOrAbort(bool is_write, bool committing);

  // Owner-local fast path: this core is the responsible node for the
  // stripe and TmConfig::local_fast_path is on — call the local service
  // directly (DtmService::AcquireSpanDirect: the wire entries' acquisition
  // sequence, zero messages).
  bool LocalFastPathEligible(uint32_t node) const;
  void LocalAcquireSpanOrAbort(const uint64_t* stripes, uint32_t n, bool is_write,
                               bool committing);
  // Scalar acquisition (fast path, or a kReadLockReq/kWriteLockReq round
  // trip); records the stripe among the held locks or aborts.
  void AcquireOneOrAbort(uint64_t stripe, bool is_write, bool committing);
  // The one place granted stripes become held locks.
  void NoteGranted(const uint64_t* stripes, size_t n, bool is_write);
  // Records the value the attempt read at `addr`.
  void NoteRead(uint64_t addr, uint64_t value);
  // Groups the still-held stripes of `order` (those carrying `flag`) into
  // `groups` by responsible node, each group sorted, and drops the flags.
  void GroupHeld(std::vector<uint64_t>& order, uint32_t flag, NodeGroups& groups);

  CoreEnv& env_;
  TmConfig config_;
  AddressMap map_;
  DtmService* local_service_;
  Rng backoff_rng_;

  // Per-attempt state. table_ holds, per word address, the buffered write
  // and the value first read and, per lock unit, the locks held and the
  // prefetch in flight (see attempt_table.h); BeginAttempt clears it in
  // O(1) and its slots are reused by every attempt.
  uint64_t current_epoch_ = 0;
  bool in_tx_ = false;
  bool abort_thrown_ = false;  // a TxAbortException is in flight for this attempt
  bool pending_abort_ = false;
  ConflictKind pending_abort_kind_ = ConflictKind::kNone;
  SimTime attempt_start_local_ = 0;
  SimTime tx_start_local_ = 0;  // fixed across retries (Offset-Greedy rule a)
  AttemptTable table_;
  std::vector<uint64_t> write_order_;       // written addresses, first-write order
  std::vector<uint64_t> write_lock_order_;  // write-lock grants, in grant order
  // Read-lock grants in grant order. A unit released early and taken
  // again appears twice; the table's kReadLocked says which are held.
  std::vector<uint64_t> read_lock_order_;
  size_t elastic_oldest_ = 0;  // elastic-early: first read_lock_order_ entry in the window
  std::deque<std::pair<uint64_t, uint64_t>> validation_window_;  // elastic-read
  // elastic-early: addresses whose stripe's read lock was early-released,
  // with the value read under the lock. A later write to one of these
  // re-acquires the lock and validates the value (the write depends on
  // that read).
  std::unordered_map<uint64_t, uint64_t> early_released_values_;
  // elastic-read: last value read per address, for commit-time validation
  // of written locations.
  std::unordered_map<uint64_t, uint64_t> elastic_read_values_;

  // Per-node buffers: groups_ for the acquisition or commit-log message
  // being built, the release pair for ReleaseAllLocks, which AbortSelf may
  // run while groups_ is being issued.
  NodeGroups groups_;
  NodeGroups release_writes_;
  NodeGroups release_reads_;

  // Pipelined-acquisition state. The request id counter spans attempts (a
  // stale reply can never match a live request: every abort path drains
  // the in-flight table before releasing locks); pending_refusal_ holds
  // the first refusal observed by a completion until an abort consumes it.
  // inflight_[0, inflight_count_) are the outstanding batches; the slots
  // past them keep their buffers for the next issue.
  uint64_t next_request_id_ = 0;
  std::vector<InFlightAcquire> inflight_;
  size_t inflight_count_ = 0;
  ConflictKind pending_refusal_ = ConflictKind::kNone;

  // Privatization barrier state: generation counter and early arrivals
  // from cores already in a later generation.
  uint64_t barrier_generation_ = 0;
  std::unordered_map<uint64_t, uint32_t> barrier_arrivals_;

  // Per-core CM metrics.
  uint64_t attempt_counter_ = 0;
  uint64_t commits_count_ = 0;        // Wholly priority
  SimTime effective_tx_time_ = 0;     // FairCM priority
  uint64_t consecutive_aborts_ = 0;   // Back-off-Retry state

  TxTraceSink* trace_ = nullptr;
  TxStats stats_;
};

inline uint64_t Tx::Read(uint64_t addr) { return rt_->TxRead(addr); }
inline void Tx::Write(uint64_t addr, uint64_t value) { rt_->TxWrite(addr, value); }
inline std::vector<uint64_t> Tx::ReadMany(const std::vector<uint64_t>& addrs) {
  return rt_->TxReadMany(addrs);
}
inline void Tx::Prefetch(const std::vector<uint64_t>& addrs) { rt_->TxPrefetch(addrs); }
inline uint64_t Tx::Peek(uint64_t addr) { return rt_->TxPeek(addr); }

}  // namespace tm2c

#endif  // TM2C_SRC_TM_TX_RUNTIME_H_
