#include "src/tm/tx_runtime.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/sim/fiber.h"

namespace tm2c {

TxRuntime::TxRuntime(CoreEnv& env, const TmConfig& config, const AddressMap& map,
                     DtmService* local_service)
    : env_(env),
      config_(config),
      map_(map),
      local_service_(local_service),
      backoff_rng_(0x5bd1e995u * (env.core_id() + 1)) {
  TM2C_CHECK_MSG(config_.abort_status_base != TmConfig::kNoAbortStatus,
                 "TxRuntime needs the abort-status words (TmSystem allocates them)");
  if (local_service_ != nullptr) {
    local_service_->SetLocalAbortSink([this](uint64_t epoch, ConflictKind kind) {
      if (in_tx_ && epoch == current_epoch_) {
        pending_abort_ = true;
        pending_abort_kind_ = kind;
      }
    });
  }
}

void TxRuntime::Execute(const std::function<void(Tx&)>& body) {
  const bool committed = TryExecute(body, UINT64_MAX);
  TM2C_CHECK(committed);
}

bool TxRuntime::TryExecute(const std::function<void(Tx&)>& body, uint64_t max_attempts) {
  TM2C_CHECK_MSG(!in_tx_, "nested transactions are not supported");
  tx_start_local_ = env_.LocalNow();  // fixed for the whole lifespan (rule a)
  uint64_t attempts = 0;
  for (;;) {
    BeginAttempt();
    ++attempts;
    Tx tx(this);
    try {
      body(tx);
      // An abort was thrown through the body but the body returned anyway:
      // application code swallowed TxAbortException with a catch-all, which
      // breaks the retry protocol (locks are already released, the body's
      // view is stale). This is a programming error, not a recoverable
      // condition.
      TM2C_CHECK_MSG(!abort_thrown_,
                     "transaction body swallowed TxAbortException (catch(...) in a tx body?)");
      TxCommit();
      in_tx_ = false;
      ++stats_.commits;
      stats_.busy_time += env_.LocalNow() - attempt_start_local_;
      if (attempts > stats_.max_attempts_per_tx) {
        stats_.max_attempts_per_tx = attempts;
      }
      // CM bookkeeping: Wholly counts commits; FairCM accumulates only the
      // successful attempt's duration (the "effective" transactional time).
      ++commits_count_;
      effective_tx_time_ += env_.LocalNow() - attempt_start_local_;
      consecutive_aborts_ = 0;
      return true;
    } catch (const TxAbortException& abort) {
      abort_thrown_ = false;
      in_tx_ = false;
      ++stats_.aborts;
      ++consecutive_aborts_;
      if (attempts >= max_attempts) {
        return false;
      }
      if (abort.reason == ConflictKind::kMigrating) {
        // A drain window or a stale route refused us: back off past the
        // expected drain latency regardless of the CM — an instant retry
        // would only be refused again by the same window, and a longer
        // wait would idle the core through the whole migration.
        constexpr uint64_t kMigrateBackoffCycles = 4000;
        env_.Compute(backoff_rng_.NextBelow(kMigrateBackoffCycles) + 1);
      } else if (abort.reason == ConflictKind::kOverload) {
        // Admission control shed us: give the service's inbox time to
        // drain below the high-water mark before offering the load again
        // (longer than the migration back-off: the queue must drain).
        constexpr uint64_t kOverloadBackoffCycles = 8000;
        env_.Compute(backoff_rng_.NextBelow(kOverloadBackoffCycles) + 1);
      } else if (config_.cm == CmKind::kBackoffRetry) {
        // Randomized exponential back-off before the retry (Section 4.2):
        // uniform in [0, bound) cycles, the bound doubling per consecutive
        // abort up to the cap.
        constexpr uint64_t kBackoffInitialCycles = 2000;
        constexpr uint64_t kBackoffMaxCycles = 1 << 20;
        const uint64_t shift = std::min<uint64_t>(consecutive_aborts_ - 1, 16);
        const uint64_t bound = std::min(kBackoffInitialCycles << shift, kBackoffMaxCycles);
        env_.Compute(backoff_rng_.NextBelow(bound) + 1);
      }
    }
  }
}

void TxRuntime::BeginAttempt() {
  ServePending();
  // Every path out of an attempt (commit, abort, TryExecute giving up)
  // drains the in-flight table first; a request still outstanding here
  // would mean a reply could be matched against the wrong attempt's locks.
  TM2C_CHECK_MSG(inflight_count_ == 0, "in-flight acquisitions leaked across attempts");
  pending_refusal_ = ConflictKind::kNone;
  ++attempt_counter_;
  current_epoch_ = (static_cast<uint64_t>(env_.core_id()) << 32) | attempt_counter_;
  abort_thrown_ = false;
  pending_abort_ = false;
  pending_abort_kind_ = ConflictKind::kNone;
  table_.Clear();
  write_order_.clear();
  write_lock_order_.clear();
  read_lock_order_.clear();
  elastic_oldest_ = 0;
  validation_window_.clear();
  elastic_read_values_.clear();
  early_released_values_.clear();
  attempt_start_local_ = env_.LocalNow();
  in_tx_ = true;
  if (trace_ != nullptr) {
    trace_->OnTxBegin(env_.core_id(), current_epoch_, env_.GlobalNow());
  }
}

void TxRuntime::CheckBodyContract() const {
  const Fiber* fiber = Fiber::Current();
  TM2C_CHECK_MSG(fiber == nullptr || !fiber->unwinding(),
                 "transaction body swallowed Fiber::Unwound (catch(...) in a tx body?)");
  TM2C_CHECK_MSG(!abort_thrown_,
                 "transaction body swallowed TxAbortException (catch(...) in a tx body?)");
}

bool TxRuntime::ServePending() {
  // Bounded slice: under closed-loop retries (every refusal this core
  // serves immediately triggers the sender's next request) the inbox can
  // refill as fast as it drains, and an unbounded drain would wedge a
  // mid-commit transaction into serving forever. A bounded slice lets the
  // commit proceed; missed abort notifications are covered by the
  // shared-memory status word checked at the persist instant.
  Message msg;
  for (int budget = 128; budget > 0; --budget) {
    if (!env_.TryRecv(&msg)) {
      return true;
    }
    HandleInboxMessage(msg);
  }
  return false;
}

void TxRuntime::HandleInboxMessage(const Message& msg) {
  switch (msg.type) {
    case MsgType::kAbortNotify:
      // Only the running attempt's notification counts; anything else is
      // stale (a finished attempt).
      if (in_tx_ && msg.w1 == current_epoch_) {
        pending_abort_ = true;
        pending_abort_kind_ = static_cast<ConflictKind>(msg.w2);
      }
      return;
    case MsgType::kBarrier:
      // A peer reached a privatization barrier, perhaps one this core has
      // not entered yet; remember its token for when it does.
      ++barrier_arrivals_[msg.w0];
      return;
    case MsgType::kOwnershipUpdate:
      // A stripe range changed owner. The directory is shared, so the next
      // routing lookup already sees the flip; just count the notification.
      ++stats_.ownership_updates;
      return;
    case MsgType::kBatchReply:
      // A pipelined batch resolving while this core waits for something
      // else or does local work: record the grants (or the refusal) now.
      CompleteBatch(msg);
      return;
    default:
      break;
  }
  if (local_service_ != nullptr) {
    env_.ChargeModelled(config_.multitask_switch_cycles);  // coroutine switch
    if (local_service_->HandleMessage(msg)) {
      return;  // multitasked deployment: served a DTM request (Figure 2)
    }
  }
  TM2C_FATAL("unexpected message in application inbox");
}

void TxRuntime::RequestMigration(uint64_t base, uint64_t bytes, uint32_t target_partition) {
  TM2C_CHECK_MSG(!in_tx_, "RequestMigration inside a transaction");
  const uint32_t owner_core = map_.ResponsibleCore(base);
  Message msg;
  msg.type = MsgType::kMigrateRange;
  msg.w0 = base;
  msg.w1 = bytes;
  msg.w2 = target_partition;
  FireAndForget(owner_core, std::move(msg));
}

void TxRuntime::PrivatizationBarrier() {
  TM2C_CHECK_MSG(!in_tx_, "PrivatizationBarrier inside a transaction");
  const DeploymentPlan& plan = env_.plan();
  ++barrier_generation_;
  const uint64_t generation = barrier_generation_;
  // Announce arrival to every other application core.
  for (uint32_t core : plan.app_cores()) {
    if (core == env_.core_id()) {
      continue;
    }
    Message msg;
    msg.type = MsgType::kBarrier;
    msg.w0 = generation;
    env_.Send(core, std::move(msg));
    ++stats_.messages_sent;
  }
  // Wait for everyone. A peer that races ahead may already send generation
  // g+1 tokens while we still collect g; those are buffered, never lost.
  const uint32_t needed = plan.num_app() - 1;
  while (barrier_arrivals_[generation] < needed) {
    HandleInboxMessage(env_.Recv());
  }
  barrier_arrivals_.erase(generation);
}

bool TxRuntime::CheckPendingAbort() {
  // Drain the inbox first: an abort notification may have been delivered
  // while this core was busy with local work (in particular, serving its
  // own partition synchronously under the multitasked deployment never
  // touches the inbox). TryRecv on an empty inbox is free.
  const bool drained = ServePending();
  if (pending_abort_) {
    ++stats_.notify_aborts;
    AbortSelf(pending_abort_kind_);
  }
  if (pending_refusal_ != ConflictKind::kNone) {
    // A pipelined (prefetch) batch was refused while this core was busy
    // elsewhere; the refusal aborts at the next transactional operation.
    const ConflictKind kind = pending_refusal_;
    pending_refusal_ = ConflictKind::kNone;
    AbortSelf(kind);
  }
  return drained;
}

uint64_t TxRuntime::WireMetric() {
  switch (config_.cm) {
    case CmKind::kOffsetGreedy: {
      // Offset since transaction start, on this core's clock (step 1-2 of
      // Section 4.3).
      const SimTime now = env_.LocalNow();
      return now > tx_start_local_ ? now - tx_start_local_ : 0;
    }
    case CmKind::kWholly:
      return commits_count_;
    case CmKind::kFairCm:
      return effective_tx_time_;
    case CmKind::kNone:
    case CmKind::kBackoffRetry:
      return 0;
  }
  return 0;
}

Message TxRuntime::Rpc(uint32_t dst, Message request) {
  ++stats_.messages_sent;
  if (dst == env_.core_id()) {
    // Multitasked deployment: this core is its own responsible node.
    TM2C_CHECK_MSG(local_service_ != nullptr, "self-addressed request without a local service");
    request.src = env_.core_id();
    env_.ChargeModelled(config_.multitask_switch_cycles);  // coroutine switch
    return local_service_->HandleLocal(request);
  }
  env_.Send(dst, std::move(request));
  for (;;) {
    Message msg = env_.Recv();
    if (msg.type == MsgType::kLockGranted || msg.type == MsgType::kLockConflict) {
      return msg;
    }
    HandleInboxMessage(msg);
  }
}

void TxRuntime::IssueBatch(uint32_t node, const uint64_t* stripes, uint32_t len, bool is_write,
                           bool committing, bool prefetch) {
  const SimTime issue_start = env_.LocalNow();
  const uint64_t request_id = next_request_id_++;
  Message req;
  req.type = MsgType::kBatchAcquire;
  req.w0 = (committing ? kBatchFlagCommit : 0) | (request_id << kBatchReqIdShift);
  req.w1 = current_epoch_;
  req.w2 = WireMetric();
  req.w3 = is_write ? PrefixBitmap(len) : 0;
  req.extra.assign(stripes, stripes + len);
  ++stats_.batch_messages;
  ++stats_.messages_sent;
  // Depth at issue counts this request itself; depth 1 (lockstep) lands
  // every batch in bucket 0.
  const size_t depth = inflight_count_ + 1;
  ++stats_.inflight_depth_hist[std::min<size_t>(depth, stats_.inflight_depth_hist.size()) - 1];
  if (trace_ != nullptr) {
    trace_->OnAcquireIssue(env_.core_id(), request_id, node, len, is_write);
  }
  if (inflight_count_ == inflight_.size()) {
    inflight_.emplace_back();
  }
  InFlightAcquire& fl = inflight_[inflight_count_++];
  fl.request_id = request_id;
  fl.node = node;
  fl.stripes.assign(stripes, stripes + len);
  fl.is_write = is_write;
  fl.prefetch = prefetch;
  fl.issue_start = issue_start;
  if (prefetch) {
    // Marked before issuing: a self-addressed chunk resolves right below,
    // and its CompleteBatch must find (and clear) the marks.
    for (uint32_t i = 0; i < len; ++i) {
      table_.Insert(stripes[i]).flags |= AttemptTable::kPrefetching;
    }
  }
  if (node == env_.core_id()) {
    // Multitasked deployment: this core is its own responsible node. The
    // request resolves synchronously at the issue position — exactly the
    // lockstep ordering — so it spends no time in the in-flight table.
    TM2C_CHECK_MSG(local_service_ != nullptr, "self-addressed request without a local service");
    req.src = env_.core_id();
    env_.ChargeModelled(config_.multitask_switch_cycles);  // coroutine switch
    CompleteBatch(local_service_->HandleLocal(std::move(req)));
    return;
  }
  env_.Send(node, std::move(req));
}

void TxRuntime::CompleteBatch(const Message& rsp) {
  const uint64_t request_id = rsp.w3 >> kBatchReqIdShift;
  size_t slot = 0;
  while (slot < inflight_count_ && inflight_[slot].request_id != request_id) {
    ++slot;
  }
  TM2C_CHECK_MSG(slot < inflight_count_, "batch reply with no matching in-flight request");
  InFlightAcquire& fl = inflight_[slot];
  const size_t len = fl.stripes.size();
  const auto granted = static_cast<size_t>(rsp.w3 & kBatchReqIdMask);
  TM2C_DCHECK(granted <= len);
  NoteGranted(fl.stripes.data(), granted, fl.is_write);
  // Per-request acquire latency: overlapped requests each charge their full
  // issue-to-completion interval (the per-request mean is the pipelining
  // metric; wall time is tracked by busy_time).
  stats_.acquire_time += env_.LocalNow() - fl.issue_start;
  stats_.lock_acquires += len;
  stats_.remote_acquires += len;
  if (fl.prefetch) {
    for (uint64_t stripe : fl.stripes) {
      table_.Find(stripe)->flags &= ~AttemptTable::kPrefetching;
    }
  }
  // Retire the slot: the last outstanding one moves into its place, and
  // the retired one's buffer waits past the end for the next issue.
  if (slot != --inflight_count_) {
    std::swap(fl, inflight_[inflight_count_]);
  }
  const auto kind = static_cast<ConflictKind>(rsp.w2);
  if (trace_ != nullptr) {
    trace_->OnAcquireComplete(env_.core_id(), request_id, static_cast<uint32_t>(granted),
                              granted < len ? kind : ConflictKind::kNone);
  }
  if (granted < len) {
    // The runtime routes with the same AddressMap the service validates
    // against, so a refusal always carries a conflict kind; a kind-less
    // refusal means a misrouted entry (map mismatch) and retrying the
    // identical batch would livelock silently.
    TM2C_CHECK_MSG(kind != ConflictKind::kNone,
                   "batch refused without a conflict kind: runtime/service AddressMap mismatch");
    if (pending_refusal_ == ConflictKind::kNone) {
      pending_refusal_ = kind;  // first refusal names the abort reason
    }
  }
}

void TxRuntime::WaitOneReply() {
  TM2C_CHECK_MSG(inflight_count_ > 0, "waiting for a batch reply with none outstanding");
  for (;;) {
    const Message msg = env_.Recv();
    HandleInboxMessage(msg);  // a kBatchReply goes to CompleteBatch there
    if (msg.type == MsgType::kBatchReply) {
      return;
    }
  }
}

void TxRuntime::DrainInFlight() {
  while (inflight_count_ > 0) {
    WaitOneReply();
  }
}

void TxRuntime::WaitForStripe(uint64_t stripe) {
  while ((table_.FlagsOf(stripe) & AttemptTable::kPrefetching) != 0) {
    WaitOneReply();
  }
}

bool TxRuntime::LocalFastPathEligible(uint32_t node) const {
  return config_.local_fast_path && local_service_ != nullptr && node == env_.core_id();
}

void TxRuntime::LocalAcquireSpanOrAbort(const uint64_t* stripes, uint32_t n, bool is_write,
                                        bool committing) {
  const SimTime start = env_.LocalNow();
  const uint64_t request_id = next_request_id_++;
  if (trace_ != nullptr) {
    trace_->OnAcquireIssue(env_.core_id(), request_id, env_.core_id(), n, is_write);
  }
  const DtmService::AcquireOutcome out = local_service_->AcquireSpanDirect(
      current_epoch_, WireMetric(), stripes, n, is_write, committing);
  NoteGranted(stripes, out.granted, is_write);
  stats_.acquire_time += env_.LocalNow() - start;
  stats_.lock_acquires += n;
  stats_.local_acquires += n;
  if (trace_ != nullptr) {
    trace_->OnAcquireComplete(env_.core_id(), request_id, out.granted,
                              out.granted < n ? out.refused : ConflictKind::kNone);
  }
  if (out.granted < n) {
    TM2C_CHECK_MSG(out.refused != ConflictKind::kNone,
                   "local span refused without a conflict kind");
    AbortSelf(out.refused);
  }
}

void TxRuntime::IssueGroups(bool is_write, bool committing, bool prefetch) {
  for (uint32_t node : groups_.nodes) {
    if (pending_refusal_ != ConflictKind::kNone) {
      break;  // doomed: stop issuing
    }
    const std::vector<uint64_t>& stripes = groups_.by_node[node];
    if (LocalFastPathEligible(node)) {
      // Zero-message span acquisition: no 64-entry cap, one service call.
      LocalAcquireSpanOrAbort(stripes.data(), static_cast<uint32_t>(stripes.size()), is_write,
                              committing);
      continue;
    }
    for (size_t pos = 0; pos < stripes.size(); pos += config_.max_batch) {
      while (inflight_count_ >= config_.pipeline_depth &&
             pending_refusal_ == ConflictKind::kNone) {
        WaitOneReply();
      }
      if (pending_refusal_ != ConflictKind::kNone) {
        break;
      }
      const size_t len = std::min<size_t>(config_.max_batch, stripes.size() - pos);
      IssueBatch(node, stripes.data() + pos, static_cast<uint32_t>(len), is_write, committing,
                 prefetch);
    }
  }
}

void TxRuntime::AcquireGroupsOrAbort(bool is_write, bool committing) {
  IssueGroups(is_write, committing, /*prefetch=*/false);
  // Every reply must land before the refusal takes effect: a late grant
  // belongs to the held locks so the abort (or commit) path releases it.
  DrainInFlight();
  if (pending_refusal_ != ConflictKind::kNone) {
    const ConflictKind kind = pending_refusal_;
    pending_refusal_ = ConflictKind::kNone;
    AbortSelf(kind);
  }
}

void TxRuntime::AcquireOneOrAbort(uint64_t stripe, bool is_write, bool committing) {
  const uint32_t node = map_.ResponsibleCore(stripe);
  if (LocalFastPathEligible(node)) {
    LocalAcquireSpanOrAbort(&stripe, 1, is_write, committing);
    return;
  }
  Message req;
  req.type = is_write ? MsgType::kWriteLockReq : MsgType::kReadLockReq;
  req.w0 = stripe;
  req.w1 = current_epoch_;
  req.w2 = WireMetric();
  req.w3 = committing ? 1 : 0;
  const SimTime start = env_.LocalNow();
  const Message rsp = Rpc(node, std::move(req));
  stats_.acquire_time += env_.LocalNow() - start;
  ++stats_.lock_acquires;
  ++stats_.remote_acquires;
  if (rsp.type == MsgType::kLockConflict) {
    AbortSelf(static_cast<ConflictKind>(rsp.w2));
  }
  NoteGranted(&stripe, 1, is_write);
}

void TxRuntime::NoteGranted(const uint64_t* stripes, size_t n, bool is_write) {
  const uint32_t flag = is_write ? AttemptTable::kWriteLocked : AttemptTable::kReadLocked;
  std::vector<uint64_t>& order = is_write ? write_lock_order_ : read_lock_order_;
  for (size_t i = 0; i < n; ++i) {
    AttemptTable::Entry& entry = table_.Insert(stripes[i]);
    if ((entry.flags & flag) == 0) {
      entry.flags |= flag;
      order.push_back(stripes[i]);
    }
  }
}

void TxRuntime::NoteRead(uint64_t addr, uint64_t value) {
  AttemptTable::Entry& entry = table_.Insert(addr);
  entry.read = value;
  entry.flags |= AttemptTable::kRead;
}

void TxRuntime::NodeGroups::Add(uint32_t node, uint64_t value) {
  if (node >= by_node.size()) {
    by_node.resize(node + 1);
  }
  std::vector<uint64_t>& group = by_node[node];
  if (group.empty()) {
    nodes.insert(std::upper_bound(nodes.begin(), nodes.end(), node), node);
  }
  group.push_back(value);
}

void TxRuntime::NodeGroups::Clear() {
  for (uint32_t node : nodes) {
    by_node[node].clear();
  }
  nodes.clear();
}

void TxRuntime::QueueUnreadUnits(const std::vector<uint64_t>& addrs, bool prefetch) {
  groups_.Clear();
  for (size_t i = 0; i < addrs.size();) {
    const uint64_t unit = map_.StripeOf(addrs[i]);
    const uint64_t unit_end = unit + map_.LockBytesOf(unit);
    // The run of addresses inside the unit needs its lock only if it reads
    // a word afresh: neither buffered nor read before.
    bool fresh = false;
    for (; i < addrs.size() && addrs[i] >= unit && addrs[i] < unit_end; ++i) {
      TM2C_DCHECK(addrs[i] % kWordBytes == 0);
      fresh = fresh ||
              (table_.FlagsOf(addrs[i]) & (AttemptTable::kWritten | AttemptTable::kRead)) == 0;
    }
    if (!fresh) {
      continue;
    }
    if ((table_.FlagsOf(unit) & AttemptTable::kPrefetching) != 0) {
      if (prefetch) {
        continue;  // its lock is on its way
      }
      WaitForStripe(unit);  // the prefetched lock is about to land
    }
    constexpr uint32_t kHeldOrQueued =
        AttemptTable::kReadLocked | AttemptTable::kWriteLocked | AttemptTable::kQueued;
    if ((table_.FlagsOf(unit) & kHeldOrQueued) != 0) {
      continue;
    }
    table_.Insert(unit).flags |= AttemptTable::kQueued;
    groups_.Add(map_.ResponsibleCore(unit), unit);
  }
  UnmarkQueued();
}

void TxRuntime::UnmarkQueued() {
  for (uint32_t node : groups_.nodes) {
    for (uint64_t stripe : groups_.by_node[node]) {
      table_.Find(stripe)->flags &= ~AttemptTable::kQueued;
    }
  }
}

void TxRuntime::TxPrefetch(const std::vector<uint64_t>& addrs) {
  CheckBodyContract();
  TM2C_CHECK_MSG(in_tx_, "tx.Prefetch outside a transaction");
  // Scalar wire semantics have nothing to overlap, and the elastic modes
  // keep their per-read window behaviour: both degrade to a no-op
  // (Prefetch is a hint, never required for correctness).
  if (config_.tx_mode != TxMode::kNormal || config_.max_batch <= 1) {
    return;
  }
  CheckPendingAbort();
  QueueUnreadUnits(addrs, /*prefetch=*/true);
  // A refusal (or an already doomed attempt) surfaces at the next
  // transactional op.
  IssueGroups(/*is_write=*/false, /*committing=*/false, /*prefetch=*/true);
  // Lockstep configurations get the synchronous ReadMany-style acquisition
  // without the reads; a refusal surfaces at the next transactional op.
  if (config_.pipeline_depth == 1) {
    DrainInFlight();
  }
}

void TxRuntime::FireAndForget(uint32_t dst, Message msg) {
  ++stats_.messages_sent;
  if (dst == env_.core_id()) {
    TM2C_CHECK_MSG(local_service_ != nullptr, "self-addressed release without a local service");
    msg.src = env_.core_id();
    env_.ChargeModelled(config_.multitask_switch_cycles);  // coroutine switch
    local_service_->HandleLocal(std::move(msg));
    return;
  }
  env_.Send(dst, std::move(msg));
}

uint64_t TxRuntime::TxRead(uint64_t addr) {
  CheckBodyContract();
  TM2C_CHECK_MSG(in_tx_, "tx.Read outside a transaction");
  TM2C_DCHECK(addr % kWordBytes == 0);
  ++stats_.reads;
  switch (config_.tx_mode) {
    case TxMode::kNormal:
      return ReadNormal(addr, /*elastic_early=*/false);
    case TxMode::kElasticEarly:
      return ReadNormal(addr, /*elastic_early=*/true);
    case TxMode::kElasticRead:
      return ReadElasticValidated(addr);
  }
  TM2C_FATAL("bad tx mode");
}

std::vector<uint64_t> TxRuntime::TxReadMany(const std::vector<uint64_t>& addrs) {
  CheckBodyContract();
  TM2C_CHECK_MSG(in_tx_, "tx.ReadMany outside a transaction");
  std::vector<uint64_t> values;
  values.reserve(addrs.size());
  // The elastic modes keep their per-read window semantics (batching the
  // acquisitions would change which reads are protected when), and
  // max_batch == 1 means the batch protocol is off: both fall back to the
  // scalar path, read by read.
  if (config_.tx_mode != TxMode::kNormal || config_.max_batch <= 1) {
    for (uint64_t addr : addrs) {
      values.push_back(TxRead(addr));
    }
    return values;
  }
  stats_.reads += addrs.size();
  CheckPendingAbort();
  QueueUnreadUnits(addrs, /*prefetch=*/false);
  AcquireGroupsOrAbort(/*is_write=*/false, /*committing=*/false);
  // Every lock is held, so the reads below send no messages. A fresh word
  // is read from shared memory with an inbox poll after it, as in
  // ReadNormal; the poll ReadNormal makes before it is made only while the
  // previous one left something in the inbox, for it would run at the
  // same instant and find nothing.
  bool inbox_empty = false;
  for (uint64_t addr : addrs) {
    if (const uint64_t* known = KnownValue(addr)) {
      values.push_back(*known);
      continue;
    }
    if (!inbox_empty) {
      CheckPendingAbort();
    }
    const uint64_t value = env_.ShmemRead(addr);
    if (trace_ != nullptr) {
      trace_->OnTxRead(env_.core_id(), addr, value);
    }
    NoteRead(addr, value);
    inbox_empty = CheckPendingAbort();
    values.push_back(value);
  }
  return values;
}

const uint64_t* TxRuntime::KnownValue(uint64_t addr) {
  const AttemptTable::Entry* entry = table_.Find(addr);
  if (entry == nullptr) {
    return nullptr;
  }
  if ((entry->flags & AttemptTable::kWritten) != 0) {
    return &entry->written;
  }
  return (entry->flags & AttemptTable::kRead) != 0 ? &entry->read : nullptr;
}

uint64_t TxRuntime::ReadNormal(uint64_t addr, bool elastic_early) {
  if (const uint64_t* known = KnownValue(addr)) {
    return *known;
  }
  CheckPendingAbort();

  const uint64_t stripe = map_.StripeOf(addr);
  if ((table_.FlagsOf(stripe) & AttemptTable::kPrefetching) != 0) {
    // The stripe's lock is already on its way: wait for that reply instead
    // of issuing a second request (a refused prefetch aborts right here).
    WaitForStripe(stripe);
    CheckPendingAbort();
  }
  // FaultMode::kSkipReadLock (verification only): perform the read without
  // the visible-read lock, exactly the invisible-read bug the oracle must
  // catch.
  if (config_.fault != FaultMode::kSkipReadLock &&
      (table_.FlagsOf(stripe) & (AttemptTable::kReadLocked | AttemptTable::kWriteLocked)) == 0) {
    AcquireOneOrAbort(stripe, /*is_write=*/false, /*committing=*/false);

    if (elastic_early) {
      // Elastic-early (Section 6.1): keep only the trailing window of read
      // locks; anything older is released with an extra message.
      while (read_lock_order_.size() - elastic_oldest_ > config_.elastic_window) {
        const uint64_t oldest = read_lock_order_[elastic_oldest_++];
        const uint64_t oldest_end = oldest + map_.LockBytesOf(oldest);
        bool written = false;
        for (uint64_t a = oldest; a < oldest_end && !written; a += kWordBytes) {
          written = (table_.FlagsOf(a) & AttemptTable::kWritten) != 0;
        }
        if (oldest == stripe || written) {
          continue;  // still needed: just acquired, or will be written
        }
        // The values are no longer protected: remember them in case a
        // later write depends on one (see TxWrite below), and forget the
        // unit. No word of it is written, so its entries hold nothing but
        // the read lock and the values read.
        for (uint64_t a = oldest; a < oldest_end; a += kWordBytes) {
          const AttemptTable::Entry* entry = table_.Find(a);
          if (entry != nullptr && (entry->flags & AttemptTable::kRead) != 0) {
            early_released_values_[a] = entry->read;
          }
          table_.Erase(a);
        }
        Message rel;
        rel.type = MsgType::kEarlyReadRelease;
        rel.w0 = oldest;
        rel.w1 = current_epoch_;
        FireAndForget(map_.ResponsibleCore(oldest), std::move(rel));
        ++stats_.early_releases;
      }
    }
  }

  const uint64_t value = env_.ShmemRead(addr);
  if (trace_ != nullptr) {
    trace_->OnTxRead(env_.core_id(), addr, value);
  }
  NoteRead(addr, value);
  CheckPendingAbort();
  return value;
}

uint64_t TxRuntime::LoadUnlocked(uint64_t addr, bool poll, bool* loaded) {
  const uint64_t* known = KnownValue(addr);
  *loaded = known == nullptr;
  if (known != nullptr) {
    return *known;
  }
  if (poll) {
    CheckPendingAbort();
  }
  return env_.ShmemRead(addr);
}

uint64_t TxRuntime::TxPeek(uint64_t addr) {
  CheckBodyContract();
  TM2C_CHECK_MSG(in_tx_, "tx.Peek outside a transaction");
  TM2C_DCHECK(addr % kWordBytes == 0);
  bool loaded = false;
  return LoadUnlocked(addr, /*poll=*/false, &loaded);
}

uint64_t TxRuntime::ReadElasticValidated(uint64_t addr) {
  bool loaded = false;
  const uint64_t value = LoadUnlocked(addr, /*poll=*/true, &loaded);
  if (!loaded) {
    return value;  // the attempt's own buffered write
  }
  if (trace_ != nullptr) {
    trace_->OnTxRead(env_.core_id(), addr, value);
  }
  // Elastic-read (Section 6.1): after stepping to the next node, re-read
  // the trailing window and abort if any value changed under us.
  ValidateWindowOrAbort();
  validation_window_.emplace_back(addr, value);
  while (validation_window_.size() > config_.elastic_window) {
    validation_window_.pop_front();
  }
  // Also remember the value for commit-time validation: a location that
  // this transaction read and will overwrite must not have changed, or the
  // write would be based on a stale view (e.g. unlinking through a prev
  // pointer that a concurrent insert has since redirected).
  elastic_read_values_[addr] = value;
  return value;
}

void TxRuntime::ValidateWindowOrAbort() {
  for (const auto& [addr, value] : validation_window_) {
    if (env_.ShmemRead(addr) != value) {
      ++stats_.validation_failures;
      AbortSelf(ConflictKind::kReadAfterWrite);
    }
  }
}

void TxRuntime::TxWrite(uint64_t addr, uint64_t value) {
  CheckBodyContract();
  TM2C_CHECK_MSG(in_tx_, "tx.Write outside a transaction");
  TM2C_DCHECK(addr % kWordBytes == 0);
  ++stats_.writes;
  CheckPendingAbort();
  if (config_.tx_mode == TxMode::kElasticEarly) {
    // Writing a location whose read lock was early-released: the value the
    // write was derived from has been unprotected in the meantime. Re-take
    // the read lock and validate it; a change means a concurrent
    // transaction committed underneath (e.g. an insert through the same
    // predecessor link) and this transaction must restart.
    if (auto it = early_released_values_.find(addr); it != early_released_values_.end()) {
      const uint64_t expected = it->second;
      AcquireOneOrAbort(map_.StripeOf(addr), /*is_write=*/false, /*committing=*/false);
      early_released_values_.erase(addr);
      if (env_.ShmemRead(addr) != expected) {
        ++stats_.validation_failures;
        AbortSelf(ConflictKind::kReadAfterWrite);
      }
      NoteRead(addr, expected);
    }
  }
  if (config_.write_acquire == WriteAcquire::kEager) {
    const uint64_t stripe = map_.StripeOf(addr);
    if ((table_.FlagsOf(stripe) & AttemptTable::kWriteLocked) == 0) {
      AcquireOneOrAbort(stripe, /*is_write=*/true, /*committing=*/false);
    }
  }
  // Deferred write (write-back): buffer locally, persist at commit.
  AttemptTable::Entry& entry = table_.Insert(addr);
  if ((entry.flags & AttemptTable::kWritten) == 0) {
    entry.flags |= AttemptTable::kWritten;
    write_order_.push_back(addr);
  }
  entry.written = value;
}

void TxRuntime::TxCommit() {
  // Outstanding prefetches resolve first: their grants belong to the
  // held locks before any lock is released, and a refused prefetch
  // must abort before the commit sequence starts.
  DrainInFlight();
  CheckPendingAbort();

  // Algorithm 3 lines 3-12: acquire the write locks for the buffered
  // writes (lazy acquisition; under eager mode they are already held —
  // revocations of those are caught by the abort status check below).
  if (!write_order_.empty()) {
    groups_.Clear();
    for (uint64_t addr : write_order_) {
      const uint64_t stripe = map_.StripeOf(addr);
      AttemptTable::Entry& entry = table_.Insert(stripe);
      if ((entry.flags & (AttemptTable::kWriteLocked | AttemptTable::kQueued)) != 0) {
        continue;
      }
      entry.flags |= AttemptTable::kQueued;
      groups_.Add(map_.ResponsibleCore(stripe), stripe);
    }
    UnmarkQueued();
    if (config_.max_batch <= 1) {
      // Unbatched wire behaviour: one round trip per stripe.
      for (uint32_t node : groups_.nodes) {
        for (uint64_t stripe : groups_.by_node[node]) {
          AcquireOneOrAbort(stripe, /*is_write=*/true, /*committing=*/true);
        }
      }
    } else {
      // Write-lock batching (Section 3.3): all locks a node is responsible
      // for travel in chunks of at most max_batch addresses, up to
      // pipeline_depth chunks overlapped in flight.
      AcquireGroupsOrAbort(/*is_write=*/true, /*committing=*/true);
    }
  }

  // All locks held. A revocation of one of our read locks may still be in
  // flight; this is the last point it can take effect (see DESIGN.md).
  CheckPendingAbort();
  if (config_.tx_mode == TxMode::kElasticEarly && !write_order_.empty() &&
      !early_released_values_.empty()) {
    // Elastic-early update transactions re-validate the reads whose locks
    // were released early: a structural update (unlink/insert) may depend
    // on a link deep in the released prefix (for example, the reachability
    // of the node it writes behind), and a concurrent commit there would
    // otherwise go unnoticed. Searches skip this — ignoring such false
    // conflicts is the point of elasticity.
    for (const auto& [addr, value] : early_released_values_) {
      if (env_.ShmemRead(addr) != value) {
        ++stats_.validation_failures;
        AbortSelf(ConflictKind::kReadAfterWrite);
      }
    }
  }
  if (config_.tx_mode == TxMode::kElasticRead) {
    ValidateWindowOrAbort();
    // Update transactions validate their whole read set: a structural
    // write (unlinking a node, say) depends on reads well outside the
    // sliding window — the predecessor link it rewrites, but also the
    // next-pointer it routes around, which a concurrent insert may have
    // changed without touching any address this transaction writes.
    // Read-only transactions keep the cheap window-only validation (the
    // elastic semantics for searches).
    if (!write_order_.empty()) {
      for (const auto& [addr, value] : elastic_read_values_) {
        if ((table_.FlagsOf(addr) & AttemptTable::kWritten) != 0) {
          continue;  // will be overwritten; staleness checked via its read
        }
        if (env_.ShmemRead(addr) != value) {
          ++stats_.validation_failures;
          AbortSelf(ConflictKind::kReadAfterWrite);
        }
      }
      for (uint64_t addr : write_order_) {
        auto it = elastic_read_values_.find(addr);
        if (it != elastic_read_values_.end() && env_.ShmemRead(addr) != it->second) {
          ++stats_.validation_failures;
          AbortSelf(ConflictKind::kReadAfterWrite);
        }
      }
    }
  }

  // FaultMode::kReleaseBeforePersist (verification only): give up every
  // lock first, then write back word at a time, paying (and yielding for)
  // the memory latency between words. Other transactions can lock, read
  // and overwrite the not-yet-persisted data in that window — the classic
  // broken-2PL bug the oracle must catch.
  if (config_.fault == FaultMode::kReleaseBeforePersist) {
    ReleaseAllLocks();
    for (uint64_t addr : write_order_) {
      const uint64_t value = table_.Find(addr)->written;
      env_.ShmemWrite(addr, value);
      if (trace_ != nullptr) {
        trace_->OnTxPersist(env_.core_id(), addr, value);
      }
    }
    if (trace_ != nullptr) {
      trace_->OnTxCommit(env_.core_id(), env_.GlobalNow());
    }
    return;
  }

  // Commit point. The status read and the whole write-set persist execute
  // at one simulated instant: a revocation either lands before (the status
  // word names our epoch and we abort with no writes applied) or after (we
  // are fully persisted and the revoker serializes behind us). Native
  // backends get the same atomicity from the status word's latch
  // (SharedMemory::PublishWord).
  const uint64_t status_addr = config_.abort_status_base + env_.core_id() * kWordBytes;
  (void)env_.ShmemRead(status_addr);  // pay the access latency
  const auto abort_if_revoked = [this](uint64_t status) {
    if (status == current_epoch_) {
      ++stats_.notify_aborts;
      AbortSelf(pending_abort_kind_ != ConflictKind::kNone ? pending_abort_kind_
                                                           : ConflictKind::kWriteAfterRead);
    }
  };
  // Re-read instantly after the timed access: nothing can interleave
  // between this load and the stores below (single simulated instant).
  uint64_t status = env_.shmem().LoadWord(status_addr);
  abort_if_revoked(status);
  // Elastic updates: re-validate at this same instant. The timed
  // validation above paid the cost, but a foreign commit can land
  // between it and this point (unlocked reads leave that window open);
  // the instant recheck makes validation and persist atomic. Written
  // locations are exempt: their write locks have been held since before
  // the timed validation, so nothing can have changed them since it
  // passed.
  if (config_.tx_mode == TxMode::kElasticRead && !write_order_.empty()) {
    for (const auto& [addr, value] : elastic_read_values_) {
      if ((table_.FlagsOf(addr) & AttemptTable::kWritten) == 0 &&
          env_.shmem().LoadWord(addr) != value) {
        ++stats_.validation_failures;
        AbortSelf(ConflictKind::kReadAfterWrite);
      }
    }
  }
  if (config_.tx_mode == TxMode::kElasticEarly && !write_order_.empty()) {
    for (const auto& [addr, value] : early_released_values_) {
      if (env_.shmem().LoadWord(addr) != value) {
        ++stats_.validation_failures;
        AbortSelf(ConflictKind::kReadAfterWrite);
      }
    }
  }
  // Latch the status word for the persist. On real threads a revoker's
  // publication could otherwise land after the check above and let the
  // winner read the old values before the stores below; the latch makes it
  // wait until they are visible. A failed latch means a publication landed
  // since the check: look again.
  while (!env_.shmem().CasWord(status_addr, status, SharedMemory::kLatchedWord)) {
    status = env_.shmem().LoadWord(status_addr);
    abort_if_revoked(status);
  }
  for (uint64_t addr : write_order_) {
    const uint64_t value = table_.Find(addr)->written;
    env_.shmem().StoreWord(addr, value);
    if (trace_ != nullptr) {
      trace_->OnTxPersist(env_.core_id(), addr, value);
    }
  }
  env_.shmem().StoreWord(status_addr, status);  // unlatch
  // Charge the persist time after the fact (idempotence-free: no re-store).
  env_.ChargeModelled(env_.platform().mem_latency_cycles * write_order_.size());

  // Durability: the persisted write set becomes a commit-log record on
  // every owner partition BEFORE any lock is released. The acks gate the
  // release, so the partition's record order equals its persist order.
  if (config_.durability != DurabilityMode::kOff) {
    LogCommitDurable();
  }

  // Algorithm 3 lines 16-17: release all locks.
  ReleaseAllLocks();
  if (trace_ != nullptr) {
    trace_->OnTxCommit(env_.core_id(), env_.GlobalNow());
  }
}

void TxRuntime::LogCommitDurable() {
  if (write_order_.empty()) {
    return;  // read-only commits leave no durable trace
  }
  // Group the persisted (addr, value) pairs by owner partition's service
  // core, preserving persist order within each group.
  groups_.Clear();
  for (uint64_t addr : write_order_) {
    // Routed by the address's frozen durable home, not the (migratable)
    // lock owner: a range's commit records must keep landing in the WAL
    // whose checkpoint image covers its slab, or recovery would have to
    // merge logs across partitions.
    const uint32_t node = map_.DurableHomeCore(map_.StripeOf(addr));
    // Durability is restricted to the dedicated deployment: a self-
    // addressed kCommitLog would deadlock the ack wait (and the group-
    // commit flush of a peer could deadlock distributed waits).
    TM2C_CHECK_MSG(node != env_.core_id(),
                   "durability requires the dedicated deployment");
    groups_.Add(node, addr);
    groups_.Add(node, table_.Find(addr)->written);
  }
  const SimTime wait_start = env_.LocalNow();
  uint32_t awaiting = 0;
  for (uint32_t node : groups_.nodes) {
    Message msg;
    msg.type = MsgType::kCommitLog;
    msg.w1 = current_epoch_;
    msg.extra = groups_.by_node[node];
    env_.Send(node, std::move(msg));
    ++stats_.messages_sent;
    ++stats_.commit_log_msgs;
    ++awaiting;
  }
  while (awaiting > 0) {
    const Message msg = env_.Recv();
    if (msg.type == MsgType::kCommitLogAck) {
      TM2C_CHECK(msg.w1 == current_epoch_);
      --awaiting;
      continue;
    }
    // A kAbortNotify here is too late to matter: the write set is already
    // persisted and logged, so this commit wins.
    HandleInboxMessage(msg);
  }
  stats_.commit_log_wait += env_.LocalNow() - wait_start;
}

void TxRuntime::GroupHeld(std::vector<uint64_t>& order, uint32_t flag, NodeGroups& groups) {
  groups.Clear();
  for (uint64_t stripe : order) {
    AttemptTable::Entry* entry = table_.Find(stripe);
    if (entry == nullptr || (entry->flags & flag) == 0) {
      continue;  // released early, or listed twice
    }
    entry->flags &= ~flag;
    groups.Add(map_.ResponsibleCore(stripe), stripe);
  }
  order.clear();
  for (uint32_t node : groups.nodes) {
    std::vector<uint64_t>& stripes = groups.by_node[node];
    std::sort(stripes.begin(), stripes.end());  // determinism across runs
  }
}

void TxRuntime::ReleaseAllLocks() {
  // Both groupings are routed before anything is sent: sending takes time,
  // and a migration could flip a range in between.
  GroupHeld(read_lock_order_, AttemptTable::kReadLocked, release_reads_);
  elastic_oldest_ = 0;
  GroupHeld(write_lock_order_, AttemptTable::kWriteLocked, release_writes_);
  const auto send = [this](const NodeGroups& groups, MsgType type) {
    for (uint32_t node : groups.nodes) {
      Message msg;
      msg.type = type;
      msg.w1 = current_epoch_;
      msg.extra = groups.by_node[node];
      FireAndForget(node, std::move(msg));
    }
  };
  send(release_writes_, MsgType::kReleaseAllWrites);
  send(release_reads_, MsgType::kReleaseAllReads);
}

void TxRuntime::AbortSelf(ConflictKind reason) {
  // Late grants from still-outstanding batches must be recorded before the
  // locks are released below, or they would leak into the next attempt.
  DrainInFlight();
  pending_refusal_ = ConflictKind::kNone;
  switch (reason) {
    case ConflictKind::kReadAfterWrite:
      ++stats_.raw_conflicts;
      break;
    case ConflictKind::kWriteAfterWrite:
      ++stats_.waw_conflicts;
      break;
    case ConflictKind::kWriteAfterRead:
      ++stats_.war_conflicts;
      break;
    case ConflictKind::kMigrating:
      ++stats_.migrating_aborts;
      break;
    case ConflictKind::kOverload:
      ++stats_.overload_aborts;
      break;
    case ConflictKind::kNone:
      break;
  }
  ReleaseAllLocks();
  stats_.busy_time += env_.LocalNow() - attempt_start_local_;
  if (trace_ != nullptr) {
    trace_->OnTxAbort(env_.core_id(), env_.GlobalNow(), reason);
  }
  abort_thrown_ = true;
  throw TxAbortException{reason};
}

}  // namespace tm2c
