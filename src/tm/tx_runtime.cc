#include "src/tm/tx_runtime.h"

#include <algorithm>
#include <map>

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
      if (abort.reason == ConflictKind::kMigrating && config_.migrate_backoff_cycles > 0) {
        // A drain window or a stale route refused us: back off past the
        // expected drain latency regardless of the CM — an instant retry
        // would only be refused again by the same window.
        env_.Compute(backoff_rng_.NextBelow(config_.migrate_backoff_cycles) + 1);
      } else if (abort.reason == ConflictKind::kOverload &&
                 config_.overload_backoff_cycles > 0) {
        // Admission control shed us: give the service's inbox time to
        // drain below the high-water mark before offering the load again.
        env_.Compute(backoff_rng_.NextBelow(config_.overload_backoff_cycles) + 1);
      } else if (config_.cm == CmKind::kBackoffRetry) {
        // Randomized exponential back-off before the retry (Section 4.2).
        const uint64_t shift = std::min<uint64_t>(consecutive_aborts_ - 1, 16);
        uint64_t bound = config_.backoff_initial_cycles << shift;
        if (bound > config_.backoff_max_cycles) {
          bound = config_.backoff_max_cycles;
        }
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
  TM2C_CHECK_MSG(inflight_.empty(), "in-flight acquisitions leaked across attempts");
  pending_refusal_ = ConflictKind::kNone;
  prefetch_pending_.clear();
  ++attempt_counter_;
  current_epoch_ = (static_cast<uint64_t>(env_.core_id()) << 32) | attempt_counter_;
  abort_thrown_ = false;
  pending_abort_ = false;
  pending_abort_kind_ = ConflictKind::kNone;
  write_buffer_.clear();
  write_order_.clear();
  read_locks_.clear();
  read_lock_order_.clear();
  read_cache_.clear();
  write_locks_.clear();
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

void TxRuntime::ServePending() {
  // Bounded slice: under closed-loop retries (every refusal this core
  // serves immediately triggers the sender's next request) the inbox can
  // refill as fast as it drains, and an unbounded drain would wedge a
  // mid-commit transaction into serving forever. A bounded slice lets the
  // commit proceed; missed abort notifications are covered by the
  // shared-memory status word checked at the persist instant.
  Message msg;
  int budget = 128;
  while (budget-- > 0 && env_.TryRecv(&msg)) {
    if (msg.type == MsgType::kAbortNotify) {
      if (in_tx_ && msg.w1 == current_epoch_) {
        pending_abort_ = true;
        pending_abort_kind_ = static_cast<ConflictKind>(msg.w2);
      }
      continue;  // stale notification for a finished attempt
    }
    if (msg.type == MsgType::kBarrier) {
      // A peer already reached a privatization barrier we have not entered
      // yet; remember its token for when we do.
      ++barrier_arrivals_[msg.w0];
      continue;
    }
    if (msg.type == MsgType::kOwnershipUpdate) {
      // A stripe range changed owner. The directory is shared, so the next
      // routing lookup already sees the flip; just count the notification.
      ++stats_.ownership_updates;
      continue;
    }
    if (msg.type == MsgType::kBatchReply) {
      // A pipelined prefetch reply landing while this core does local
      // work: record the grants (or the refusal) right away.
      CompleteBatch(msg);
      continue;
    }
    if (local_service_ != nullptr) {
      env_.ChargeModelled(config_.multitask_switch_cycles);  // coroutine switch
      if (local_service_->HandleMessage(msg)) {
        continue;  // multitasked deployment: served a DTM request
      }
    }
    TM2C_FATAL("unexpected message in application inbox");
  }
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
    Message msg = env_.Recv();
    switch (msg.type) {
      case MsgType::kBarrier:
        ++barrier_arrivals_[msg.w0];
        break;
      case MsgType::kAbortNotify:
        break;  // stale: we are not in a transaction
      case MsgType::kOwnershipUpdate:
        ++stats_.ownership_updates;  // directory is shared; nothing to apply
        break;
      default:
        if (local_service_ != nullptr) {
          env_.ChargeModelled(config_.multitask_switch_cycles);
          if (local_service_->HandleMessage(msg)) {
            break;
          }
        }
        TM2C_FATAL("unexpected message while in the privatization barrier");
    }
  }
  barrier_arrivals_.erase(generation);
}

void TxRuntime::CheckPendingAbort() {
  // Drain the inbox first: an abort notification may have been delivered
  // while this core was busy with local work (in particular, serving its
  // own partition synchronously under the multitasked deployment never
  // touches the inbox). TryRecv on an empty inbox is free.
  ServePending();
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
    switch (msg.type) {
      case MsgType::kLockGranted:
      case MsgType::kLockConflict:
        return msg;
      case MsgType::kBatchReply:
        // A still-outstanding pipelined batch (prefetch) resolving while a
        // scalar request waits: record it and keep waiting for the scalar
        // response.
        CompleteBatch(msg);
        continue;
      case MsgType::kAbortNotify:
        if (in_tx_ && msg.w1 == current_epoch_) {
          pending_abort_ = true;
          pending_abort_kind_ = static_cast<ConflictKind>(msg.w2);
        }
        continue;
      case MsgType::kBarrier:
        ++barrier_arrivals_[msg.w0];  // peer reached a privatization barrier
        continue;
      case MsgType::kOwnershipUpdate:
        ++stats_.ownership_updates;  // directory is shared; nothing to apply
        continue;
      default:
        if (local_service_ != nullptr) {
          env_.ChargeModelled(config_.multitask_switch_cycles);  // coroutine switch
          if (local_service_->HandleMessage(msg)) {
            continue;  // served a DTM request while waiting (Figure 2)
          }
        }
        TM2C_FATAL("unexpected message while awaiting a DTM response");
    }
  }
}

Message TxRuntime::AcquireRpc(uint32_t dst, Message request, uint64_t stripes) {
  const SimTime start = env_.LocalNow();
  Message rsp = Rpc(dst, std::move(request));
  stats_.acquire_time += env_.LocalNow() - start;
  stats_.lock_acquires += stripes;
  stats_.remote_acquires += stripes;
  return rsp;
}

void TxRuntime::IssueBatch(uint32_t node, std::vector<uint64_t> stripes, bool is_write,
                           bool committing) {
  const SimTime issue_start = env_.LocalNow();
  const uint64_t request_id = next_request_id_++;
  const auto len = static_cast<uint32_t>(stripes.size());
  Message req;
  req.type = MsgType::kBatchAcquire;
  req.w0 = (committing ? kBatchFlagCommit : 0) | (request_id << kBatchReqIdShift);
  req.w1 = current_epoch_;
  req.w2 = WireMetric();
  req.w3 = is_write ? PrefixBitmap(len) : 0;
  req.extra = stripes;  // the in-flight record keeps its own copy
  ++stats_.batch_messages;
  ++stats_.messages_sent;
  // Depth at issue counts this request itself; depth 1 (lockstep) lands
  // every batch in bucket 0.
  const size_t depth = inflight_.size() + 1;
  ++stats_.inflight_depth_hist[std::min<size_t>(depth, stats_.inflight_depth_hist.size()) - 1];
  if (trace_ != nullptr) {
    trace_->OnAcquireIssue(env_.core_id(), request_id, node, len, is_write);
  }
  InFlightAcquire fl;
  fl.node = node;
  fl.stripes = std::move(stripes);
  fl.is_write = is_write;
  fl.issue_start = issue_start;
  if (node == env_.core_id()) {
    // Multitasked deployment: this core is its own responsible node. The
    // request resolves synchronously at the issue position — exactly the
    // lockstep ordering — so it spends no time in the in-flight table.
    TM2C_CHECK_MSG(local_service_ != nullptr, "self-addressed request without a local service");
    req.src = env_.core_id();
    env_.ChargeModelled(config_.multitask_switch_cycles);  // coroutine switch
    Message rsp = local_service_->HandleLocal(std::move(req));
    inflight_.emplace(request_id, std::move(fl));
    CompleteBatch(rsp);
    return;
  }
  env_.Send(node, std::move(req));
  inflight_.emplace(request_id, std::move(fl));
}

void TxRuntime::CompleteBatch(const Message& rsp) {
  const uint64_t request_id = rsp.w3 >> kBatchReqIdShift;
  auto it = inflight_.find(request_id);
  TM2C_CHECK_MSG(it != inflight_.end(), "batch reply with no matching in-flight request");
  InFlightAcquire fl = std::move(it->second);
  inflight_.erase(it);
  const size_t len = fl.stripes.size();
  const auto granted = static_cast<size_t>(rsp.w3 & kBatchReqIdMask);
  TM2C_DCHECK(granted <= len);
  for (size_t i = 0; i < granted; ++i) {
    const uint64_t stripe = fl.stripes[i];
    if (fl.is_write) {
      write_locks_.insert(stripe);
    } else if (read_locks_.insert(stripe).second) {
      read_lock_order_.push_back(stripe);
    }
  }
  // Per-request acquire latency: overlapped requests each charge their full
  // issue-to-completion interval (the per-request mean is the pipelining
  // metric; wall time is tracked by busy_time).
  stats_.acquire_time += env_.LocalNow() - fl.issue_start;
  stats_.lock_acquires += len;
  stats_.remote_acquires += len;
  for (uint64_t stripe : fl.stripes) {
    auto p = prefetch_pending_.find(stripe);
    if (p != prefetch_pending_.end() && p->second == request_id) {
      prefetch_pending_.erase(p);
    }
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
  TM2C_CHECK_MSG(!inflight_.empty(), "waiting for a batch reply with none outstanding");
  for (;;) {
    Message msg = env_.Recv();
    switch (msg.type) {
      case MsgType::kBatchReply:
        CompleteBatch(msg);
        return;
      case MsgType::kAbortNotify:
        if (in_tx_ && msg.w1 == current_epoch_) {
          pending_abort_ = true;
          pending_abort_kind_ = static_cast<ConflictKind>(msg.w2);
        }
        continue;
      case MsgType::kBarrier:
        ++barrier_arrivals_[msg.w0];  // peer reached a privatization barrier
        continue;
      case MsgType::kOwnershipUpdate:
        ++stats_.ownership_updates;  // directory is shared; nothing to apply
        continue;
      default:
        if (local_service_ != nullptr) {
          env_.ChargeModelled(config_.multitask_switch_cycles);  // coroutine switch
          if (local_service_->HandleMessage(msg)) {
            continue;  // served a DTM request while waiting (Figure 2)
          }
        }
        TM2C_FATAL("unexpected message while awaiting a batch reply");
    }
  }
}

void TxRuntime::DrainInFlight() {
  while (!inflight_.empty()) {
    WaitOneReply();
  }
}

void TxRuntime::WaitForStripe(uint64_t stripe) {
  while (prefetch_pending_.find(stripe) != prefetch_pending_.end()) {
    WaitOneReply();
  }
}

bool TxRuntime::LocalFastPathEligible(uint32_t node) const {
  return config_.local_fast_path && local_service_ != nullptr && node == env_.core_id();
}

void TxRuntime::LocalAcquireSpanOrAbort(const std::vector<uint64_t>& stripes, bool is_write,
                                        bool committing) {
  const SimTime start = env_.LocalNow();
  const uint64_t request_id = next_request_id_++;
  const auto n = static_cast<uint32_t>(stripes.size());
  if (trace_ != nullptr) {
    trace_->OnAcquireIssue(env_.core_id(), request_id, env_.core_id(), n, is_write);
  }
  ConflictKind refused = ConflictKind::kNone;
  const uint32_t granted = local_service_->AcquireSpanDirect(
      current_epoch_, WireMetric(), stripes.data(), n, is_write, committing, &refused);
  for (uint32_t i = 0; i < granted; ++i) {
    const uint64_t stripe = stripes[i];
    if (is_write) {
      write_locks_.insert(stripe);
    } else if (read_locks_.insert(stripe).second) {
      read_lock_order_.push_back(stripe);
    }
  }
  stats_.acquire_time += env_.LocalNow() - start;
  stats_.lock_acquires += n;
  stats_.local_acquires += n;
  if (trace_ != nullptr) {
    trace_->OnAcquireComplete(env_.core_id(), request_id, granted,
                              granted < n ? refused : ConflictKind::kNone);
  }
  if (granted < n) {
    TM2C_CHECK_MSG(refused != ConflictKind::kNone,
                   "local span refused without a conflict kind");
    AbortSelf(refused);
  }
}

void TxRuntime::AcquireGroupsOrAbort(const std::map<uint32_t, std::vector<uint64_t>>& by_node,
                                     bool is_write, bool committing) {
  for (const auto& [node, stripes] : by_node) {
    if (pending_refusal_ != ConflictKind::kNone) {
      break;  // doomed: stop issuing, drain, abort below
    }
    if (LocalFastPathEligible(node)) {
      // Zero-message span acquisition: no 64-entry cap, one table pass.
      LocalAcquireSpanOrAbort(stripes, is_write, committing);
      continue;
    }
    for (size_t pos = 0; pos < stripes.size(); pos += config_.max_batch) {
      while (inflight_.size() >= config_.pipeline_depth &&
             pending_refusal_ == ConflictKind::kNone) {
        WaitOneReply();
      }
      if (pending_refusal_ != ConflictKind::kNone) {
        break;
      }
      const size_t len = std::min<size_t>(config_.max_batch, stripes.size() - pos);
      IssueBatch(node,
                 std::vector<uint64_t>(stripes.begin() + static_cast<ptrdiff_t>(pos),
                                       stripes.begin() + static_cast<ptrdiff_t>(pos + len)),
                 is_write, committing);
    }
  }
  // Every reply must land before the refusal takes effect: a late grant
  // belongs to the held-lock sets so the abort (or commit) path releases it.
  DrainInFlight();
  if (pending_refusal_ != ConflictKind::kNone) {
    const ConflictKind kind = pending_refusal_;
    pending_refusal_ = ConflictKind::kNone;
    AbortSelf(kind);
  }
}

void TxRuntime::AcquireReadLockOrAbort(uint64_t stripe) {
  const uint32_t node = map_.ResponsibleCore(stripe);
  if (LocalFastPathEligible(node)) {
    LocalAcquireSpanOrAbort({stripe}, /*is_write=*/false, /*committing=*/false);
    return;
  }
  Message req;
  req.type = MsgType::kReadLockReq;
  req.w0 = stripe;
  req.w1 = current_epoch_;
  req.w2 = WireMetric();
  Message rsp = AcquireRpc(node, std::move(req), 1);
  if (rsp.type == MsgType::kLockConflict) {
    AbortSelf(static_cast<ConflictKind>(rsp.w2));
  }
  if (read_locks_.insert(stripe).second) {
    read_lock_order_.push_back(stripe);
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
  std::map<uint32_t, std::vector<uint64_t>> by_node;
  std::unordered_set<uint64_t> requested;
  for (uint64_t addr : addrs) {
    TM2C_DCHECK(addr % kWordBytes == 0);
    if (write_buffer_.find(addr) != write_buffer_.end() ||
        read_cache_.find(addr) != read_cache_.end()) {
      continue;
    }
    const uint64_t stripe = map_.StripeOf(addr);
    if (read_locks_.find(stripe) != read_locks_.end() ||
        write_locks_.find(stripe) != write_locks_.end() ||
        prefetch_pending_.find(stripe) != prefetch_pending_.end() ||
        !requested.insert(stripe).second) {
      continue;
    }
    by_node[map_.ResponsibleCore(stripe)].push_back(stripe);
  }
  for (const auto& [node, stripes] : by_node) {
    if (pending_refusal_ != ConflictKind::kNone) {
      break;  // already doomed; the next transactional op aborts
    }
    if (LocalFastPathEligible(node)) {
      LocalAcquireSpanOrAbort(stripes, /*is_write=*/false, /*committing=*/false);
      continue;
    }
    for (size_t pos = 0; pos < stripes.size(); pos += config_.max_batch) {
      while (inflight_.size() >= config_.pipeline_depth &&
             pending_refusal_ == ConflictKind::kNone) {
        WaitOneReply();
      }
      if (pending_refusal_ != ConflictKind::kNone) {
        break;
      }
      const size_t len = std::min<size_t>(config_.max_batch, stripes.size() - pos);
      std::vector<uint64_t> chunk(stripes.begin() + static_cast<ptrdiff_t>(pos),
                                  stripes.begin() + static_cast<ptrdiff_t>(pos + len));
      // Register before issuing: a self-addressed chunk resolves inside
      // IssueBatch and its CompleteBatch must find (and clear) the entries.
      const uint64_t request_id = next_request_id_;  // IssueBatch consumes it
      for (uint64_t stripe : chunk) {
        prefetch_pending_[stripe] = request_id;
      }
      IssueBatch(node, std::move(chunk), /*is_write=*/false, /*committing=*/false);
    }
  }
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
  // Group the stripes that still need a read lock by responsible node; a
  // buffered write, a cached read, or an already-held lock covers its
  // address, and duplicates collapse to one entry.
  std::map<uint32_t, std::vector<uint64_t>> by_node;
  std::unordered_set<uint64_t> requested;
  for (uint64_t addr : addrs) {
    TM2C_DCHECK(addr % kWordBytes == 0);
    if (write_buffer_.find(addr) != write_buffer_.end() ||
        read_cache_.find(addr) != read_cache_.end()) {
      continue;
    }
    const uint64_t stripe = map_.StripeOf(addr);
    if (prefetch_pending_.find(stripe) != prefetch_pending_.end()) {
      WaitForStripe(stripe);  // the prefetched lock is about to land
    }
    if (read_locks_.find(stripe) != read_locks_.end() ||
        write_locks_.find(stripe) != write_locks_.end() || !requested.insert(stripe).second) {
      continue;
    }
    by_node[map_.ResponsibleCore(stripe)].push_back(stripe);
  }
  AcquireGroupsOrAbort(by_node, /*is_write=*/false, /*committing=*/false);
  // Every lock is held: the per-address reads below send no messages.
  for (uint64_t addr : addrs) {
    values.push_back(ReadNormal(addr, /*elastic_early=*/false));
  }
  return values;
}

uint64_t TxRuntime::ReadNormal(uint64_t addr, bool elastic_early) {
  // Algorithm 4 line 2-5: buffered values win.
  if (auto it = write_buffer_.find(addr); it != write_buffer_.end()) {
    return it->second;
  }
  if (auto it = read_cache_.find(addr); it != read_cache_.end()) {
    return it->second;
  }
  CheckPendingAbort();

  const uint64_t stripe = map_.StripeOf(addr);
  if (prefetch_pending_.find(stripe) != prefetch_pending_.end()) {
    // The stripe's lock is already on its way: wait for that reply instead
    // of issuing a second request (a refused prefetch aborts right here).
    WaitForStripe(stripe);
    CheckPendingAbort();
  }
  // FaultMode::kSkipReadLock (verification only): perform the read without
  // the visible-read lock, exactly the invisible-read bug the oracle must
  // catch.
  if (config_.fault != FaultMode::kSkipReadLock &&
      read_locks_.find(stripe) == read_locks_.end() &&
      write_locks_.find(stripe) == write_locks_.end()) {
    AcquireReadLockOrAbort(stripe);

    if (elastic_early) {
      // Elastic-early (Section 6.1): keep only the trailing window of read
      // locks; anything older is released with an extra message.
      while (read_lock_order_.size() > config_.elastic_window) {
        const uint64_t oldest = read_lock_order_.front();
        read_lock_order_.erase(read_lock_order_.begin());
        if (oldest == stripe || write_buffer_.find(oldest) != write_buffer_.end()) {
          continue;  // still needed: just acquired, or will be written
        }
        read_locks_.erase(oldest);
        // The value is no longer protected: remember it in case a later
        // write depends on it (see TxWrite below).
        if (auto it = read_cache_.find(oldest); it != read_cache_.end()) {
          early_released_values_[oldest] = it->second;
          read_cache_.erase(it);
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
  read_cache_[addr] = value;
  CheckPendingAbort();
  return value;
}

uint64_t TxRuntime::ReadElasticValidated(uint64_t addr) {
  if (auto it = write_buffer_.find(addr); it != write_buffer_.end()) {
    return it->second;
  }
  CheckPendingAbort();
  const uint64_t value = env_.ShmemRead(addr);
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
    const uint64_t stripe = map_.StripeOf(addr);
    if (auto it = early_released_values_.find(stripe); it != early_released_values_.end()) {
      const uint64_t expected = it->second;
      AcquireReadLockOrAbort(stripe);
      early_released_values_.erase(stripe);
      if (env_.ShmemRead(addr) != expected) {
        ++stats_.validation_failures;
        AbortSelf(ConflictKind::kReadAfterWrite);
      }
      read_cache_[addr] = expected;
    }
  }
  if (config_.write_acquire == WriteAcquire::kEager) {
    const uint64_t stripe = map_.StripeOf(addr);
    if (write_locks_.find(stripe) == write_locks_.end()) {
      AcquireWriteLockOrAbort(stripe);
    }
  }
  // Deferred write (write-back): buffer locally, persist at commit.
  if (write_buffer_.emplace(addr, value).second) {
    write_order_.push_back(addr);
  } else {
    write_buffer_[addr] = value;
  }
}

void TxRuntime::AcquireWriteLockOrAbort(uint64_t stripe, bool committing) {
  const uint32_t node = map_.ResponsibleCore(stripe);
  if (LocalFastPathEligible(node)) {
    LocalAcquireSpanOrAbort({stripe}, /*is_write=*/true, committing);
    return;
  }
  Message req;
  req.type = MsgType::kWriteLockReq;
  req.w0 = stripe;
  req.w1 = current_epoch_;
  req.w2 = WireMetric();
  req.w3 = committing ? 1 : 0;
  Message rsp = AcquireRpc(node, std::move(req), 1);
  if (rsp.type == MsgType::kLockConflict) {
    AbortSelf(static_cast<ConflictKind>(rsp.w2));
  }
  write_locks_.insert(stripe);
}

void TxRuntime::TxCommit() {
  // Outstanding prefetches resolve first: their grants belong to the
  // held-lock sets before any lock is released, and a refused prefetch
  // must abort before the commit sequence starts.
  DrainInFlight();
  CheckPendingAbort();

  // Algorithm 3 lines 3-12: acquire the write locks for the buffered
  // writes (lazy acquisition; under eager mode they are already held —
  // revocations of those are caught by the abort status check below).
  if (!write_buffer_.empty()) {
    std::map<uint32_t, std::vector<uint64_t>> by_node;
    std::unordered_set<uint64_t> seen;
    for (uint64_t addr : write_order_) {
      const uint64_t stripe = map_.StripeOf(addr);
      if (write_locks_.find(stripe) != write_locks_.end() || !seen.insert(stripe).second) {
        continue;
      }
      by_node[map_.ResponsibleCore(stripe)].push_back(stripe);
    }
    if (config_.max_batch <= 1) {
      // Unbatched wire behaviour: one round trip per stripe.
      for (const auto& [node, stripes] : by_node) {
        (void)node;
        for (uint64_t stripe : stripes) {
          AcquireWriteLockOrAbort(stripe, /*committing=*/true);
        }
      }
    } else {
      // Write-lock batching (Section 3.3): all locks a node is responsible
      // for travel in chunks of at most max_batch addresses, up to
      // pipeline_depth chunks overlapped in flight.
      AcquireGroupsOrAbort(by_node, /*is_write=*/true, /*committing=*/true);
    }
  }

  // All locks held. A revocation of one of our read locks may still be in
  // flight; this is the last point it can take effect (see DESIGN.md).
  CheckPendingAbort();
  if (config_.tx_mode == TxMode::kElasticEarly && !write_buffer_.empty() &&
      !early_released_values_.empty()) {
    // Elastic-early update transactions re-validate the reads whose locks
    // were released early: a structural update (unlink/insert) may depend
    // on a link deep in the released prefix (for example, the reachability
    // of the node it writes behind), and a concurrent commit there would
    // otherwise go unnoticed. Searches skip this — ignoring such false
    // conflicts is the point of elasticity.
    for (const auto& [stripe, value] : early_released_values_) {
      if (env_.ShmemRead(stripe) != value) {
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
    if (!write_buffer_.empty()) {
      for (const auto& [addr, value] : elastic_read_values_) {
        if (write_buffer_.find(addr) != write_buffer_.end()) {
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
      env_.ShmemWrite(addr, write_buffer_[addr]);
      if (trace_ != nullptr) {
        trace_->OnTxPersist(env_.core_id(), addr, write_buffer_[addr]);
      }
    }
    if (trace_ != nullptr) {
      trace_->OnTxCommit(env_.core_id(), env_.GlobalNow());
    }
    return;
  }

  // Commit point. With the abort-status protocol enabled, the status read
  // and the whole write-set persist execute at one simulated instant: a
  // revocation either lands before (the status word names our epoch and we
  // abort with no writes applied) or after (we are fully persisted and the
  // revoker serializes behind us). Native backends get the same atomicity
  // from the status word's latch (SharedMemory::PublishWord). Without the
  // protocol — standalone harnesses — the persist is word-at-a-time and
  // relies on notification timing alone.
  if (config_.abort_status_base != TmConfig::kNoAbortStatus) {
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
    if (config_.tx_mode == TxMode::kElasticRead && !write_buffer_.empty()) {
      for (const auto& [addr, value] : elastic_read_values_) {
        if (write_buffer_.find(addr) == write_buffer_.end() &&
            env_.shmem().LoadWord(addr) != value) {
          ++stats_.validation_failures;
          AbortSelf(ConflictKind::kReadAfterWrite);
        }
      }
    }
    if (config_.tx_mode == TxMode::kElasticEarly && !write_buffer_.empty()) {
      for (const auto& [stripe, value] : early_released_values_) {
        if (env_.shmem().LoadWord(stripe) != value) {
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
      env_.shmem().StoreWord(addr, write_buffer_[addr]);
      if (trace_ != nullptr) {
        trace_->OnTxPersist(env_.core_id(), addr, write_buffer_[addr]);
      }
    }
    env_.shmem().StoreWord(status_addr, status);  // unlatch
    // Charge the persist time after the fact (idempotence-free: no re-store).
    env_.ChargeModelled(env_.platform().mem_latency_cycles * write_order_.size());
  } else {
    // Algorithm 3 line 14: persist the write-set to shared memory.
    for (uint64_t addr : write_order_) {
      env_.ShmemWrite(addr, write_buffer_[addr]);
      if (trace_ != nullptr) {
        trace_->OnTxPersist(env_.core_id(), addr, write_buffer_[addr]);
      }
    }
  }

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
  std::map<uint32_t, std::vector<uint64_t>> by_node;
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
    std::vector<uint64_t>& flat = by_node[node];
    flat.push_back(addr);
    flat.push_back(write_buffer_[addr]);
  }
  const SimTime wait_start = env_.LocalNow();
  uint32_t awaiting = 0;
  for (auto& [node, flat] : by_node) {
    Message msg;
    msg.type = MsgType::kCommitLog;
    msg.w1 = current_epoch_;
    msg.extra = std::move(flat);
    env_.Send(node, std::move(msg));
    ++stats_.messages_sent;
    ++stats_.commit_log_msgs;
    ++awaiting;
  }
  while (awaiting > 0) {
    Message msg = env_.Recv();
    switch (msg.type) {
      case MsgType::kCommitLogAck:
        TM2C_CHECK(msg.w1 == current_epoch_);
        --awaiting;
        break;
      case MsgType::kAbortNotify:
        // Too late: the write set is already persisted and logged — this
        // commit wins; the revoker's refusal bounced it already.
        break;
      case MsgType::kBarrier:
        ++barrier_arrivals_[msg.w0];
        break;
      case MsgType::kOwnershipUpdate:
        ++stats_.ownership_updates;  // directory is shared; nothing to apply
        break;
      default:
        TM2C_FATAL("unexpected message while awaiting kCommitLogAck");
    }
  }
  stats_.commit_log_wait += env_.LocalNow() - wait_start;
}

void TxRuntime::ReleaseAllLocks() {
  std::map<uint32_t, std::vector<uint64_t>> reads_by_node;
  for (uint64_t stripe : read_locks_) {
    reads_by_node[map_.ResponsibleCore(stripe)].push_back(stripe);
  }
  std::map<uint32_t, std::vector<uint64_t>> writes_by_node;
  for (uint64_t stripe : write_locks_) {
    writes_by_node[map_.ResponsibleCore(stripe)].push_back(stripe);
  }
  for (auto& [node, stripes] : writes_by_node) {
    std::sort(stripes.begin(), stripes.end());  // determinism across runs
    Message msg;
    msg.type = MsgType::kReleaseAllWrites;
    msg.w1 = current_epoch_;
    msg.extra = std::move(stripes);
    FireAndForget(node, std::move(msg));
  }
  for (auto& [node, stripes] : reads_by_node) {
    std::sort(stripes.begin(), stripes.end());
    Message msg;
    msg.type = MsgType::kReleaseAllReads;
    msg.w1 = current_epoch_;
    msg.extra = std::move(stripes);
    FireAndForget(node, std::move(msg));
  }
  read_locks_.clear();
  write_locks_.clear();
}

void TxRuntime::AbortSelf(ConflictKind reason) {
  // Late grants from still-outstanding batches must be recorded before the
  // locks are released below, or they would leak into the next attempt.
  DrainInFlight();
  pending_refusal_ = ConflictKind::kNone;
  prefetch_pending_.clear();
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
