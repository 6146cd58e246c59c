#include "src/tm/dtm_service.h"

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/durability/partition_log.h"

namespace tm2c {

std::vector<uint64_t> ServiceExitReport::Encode() const {
  std::vector<uint64_t> words{lock_entries};
  DtmServiceStats::ForEachField(
      [&](const char*, auto member, FieldMerge) { words.push_back(stats.*member); });
  return words;
}

ServiceExitReport ServiceExitReport::Decode(const std::vector<uint64_t>& words) {
  ServiceExitReport report;
  TM2C_CHECK_MSG(words.size() == report.Encode().size(),
                 "partition server exit report missing or malformed");
  report.lock_entries = words[0];
  size_t next = 1;
  DtmServiceStats::ForEachField(
      [&](const char*, auto member, FieldMerge) { report.stats.*member = words[next++]; });
  return report;
}

DtmService::DtmService(CoreEnv& env, const TmConfig& config, const AddressMap* map)
    : env_(env), config_(config), map_(map), cm_(MakeContentionManager(config.cm)) {}

void DtmService::AttachDurability(PartitionDurability* durability) {
  durability_ = durability;
  if (durability_ != nullptr && trace_ != nullptr) {
    durability_->set_trace(trace_);
  }
}

void DtmService::set_trace(TxTraceSink* trace) {
  trace_ = trace;
  if (durability_ != nullptr) {
    durability_->set_trace(trace);
  }
}

void DtmService::RunLoop() {
  if (durability_ == nullptr) {
    // The pre-durability loop, byte-identical in behaviour and timing.
    for (;;) {
      Message msg = env_.Recv();
      if (msg.type == MsgType::kShutdown) {
        return;
      }
      TM2C_CHECK_MSG(HandleMessage(msg), "non-DTM message reached a dedicated service core");
    }
  }
  // Durable variant: before blocking on an empty inbox, close the open
  // group-commit window — a committer may be waiting on a deferred ack,
  // and nothing else would ever trigger the flush.
  for (;;) {
    Message msg;
    if (!env_.TryRecv(&msg)) {
      FlushCommitLog();
      msg = env_.Recv();
    }
    if (msg.type == MsgType::kShutdown) {
      FlushCommitLog();
      return;
    }
    TM2C_CHECK_MSG(HandleMessage(msg), "non-DTM message reached a dedicated service core");
  }
}

bool DtmService::HandleMessage(const Message& msg) {
  switch (msg.type) {
    case MsgType::kEcho: {
      // Latency probe: respond immediately (Figure 8(a) methodology).
      Message rsp;
      rsp.type = MsgType::kEchoRsp;
      rsp.w0 = msg.w0;
      env_.Send(msg.src, std::move(rsp));
      return true;
    }
    case MsgType::kReadLockReq:
    case MsgType::kWriteLockReq:
    case MsgType::kBatchAcquire: {
      Message rsp = Process(msg);
      TM2C_DCHECK(rsp.type != MsgType::kInvalid);
      env_.Send(msg.src, std::move(rsp));
      return true;
    }
    case MsgType::kReadRelease:
    case MsgType::kWriteRelease:
    case MsgType::kReleaseAllReads:
    case MsgType::kReleaseAllWrites:
    case MsgType::kEarlyReadRelease:
      HandleRelease(msg);
      return true;
    case MsgType::kCommitLog:
      HandleCommitLog(msg);
      return true;
    case MsgType::kMigrateRange:
      BeginMigration(msg.w0, msg.w1, static_cast<uint32_t>(msg.w2));
      return true;
    case MsgType::kOwnershipUpdate:
      // The ownership directory is shared state; the broadcast only exists
      // to wake peers out of stale routing promptly. Nothing to apply.
      return true;
    default:
      return false;
  }
}

Message DtmService::HandleLocal(const Message& request) {
  return Process(request);
}

Message DtmService::Process(const Message& msg) {
  switch (msg.type) {
    case MsgType::kReadLockReq:
      return HandleAcquire(msg, /*is_write=*/false);
    case MsgType::kWriteLockReq:
      return HandleAcquire(msg, /*is_write=*/true);
    case MsgType::kBatchAcquire:
      return HandleBatchAcquire(msg);
    case MsgType::kReadRelease:
    case MsgType::kWriteRelease:
    case MsgType::kReleaseAllReads:
    case MsgType::kReleaseAllWrites:
    case MsgType::kEarlyReadRelease:
      HandleRelease(msg);
      return Message{};
    case MsgType::kMigrateRange:
      // Fire-and-forget under the multitasked deployment: the requesting
      // core is also the owning service core.
      BeginMigration(msg.w0, msg.w1, static_cast<uint32_t>(msg.w2));
      return Message{};
    default:
      TM2C_FATAL("unexpected message type in DtmService::Process");
  }
}

TxInfo DtmService::DecodeRequester(const Message& msg) const {
  TxInfo info;
  info.core = msg.src;
  info.epoch = msg.w1;
  info.metric = cm_->MetricFromWire(msg.w2, env_.LocalNow());
  return info;
}

void DtmService::ChargeProcessing(uint64_t items) {
  env_.ChargeModelled(config_.service_base_cycles + config_.service_per_item_cycles * items);
}

void DtmService::NotifyVictims(const std::vector<Victim>& victims) {
  for (const Victim& victim : victims) {
    if (trace_ != nullptr) {
      trace_->OnRevocation(env_.core_id(), victim.info.core, victim.info.epoch, victim.kind);
    }
    // FaultMode::kIgnoreRevocation (verification only): the locks are gone
    // — the CM's decision stands and the winner proceeds — but the victim
    // is never told: no record for the stale-epoch refusal (stale batch
    // entries will be granted), no abort-status publication, no
    // notification message.
    if (config_.fault == FaultMode::kIgnoreRevocation) {
      continue;
    }
    RemoteCoreState& state = remote_state_[victim.info.core];
    if (state.aborted_epoch == victim.info.epoch) {
      continue;  // this node already notified that transaction attempt
    }
    state.aborted_epoch = victim.info.epoch;
    state.aborted_kind = victim.kind;
    ++stats_.notifications_sent;
    // Publish the abort to the victim's shared status word (the paper's
    // "status atomically switched from pending to aborted"): the victim
    // reads it atomically with its persist, which closes the race between
    // this revocation and the victim's commit point. PublishWord waits out
    // a victim that is mid-persist, so the winner's grant, sent after this
    // returns, cannot reach it before the victim's stores. The message
    // below remains the prompt wake-up path.
    if (config_.abort_status_base != TmConfig::kNoAbortStatus) {
      const uint64_t status_addr = config_.abort_status_base + victim.info.core * kWordBytes;
      (void)env_.ShmemRead(status_addr);  // pay the access latency
      env_.shmem().PublishWord(status_addr, victim.info.epoch);
    }
    if (victim.info.core == env_.core_id()) {
      // Multitasked deployment: the victim runs on this very core.
      TM2C_CHECK_MSG(local_abort_sink_ != nullptr,
                     "revoked a local transaction but no local abort sink is registered");
      local_abort_sink_(victim.info.epoch, victim.kind);
      continue;
    }
    Message notify;
    notify.type = MsgType::kAbortNotify;
    notify.w1 = victim.info.epoch;
    notify.w2 = static_cast<uint64_t>(victim.kind);
    env_.Send(victim.info.core, std::move(notify));
  }
}

Message DtmService::HandleAcquire(const Message& msg, bool is_write) {
  ++stats_.requests;
  ChargeProcessing(1);

  Message rsp;
  rsp.w0 = msg.w0;
  rsp.w1 = msg.w1;

  // A request from an attempt this node already revoked is refused outright;
  // the refusal races with (and is equivalent to) the in-flight abort
  // notification.
  RemoteCoreState& state = remote_state_[msg.src];
  if (state.aborted_epoch == msg.w1) {
    ++stats_.stale_requests_refused;
    rsp.type = MsgType::kLockConflict;
    rsp.w2 = static_cast<uint64_t>(state.aborted_kind);
    return rsp;
  }

  const bool committing = is_write && msg.w3 != 0;
  if (Overloaded(committing)) {
    ++stats_.overload_refused;
    rsp.type = MsgType::kLockConflict;
    rsp.w2 = static_cast<uint64_t>(ConflictKind::kOverload);
    return rsp;
  }

  NoteAcquiresForPolicy(&msg.w0, 1);

  // A stale request routed before a directory flip can still land here;
  // granting a stripe this node no longer owns would split its lock state
  // across two tables. kMigrating tells the requester to re-route.
  if (map_ != nullptr && map_->ResponsibleCore(msg.w0) != env_.core_id()) {
    ++stats_.misrouted_refused;
    rsp.type = MsgType::kLockConflict;
    rsp.w2 = static_cast<uint64_t>(ConflictKind::kMigrating);
    return rsp;
  }
  if (config_.fault != FaultMode::kGrantDuringMigration && MigratingStripe(msg.w0)) {
    ++stats_.migrating_refused;
    rsp.type = MsgType::kLockConflict;
    rsp.w2 = static_cast<uint64_t>(ConflictKind::kMigrating);
    return rsp;
  }

  const TxInfo requester = DecodeRequester(msg);
  const AcquireResult result =
      is_write ? table_.WriteLock(requester, msg.w0, *cm_, /*committing=*/msg.w3 != 0)
               : table_.ReadLock(requester, msg.w0, *cm_);
  NotifyVictims(result.victims);
  if (result.refused != ConflictKind::kNone) {
    rsp.type = MsgType::kLockConflict;
    rsp.w2 = static_cast<uint64_t>(result.refused);
  } else {
    rsp.type = MsgType::kLockGranted;
    if (trace_ != nullptr) {
      TraceGrants(msg.src, &msg.w0, 1);
    }
  }
  return rsp;
}

Message DtmService::HandleBatchAcquire(const Message& msg) {
  ++stats_.requests;
  ++stats_.batch_requests;
  stats_.batch_entries += msg.extra.size();
  ChargeProcessing(msg.extra.size());
  TM2C_CHECK_MSG(msg.extra.size() <= kMaxBatchEntries, "oversized batch request");

  // The request id in the bits above the flags is opaque to the service:
  // it is echoed in the reply so a pipelining requester can match
  // interleaved replies to their requests.
  const uint64_t request_id = msg.w0 >> kBatchReqIdShift;

  Message rsp;
  rsp.type = MsgType::kBatchReply;
  rsp.w1 = msg.w1;
  rsp.w3 = request_id << kBatchReqIdShift;

  // A batch from an attempt this node already revoked is refused whole (no
  // entry granted), exactly like the scalar path.
  RemoteCoreState& state = remote_state_[msg.src];
  if (state.aborted_epoch == msg.w1) {
    ++stats_.stale_requests_refused;
    rsp.w2 = static_cast<uint64_t>(state.aborted_kind);
    return rsp;
  }

  const bool committing = (msg.w0 & kBatchReqIdMask & kBatchFlagCommit) != 0;
  if (Overloaded(committing)) {
    ++stats_.overload_refused;
    rsp.w2 = static_cast<uint64_t>(ConflictKind::kOverload);
    return rsp;  // refused whole: no entry granted
  }

  // Decode the requester's CM metric once for the whole batch — with the
  // scalar protocol this (and the message round trip around it) happened
  // once per address.
  const TxInfo requester = DecodeRequester(msg);
  const uint32_t n = static_cast<uint32_t>(msg.extra.size());

  NoteAcquiresForPolicy(msg.extra.data(), n);

  // Misrouted entries terminate the grant prefix: granting a stripe this
  // node does not own would split its lock state across two tables. Only
  // the correctly-routed leading run is attempted. Entries inside an open
  // drain window cut the prefix the same way. Both cuts are retryable and
  // carry kMigrating: a misroute here means the requester routed before a
  // directory flip and will re-route on retry.
  uint32_t routed = n;
  ConflictKind route_refusal = ConflictKind::kNone;
  if (map_ != nullptr) {
    for (uint32_t i = 0; i < n; ++i) {
      if (map_->ResponsibleCore(msg.extra[i]) != env_.core_id()) {
        routed = i;
        route_refusal = ConflictKind::kMigrating;
        ++stats_.misrouted_refused;
        break;
      }
      if (config_.fault != FaultMode::kGrantDuringMigration && MigratingStripe(msg.extra[i])) {
        routed = i;
        route_refusal = ConflictKind::kMigrating;
        ++stats_.migrating_refused;
        break;
      }
    }
  }

  const BatchAcquireResult result = table_.TryAcquireMany(
      requester, msg.extra.data(), routed, msg.w3, *cm_, committing);
  NotifyVictims(result.victims);
  rsp.w0 = result.granted_bitmap;
  rsp.w3 |= result.granted_count;  // fits below kBatchReqIdShift (n <= 64)
  if (trace_ != nullptr && result.granted_count > 0) {
    TraceGrants(msg.src, msg.extra.data(), result.granted_count);
  }
  if (result.granted_count < n) {
    // CM refusals carry their kind; a prefix cut by routing or an open
    // drain window carries kMigrating.
    rsp.w2 = static_cast<uint64_t>(
        result.refused != ConflictKind::kNone ? result.refused : route_refusal);
  }
  return rsp;
}

uint32_t DtmService::AcquireSpanDirect(uint64_t epoch, uint64_t metric_wire,
                                       const uint64_t* addrs, uint32_t n, bool is_write,
                                       bool committing, ConflictKind* refused) {
  ++stats_.requests;
  ++stats_.local_direct_requests;
  stats_.local_direct_entries += n;
  ChargeProcessing(n);
  *refused = ConflictKind::kNone;

  // Whole-span stale-epoch refusal: a revocation of this very attempt may
  // have been decided by an earlier request this core served (multitasked
  // deployment), so the check is as necessary here as on the wire path.
  RemoteCoreState& state = remote_state_[env_.core_id()];
  if (state.aborted_epoch == epoch) {
    ++stats_.stale_requests_refused;
    *refused = state.aborted_kind;
    return 0;
  }

  NoteAcquiresForPolicy(addrs, n);

  // An open drain window cuts the span exactly like the wire path: grants
  // stop at the first draining stripe (skipped under the planted fault).
  // No admission control here — the fast path never queues, so there is no
  // inbox backlog for it to shed.
  uint32_t usable = n;
  if (config_.fault != FaultMode::kGrantDuringMigration && !migrating_out_.empty()) {
    for (uint32_t i = 0; i < n; ++i) {
      if (MigratingStripe(addrs[i])) {
        usable = i;
        ++stats_.migrating_refused;
        break;
      }
    }
  }

  TxInfo requester;
  requester.core = env_.core_id();
  requester.epoch = epoch;
  requester.metric = cm_->MetricFromWire(metric_wire, env_.LocalNow());
  const SpanAcquireResult result = table_.TryAcquireSpan(requester, addrs, usable, is_write, *cm_,
                                                         committing);
  NotifyVictims(result.victims);
  if (trace_ != nullptr && result.granted_count > 0) {
    TraceGrants(env_.core_id(), addrs, result.granted_count);
  }
  *refused = result.refused;
  if (usable < n && result.granted_count == usable && result.refused == ConflictKind::kNone) {
    *refused = ConflictKind::kMigrating;
  }
  return result.granted_count;
}

void DtmService::HandleCommitLog(const Message& msg) {
  TM2C_CHECK_MSG(durability_ != nullptr, "kCommitLog reached a service without durability");
  TM2C_CHECK_MSG(msg.extra.size() >= 2 && msg.extra.size() % 2 == 0,
                 "malformed kCommitLog payload");
  ChargeProcessing(msg.extra.size() / 2);

  if (!recovered_commits_.empty()) {
    const auto it = recovered_commits_.find({msg.src, msg.w1});
    if (it != recovered_commits_.end()) {
      // Retransmitted after a restart: the record already survived in the
      // recovered log prefix, so re-appending would duplicate it. Ack with
      // its original index — the surviving prefix is durable by definition.
      SendCommitLogAck(msg.src, msg.w1, it->second);
      recovered_commits_.erase(it);
      return;
    }
  }

  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  pairs.reserve(msg.extra.size() / 2);
  for (size_t i = 0; i < msg.extra.size(); i += 2) {
    pairs.emplace_back(msg.extra[i], msg.extra[i + 1]);
  }
  const bool checkpoint_due = durability_->LogCommit(msg.src, msg.w1, pairs);
  // Counted at the append, not at message receipt: the horizon can freeze
  // this fiber inside ChargeProcessing above, and a record counted but
  // never appended would break the exact accounting the durability
  // ablation asserts (commit_records == appended records, always).
  ++stats_.commit_records;
  const uint64_t record_index = durability_->wal().appended_records() - 1;
  // Append cost: the record's framed payload, word by word.
  env_.ChargeModelled(config_.log_append_cycles_per_word * (3 + msg.extra.size()));

  if (config_.fault == FaultMode::kAckBeforeLogFlush) {
    // Planted fault (verification only): acknowledge against the volatile
    // log tail — the commit completes before its record is durable.
    SendCommitLogAck(msg.src, msg.w1, record_index);
  } else {
    pending_acks_.push_back(PendingAck{msg.src, msg.w1, record_index});
  }

  if (checkpoint_due || durability_->unflushed_records() >= config_.group_commit_txs) {
    FlushCommitLog();
    if (checkpoint_due) {
      // Flush-then-checkpoint: a checkpoint never covers unflushed records,
      // so the durable watermark stays monotone through it.
      durability_->TakeCheckpoint();
    }
  }
}

void DtmService::SendCommitLogAck(uint32_t core, uint64_t epoch, uint64_t record_index) {
  if (trace_ != nullptr) {
    trace_->OnCommitLogAck(durability_->partition(), core, epoch, record_index);
  }
  Message ack;
  ack.type = MsgType::kCommitLogAck;
  ack.w1 = epoch;
  env_.Send(core, std::move(ack));
}

void DtmService::FlushCommitLog() {
  if (durability_ == nullptr) {
    return;
  }
  if (durability_->Flush() > 0) {
    ++stats_.log_flushes;
    env_.ChargeModelled(durability_->mode() == DurabilityMode::kFsync
                            ? config_.log_flush_fsync_cycles
                            : config_.log_flush_buffered_cycles);
  }
  for (const PendingAck& ack : pending_acks_) {
    SendCommitLogAck(ack.core, ack.epoch, ack.record_index);
  }
  pending_acks_.clear();
}

void DtmService::HandleRelease(const Message& msg) {
  ++stats_.releases;
  switch (msg.type) {
    case MsgType::kReadRelease:
    case MsgType::kEarlyReadRelease:
      ChargeProcessing(1);
      table_.ReleaseRead(msg.src, msg.w0);
      break;
    case MsgType::kWriteRelease:
      ChargeProcessing(1);
      table_.ReleaseWrite(msg.src, msg.w0);
      break;
    case MsgType::kReleaseAllReads:
      ChargeProcessing(msg.extra.size());
      for (uint64_t addr : msg.extra) {
        table_.ReleaseRead(msg.src, addr);
      }
      break;
    case MsgType::kReleaseAllWrites:
      ChargeProcessing(msg.extra.size());
      for (uint64_t addr : msg.extra) {
        table_.ReleaseWrite(msg.src, addr);
      }
      break;
    default:
      TM2C_FATAL("not a release message");
  }
  // A release may have emptied a draining range; the flip happens at the
  // instant the last holder lets go.
  MaybeCompleteMigrations();
}

void DtmService::QuiesceFlush() {
  if (durability_ == nullptr) {
    return;
  }
  if (durability_->Flush() > 0) {
    ++stats_.log_flushes;
  }
  // Deferred acks are dropped, not sent: the committers are frozen past
  // the horizon, and a post-run ack would fabricate an event the crash
  // oracle would then have to explain.
  pending_acks_.clear();
}

bool DtmService::Overloaded(bool committing) const {
  return !committing && config_.overload_high_water > 0 &&
         env_.InboxDepth() > config_.overload_high_water;
}

bool DtmService::MigratingStripe(uint64_t stripe) const {
  if (migrating_out_.empty()) {
    return false;
  }
  auto it = migrating_out_.upper_bound(stripe);
  if (it == migrating_out_.begin()) {
    return false;
  }
  --it;
  return stripe - it->first < it->second.bytes;
}

void DtmService::TraceGrants(uint32_t requester_core, const uint64_t* addrs, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    trace_->OnLockGrant(env_.core_id(), requester_core, addrs[i]);
  }
}

void DtmService::BeginMigration(uint64_t base, uint64_t bytes, uint32_t target_partition) {
  TM2C_CHECK_MSG(map_ != nullptr, "migration requires an AddressMap");
  uint64_t rbase = 0;
  uint64_t rbytes = 0;
  uint32_t owner = 0;
  TM2C_CHECK_MSG(map_->FindOwnedRange(base, &rbase, &rbytes, &owner) && rbase == base &&
                     rbytes == bytes,
                 "kMigrateRange must name an exact registered owned range");
  const DeploymentPlan& plan = env_.plan();
  if (plan.ServiceCore(owner) != env_.core_id()) {
    return;  // stale request: the range already lives elsewhere
  }
  if (target_partition == owner || target_partition >= plan.num_service()) {
    return;  // nothing to move (or a nonsense target)
  }
  if (migrating_out_.find(base) != migrating_out_.end()) {
    return;  // a drain of this range is already open
  }
  ++stats_.migrations_started;
  if (trace_ != nullptr) {
    trace_->OnMigrationBegin(env_.core_id(), plan.ServiceCore(target_partition), base, bytes);
  }
  migrating_out_.emplace(base, MigratingRange{bytes, target_partition});
  if (config_.fault == FaultMode::kGrantDuringMigration) {
    // Planted fault (verification only): the drain window opens but the
    // owner neither revokes nor refuses — grants keep flowing, the range
    // never empties, and the window stays open to the horizon. Exactly the
    // execution CheckMigrationHistory must flag.
    return;
  }
  // Drain: revoke every revocable holder in the range through the normal
  // CM notification path. Commit-phase writers are left to finish — their
  // releases close the window through MaybeCompleteMigrations.
  uint64_t remaining = 0;
  const std::vector<Victim> victims = table_.DrainRange(base, bytes, &remaining);
  ChargeProcessing(victims.size() + 1);
  NotifyVictims(victims);
  MaybeCompleteMigrations();
}

void DtmService::MaybeCompleteMigrations() {
  if (migrating_out_.empty() || config_.fault == FaultMode::kGrantDuringMigration) {
    return;
  }
  for (auto it = migrating_out_.begin(); it != migrating_out_.end();) {
    if (table_.EntriesInRange(it->first, it->second.bytes) != 0) {
      ++it;
      continue;
    }
    const uint64_t base = it->first;
    const uint64_t bytes = it->second.bytes;
    const uint32_t target = it->second.target_partition;
    it = migrating_out_.erase(it);
    // The epoch bump: requests routed against the old directory version
    // are refused whole (kMigrating) by the ownership check, so no stale
    // batch can split the range's lock state across the two tables.
    const uint64_t version = map_->MoveOwnedRange(base, bytes, target);
    ++stats_.migrations_completed;
    const uint32_t to_core = env_.plan().ServiceCore(target);
    if (trace_ != nullptr) {
      trace_->OnMigrationComplete(env_.core_id(), to_core, base, bytes, version);
    }
    // Broadcast the flip so peers drop stale routing promptly instead of
    // discovering it through kMigrating refusals. The directory itself is
    // shared, so the notification carries only the version for ordering.
    for (uint32_t core = 0; core < env_.plan().num_cores(); ++core) {
      if (core == env_.core_id()) {
        continue;
      }
      Message upd;
      upd.type = MsgType::kOwnershipUpdate;
      upd.w0 = base;
      upd.w1 = bytes;
      upd.w2 = target;
      upd.w3 = version;
      env_.Send(core, std::move(upd));
    }
  }
}

void DtmService::NoteAcquiresForPolicy(const uint64_t* addrs, uint32_t n) {
  if (config_.migrate_check_every == 0 || map_ == nullptr) {
    return;
  }
  const uint32_t self = env_.plan().PartitionOf(env_.core_id());
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t base = 0;
    uint32_t partition = 0;
    if (map_->FindOwnedRange(addrs[i], &base, nullptr, &partition) && partition == self) {
      ++range_hits_[base];
    }
  }
  if (++policy_countdown_ < config_.migrate_check_every) {
    return;
  }
  policy_countdown_ = 0;
  // Hottest still-owned range above the threshold moves to the next
  // partition (round-robin: the policy's job is shedding load off this
  // core, not global placement). Ties break towards the lowest base so the
  // decision is deterministic.
  uint64_t hot_base = 0;
  uint64_t hot_bytes = 0;
  uint64_t hot_hits = 0;
  for (const auto& [base, hits] : range_hits_) {
    if (hits < hot_hits || (hits == hot_hits && hot_hits > 0 && base > hot_base)) {
      continue;
    }
    if (migrating_out_.find(base) != migrating_out_.end()) {
      continue;
    }
    uint64_t bytes = 0;
    uint32_t partition = 0;
    if (map_->FindOwnedRange(base, nullptr, &bytes, &partition) && partition == self) {
      hot_base = base;
      hot_bytes = bytes;
      hot_hits = hits;
    }
  }
  range_hits_.clear();
  if (config_.migrate_hot_threshold > 0 && hot_hits >= config_.migrate_hot_threshold &&
      hot_bytes > 0) {
    BeginMigration(hot_base, hot_bytes,
                   (self + 1) % env_.plan().num_service());
  }
}

}  // namespace tm2c
