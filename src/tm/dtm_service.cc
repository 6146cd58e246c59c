#include "src/tm/dtm_service.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/durability/partition_log.h"

namespace tm2c {

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
  // A restarted partition's standby starts from an empty table, whatever
  // its dead primary published.
  PublishLockEntries();
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

DtmService::AcquireOutcome DtmService::Acquire(const AcquireRequest& req) {
  TM2C_DCHECK(req.n <= kMaxBatchEntries || req.write_bitmap == 0 ||
              req.write_bitmap == ~uint64_t{0});
  AcquireOutcome out;

  // A request from an attempt this node already revoked is refused whole;
  // the refusal races with (and is equivalent to) the in-flight abort
  // notification. Under the multitasked deployment the revocation may have
  // been decided by an earlier request this very core served, so the
  // owner-local path needs the check as much as the wire does.
  const RemoteCoreState& state = remote_state_[req.core];
  if (state.aborted_epoch == req.epoch) {
    ++stats_.stale_requests_refused;
    out.refused = state.aborted_kind;
    return out;
  }

  if (req.admission && Overloaded(req.committing)) {
    ++stats_.overload_refused;
    out.refused = ConflictKind::kOverload;
    return out;
  }

  NoteAcquiresForPolicy(req.addrs, req.n);

  // Misrouted entries terminate the grant prefix: a stale request routed
  // before a directory flip can still land here, and granting a stripe
  // this node no longer owns would split its lock state across two tables.
  // Entries inside an open drain window cut the prefix the same way (not
  // under the planted fault). Both cuts are retryable and carry kMigrating:
  // the requester re-routes, or waits out the window, on retry.
  uint32_t usable = req.n;
  for (uint32_t i = 0; i < req.n; ++i) {
    // Entries are lock units: any other address of the unit would give it
    // a second table entry.
    TM2C_DCHECK(map_ == nullptr || map_->StripeOf(req.addrs[i]) == req.addrs[i]);
    if (map_ != nullptr && map_->ResponsibleCore(req.addrs[i]) != env_.core_id()) {
      ++stats_.misrouted_refused;
      usable = i;
      break;
    }
    if (config_.fault != FaultMode::kGrantDuringMigration && MigratingStripe(req.addrs[i])) {
      ++stats_.migrating_refused;
      usable = i;
      break;
    }
  }
  if (usable < req.n) {
    out.refused = ConflictKind::kMigrating;
  }

  // The lock-table pass, in chunks the 64-bit write bitmap can describe.
  // Grants are all-or-prefix, so a refused chunk ends the pass, and the
  // victims of every chunk are notified together afterwards.
  TxInfo requester;
  requester.core = req.core;
  requester.epoch = req.epoch;
  requester.metric = cm_->MetricFromWire(req.metric_wire, env_.LocalNow());
  std::vector<Victim> victims;
  for (uint32_t pos = 0; pos < usable; pos += kMaxBatchEntries) {
    const uint32_t len = std::min(usable - pos, kMaxBatchEntries);
    const BatchAcquireResult chunk = table_.TryAcquireMany(
        requester, req.addrs + pos, len, req.write_bitmap, *cm_, req.committing);
    out.granted += chunk.granted_count;
    victims.insert(victims.end(), chunk.victims.begin(), chunk.victims.end());
    if (chunk.refused != ConflictKind::kNone) {
      out.refused = chunk.refused;
      break;
    }
  }
  PublishLockEntries();
  NotifyVictims(victims);
  if (trace_ != nullptr) {
    TraceGrants(req.core, req.addrs, out.granted);
  }
  return out;
}

Message DtmService::HandleAcquire(const Message& msg, bool is_write) {
  ++stats_.requests;
  ChargeProcessing(1);
  AcquireRequest req;
  req.core = msg.src;
  req.epoch = msg.w1;
  req.metric_wire = msg.w2;
  req.addrs = &msg.w0;
  req.n = 1;
  req.write_bitmap = is_write ? 1 : 0;
  req.committing = is_write && msg.w3 != 0;
  req.admission = true;
  const AcquireOutcome out = Acquire(req);

  Message rsp;
  rsp.type = out.granted == 1 ? MsgType::kLockGranted : MsgType::kLockConflict;
  rsp.w0 = msg.w0;
  rsp.w1 = msg.w1;
  rsp.w2 = static_cast<uint64_t>(out.refused);
  return rsp;
}

Message DtmService::HandleBatchAcquire(const Message& msg) {
  ++stats_.requests;
  ++stats_.batch_requests;
  stats_.batch_entries += msg.extra.size();
  ChargeProcessing(msg.extra.size());
  TM2C_CHECK_MSG(msg.extra.size() <= kMaxBatchEntries, "oversized batch request");
  AcquireRequest req;
  req.core = msg.src;
  req.epoch = msg.w1;
  req.metric_wire = msg.w2;
  req.addrs = msg.extra.data();
  req.n = static_cast<uint32_t>(msg.extra.size());
  req.write_bitmap = msg.w3;
  req.committing = (msg.w0 & kBatchReqIdMask & kBatchFlagCommit) != 0;
  req.admission = true;
  const AcquireOutcome out = Acquire(req);

  // The request id in the bits above the flags is opaque to the service:
  // it is echoed in the reply so a pipelining requester can match
  // interleaved replies to their requests. The granted count fits below
  // it (n <= 64).
  Message rsp;
  rsp.type = MsgType::kBatchReply;
  rsp.w0 = PrefixBitmap(out.granted);
  rsp.w1 = msg.w1;
  rsp.w2 = static_cast<uint64_t>(out.refused);
  rsp.w3 = (msg.w0 & ~kBatchReqIdMask) | out.granted;
  return rsp;
}

DtmService::AcquireOutcome DtmService::AcquireSpanDirect(uint64_t epoch, uint64_t metric_wire,
                                                         const uint64_t* addrs, uint32_t n,
                                                         bool is_write, bool committing) {
  ++stats_.requests;
  ++stats_.local_direct_requests;
  stats_.local_direct_entries += n;
  ChargeProcessing(n);
  AcquireRequest req;
  req.core = env_.core_id();
  req.epoch = epoch;
  req.metric_wire = metric_wire;
  req.addrs = addrs;
  req.n = n;
  req.write_bitmap = is_write ? ~uint64_t{0} : 0;
  req.committing = committing;
  return Acquire(req);
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
  PublishLockEntries();
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
  PublishLockEntries();
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
