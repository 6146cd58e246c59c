#include "src/check/history.h"

#include "src/common/check.h"
#include "src/common/json.h"

namespace tm2c {

std::string History::Tx::Name() const {
  return "c" + std::to_string(core) + "/e" + std::to_string(epoch & 0xffffffffu);
}

History::Tx* History::OpenTx(uint32_t core) {
  auto it = open_.find(core);
  TM2C_CHECK_MSG(it != open_.end(), "history event for a core with no open attempt");
  return &txs_[it->second];
}

namespace {
// Request ids are per-runtime counters, so the open-acquire key must carry
// the core too. Ids stay far below 2^48 in any bounded run.
uint64_t AcquireKey(uint32_t core, uint64_t request_id) {
  return (static_cast<uint64_t>(core) << 48) | request_id;
}
}  // namespace

void History::OnEvent(const TraceEvent& e) {
  switch (e.kind) {
    case TraceKind::kTxBegin: {
      // A new attempt may begin while the previous one is still open only
      // if the previous outcome was never reported (should not happen:
      // AbortSelf and TxCommit both report). Keep the check strict.
      TM2C_CHECK_MSG(open_.find(e.core) == open_.end(),
                     "attempt begun before the previous one ended");
      open_[e.core] = txs_.size();
      Tx& tx = txs_.emplace_back();
      tx.core = e.core;
      tx.epoch = e.w0;
      tx.begin_time = e.w1;
      return;
    }
    case TraceKind::kTxRead:
      OpenTx(e.core)->reads.push_back(Read{e.w0, e.w1, NextSeq()});
      return;
    case TraceKind::kTxPersist:
      OpenTx(e.core)->writes.push_back(Write{e.w0, e.w1, NextSeq()});
      return;
    case TraceKind::kTxCommit:
    case TraceKind::kTxAbort: {
      Tx* tx = OpenTx(e.core);
      tx->committed = e.kind == TraceKind::kTxCommit;
      tx->finished = true;
      tx->end_seq = NextSeq();
      tx->abort_reason = static_cast<ConflictKind>(e.w1);  // kNone on commit
      tx->end_time = e.w0;
      open_.erase(e.core);
      return;
    }
    case TraceKind::kRevocation:
      revocations_.push_back(Revocation{NextSeq(), e.core, static_cast<uint32_t>(e.w0), e.w1,
                                        static_cast<ConflictKind>(e.w2)});
      return;
    case TraceKind::kAcquireIssue: {
      Acquire acq;
      acq.issue_seq = NextSeq();
      acq.core = e.core;
      acq.request_id = e.w0;
      acq.node = static_cast<uint32_t>(e.w1);
      acq.n = static_cast<uint32_t>(e.w2);
      acq.is_write = e.w3 != 0;
      const bool inserted =
          open_acquires_.emplace(AcquireKey(e.core, e.w0), acquires_.size()).second;
      TM2C_CHECK_MSG(inserted, "acquire request id reissued while still outstanding");
      acquires_.push_back(acq);
      return;
    }
    case TraceKind::kAcquireComplete: {
      auto it = open_acquires_.find(AcquireKey(e.core, e.w0));
      TM2C_CHECK_MSG(it != open_acquires_.end(), "acquire completion without a matching issue");
      Acquire& acq = acquires_[it->second];
      acq.complete_seq = NextSeq();
      acq.granted = static_cast<uint32_t>(e.w1);
      acq.kind = static_cast<ConflictKind>(e.w2);
      open_acquires_.erase(it);
      return;
    }
    case TraceKind::kWalAppend:
    case TraceKind::kCommitLogAck:
    case TraceKind::kWalFlush:
    case TraceKind::kCheckpoint:
    case TraceKind::kWalTruncate: {
      DurabilityEvent& ev = durability_events_.emplace_back();
      ev.seq = NextSeq();
      ev.partition = e.core;
      if (e.kind == TraceKind::kWalAppend || e.kind == TraceKind::kCommitLogAck) {
        ev.kind = e.kind == TraceKind::kWalAppend ? DurabilityEvent::Kind::kAppend
                                                  : DurabilityEvent::Kind::kAck;
        ev.core = static_cast<uint32_t>(e.w0);
        ev.epoch = e.w1;
        ev.record_index = e.w2;
        ev.pairs = e.pairs;
      } else if (e.kind == TraceKind::kCheckpoint) {
        ev.kind = DurabilityEvent::Kind::kCheckpoint;
        ev.checkpoint_index = e.w0;
        ev.records_covered = e.w1;
      } else {
        ev.kind = e.kind == TraceKind::kWalFlush ? DurabilityEvent::Kind::kFlush
                                                 : DurabilityEvent::Kind::kTruncate;
        ev.durable_records = e.w0;
        ev.durable_bytes = e.w1;
      }
      return;
    }
    case TraceKind::kLockGrant:
      grants_.push_back(GrantEvent{NextSeq(), e.core, static_cast<uint32_t>(e.w0), e.w1});
      return;
    case TraceKind::kMigrationBegin:
    case TraceKind::kMigrationComplete: {
      MigrationEvent& m = migrations_.emplace_back();
      m.kind = e.kind == TraceKind::kMigrationBegin ? MigrationEvent::Kind::kBegin
                                                    : MigrationEvent::Kind::kComplete;
      m.seq = NextSeq();
      m.from_core = e.core;
      m.to_core = static_cast<uint32_t>(e.w0);
      m.base = e.w1;
      m.bytes = e.w2;
      m.version = e.w3;  // 0 on begin
      return;
    }
  }
  TM2C_FATAL("unknown trace event kind");
}

std::string History::ToJson() const {
  JsonWriter w;
  // `key`: [{"addr", "value"}, ...] over (addr, value) pairs.
  auto pair_list = [&w](const char* key, const auto& pairs) {
    w.Key(key);
    w.BeginArray();
    for (const auto& [addr, value] : pairs) {
      w.BeginObject();
      w.KV("addr", addr);
      w.KV("value", value);
      w.EndObject();
    }
    w.EndArray();
  };
  // `key`: [{"addr", "value", "seq"}, ...] over a Read or Write list.
  auto access_list = [&w](const char* key, const auto& accesses) {
    w.Key(key);
    w.BeginArray();
    for (const auto& [addr, value, seq] : accesses) {
      w.BeginObject();
      w.KV("addr", addr);
      w.KV("value", value);
      w.KV("seq", seq);
      w.EndObject();
    }
    w.EndArray();
  };
  w.BeginObject();
  pair_list("initial", initial_);
  w.Key("transactions");
  w.BeginArray();
  for (const Tx& tx : txs_) {
    w.BeginObject();
    w.KV("core", static_cast<uint64_t>(tx.core));
    w.KV("epoch", tx.epoch);
    w.KV("begin_ps", tx.begin_time);
    w.KV("end_ps", tx.end_time);
    w.KV("committed", tx.committed);
    w.KV("finished", tx.finished);
    if (tx.finished && !tx.committed) {
      w.KV("abort_reason", ConflictKindName(tx.abort_reason));
    }
    access_list("reads", tx.reads);
    access_list("writes", tx.writes);
    w.EndObject();
  }
  w.EndArray();
  w.Key("revocations");
  w.BeginArray();
  for (const Revocation& rev : revocations_) {
    w.BeginObject();
    w.KV("seq", rev.seq);
    w.KV("service_core", static_cast<uint64_t>(rev.service_core));
    w.KV("victim_core", static_cast<uint64_t>(rev.victim_core));
    w.KV("victim_epoch", rev.victim_epoch);
    w.KV("kind", ConflictKindName(rev.kind));
    w.EndObject();
  }
  w.EndArray();
  w.Key("acquires");
  w.BeginArray();
  for (const Acquire& acq : acquires_) {
    w.BeginObject();
    w.KV("issue_seq", acq.issue_seq);
    w.KV("complete_seq", acq.complete_seq);
    w.KV("core", static_cast<uint64_t>(acq.core));
    w.KV("request_id", acq.request_id);
    w.KV("node", static_cast<uint64_t>(acq.node));
    w.KV("n", static_cast<uint64_t>(acq.n));
    w.KV("granted", static_cast<uint64_t>(acq.granted));
    w.KV("is_write", acq.is_write);
    if (acq.kind != ConflictKind::kNone) {
      w.KV("refused_kind", ConflictKindName(acq.kind));
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("durability_events");
  w.BeginArray();
  for (const DurabilityEvent& ev : durability_events_) {
    w.BeginObject();
    static const char* const kKindNames[] = {"append", "ack", "flush", "checkpoint", "truncate"};
    w.KV("kind", kKindNames[static_cast<int>(ev.kind)]);
    w.KV("seq", ev.seq);
    w.KV("partition", static_cast<uint64_t>(ev.partition));
    switch (ev.kind) {
      case DurabilityEvent::Kind::kAppend:
      case DurabilityEvent::Kind::kAck:
        w.KV("core", static_cast<uint64_t>(ev.core));
        w.KV("epoch", ev.epoch);
        w.KV("record_index", ev.record_index);
        if (ev.kind == DurabilityEvent::Kind::kAppend) {
          pair_list("pairs", ev.pairs);
        }
        break;
      case DurabilityEvent::Kind::kFlush:
        w.KV("durable_records", ev.durable_records);
        w.KV("durable_bytes", ev.durable_bytes);
        break;
      case DurabilityEvent::Kind::kCheckpoint:
        w.KV("checkpoint_index", ev.checkpoint_index);
        w.KV("records_covered", ev.records_covered);
        break;
      case DurabilityEvent::Kind::kTruncate:
        w.KV("records_remaining", ev.durable_records);
        w.KV("valid_bytes", ev.durable_bytes);
        break;
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("grants");
  w.BeginArray();
  for (const GrantEvent& g : grants_) {
    w.BeginObject();
    w.KV("seq", g.seq);
    w.KV("service_core", static_cast<uint64_t>(g.service_core));
    w.KV("requester_core", static_cast<uint64_t>(g.requester_core));
    w.KV("stripe", g.stripe);
    w.EndObject();
  }
  w.EndArray();
  w.Key("migrations");
  w.BeginArray();
  for (const MigrationEvent& m : migrations_) {
    w.BeginObject();
    w.KV("kind", m.kind == MigrationEvent::Kind::kBegin ? "begin" : "complete");
    w.KV("seq", m.seq);
    w.KV("from_core", static_cast<uint64_t>(m.from_core));
    w.KV("to_core", static_cast<uint64_t>(m.to_core));
    w.KV("base", m.base);
    w.KV("bytes", m.bytes);
    if (m.kind == MigrationEvent::Kind::kComplete) {
      w.KV("version", m.version);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace tm2c
