#include "src/check/crash.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"

namespace tm2c {
namespace {

using DurabilityEvent = History::DurabilityEvent;

std::string PairListToString(const std::vector<std::pair<uint64_t, uint64_t>>& pairs) {
  std::string out = "[";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "(" + std::to_string(pairs[i].first) + ", " + std::to_string(pairs[i].second) + ")";
  }
  return out + "]";
}

}  // namespace

CrashCutReport AnalyzeCrashCut(const History& history, uint64_t cut_seq,
                               uint32_t num_partitions) {
  CrashCutReport cut;
  cut.cut_seq = cut_seq;
  cut.partitions.resize(num_partitions);
  for (const DurabilityEvent& ev : history.durability_events()) {
    if (ev.seq > cut_seq) {
      break;  // events are recorded in seq order
    }
    TM2C_CHECK(ev.partition < num_partitions);
    PartitionCut& p = cut.partitions[ev.partition];
    switch (ev.kind) {
      case DurabilityEvent::Kind::kFlush:
        p.durable_records = std::max(p.durable_records, ev.durable_records);
        p.durable_bytes = std::max(p.durable_bytes, ev.durable_bytes);
        break;
      case DurabilityEvent::Kind::kCheckpoint:
        if (ev.records_covered >= p.checkpoint_records) {
          p.checkpoint_index = ev.checkpoint_index;
          p.checkpoint_records = ev.records_covered;
        }
        break;
      case DurabilityEvent::Kind::kTruncate:
        // A restarted server's surviving prefix is at least the previous
        // durable watermark (flushed bytes live in the OS page cache and
        // survive a process kill), so the watermark stays monotone.
        p.durable_records = std::max(p.durable_records, ev.durable_records);
        p.durable_bytes = std::max(p.durable_bytes, ev.durable_bytes);
        break;
      case DurabilityEvent::Kind::kAppend:
      case DurabilityEvent::Kind::kAck:
        break;  // appends/acks do not move the durable watermark
    }
  }
  return cut;
}

std::vector<CommitRecord> DurableLogFromWal(const WalReadResult& parsed, uint32_t partition,
                                            const std::string& parse_failure,
                                            OracleReport* report) {
  const std::string where = "partition " + std::to_string(partition) + ": ";
  if (parsed.bad_magic || parsed.crc_mismatch) {
    report->violations.push_back(OracleViolation{
        "torn-log", where + parse_failure + " (" +
                        (parsed.bad_magic ? "bad magic" : "crc mismatch") + ")"});
  }
  std::vector<CommitRecord> log;
  for (const WalRecord& rec : parsed.records) {
    CommitRecord commit;
    if (!ParseCommitRecord(rec, &commit)) {
      report->violations.push_back(OracleViolation{
          "torn-log", where + "durable record " + std::to_string(log.size()) +
                          " is not a well-formed commit record"});
      break;
    }
    log.push_back(std::move(commit));
  }
  return log;
}

void CheckCrashRestartHistory(const History& history, const CrashCutReport& cut,
                              const std::vector<std::vector<CommitRecord>>& durable_log,
                              const std::function<uint64_t(uint64_t)>& load_recovered,
                              const std::function<uint32_t(uint64_t)>& partition_of,
                              OracleReport* report) {
  const uint32_t num_partitions = static_cast<uint32_t>(cut.partitions.size());
  TM2C_CHECK(durable_log.size() == num_partitions);

  // Index the append/ack events: (partition, core, epoch) identifies one
  // commit record (each transaction logs at most one record per partition).
  struct AppendInfo {
    uint64_t record_index = 0;
    const DurabilityEvent* ev = nullptr;
  };
  const auto key_of = [](uint32_t partition, uint32_t core, uint64_t epoch) {
    return std::make_pair((static_cast<uint64_t>(partition) << 32) | core, epoch);
  };
  std::map<std::pair<uint64_t, uint64_t>, AppendInfo> appends;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> ack_seqs;
  // (partition, record_index) -> append event, for the log-divergence pass.
  std::map<std::pair<uint32_t, uint64_t>, const DurabilityEvent*> by_index;

  // Rule: ack-before-durable. Walk the events in execution order keeping
  // each partition's covered-record watermark; an ack for a record the
  // watermark has not reached yet was sent before the record was durable.
  std::vector<uint64_t> covered(num_partitions, 0);
  for (const DurabilityEvent& ev : history.durability_events()) {
    TM2C_CHECK(ev.partition < num_partitions);
    switch (ev.kind) {
      case DurabilityEvent::Kind::kAppend: {
        const bool inserted =
            appends.emplace(key_of(ev.partition, ev.core, ev.epoch), AppendInfo{ev.record_index, &ev})
                .second;
        if (!inserted) {
          report->violations.push_back(OracleViolation{
              "durable-log-divergence",
              "partition " + std::to_string(ev.partition) + " logged c" +
                  std::to_string(ev.core) + "/e" + std::to_string(ev.epoch & 0xffffffffu) +
                  " twice"});
        }
        by_index[{ev.partition, ev.record_index}] = &ev;
        break;
      }
      case DurabilityEvent::Kind::kAck: {
        ack_seqs[key_of(ev.partition, ev.core, ev.epoch)] = ev.seq;
        if (ev.record_index >= covered[ev.partition]) {
          report->violations.push_back(OracleViolation{
              "ack-before-durable",
              "partition " + std::to_string(ev.partition) + " acked record " +
                  std::to_string(ev.record_index) + " (c" + std::to_string(ev.core) + "/e" +
                  std::to_string(ev.epoch & 0xffffffffu) + ") at seq " + std::to_string(ev.seq) +
                  " with only " + std::to_string(covered[ev.partition]) +
                  " records flushed (write-ahead rule broken)"});
        }
        break;
      }
      case DurabilityEvent::Kind::kFlush:
        covered[ev.partition] = std::max(covered[ev.partition], ev.durable_records);
        break;
      case DurabilityEvent::Kind::kCheckpoint:
        covered[ev.partition] = std::max(covered[ev.partition], ev.records_covered);
        break;
      case DurabilityEvent::Kind::kTruncate: {
        covered[ev.partition] = std::max(covered[ev.partition], ev.durable_records);
        // Appends past the surviving prefix that were never acknowledged
        // died with the server process: they are void — the restarted
        // server re-logs the retransmitted commits under fresh indices —
        // so they must not read as "logged twice" or shadow the
        // re-appends in the by-index view. Acknowledged appends are kept:
        // losing an acked record is a real violation the later passes
        // must still see.
        for (auto it = appends.begin(); it != appends.end();) {
          const uint32_t p = static_cast<uint32_t>(it->first.first >> 32);
          if (p == ev.partition && it->second.record_index >= ev.durable_records &&
              ack_seqs.find(it->first) == ack_seqs.end()) {
            const auto bi = by_index.find({p, it->second.record_index});
            if (bi != by_index.end() && bi->second == it->second.ev) {
              by_index.erase(bi);
            }
            it = appends.erase(it);
          } else {
            ++it;
          }
        }
        break;
      }
    }
  }

  // Rules: unlogged-commit, commit-before-ack, logged-write-mismatch,
  // lost-committed-write — one pass over the committed update transactions.
  for (const History::Tx& tx : history.transactions()) {
    if (!tx.committed || tx.writes.empty()) {
      continue;
    }
    // The transaction's writes per partition, in persist order (exactly
    // what LogCommitDurable sends to each owner).
    std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> by_partition;
    for (const History::Write& w : tx.writes) {
      by_partition[partition_of(w.addr)].emplace_back(w.addr, w.value);
    }
    for (const auto& [p, pairs] : by_partition) {
      const auto key = key_of(p, tx.core, tx.epoch);
      const auto app = appends.find(key);
      if (app == appends.end()) {
        report->violations.push_back(OracleViolation{
            "unlogged-commit", tx.Name() + " committed writes to partition " +
                                   std::to_string(p) + " without logging a commit record"});
        continue;
      }
      const auto ack = ack_seqs.find(key);
      if (ack == ack_seqs.end() || tx.end_seq == 0 || ack->second >= tx.end_seq) {
        report->violations.push_back(OracleViolation{
            "commit-before-ack", tx.Name() + " was reported committed before partition " +
                                     std::to_string(p) + " acknowledged its commit record"});
      }
      if (app->second.ev->pairs != pairs) {
        report->violations.push_back(OracleViolation{
            "logged-write-mismatch",
            tx.Name() + " persisted " + PairListToString(pairs) + " to partition " +
                std::to_string(p) + " but logged " + PairListToString(app->second.ev->pairs)});
      }
      if (tx.end_seq != 0 && tx.end_seq <= cut.cut_seq &&
          app->second.record_index >= cut.partitions[p].durable_records) {
        report->violations.push_back(OracleViolation{
            "lost-committed-write",
            tx.Name() + " was reported committed before the crash (seq " +
                std::to_string(tx.end_seq) + " <= cut " + std::to_string(cut.cut_seq) +
                ") but its record " + std::to_string(app->second.record_index) +
                " on partition " + std::to_string(p) + " is past the durable prefix of " +
                std::to_string(cut.partitions[p].durable_records) + " records"});
      }
    }
  }

  // Rule: durable-log-divergence. The records parsed back from the
  // truncated image must be exactly the recorded appends, in order.
  for (uint32_t p = 0; p < num_partitions; ++p) {
    if (durable_log[p].size() != cut.partitions[p].durable_records) {
      report->violations.push_back(OracleViolation{
          "durable-log-divergence",
          "partition " + std::to_string(p) + " log replays " +
              std::to_string(durable_log[p].size()) + " records, the durable prefix holds " +
              std::to_string(cut.partitions[p].durable_records)});
      continue;
    }
    for (uint64_t i = 0; i < durable_log[p].size(); ++i) {
      const CommitRecord& rec = durable_log[p][i];
      const auto it = by_index.find({p, i});
      if (it == by_index.end()) {
        report->violations.push_back(OracleViolation{
            "durable-log-divergence", "partition " + std::to_string(p) + " record " +
                                          std::to_string(i) + " has no recorded append"});
        continue;
      }
      const DurabilityEvent& ev = *it->second;
      if (rec.core != ev.core || rec.epoch != ev.epoch || rec.pairs != ev.pairs) {
        report->violations.push_back(OracleViolation{
            "durable-log-divergence",
            "partition " + std::to_string(p) + " record " + std::to_string(i) +
                " replays as c" + std::to_string(rec.core) + "/e" +
                std::to_string(rec.epoch & 0xffffffffu) + " " + PairListToString(rec.pairs) +
                " but was appended as c" + std::to_string(ev.core) + "/e" +
                std::to_string(ev.epoch & 0xffffffffu) + " " + PairListToString(ev.pairs)});
      }
    }
  }

  // Rule: recovered-state-mismatch. Expected state = the registered initial
  // image overlaid with the durable record prefix, in append order.
  std::vector<std::unordered_map<uint64_t, uint64_t>> expected(num_partitions);
  for (const auto& [addr, value] : history.initial_values()) {
    const uint32_t p = partition_of(addr);
    if (p < num_partitions) {
      expected[p][addr] = value;
    }
  }
  for (uint32_t p = 0; p < num_partitions; ++p) {
    for (uint64_t i = 0; i < cut.partitions[p].durable_records; ++i) {
      const auto it = by_index.find({p, i});
      if (it == by_index.end()) {
        continue;  // already reported as durable-log-divergence
      }
      for (const auto& [addr, value] : it->second->pairs) {
        expected[p][addr] = value;
      }
    }
    uint64_t mismatches = 0;
    for (const auto& [addr, value] : expected[p]) {
      const uint64_t got = load_recovered(addr);
      if (got != value && mismatches++ < 5) {
        report->violations.push_back(OracleViolation{
            "recovered-state-mismatch",
            "partition " + std::to_string(p) + " addr " + std::to_string(addr) +
                " recovered as " + std::to_string(got) + ", the durable state says " +
                std::to_string(value)});
      }
    }
    if (mismatches > 5) {
      report->violations.push_back(OracleViolation{
          "recovered-state-mismatch", "partition " + std::to_string(p) + ": " +
                                          std::to_string(mismatches - 5) +
                                          " further mismatched words suppressed"});
    }
  }
}

}  // namespace tm2c
