// The native backends' per-core event logs (src/tm/trace.h's EventLogs):
// the replay delivers exactly the published events, each as it was
// emitted, merged by stamp across the cores; a writer that dies
// mid-record leaves the published prefix for the next writer of its log;
// and a full log is a loud failure, never a dropped event.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/tm/trace.h"

namespace tm2c {
namespace {

// Keeps every event it is given, in order.
class Recorder : public TxTraceSink {
 public:
  void OnEvent(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

void ExpectSameEvent(const TraceEvent& got, const TraceEvent& want) {
  const int kind = static_cast<int>(want.kind);
  EXPECT_EQ(got.kind, want.kind) << kind;
  EXPECT_EQ(got.core, want.core) << kind;
  EXPECT_EQ(got.w0, want.w0) << kind;
  EXPECT_EQ(got.w1, want.w1) << kind;
  EXPECT_EQ(got.w2, want.w2) << kind;
  EXPECT_EQ(got.w3, want.w3) << kind;
  EXPECT_EQ(got.pairs, want.pairs) << kind;
}

// Runs `body` in a forked child, as a partition server writes its log,
// and waits for it.
template <typename Body>
void InChildProcess(Body body) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    body();
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// Every kind, with all 64 bits of each word in use and a core id above
// 2^31, and the WAL append with 0 and with 64 (addr, value) pairs.
TEST(EventLog, EveryTraceKindRoundTrips) {
  std::vector<TraceEvent> events;
  for (uint8_t k = 0; k <= static_cast<uint8_t>(TraceKind::kMigrationComplete); ++k) {
    const uint64_t salt = 0x9e3779b97f4a7c15ull * (k + 1);
    events.push_back(TraceEvent{static_cast<TraceKind>(k), 0xFFFF0000u + k, salt, ~salt,
                                salt >> 7, salt << 9, {}});
  }
  TraceEvent append{TraceKind::kWalAppend, 2, 5, 0x9e3779b97f4a7c15ull, 41, 0, {}};
  for (uint32_t i = 0; i < 64; ++i) {
    append.pairs.emplace_back(0x1000 + 8 * i, ~uint64_t{i});
  }
  events.push_back(append);

  Recorder out;
  EventLogs logs(2, &out);
  for (const TraceEvent& event : events) {
    logs.sink(1)->OnEvent(event);
  }
  logs.Replay();
  ASSERT_EQ(out.events.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    ExpectSameEvent(out.events[i], events[i]);
  }
}

// A primary server publishes two events and is killed while it writes a
// third. Its standby, another process writing the same core's log, appends
// after the published prefix, over the torn record.
TEST(EventLog, AnUnpublishedRecordIsInvisibleAndTheStandbyAppendsAfterThePrefix) {
  Recorder out;
  EventLogs logs(2, &out);
  InChildProcess([&logs] {
    logs.sink(1)->OnWalFlush(1, 1, 100);
    logs.sink(1)->OnWalFlush(1, 2, 200);
    logs.Write(1, TraceEvent{TraceKind::kWalFlush, 1, 3, 300, 0, 0, {}});
  });
  InChildProcess([&logs] { logs.sink(1)->OnWalTruncate(1, 2, 200); });
  logs.Replay();
  ASSERT_EQ(out.events.size(), 3u);
  ExpectSameEvent(out.events[0], TraceEvent{TraceKind::kWalFlush, 1, 1, 100, 0, 0, {}});
  ExpectSameEvent(out.events[1], TraceEvent{TraceKind::kWalFlush, 1, 2, 200, 0, 0, {}});
  ExpectSameEvent(out.events[2], TraceEvent{TraceKind::kWalTruncate, 1, 2, 200, 0, 0, {}});
}

// Appends interleave across three cores' logs; the replay returns them in
// append order, which is stamp order, and empties the logs.
TEST(EventLog, ReplayMergesTheCoresByStamp) {
  Recorder out;
  EventLogs logs(3, &out);
  constexpr uint64_t kEvents = 60;
  for (uint64_t i = 0; i < kEvents; ++i) {
    const uint32_t core = static_cast<uint32_t>((i * 7 + i / 5) % 3);
    logs.sink(core)->OnWalFlush(core, i, 0);
  }
  logs.Replay();
  ASSERT_EQ(out.events.size(), kEvents);
  for (uint64_t i = 0; i < kEvents; ++i) {
    EXPECT_EQ(out.events[i].w0, i);
    EXPECT_EQ(out.events[i].core, (i * 7 + i / 5) % 3);
  }
  logs.Replay();
  EXPECT_EQ(out.events.size(), kEvents);
}

// A record that fills the log exactly fits; the next event is a CHECK
// failure that names the capacity.
TEST(EventLogDeathTest, OverflowingALogNamesItsCapacity) {
  Recorder out;
  EventLogs logs(1, &out);
  TraceEvent fill{TraceKind::kWalAppend, 0, 0, 0, 0, 0, {}};
  fill.pairs.resize((EventLogs::kCapacityWords - 6) / 2);  // 6 header words
  logs.sink(0)->OnEvent(fill);
  EXPECT_DEATH(logs.sink(0)->OnWalFlush(0, 1, 1),
               "capacity " + std::to_string(EventLogs::kCapacityWords) + " words");
}

}  // namespace
}  // namespace tm2c
