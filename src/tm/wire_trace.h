// Child-side trace sink for the process backend, and the kTraceEvent codec.
//
// A forked partition server cannot call into the host's TxTraceSink — the
// sink object in its address space is an inert copy-on-write duplicate. Its
// durability events instead travel as kTraceEvent records addressed to
// wire.h's kWireHostDst, down the partition's host lane, and the host
// thread that drains the lane replays them into the real sink. The lane
// keeps their order, and an app core drains it before acting on any reply
// it popped from the partition, so each event reaches the sink ahead of
// the replies the server sent after it: the crash-restart oracle's
// commit-before-ack check depends on that. Every other kind is dropped: a
// partition server runs no application transactions, and its revocation,
// grant and migration events feed no process-backend oracle. The server
// installs this sink only when a trace was attached before Run.
#ifndef TM2C_SRC_TM_WIRE_TRACE_H_
#define TM2C_SRC_TM_WIRE_TRACE_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/runtime/core_env.h"
#include "src/runtime/wire.h"
#include "src/tm/trace.h"

namespace tm2c {

// The kTraceEvent frame: w0..w3 are the event's words and extra is
// [kind, core, addr0, value0, addr1, value1, ...].
inline Message TraceEventToMessage(const TraceEvent& event) {
  Message msg{MsgType::kTraceEvent, 0, event.w0, event.w1, event.w2, event.w3,
              {static_cast<uint64_t>(event.kind), event.core}};
  for (const auto& [addr, value] : event.pairs) {
    msg.extra.push_back(addr);
    msg.extra.push_back(value);
  }
  return msg;
}

// Inverse of TraceEventToMessage; CHECK-fails on any other frame.
inline TraceEvent TraceEventFromMessage(const Message& msg) {
  TM2C_CHECK_MSG(
      msg.type == MsgType::kTraceEvent && msg.extra.size() >= 2 && msg.extra.size() % 2 == 0,
      "malformed kTraceEvent frame");
  TraceEvent event{static_cast<TraceKind>(msg.extra[0]), static_cast<uint32_t>(msg.extra[1]),
                   msg.w0, msg.w1, msg.w2, msg.w3, {}};
  for (size_t i = 2; i < msg.extra.size(); i += 2) {
    event.pairs.emplace_back(msg.extra[i], msg.extra[i + 1]);
  }
  return event;
}

class WireTraceSink : public TxTraceSink {
 public:
  explicit WireTraceSink(CoreEnv* env) : env_(env) {}

  void OnEvent(const TraceEvent& event) override {
    if (IsDurabilityEvent(event.kind)) {
      env_->Send(kWireHostDst, TraceEventToMessage(event));
    }
  }

 private:
  CoreEnv* env_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_TM_WIRE_TRACE_H_
