// Wire serialization of Message: one payload layout, two carriers.
//
// The payload encodes a message as words:
//
//   word 0   (destination core << 32) | message type
//   word 1   source core
//   word 2-5 w0..w3
//   word 6   extra word count n
//   word 7.. the n extra words
//
// The shared-memory rings of the native backends (src/runtime/
// spsc_channel.h) store exactly these words: shared memory neither tears
// nor reorders them, so a ring record needs no framing. The byte-stream
// frame codec below wraps the same payload, as little-endian bytes, in the
// WAL framing discipline (and its CRC-32) from src/durability/wal.cc:
//
//   [u32 payload_len_bytes][u32 crc32(payload)][payload: len/8 u64 words]
//
// so every frame is self-describing and at least kWireMinFrameBytes long.
// No backend sends frames: the codec stays for the benchmark harness
// (bench/e2e), which times it.
//
// Frame decoding is strict: a frame is either accepted whole or rejected
// whole (no partial apply). A short read is kNeedMore (wait for more
// bytes); a CRC mismatch, impossible length, unknown message type or
// inconsistent extra count is kCorrupt and poisons the stream — after real
// corruption frame boundaries can no longer be trusted, so the connection
// must be dropped, exactly like a WAL scan stopping at its first bad frame.
#ifndef TM2C_SRC_RUNTIME_WIRE_H_
#define TM2C_SRC_RUNTIME_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/runtime/message.h"

namespace tm2c {

// Framing overhead (length + CRC) and the fixed 7-word payload prologue.
constexpr uint64_t kWireFrameOverheadBytes = 8;
constexpr uint64_t kWireFixedPayloadWords = 7;
constexpr uint64_t kWireMinFrameBytes =
    kWireFrameOverheadBytes + kWireFixedPayloadWords * 8;

// Hard cap on a frame's extra words. Generous (the largest real payload is
// a commit record's addr/value pairs) but bounded, so a corrupt length
// field cannot make the decoder buffer gigabytes before the CRC rejects it.
constexpr uint64_t kWireMaxExtraWords = 1 << 20;

// Last MsgType value a frame may carry; anything above is corruption.
constexpr uint8_t kWireMaxMsgType = static_cast<uint8_t>(MsgType::kApp);

// The payload's fixed prologue (words 0-6) for (dst, msg).
inline void EncodeWirePrologue(uint32_t dst, const Message& msg,
                               uint64_t out[kWireFixedPayloadWords]) {
  out[0] = static_cast<uint64_t>(dst) << 32 | static_cast<uint8_t>(msg.type);
  out[1] = msg.src;
  out[2] = msg.w0;
  out[3] = msg.w1;
  out[4] = msg.w2;
  out[5] = msg.w3;
  out[6] = msg.extra.size();
}

// Inverse of EncodeWirePrologue for a trusted prologue: fills every field
// of *msg but `extra`, whose length (word 6) it returns.
inline uint64_t DecodeWirePrologue(const uint64_t in[kWireFixedPayloadWords], Message* msg) {
  msg->type = static_cast<MsgType>(in[0] & 0xFF);
  msg->src = static_cast<uint32_t>(in[1]);
  msg->w0 = in[2];
  msg->w1 = in[3];
  msg->w2 = in[4];
  msg->w3 = in[5];
  return in[6];
}

// Appends the encoded frame for (dst, msg) to `out`.
void EncodeFrame(uint32_t dst, const Message& msg, std::vector<uint8_t>* out);

// Convenience: one message as its own byte vector.
std::vector<uint8_t> EncodeMessage(uint32_t dst, const Message& msg);

enum class WireDecodeStatus : uint8_t {
  kOk = 0,        // one frame decoded
  kNeedMore = 1,  // buffer holds only a frame prefix; feed more bytes
  kCorrupt = 2,   // framing violated; the stream is poisoned
};

// Streaming decoder: feed arbitrary byte chunks, pull whole messages.
// After the first kCorrupt every further TryNext returns kCorrupt — the
// caller is expected to drop the connection.
class WireDecoder {
 public:
  // Appends raw bytes read from the socket.
  void Feed(const uint8_t* data, uint64_t size);

  // Attempts to decode the next frame from the buffered bytes. On kOk the
  // destination and message are stored through the out-params and the
  // frame's bytes are consumed; on kNeedMore / kCorrupt nothing is.
  WireDecodeStatus TryNext(uint32_t* dst, Message* msg);

  bool corrupt() const { return corrupt_; }
  uint64_t buffered_bytes() const { return buffer_.size(); }
  uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  std::vector<uint8_t> buffer_;
  bool corrupt_ = false;
  uint64_t frames_decoded_ = 0;
};

// One-shot decode of a complete frame at the start of `bytes`. Returns the
// status; on kOk also stores the frame's total size in `*consumed`.
WireDecodeStatus DecodeFrame(const std::vector<uint8_t>& bytes, uint32_t* dst,
                             Message* msg, uint64_t* consumed);

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_WIRE_H_
