#include "src/runtime/wire.h"

#include "src/common/check.h"
#include "src/durability/wal.h"  // the frame codec the WAL uses

namespace tm2c {

void EncodeFrame(uint32_t dst, const Message& msg, std::vector<uint8_t>* out) {
  TM2C_CHECK_MSG(msg.extra.size() <= kWireMaxExtraWords,
                 "wire: message extra payload exceeds the frame cap");
  uint64_t prologue[kWireFixedPayloadWords];
  EncodeWirePrologue(dst, msg, prologue);
  AppendFrame(prologue, kWireFixedPayloadWords, msg.extra.data(), msg.extra.size(), out);
}

WireDecodeStatus DecodeFrame(const std::vector<uint8_t>& bytes, uint32_t* dst,
                             Message* msg, uint64_t* consumed) {
  uint64_t payload_len = 0;
  switch (CheckFrame(bytes.data(), bytes.size(), kWireFixedPayloadWords * 8,
                     (kWireFixedPayloadWords + kWireMaxExtraWords) * 8, &payload_len)) {
    case FrameState::kShort:
      return WireDecodeStatus::kNeedMore;
    case FrameState::kCorrupt:
      return WireDecodeStatus::kCorrupt;
    case FrameState::kComplete:
      break;
  }
  const uint8_t* payload = bytes.data() + kWireFrameOverheadBytes;
  uint64_t prologue[kWireFixedPayloadWords];
  LoadFrameWords(payload, kWireFixedPayloadWords, prologue);
  if ((prologue[0] & 0xFFFFFFFFull) > kWireMaxMsgType || prologue[1] > 0xFFFFFFFFull ||
      prologue[6] != payload_len / 8 - kWireFixedPayloadWords) {
    return WireDecodeStatus::kCorrupt;
  }
  *dst = static_cast<uint32_t>(prologue[0] >> 32);
  msg->extra.resize(DecodeWirePrologue(prologue, msg));
  LoadFrameWords(payload + kWireFixedPayloadWords * 8, msg->extra.size(), msg->extra.data());
  *consumed = kWireFrameOverheadBytes + payload_len;
  return WireDecodeStatus::kOk;
}

void WireDecoder::Feed(const uint8_t* data, uint64_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

WireDecodeStatus WireDecoder::TryNext(uint32_t* dst, Message* msg) {
  if (corrupt_) {
    return WireDecodeStatus::kCorrupt;
  }
  uint64_t consumed = 0;
  const WireDecodeStatus status = DecodeFrame(buffer_, dst, msg, &consumed);
  if (status == WireDecodeStatus::kCorrupt) {
    corrupt_ = true;
  } else if (status == WireDecodeStatus::kOk) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(consumed));
    ++frames_decoded_;
  }
  return status;
}

}  // namespace tm2c
