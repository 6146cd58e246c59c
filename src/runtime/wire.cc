#include "src/runtime/wire.h"

#include <cstring>

#include "src/common/check.h"
#include "src/durability/wal.h"  // Crc32: the shared framing discipline

namespace tm2c {
namespace {

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | p[i];
  }
  return v;
}

// Decodes a complete, length-verified frame body. Returns false on any
// semantic violation (CRC, type, extra-count consistency).
bool DecodePayload(const uint8_t* frame, uint64_t payload_len, uint32_t* dst,
                   Message* msg) {
  const uint8_t* payload = frame + kWireFrameOverheadBytes;
  if (Crc32(payload, payload_len) != LoadU32(frame + 4)) {
    return false;
  }
  uint64_t prologue[kWireFixedPayloadWords];
  for (uint64_t i = 0; i < kWireFixedPayloadWords; ++i) {
    prologue[i] = LoadU64(payload + i * 8);
  }
  if ((prologue[0] & 0xFFFFFFFFull) > kWireMaxMsgType || prologue[1] > 0xFFFFFFFFull ||
      prologue[6] != payload_len / 8 - kWireFixedPayloadWords) {
    return false;
  }
  *dst = static_cast<uint32_t>(prologue[0] >> 32);
  const uint64_t n = DecodeWirePrologue(prologue, msg);
  msg->extra.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    msg->extra[i] = LoadU64(payload + (kWireFixedPayloadWords + i) * 8);
  }
  return true;
}

}  // namespace

void EncodeFrame(uint32_t dst, const Message& msg, std::vector<uint8_t>* out) {
  TM2C_CHECK_MSG(msg.extra.size() <= kWireMaxExtraWords,
                 "wire: message extra payload exceeds the frame cap");
  const uint64_t words = kWireFixedPayloadWords + msg.extra.size();
  const uint64_t payload_len = words * 8;
  const uint64_t start = out->size();
  out->reserve(start + kWireFrameOverheadBytes + payload_len);
  AppendU32(out, static_cast<uint32_t>(payload_len));
  AppendU32(out, 0);  // CRC patched below
  uint64_t prologue[kWireFixedPayloadWords];
  EncodeWirePrologue(dst, msg, prologue);
  for (const uint64_t w : prologue) {
    AppendU64(out, w);
  }
  for (const uint64_t w : msg.extra) {
    AppendU64(out, w);
  }
  const uint32_t crc =
      Crc32(out->data() + start + kWireFrameOverheadBytes, payload_len);
  (*out)[start + 4] = static_cast<uint8_t>(crc);
  (*out)[start + 5] = static_cast<uint8_t>(crc >> 8);
  (*out)[start + 6] = static_cast<uint8_t>(crc >> 16);
  (*out)[start + 7] = static_cast<uint8_t>(crc >> 24);
}

std::vector<uint8_t> EncodeMessage(uint32_t dst, const Message& msg) {
  std::vector<uint8_t> out;
  EncodeFrame(dst, msg, &out);
  return out;
}

WireDecodeStatus DecodeFrame(const std::vector<uint8_t>& bytes, uint32_t* dst,
                             Message* msg, uint64_t* consumed) {
  if (bytes.size() < kWireFrameOverheadBytes) {
    return WireDecodeStatus::kNeedMore;
  }
  const uint64_t payload_len = LoadU32(bytes.data());
  if (payload_len < kWireFixedPayloadWords * 8 || payload_len % 8 != 0 ||
      payload_len / 8 > kWireFixedPayloadWords + kWireMaxExtraWords) {
    return WireDecodeStatus::kCorrupt;
  }
  if (bytes.size() < kWireFrameOverheadBytes + payload_len) {
    return WireDecodeStatus::kNeedMore;
  }
  if (!DecodePayload(bytes.data(), payload_len, dst, msg)) {
    return WireDecodeStatus::kCorrupt;
  }
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
