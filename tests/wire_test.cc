// Wire-format tests for the process backend (src/runtime/wire.{h,cc}):
// round-trips for every message kind, then adversarial sweeps mirroring
// the WAL torn-tail tests in tests/durability_test.cc — truncated,
// bit-flipped and duplicated frames must be rejected (or re-delivered)
// cleanly, with no crash and no partial apply. Also pins the value-only
// payload contract: a Message is fully described by the words the codec
// serializes, so no backend can smuggle a raw pointer across a process
// boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/durability/wal.h"  // Crc32: the shared framing discipline
#include "src/runtime/message.h"
#include "src/runtime/wire.h"

namespace tm2c {
namespace {

// Every message kind the protocol can put on a socket, with representative
// word and extra payloads (values chosen to exercise all 64 bits).
std::vector<std::pair<uint32_t, Message>> AllKindsCorpus() {
  std::vector<std::pair<uint32_t, Message>> corpus;
  uint32_t dst = 1;
  uint64_t salt = 0x9e3779b97f4a7c15ull;
  for (uint8_t t = 0; t <= kWireMaxMsgType; ++t) {
    Message m;
    m.type = static_cast<MsgType>(t);
    m.src = 100 + t;
    m.w0 = salt * (t + 1);
    m.w1 = ~m.w0;
    m.w2 = m.w0 >> 7;
    m.w3 = m.w0 << 9;
    // Vary the extra length across the corpus: empty, short, batch-sized.
    const uint32_t n = t % 3 == 0 ? 0 : (t % 3 == 1 ? 3 : kMaxBatchEntries);
    for (uint32_t i = 0; i < n; ++i) {
      m.extra.push_back(salt * (i + 1) ^ (uint64_t{t} << 56));
    }
    corpus.emplace_back(dst++, std::move(m));
  }
  return corpus;
}

void ExpectEqual(const Message& a, const Message& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.w0, b.w0);
  EXPECT_EQ(a.w1, b.w1);
  EXPECT_EQ(a.w2, b.w2);
  EXPECT_EQ(a.w3, b.w3);
  EXPECT_EQ(a.extra, b.extra);
}

TEST(Wire, RoundTripsEveryMessageKind) {
  for (const auto& [dst, msg] : AllKindsCorpus()) {
    const std::vector<uint8_t> bytes = EncodeMessage(dst, msg);
    ASSERT_GE(bytes.size(), kWireMinFrameBytes);
    uint32_t got_dst = 0;
    Message got;
    uint64_t consumed = 0;
    ASSERT_EQ(DecodeFrame(bytes, &got_dst, &got, &consumed), WireDecodeStatus::kOk)
        << "type " << static_cast<int>(msg.type);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(got_dst, dst);
    ExpectEqual(got, msg);
  }
}

// The decoder's type bound is the last message type.
static_assert(kWireMaxMsgType == static_cast<uint8_t>(MsgType::kApp));

// The stream decoder reassembles frames from arbitrary chunkings: feeding
// one byte at a time must yield exactly the encoded sequence, in order.
TEST(Wire, StreamingDecoderHandlesArbitraryChunking) {
  const auto corpus = AllKindsCorpus();
  std::vector<uint8_t> stream;
  for (const auto& [dst, msg] : corpus) {
    EncodeFrame(dst, msg, &stream);
  }
  WireDecoder decoder;
  size_t decoded = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    decoder.Feed(&stream[i], 1);
    uint32_t dst = 0;
    Message msg;
    while (decoder.TryNext(&dst, &msg) == WireDecodeStatus::kOk) {
      ASSERT_LT(decoded, corpus.size());
      EXPECT_EQ(dst, corpus[decoded].first);
      ExpectEqual(msg, corpus[decoded].second);
      ++decoded;
    }
    EXPECT_FALSE(decoder.corrupt());
  }
  EXPECT_EQ(decoded, corpus.size());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

// Truncation sweep, the torn-tail analogue: every strict prefix of a frame
// is kNeedMore — never corruption, never a partial message.
TEST(Wire, TruncatedFrameIsNeedMoreAtEveryCut) {
  Message m;
  m.type = MsgType::kBatchAcquire;
  m.src = 5;
  m.w0 = (uint64_t{42} << kBatchReqIdShift) | kBatchFlagCommit;
  m.w1 = 7;
  m.w3 = 0b1011;
  m.extra = {0x1000, 0x2000, 0x3000, 0x4000};
  const std::vector<uint8_t> bytes = EncodeMessage(2, m);
  for (uint64_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> torn(bytes.begin(), bytes.begin() + cut);
    uint32_t dst = 0;
    Message got;
    uint64_t consumed = 0;
    EXPECT_EQ(DecodeFrame(torn, &dst, &got, &consumed), WireDecodeStatus::kNeedMore)
        << "cut at " << cut;
  }
}

// Bit-flip sweep, the CRC-corruption analogue: flipping one bit anywhere in
// a frame must be rejected as kCorrupt (or, for length-field flips that
// enlarge the frame, held as kNeedMore — still never a wrong message).
TEST(Wire, BitFlipAnywhereIsCaught) {
  Message m;
  m.type = MsgType::kCommitLog;
  m.src = 9;
  m.w1 = (uint64_t{9} << 32) | 4;
  m.extra = {0x100, 42, 0x108, 43};
  const std::vector<uint8_t> clean = EncodeMessage(3, m);
  for (uint64_t off = 0; off < clean.size(); ++off) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::vector<uint8_t> bytes = clean;
      bytes[off] ^= static_cast<uint8_t>(1u << bit);
      uint32_t dst = 0;
      Message got;
      uint64_t consumed = 0;
      const WireDecodeStatus status = DecodeFrame(bytes, &dst, &got, &consumed);
      EXPECT_NE(status, WireDecodeStatus::kOk) << "offset " << off << " bit " << bit;
      // Only a flip in the 4-byte length prefix may read as a longer,
      // still-incomplete frame; everywhere else the CRC must bite now.
      if (status == WireDecodeStatus::kNeedMore) {
        EXPECT_LT(off, 4u) << "offset " << off << " bit " << bit;
      }
    }
  }
}

// A bit-flipped frame in the middle of a stream poisons the decoder: the
// prefix is delivered, nothing after the corruption is, and the decoder
// stays kCorrupt (the connection-drop signal) instead of resyncing onto
// garbage frame boundaries.
TEST(Wire, CorruptionMidStreamPoisonsWithoutPartialApply) {
  Message a;
  a.type = MsgType::kLockGranted;
  a.w0 = 0x100;
  Message b;
  b.type = MsgType::kLockConflict;
  b.w0 = 0x108;
  b.w2 = static_cast<uint64_t>(ConflictKind::kWriteAfterWrite);
  std::vector<uint8_t> stream;
  EncodeFrame(1, a, &stream);
  const uint64_t second_frame_start = stream.size();
  EncodeFrame(1, b, &stream);
  stream[second_frame_start + kWireFrameOverheadBytes + 3] ^= 0x40;

  WireDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  uint32_t dst = 0;
  Message got;
  ASSERT_EQ(decoder.TryNext(&dst, &got), WireDecodeStatus::kOk);
  ExpectEqual(got, a);
  EXPECT_EQ(decoder.TryNext(&dst, &got), WireDecodeStatus::kCorrupt);
  EXPECT_TRUE(decoder.corrupt());
  EXPECT_EQ(decoder.TryNext(&dst, &got), WireDecodeStatus::kCorrupt);
  EXPECT_EQ(decoder.frames_decoded(), 1u);
}

// Duplicated frames decode as two identical messages — the transport does
// not deduplicate (retransmission after a reconnect legitimately repeats
// kCommitLog frames; the service's recovered-commit table handles it).
TEST(Wire, DuplicatedFrameDecodesTwice) {
  Message m;
  m.type = MsgType::kCommitLog;
  m.src = 4;
  m.w1 = (uint64_t{4} << 32) | 9;
  m.extra = {0x200, 77};
  std::vector<uint8_t> stream;
  EncodeFrame(6, m, &stream);
  EncodeFrame(6, m, &stream);
  WireDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  for (int i = 0; i < 2; ++i) {
    uint32_t dst = 0;
    Message got;
    ASSERT_EQ(decoder.TryNext(&dst, &got), WireDecodeStatus::kOk) << i;
    EXPECT_EQ(dst, 6u);
    ExpectEqual(got, m);
  }
  uint32_t dst = 0;
  Message got;
  EXPECT_EQ(decoder.TryNext(&dst, &got), WireDecodeStatus::kNeedMore);
}

// Structurally impossible frames: zero/short/misaligned lengths, an extra
// count disagreeing with the length, an unknown message type. All kCorrupt.
TEST(Wire, ImpossibleFramesAreCorrupt) {
  Message m;
  m.type = MsgType::kEcho;
  const std::vector<uint8_t> clean = EncodeMessage(1, m);

  auto expect_corrupt = [](std::vector<uint8_t> bytes, const char* what) {
    uint32_t dst = 0;
    Message got;
    uint64_t consumed = 0;
    EXPECT_EQ(DecodeFrame(bytes, &dst, &got, &consumed), WireDecodeStatus::kCorrupt)
        << what;
  };

  std::vector<uint8_t> zero_len = clean;
  zero_len[0] = zero_len[1] = zero_len[2] = zero_len[3] = 0;
  expect_corrupt(zero_len, "zero length");

  std::vector<uint8_t> short_len = clean;
  short_len[0] = 8;  // one word: below the fixed prologue
  short_len[1] = short_len[2] = short_len[3] = 0;
  expect_corrupt(short_len, "below-minimum length");

  std::vector<uint8_t> misaligned = clean;
  misaligned[0] = static_cast<uint8_t>(kWireFixedPayloadWords * 8 + 4);
  expect_corrupt(misaligned, "non-word length");

  std::vector<uint8_t> huge = clean;
  huge[0] = 0xFF;
  huge[1] = 0xFF;
  huge[2] = 0xFF;
  huge[3] = 0x7F;
  expect_corrupt(huge, "length beyond the extra-word cap");

  // Patch the type byte past the last known MsgType; the CRC is recomputed
  // so only the type check can reject it.
  {
    std::vector<uint8_t> unknown_type;
    Message bad = m;
    EncodeFrame(1, bad, &unknown_type);
    unknown_type[kWireFrameOverheadBytes] = kWireMaxMsgType + 1;
    const uint64_t payload_len = unknown_type.size() - kWireFrameOverheadBytes;
    const uint32_t crc = Crc32(unknown_type.data() + kWireFrameOverheadBytes, payload_len);
    unknown_type[4] = static_cast<uint8_t>(crc);
    unknown_type[5] = static_cast<uint8_t>(crc >> 8);
    unknown_type[6] = static_cast<uint8_t>(crc >> 16);
    unknown_type[7] = static_cast<uint8_t>(crc >> 24);
    expect_corrupt(unknown_type, "unknown message type");
  }

  // Extra count word disagreeing with the frame length, CRC made valid.
  {
    std::vector<uint8_t> bad_count = EncodeMessage(1, m);
    bad_count[kWireFrameOverheadBytes + 6 * 8] = 5;
    const uint64_t payload_len = bad_count.size() - kWireFrameOverheadBytes;
    const uint32_t crc = Crc32(bad_count.data() + kWireFrameOverheadBytes, payload_len);
    bad_count[4] = static_cast<uint8_t>(crc);
    bad_count[5] = static_cast<uint8_t>(crc >> 8);
    bad_count[6] = static_cast<uint8_t>(crc >> 16);
    bad_count[7] = static_cast<uint8_t>(crc >> 24);
    expect_corrupt(bad_count, "extra count mismatch");
  }
}

// The satellite-4 pin: a Message is exactly the seven value members the
// codec serializes. If anyone adds a field (say, a raw pointer payload for
// an in-process fast path), this binding stops compiling and forces the
// wire format — and every cross-process assumption — to be revisited.
TEST(Wire, MessageIsValuesOnly) {
  Message m;
  m.type = MsgType::kApp;
  m.src = 1;
  m.extra = {0xdeadbeefull};
  auto& [type, src, w0, w1, w2, w3, extra] = m;
  EXPECT_EQ(type, MsgType::kApp);
  EXPECT_EQ(src, 1u);
  EXPECT_EQ(w0, 0u);
  EXPECT_EQ(w1, 0u);
  EXPECT_EQ(w2, 0u);
  EXPECT_EQ(w3, 0u);
  EXPECT_EQ(extra.size(), 1u);
  // And the members themselves are integral words or word vectors — the
  // codec can carry everything; nothing references the sender's address
  // space.
  static_assert(std::is_same_v<decltype(m.w0), uint64_t>);
  static_assert(std::is_same_v<decltype(m.extra), std::vector<uint64_t>>);
}

}  // namespace
}  // namespace tm2c
