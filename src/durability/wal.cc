#include "src/durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/check.h"

namespace tm2c {
namespace {

// "TM2CWAL" plus a format version byte.
constexpr uint8_t kWalMagic[kWalHeaderBytes] = {'T', 'M', '2', 'C', 'W', 'A', 'L', 0x01};

// How much of the log a record iterator reads at a time.
constexpr uint64_t kReadChunkBytes = 64 << 10;

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void StoreWords(const uint64_t* words, uint64_t n, uint8_t* p) {
  for (uint64_t w = 0; w < n; ++w, p += sizeof(uint64_t)) {
    for (int i = 0; i < 8; ++i) {
      p[i] = static_cast<uint8_t>(words[w] >> (8 * i));
    }
  }
}

}  // namespace

void AppendFrame(const uint64_t* head, uint64_t head_words, const uint64_t* tail,
                 uint64_t tail_words, std::vector<uint8_t>* out) {
  const uint64_t len = (head_words + tail_words) * sizeof(uint64_t);
  TM2C_CHECK(len > 0 && len <= UINT32_MAX);
  const size_t start = out->size();
  out->resize(start + kWalFrameOverheadBytes + len);
  uint8_t* frame = out->data() + start;
  uint8_t* payload = frame + kWalFrameOverheadBytes;
  StoreWords(head, head_words, payload);
  StoreWords(tail, tail_words, payload + head_words * sizeof(uint64_t));
  StoreU32(frame, static_cast<uint32_t>(len));
  StoreU32(frame + 4, Crc32(payload, len));
}

FrameState CheckFrame(const uint8_t* bytes, uint64_t size, uint64_t min_len, uint64_t max_len,
                      uint64_t* payload_len) {
  if (size < kWalFrameOverheadBytes) {
    return FrameState::kShort;
  }
  const uint64_t len = LoadU32(bytes);
  if (len < min_len || len > max_len || len % sizeof(uint64_t) != 0) {
    // A complete header with an impossible length: corruption, not a torn
    // append (the writer never frames such a payload).
    return FrameState::kCorrupt;
  }
  *payload_len = len;
  if (size < kWalFrameOverheadBytes + len) {
    return FrameState::kShort;
  }
  return Crc32(bytes + kWalFrameOverheadBytes, len) == LoadU32(bytes + 4) ? FrameState::kComplete
                                                                          : FrameState::kCorrupt;
}

void LoadFrameWords(const uint8_t* bytes, uint64_t n, uint64_t* out) {
  for (uint64_t w = 0; w < n; ++w, bytes += sizeof(uint64_t)) {
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = v << 8 | bytes[i];
    }
    out[w] = v;
  }
}

uint32_t Crc32(const uint8_t* data, uint64_t size) {
  // Table-driven CRC-32 (IEEE, reflected polynomial 0xEDB88320).
  static const auto table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (uint64_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void WalRecords::ReadAt(uint64_t offset, uint64_t n, uint8_t* out) const {
  if (image_ != nullptr) {
    std::memcpy(out, image_->data() + offset, n);
    return;
  }
  for (uint64_t done = 0; done < n;) {
    const ssize_t got = ::pread(*fd_, out + done, n - done, static_cast<off_t>(offset + done));
    TM2C_CHECK_MSG(got > 0 || (got < 0 && errno == EINTR), "wal: log file read failed");
    done += got > 0 ? static_cast<uint64_t>(got) : 0;
  }
}

WalRecords::Iterator::Iterator(const WalRecords* records, uint64_t offset)
    : records_(records), offset_(offset) {
  LoadFrame();
}

const uint8_t* WalRecords::Iterator::Fill(uint64_t n, uint64_t limit) {
  if (offset_ < chunk_start_ || offset_ + n > chunk_start_ + chunk_.size()) {
    chunk_start_ = offset_;
    chunk_.resize(std::min(std::max(kReadChunkBytes, n), limit - offset_));
    records_->ReadAt(chunk_start_, chunk_.size(), chunk_.data());
  }
  return chunk_.data() + (offset_ - chunk_start_);
}

void WalRecords::Iterator::LoadFrame() {
  if (offset_ >= records_->end_) {
    return;
  }
  // Every frame below end_ passed the scan, so its length can be trusted.
  payload_ = LoadU32(Fill(kWalFrameOverheadBytes, records_->end_));
  Fill(kWalFrameOverheadBytes + payload_, records_->end_);
}

WalRecords::Iterator& WalRecords::Iterator::operator++() {
  offset_ += kWalFrameOverheadBytes + payload_;
  LoadFrame();
  return *this;
}

WalRecord WalRecords::Iterator::operator*() const {
  const uint8_t* bytes = chunk_.data() + (offset_ + kWalFrameOverheadBytes - chunk_start_);
  WalRecord record;
  record.payload.resize(payload_ / sizeof(uint64_t));
  LoadFrameWords(bytes, record.payload.size(), record.payload.data());
  return record;
}

WalReadResult WalRecords::Scan(WalRecords source, uint64_t size) {
  WalReadResult result;
  uint8_t magic[kWalHeaderBytes];
  if (size < kWalHeaderBytes) {
    result.bad_magic = true;
    return result;
  }
  source.ReadAt(0, kWalHeaderBytes, magic);
  if (std::memcmp(magic, kWalMagic, kWalHeaderBytes) != 0) {
    result.bad_magic = true;
    return result;
  }
  result.valid_bytes = kWalHeaderBytes;
  // source.end_ is still the header's end, so the walker loads nothing
  // until Fill asks for it.
  Iterator frame(&source, kWalHeaderBytes);
  while (frame.offset_ < size) {
    const uint64_t remaining = size - frame.offset_;
    // The header first: its length tells how far the frame reaches.
    uint64_t len = 0;
    const uint64_t head = std::min(remaining, kWalFrameOverheadBytes);
    FrameState state = CheckFrame(frame.Fill(head, size), head, sizeof(uint64_t), UINT32_MAX, &len);
    if (state == FrameState::kShort && remaining >= kWalFrameOverheadBytes + len) {
      const uint64_t whole = kWalFrameOverheadBytes + len;
      state = CheckFrame(frame.Fill(whole, size), whole, sizeof(uint64_t), UINT32_MAX, &len);
    }
    if (state != FrameState::kComplete) {
      result.torn_tail = state == FrameState::kShort;
      result.crc_mismatch = state == FrameState::kCorrupt;
      break;
    }
    ++source.count_;
    frame.offset_ += kWalFrameOverheadBytes + len;
    result.valid_bytes = frame.offset_;
  }
  source.end_ = result.valid_bytes;
  result.records = std::move(source);
  return result;
}

WalReadResult ReadWal(const std::vector<uint8_t>& bytes) {
  WalRecords source;
  source.image_ = std::make_shared<const std::vector<uint8_t>>(bytes);
  return WalRecords::Scan(std::move(source), bytes.size());
}

WalReadResult ReadWalFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st {};
  if (fd < 0 || ::fstat(fd, &st) != 0) {
    if (fd >= 0) {
      ::close(fd);
    }
    return ReadWal({});
  }
  WalRecords source;
  source.fd_ = std::shared_ptr<const int>(new int(fd), [](const int* p) {
    ::close(*p);
    delete p;
  });
  return WalRecords::Scan(std::move(source), static_cast<uint64_t>(st.st_size));
}

Wal::Wal(Options options) : options_(std::move(options)) { (void)Init(); }

WalReadResult Wal::RecoverBackingFile() {
  TM2C_CHECK_MSG(!options_.path.empty(), "wal: recovery needs a backing file");
  if (file_ != nullptr) {
    // A restarted server's inherited handle: its stdio buffer is empty
    // (Init flushed the header, and the host appends nothing before it
    // forks the servers), so closing only drops this process's view of
    // the descriptor.
    std::fclose(file_);
    file_ = nullptr;
  }
  options_.recover_existing = true;
  appended_records_ = 0;
  durable_records_ = 0;
  durable_bytes_ = kWalHeaderBytes;
  return Init();
}

WalReadResult Wal::Init() {
  if (options_.recover_existing && !options_.path.empty()) {
    WalReadResult existing = ReadWalFile(options_.path);
    if (!existing.bad_magic) {
      TM2C_CHECK_MSG(!existing.crc_mismatch,
                     "wal: refusing to recover over a corrupt (non-torn) log");
      // Keep exactly the valid prefix: cut any torn tail off the file
      // before appending after it.
      TM2C_CHECK(::truncate(options_.path.c_str(),
                            static_cast<off_t>(existing.valid_bytes)) == 0);
      file_ = std::fopen(options_.path.c_str(), "ab");
      TM2C_CHECK_MSG(file_ != nullptr, "wal: could not reopen backing file");
      appended_records_ = existing.records.size();
      durable_records_ = appended_records_;
      bytes_ = existing.valid_bytes;
      durable_bytes_ = bytes_;
      existing.torn_tail = false;
      return existing;
    }
  }
  bytes_ = kWalHeaderBytes;
  if (options_.path.empty()) {
    // resize+memcpy rather than insert: GCC 12's -Wstringop-overflow
    // misfires on range-inserting a constant array into a fresh vector.
    image_.resize(kWalHeaderBytes);
    std::memcpy(image_.data(), kWalMagic, kWalHeaderBytes);
    return ReadWal(image_);
  }
  file_ = std::fopen(options_.path.c_str(), "wb");
  TM2C_CHECK_MSG(file_ != nullptr, "wal: could not open backing file");
  // Flushed at once, so that no copy of the header waits in a stdio buffer
  // a forked process inherits: each copy would land in the shared file
  // again, after whatever the other processes appended by then.
  TM2C_CHECK(std::fwrite(kWalMagic, 1, kWalHeaderBytes, file_) == kWalHeaderBytes);
  TM2C_CHECK(std::fflush(file_) == 0);
  WalReadResult fresh;
  fresh.valid_bytes = kWalHeaderBytes;
  return fresh;
}

Wal::~Wal() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

uint64_t Wal::Append(const uint64_t* payload, uint64_t words) {
  bytes_ += kWalFrameOverheadBytes + words * sizeof(uint64_t);
  if (file_ == nullptr) {
    AppendFrame(payload, words, nullptr, 0, &image_);
    return appended_records_++;
  }
  frame_.clear();
  AppendFrame(payload, words, nullptr, 0, &frame_);
  TM2C_CHECK(std::fwrite(frame_.data(), 1, frame_.size(), file_) == frame_.size());
  return appended_records_++;
}

void Wal::Flush() {
  if (file_ != nullptr) {
    TM2C_CHECK(std::fflush(file_) == 0);
    if (options_.fsync_on_flush) {
      TM2C_CHECK(::fsync(::fileno(file_)) == 0);
    }
  }
  durable_records_ = appended_records_;
  durable_bytes_ = bytes_;
}

}  // namespace tm2c
