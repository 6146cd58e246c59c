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

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | p[i];
  }
  return v;
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

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
  for (uint64_t w = 0; w < record.payload.size(); ++w) {
    record.payload[w] = LoadU64(bytes + w * sizeof(uint64_t));
  }
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
    if (remaining < kWalFrameOverheadBytes) {
      result.torn_tail = true;
      break;
    }
    const uint64_t len = LoadU32(frame.Fill(kWalFrameOverheadBytes, size));
    if (len == 0 || len % sizeof(uint64_t) != 0) {
      // A complete header with an impossible length: corruption, not a
      // torn append (the writer never frames such a payload).
      result.crc_mismatch = true;
      break;
    }
    if (remaining < kWalFrameOverheadBytes + len) {
      result.torn_tail = true;
      break;
    }
    const uint8_t* bytes = frame.Fill(kWalFrameOverheadBytes + len, size);
    if (Crc32(bytes + kWalFrameOverheadBytes, len) != LoadU32(bytes + 4)) {
      result.crc_mismatch = true;
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
  TM2C_CHECK(words > 0);
  std::vector<uint8_t> frame;
  frame.reserve(kWalFrameOverheadBytes + words * sizeof(uint64_t));
  AppendU32(&frame, static_cast<uint32_t>(words * sizeof(uint64_t)));
  frame.resize(kWalFrameOverheadBytes);  // CRC patched below
  for (uint64_t w = 0; w < words; ++w) {
    AppendU64(&frame, payload[w]);
  }
  const uint32_t crc =
      Crc32(frame.data() + kWalFrameOverheadBytes, words * sizeof(uint64_t));
  frame[4] = static_cast<uint8_t>(crc);
  frame[5] = static_cast<uint8_t>(crc >> 8);
  frame[6] = static_cast<uint8_t>(crc >> 16);
  frame[7] = static_cast<uint8_t>(crc >> 24);
  if (file_ != nullptr) {
    TM2C_CHECK(std::fwrite(frame.data(), 1, frame.size(), file_) == frame.size());
  } else {
    image_.insert(image_.end(), frame.begin(), frame.end());
  }
  bytes_ += frame.size();
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
