// Append-only write-ahead log with length+CRC framed records.
//
// A log is a byte image that starts with an 8-byte magic header and is
// followed by zero or more frames:
//
//   [u32 payload_len_bytes][u32 crc32(payload)][payload: len/8 u64 words]
//
// The writer (Wal) keeps the image in memory, or, given a backing file,
// only in that file: a file-backed log's memory does not grow with it.
// Flush() advances the durable watermark (durable_records / durable_bytes):
// everything at or below the watermark is what a crash is allowed to keep,
// everything above it is what a crash may lose. In fsync mode Flush() also
// fsyncs the backing file.
//
// The reader (ReadWal / ReadWalFile) scans frames until the first problem
// and classifies it: an incomplete header or payload at the end of the
// image is a torn tail (the expected shape after a crash mid-append); a
// CRC or length-field mismatch on a complete frame is corruption. Both
// stop the scan — recovery replays exactly the valid prefix. Records are
// decoded on demand, in order, so reading a long log back keeps only its
// record count, the bounds of its valid prefix and one read chunk.
#ifndef TM2C_SRC_DURABILITY_WAL_H_
#define TM2C_SRC_DURABILITY_WAL_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"

namespace tm2c {

// Bytes of the magic header at the start of every log image.
constexpr uint64_t kWalHeaderBytes = 8;

// Bytes of framing (length + CRC) preceding every record payload.
constexpr uint64_t kWalFrameOverheadBytes = 8;

// CRC-32 (IEEE 802.3 polynomial, reflected), over a byte range.
uint32_t Crc32(const uint8_t* data, uint64_t size);

struct WalRecord {
  std::vector<uint64_t> payload;
};

struct WalReadResult;

// The valid records of a scanned log, decoded one at a time, in order.
class WalRecords {
 public:
  // Walks the frames of the valid prefix, reading the log in chunks;
  // decodes the record it points at when dereferenced.
  class Iterator {
   public:
    Iterator(const WalRecords* records, uint64_t offset);
    WalRecord operator*() const;
    Iterator& operator++();
    bool operator!=(const Iterator& other) const { return offset_ != other.offset_; }

   private:
    // Loads the frame at offset_ into chunk_, refilling it when needed.
    void LoadFrame();

    const WalRecords* records_;
    uint64_t offset_;       // where the frame starts
    uint64_t payload_ = 0;  // its payload bytes
    std::vector<uint8_t> chunk_;
    uint64_t chunk_start_ = 0;  // log offset of chunk_[0]
  };

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  Iterator begin() const { return Iterator(this, kWalHeaderBytes); }
  Iterator end() const { return Iterator(this, end_); }

 private:
  friend WalReadResult ReadWal(const std::vector<uint8_t>& bytes);
  friend WalReadResult ReadWalFile(const std::string& path);

  // Scans the source's `size` bytes into a result that owns the source.
  static WalReadResult Scan(WalRecords source, uint64_t size);
  // Copies the source's bytes [offset, offset + n) to `out`.
  void ReadAt(uint64_t offset, uint64_t n, uint8_t* out) const;

  size_t count_ = 0;                // valid records
  uint64_t end_ = kWalHeaderBytes;  // where the last one ends
  std::shared_ptr<const std::vector<uint8_t>> image_;  // ReadWal's copy of the image
  std::shared_ptr<const int> fd_;                      // ReadWalFile's open file
};

struct WalReadResult {
  WalRecords records;
  // Bytes of the valid prefix: magic header plus every complete,
  // CRC-clean frame before the first problem.
  uint64_t valid_bytes = 0;
  // Trailing bytes formed an incomplete frame (crash mid-append).
  bool torn_tail = false;
  // A complete frame failed its CRC or carried an impossible length.
  bool crc_mismatch = false;
  // The image is shorter than the magic header or the magic differs.
  bool bad_magic = false;

  bool clean() const { return !crc_mismatch && !bad_magic; }
};

// Scans a log image (see the framing above). Stops at the first torn or
// corrupt frame; the records hold the valid prefix.
WalReadResult ReadWal(const std::vector<uint8_t>& bytes);

// Scans the file at `path` the same way; records are read from the file.
// A missing/unreadable file reads as an empty image (bad_magic = true).
WalReadResult ReadWalFile(const std::string& path);

class Wal {
 public:
  struct Options {
    // fsync the backing file on every Flush() (no-op without a path).
    bool fsync_on_flush = false;
    // Mirror the image into this file; empty = in-memory only.
    std::string path;
    // Reopen an existing backing file instead of truncating it: scan it,
    // keep the valid prefix (ReadWal semantics — every complete CRC-clean
    // frame), truncate any torn tail off the file, and continue appending
    // after it. The kept records count as already durable. A missing or
    // magic-less file falls back to a fresh log. Used by a restarted
    // partition server recovering its WAL after the previous server
    // process was killed.
    bool recover_existing = false;
  };

  explicit Wal(Options options);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Appends one framed record; returns its zero-based record index.
  uint64_t Append(const uint64_t* payload, uint64_t words);

  // Makes every appended record durable: flushes (and in fsync mode syncs)
  // the backing file and advances the durable watermark.
  void Flush();

  // Reinitializes this log from its backing file (recover_existing
  // semantics): closes the current handle, keeps the file's valid prefix,
  // truncates any torn tail off the file, and continues appending after
  // it. Returns the kept prefix. A restarted partition server calls this
  // on the Wal it inherited at fork time, after its predecessor died
  // mid-run.
  WalReadResult RecoverBackingFile();

  uint64_t appended_records() const { return appended_records_; }
  uint64_t durable_records() const { return durable_records_; }
  uint64_t durable_bytes() const { return durable_bytes_; }
  uint64_t unflushed_records() const { return appended_records_ - durable_records_; }

  // The full appended image of a log without a backing file, including
  // not-yet-flushed frames. A crash at the current moment keeps only the
  // first durable_bytes() of it.
  const std::vector<uint8_t>& image() const {
    TM2C_CHECK_MSG(options_.path.empty(), "wal: a file-backed log's image is its file");
    return image_;
  }

 private:
  WalReadResult Init();
  Options options_;
  std::vector<uint8_t> image_;
  std::FILE* file_ = nullptr;
  uint64_t bytes_ = kWalHeaderBytes;  // appended, header included
  uint64_t appended_records_ = 0;
  uint64_t durable_records_ = 0;
  uint64_t durable_bytes_ = kWalHeaderBytes;
};

}  // namespace tm2c

#endif  // TM2C_SRC_DURABILITY_WAL_H_
