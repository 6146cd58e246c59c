// Single-producer/single-consumer ring of encoded messages.
//
// The native backends' port of the paper's cache-line channels: one bounded
// ring per directed core pair, so a release store publishes and an acquire
// load picks up, like flipping the ownership flag of an MPB line on the
// SCC. A record is wire.h's payload (the 7-word prologue, then the extra
// words) in a power-of-two word array. The two word indexes, each on its
// own cache line beside that side's stale view of the other, and the words
// sit in memory the caller places and hold no pointers, so a ring formatted
// in a MAP_SHARED mapping before fork() works across the processes.
//
// A record that fits becomes visible only at the tail's release store: a
// producer killed midway leaves nothing visible. A longer record is
// streamed in pieces as the consumer frees room. Records are counted too,
// so ApproxSize reports messages.
#ifndef TM2C_SRC_RUNTIME_SPSC_CHANNEL_H_
#define TM2C_SRC_RUNTIME_SPSC_CHANNEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>

#include "src/common/check.h"
#include "src/runtime/message.h"
#include "src/runtime/wire.h"

namespace tm2c {

// One destructive-interference span. std::hardware_destructive_interference_size
// is not universally available (and trips -Winterference-size on GCC); 64
// bytes is correct for every x86/arm machine this backend targets.
constexpr size_t kCacheLineBytes = 64;

class SpscChannel {
 public:
  // Sanity bound on the capacity in messages; larger values are a
  // configuration bug and would overflow the power-of-two rounding.
  static constexpr uint32_t kMaxCapacity = 1u << 24;
  // Ring words per message of capacity: kWireFixedPayloadWords rounded up.
  static constexpr uint64_t kWordsPerMessage = 8;

  // Bytes of placed memory a ring of `capacity` messages needs (a multiple
  // of kCacheLineBytes).
  static size_t PlacedBytes(uint32_t capacity) {
    return sizeof(Indexes) + RoundUpCapacity(capacity) * kWordsPerMessage * sizeof(uint64_t);
  }

  // Formats `mem` (cache-line aligned, PlacedBytes(capacity) long) as an
  // empty ring holding at least `capacity`, rounded up to a power of two,
  // messages without extra words.
  SpscChannel(void* mem, uint32_t capacity) { Place(mem, capacity); }

  // A ring in memory of its own.
  explicit SpscChannel(uint32_t capacity)
      : owned_(std::aligned_alloc(kCacheLineBytes, PlacedBytes(capacity)), &std::free) {
    TM2C_CHECK_MSG(owned_ != nullptr, "SpscChannel: allocation failed");
    Place(owned_.get(), capacity);
  }

  // Producer side. Appends `msg` as one record and returns true, or returns
  // false — leaving the ring untouched — when the record does not fit in
  // the free space (one longer than the ring never does: see Push).
  bool TryPush(const Message& msg) {
    return msg.extra.size() + kWireFixedPayloadWords <= mask_ + 1 &&
           Push(msg, [] { return false; });
  }

  // Producer side. Appends `msg`, calling `wait()` whenever the ring lacks
  // room, and returns true; returns false as soon as wait() does. A record
  // that fits is published whole; a longer one is streamed in pieces, so
  // giving up midway leaves it half published (the ring is then unusable).
  template <typename Wait>
  bool Push(const Message& msg, Wait&& wait) {
    const uint64_t len = kWireFixedPayloadWords + msg.extra.size();
    const uint64_t need = len <= mask_ + 1 ? len : 1;
    uint64_t prologue[kWireFixedPayloadWords];
    EncodeWirePrologue(0, msg, prologue);
    uint64_t tail = ix_->tail.load(std::memory_order_relaxed);
    for (uint64_t done = 0; done < len;) {
      const uint64_t room = std::min(Room(tail, need), len - done);
      if (room < std::min(need, len - done)) {
        if (!wait()) {
          return false;
        }
        continue;
      }
      for (uint64_t i = done; i < done + room; ++i) {
        words_[tail++ & mask_] =
            i < kWireFixedPayloadWords ? prologue[i] : msg.extra[i - kWireFixedPayloadWords];
      }
      done += room;
      if (done == len) {
        ix_->pushed.store(ix_->pushed.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
      }
      ix_->tail.store(tail, std::memory_order_release);
    }
    return true;
  }

  // Consumer side. Moves the oldest record into `out` and returns true, or
  // returns false when the ring is empty. A streamed record's earlier
  // pieces go back as they are read, and the consumer yields while the
  // rest is unpublished.
  bool TryPop(Message* out) {
    uint64_t pos = ix_->head.load(std::memory_order_relaxed);
    if (Available(pos) == 0) {
      return false;
    }
    uint64_t prologue[kWireFixedPayloadWords];
    ReadWords(&pos, prologue, kWireFixedPayloadWords);
    out->extra.resize(DecodeWirePrologue(prologue, out));
    ReadWords(&pos, out->extra.data(), out->extra.size());
    ix_->popped.store(ix_->popped.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
    ix_->head.store(pos, std::memory_order_release);
    return true;
  }

  // Decodes every published record in order without consuming any: for a
  // reader that excludes the consumer, on a ring whose records all fit.
  template <typename F>
  void ForEachUnread(F&& f) const {
    const uint64_t tail = ix_->tail.load(std::memory_order_acquire);
    Message msg;
    for (uint64_t pos = ix_->head.load(std::memory_order_acquire); pos < tail;) {
      uint64_t prologue[kWireFixedPayloadWords];
      for (uint64_t& w : prologue) {
        w = words_[pos++ & mask_];
      }
      msg.extra.resize(DecodeWirePrologue(prologue, &msg));
      for (uint64_t& w : msg.extra) {
        w = words_[pos++ & mask_];
      }
      f(msg);
    }
  }

  // Cheap emptiness probe. From the consumer a false result is final; a
  // concurrent producer may make a true result stale immediately.
  bool EmptyHint() const {
    return ix_->head.load(std::memory_order_relaxed) == ix_->tail.load(std::memory_order_acquire);
  }

  // Records pushed but not yet popped (either side). A racy snapshot while
  // both sides run: the admission controller's load signal.
  size_t ApproxSize() const {
    const uint64_t popped = ix_->popped.load(std::memory_order_acquire);
    const uint64_t pushed = ix_->pushed.load(std::memory_order_acquire);
    return pushed >= popped ? static_cast<size_t>(pushed - popped) : 0;
  }

  // Capacity in messages without extra words.
  uint32_t capacity() const { return static_cast<uint32_t>((mask_ + 1) / kWordsPerMessage); }

 private:
  struct Indexes {
    // Producer line: the publish index in words, the records published,
    // and the producer's stale view of head.
    alignas(kCacheLineBytes) std::atomic<uint64_t> tail{0};
    std::atomic<uint64_t> pushed{0};
    uint64_t head_cache = 0;
    // Consumer line: the release index in words, the records popped and
    // the consumer's stale view of tail.
    alignas(kCacheLineBytes) std::atomic<uint64_t> head{0};
    std::atomic<uint64_t> popped{0};
    uint64_t tail_cache = 0;
  };
  static_assert(sizeof(Indexes) == 2 * kCacheLineBytes, "one cache line per side");
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "cross-process rings need address-free atomics");

  static uint64_t RoundUpCapacity(uint32_t capacity) {
    TM2C_CHECK_MSG(capacity >= 1 && capacity <= kMaxCapacity,
                   "SpscChannel capacity must be in [1, 2^24]");
    uint64_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    return cap;
  }

  void Place(void* mem, uint32_t capacity) {
    TM2C_CHECK_MSG(reinterpret_cast<uintptr_t>(mem) % kCacheLineBytes == 0,
                   "SpscChannel memory must be cache-line aligned");
    ix_ = new (mem) Indexes();
    words_ = reinterpret_cast<uint64_t*>(static_cast<char*>(mem) + sizeof(Indexes));
    mask_ = RoundUpCapacity(capacity) * kWordsPerMessage - 1;
  }

  // Free words at `tail`, refreshing the stale head view when short of
  // `need`.
  uint64_t Room(uint64_t tail, uint64_t need) {
    uint64_t room = mask_ + 1 - (tail - ix_->head_cache);
    if (room < need) {
      ix_->head_cache = ix_->head.load(std::memory_order_acquire);
      room = mask_ + 1 - (tail - ix_->head_cache);
    }
    return room;
  }

  // Published words at `pos`, refreshing the stale tail view when none.
  uint64_t Available(uint64_t pos) {
    if (ix_->tail_cache == pos) {
      ix_->tail_cache = ix_->tail.load(std::memory_order_acquire);
    }
    return ix_->tail_cache - pos;
  }

  // Copies `n` words from *pos on. Only a streamed record runs dry midway;
  // the words read so far then go back to the producer before yielding.
  void ReadWords(uint64_t* pos, uint64_t* out, uint64_t n) {
    for (uint64_t i = 0; i < n;) {
      const uint64_t avail = std::min(Available(*pos), n - i);
      if (avail == 0) {
        ix_->head.store(*pos, std::memory_order_release);
        std::this_thread::yield();
        continue;
      }
      for (const uint64_t end = i + avail; i < end; ++i, ++*pos) {
        out[i] = words_[*pos & mask_];
      }
    }
  }

  std::unique_ptr<void, decltype(&std::free)> owned_{nullptr, &std::free};
  Indexes* ix_ = nullptr;
  uint64_t* words_ = nullptr;
  uint64_t mask_ = 0;
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_SPSC_CHANNEL_H_
