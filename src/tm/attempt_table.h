// Flat, reusable state of one transaction attempt (see TxRuntime).
//
// An attempt touches a few hundred words and a few dozen lock units. The
// table keeps, per word address, what the attempt knows about that word:
// the value it buffered for writing and the value it first read. An
// address that is a lock unit's base (AddressMap::StripeOf) also carries
// what the attempt holds of the unit: a read lock, a write lock, a
// prefetch on its way. One probe answers each question the read path asks.
//
// Open addressing with linear probing over a power-of-two slot array,
// Fibonacci-hashed. A slot belongs to the current attempt only while its
// stamp equals the table's generation, so Clear() is O(1) and the slot
// array is reused from one attempt to the next; the stamps are swept only
// when the 16-bit generation wraps. The array starts at 16 slots, doubles
// when half full and never shrinks. Erase shifts the rest of the probe
// cluster back, so no tombstones build up.
#ifndef TM2C_SRC_TM_ATTEMPT_TABLE_H_
#define TM2C_SRC_TM_ATTEMPT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tm2c {

class AttemptTable {
 public:
  // Entry::flags. The word bits describe the word at the entry's address,
  // the unit bits the lock unit based there.
  static constexpr uint32_t kWritten = 1u << 0;      // word: `written` is buffered
  static constexpr uint32_t kRead = 1u << 1;         // word: `read` is the value read
  static constexpr uint32_t kReadLocked = 1u << 2;   // unit: read lock held
  static constexpr uint32_t kWriteLocked = 1u << 3;  // unit: write lock held
  static constexpr uint32_t kPrefetching = 1u << 4;  // unit: a prefetch is in flight
  static constexpr uint32_t kQueued = 1u << 5;       // unit: in the request being built

  class Entry {
   public:
    uint64_t addr() const { return addr_; }
    uint64_t written = 0;
    uint64_t read = 0;
    uint32_t flags = 0;

   private:
    friend class AttemptTable;
    uint16_t generation_ = 0;  // 0 never matches: an empty slot
    uint64_t addr_ = 0;
  };
  static_assert(sizeof(Entry) == 32, "two entries per cache line");

  AttemptTable() : slots_(kInitialSlots) {}

  // The entry for `addr`, or null.
  Entry* Find(uint64_t addr) {
    for (size_t i = HomeSlot(addr);; i = (i + 1) & mask()) {
      Entry& slot = slots_[i];
      if (slot.generation_ != generation_) {
        return nullptr;
      }
      if (slot.addr_ == addr) {
        return &slot;
      }
    }
  }

  // The flags of `addr`'s entry, 0 when it has none.
  uint32_t FlagsOf(uint64_t addr) {
    const Entry* entry = Find(addr);
    return entry == nullptr ? 0 : entry->flags;
  }

  // The entry for `addr`, added with no flags if absent. Adding may grow
  // the table, which moves every entry: a pointer taken before is stale.
  Entry& Insert(uint64_t addr) {
    for (;;) {
      size_t i = HomeSlot(addr);
      for (; slots_[i].generation_ == generation_; i = (i + 1) & mask()) {
        if (slots_[i].addr_ == addr) {
          return slots_[i];
        }
      }
      if (2 * (size_ + 1) <= slots_.size()) {
        Entry& slot = slots_[i];
        slot = Entry();
        slot.addr_ = addr;
        slot.generation_ = generation_;
        ++size_;
        return slot;
      }
      Grow();
    }
  }

  // Removes `addr`'s entry; false if it had none.
  bool Erase(uint64_t addr) {
    Entry* found = Find(addr);
    if (found == nullptr) {
      return false;
    }
    // Backward shift: walk the rest of the cluster and move each entry
    // whose probe path crosses the hole into it.
    size_t hole = static_cast<size_t>(found - slots_.data());
    for (size_t i = (hole + 1) & mask(); slots_[i].generation_ == generation_;
         i = (i + 1) & mask()) {
      const size_t from_home = (i - HomeSlot(slots_[i].addr_)) & mask();
      if (from_home >= ((i - hole) & mask())) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].generation_ = 0;
    --size_;
    return true;
  }

  // Empties the table in O(1), keeping its slot array.
  void Clear() {
    size_ = 0;
    if (++generation_ == 0) {
      for (Entry& slot : slots_) {
        slot.generation_ = 0;
      }
      generation_ = 1;
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  // The slot `addr` probes first (tests use it to build collisions).
  size_t HomeSlot(uint64_t addr) const {
    return static_cast<size_t>((addr * 0x9e3779b97f4a7c15ull) >> shift_);
  }

 private:
  static constexpr size_t kInitialSlots = 16;
  static constexpr uint32_t kInitialShift = 64 - 4;  // 64 - log2(kInitialSlots)
  static_assert(kInitialSlots == size_t{1} << (64 - kInitialShift));

  size_t mask() const { return slots_.size() - 1; }

  void Grow() {
    std::vector<Entry> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Entry& slot : old) {
      if (slot.generation_ != generation_) {
        continue;
      }
      size_t i = HomeSlot(slot.addr_);
      while (slots_[i].generation_ == generation_) {
        i = (i + 1) & mask();
      }
      slots_[i] = slot;
    }
  }

  std::vector<Entry> slots_;
  size_t size_ = 0;
  uint32_t shift_ = kInitialShift;  // 64 - log2(capacity)
  uint16_t generation_ = 1;
};

}  // namespace tm2c

#endif  // TM2C_SRC_TM_ATTEMPT_TABLE_H_
