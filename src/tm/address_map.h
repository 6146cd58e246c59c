// Address-to-partition mapping.
//
// A memory location is mapped to its responsible DS-Lock node in one of two
// ways:
//
//  - By hashing (Section 3.2), the default: the stripe index is hashed with
//    a Fibonacci multiplier so that contiguous structures spread across
//    partitions. Good for load balance, oblivious to data placement.
//
//  - By explicit ownership: AddOwnedRange pins an address range to one
//    partition, overriding the hash for every stripe inside it. This is the
//    share-little layout (KVell-style): an application that partitions its
//    data can colocate each partition's memory with one DTM service core,
//    so every lock acquisition for that data goes to its owner and the
//    request stream stays partition-local (see src/apps/kvstore.h).
//
// The lock unit — the memory one DS-Lock entry covers — is `stripe_bytes`
// for hash-routed addresses. An owned range may register its own unit, any
// word multiple, behind a header that keeps stripe locks: StripeOf maps an
// address past the header to the start of its unit, counted from the
// header's end. The node pools (src/apps/node_pool.h) register one node
// slot as the unit, so reading a node whole takes one lock.
//
// AddressMap is copied freely (TxRuntime holds one by value, DtmService
// points at TmSystem's). The ownership directory, a fixed-capacity array
// sorted by base, lives in a SharedMapping made by the constructor, so
// every copy and every partition server forked later sees the same ranges
// and flips. Registration is setup-time only (before Run, so before the
// fork), but MoveOwnedRange may flip a range's owner at runtime: the array
// never changes after setup, so concurrent lookups only race on the atomic
// partition field and the directory version counter.
//
// Two partitions per range:
//  - `partition` is the current lock owner, flipped by migration.
//  - `home_partition` is frozen at registration and names the durability
//    partition: the WAL/checkpoint image that covers the range's slab.
//    Commit records keep routing to the home even after the lock traffic
//    migrated away, so recovery never has to merge logs across partitions.
#ifndef TM2C_SRC_TM_ADDRESS_MAP_H_
#define TM2C_SRC_TM_ADDRESS_MAP_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "src/common/check.h"
#include "src/common/shared_mapping.h"
#include "src/runtime/deployment.h"
#include "src/shmem/shared_memory.h"

namespace tm2c {

class AddressMap {
 public:
  AddressMap(const DeploymentPlan& plan, uint64_t stripe_bytes)
      : plan_(&plan),
        stripe_bytes_(stripe_bytes),
        directory_(NewDirectory()) {
    TM2C_CHECK(stripe_bytes >= 1 && (stripe_bytes & (stripe_bytes - 1)) == 0);
  }

  // Canonical lock unit for an address: the base address of the unit
  // that covers it. Every lock is keyed by this value.
  uint64_t StripeOf(uint64_t addr) const { return UnitOf(addr).first; }

  // Bytes one lock covers at `addr`: its owned range's lock unit past the
  // header, else stripe_bytes (see UnitOf for where units are cut short).
  uint64_t LockBytesOf(uint64_t addr) const { return UnitOf(addr).second; }

  // Pins [base, base + bytes) to `partition`. Its first `header_bytes` are
  // locked by stripe; the rest in units of `lock_bytes` (0 = stripe_bytes),
  // any multiple of the word, counted from the header's end. Base and
  // bytes are stripe-aligned, so no stripe straddles partitions. The range
  // must not overlap a previously registered range. Setup-time only: not
  // thread-safe against concurrent lookups, so register every range before
  // the system runs.
  void AddOwnedRange(uint64_t base, uint64_t bytes, uint32_t partition, uint64_t lock_bytes = 0,
                     uint64_t header_bytes = 0) {
    TM2C_CHECK_MSG(lock_bytes % kWordBytes == 0 && header_bytes % kWordBytes == 0,
                   "lock unit and header must be whole words");
    if (lock_bytes == 0) {
      lock_bytes = stripe_bytes_;
    }
    TM2C_CHECK_MSG(base % stripe_bytes_ == 0 && bytes % stripe_bytes_ == 0,
                   "owned range must be aligned to stripe_bytes");
    TM2C_CHECK_MSG(header_bytes <= bytes, "header longer than its owned range");
    TM2C_CHECK(bytes > 0);
    TM2C_CHECK(partition < plan_->num_service());
    Directory& dir = *directory_;
    TM2C_CHECK_MSG(dir.size < kMaxOwnedRanges, "ownership directory full");
    // The new range must end before the next range starts and begin after
    // the previous one ends.
    OwnedRange* next = UpperBound(base);
    TM2C_CHECK_MSG(next == dir.end() || base + bytes <= next->base,
                   "owned ranges must not overlap");
    TM2C_CHECK_MSG(next == dir.begin() || next[-1].base + next[-1].bytes <= base,
                   "owned ranges must not overlap");
    std::copy_backward(next, dir.end(), dir.end() + 1);
    ++dir.size;
    next->base = base;
    next->bytes = bytes;
    next->lock_bytes = lock_bytes;
    next->header_bytes = header_bytes;
    next->partition.store(partition, std::memory_order_relaxed);
    next->home_partition = partition;
  }

  // Flips the owner of an exact registered range. Runtime-safe: the map
  // structure is untouched, only the range's atomic partition field and the
  // directory version move. Returns the directory version after the flip.
  // The caller (the migration protocol in DtmService) is responsible for
  // having drained the range first. Const: the directory is shared mutable
  // state (see header comment), and the flipping service only holds a
  // const view of the map.
  uint64_t MoveOwnedRange(uint64_t base, uint64_t bytes, uint32_t new_partition) const {
    TM2C_CHECK(new_partition < plan_->num_service());
    OwnedRange* range = Find(base);
    TM2C_CHECK_MSG(range != nullptr && range->base == base && range->bytes == bytes,
                   "MoveOwnedRange must name an exact registered range");
    range->partition.store(new_partition, std::memory_order_relaxed);
    return directory_->version.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  // Looks up the registered range containing `addr`. Returns false when the
  // address is hash-routed. Out-params are optional.
  bool FindOwnedRange(uint64_t addr, uint64_t* base, uint64_t* bytes,
                      uint32_t* partition) const {
    const OwnedRange* range = Find(addr);
    if (range == nullptr) {
      return false;
    }
    if (base != nullptr) {
      *base = range->base;
    }
    if (bytes != nullptr) {
      *bytes = range->bytes;
    }
    if (partition != nullptr) {
      *partition = range->partition.load(std::memory_order_relaxed);
    }
    return true;
  }

  // Partition index responsible for the stripe: the owning partition if the
  // address falls in a registered range, the stripe hash otherwise.
  uint32_t PartitionOf(uint64_t addr) const {
    uint32_t partition = 0;
    if (FindOwnedRange(addr, nullptr, nullptr, &partition)) {
      return partition;
    }
    return HashPartitionOf(addr);
  }

  // Core id of the DTM service node responsible for the address.
  uint32_t ResponsibleCore(uint64_t addr) const {
    return plan_->ServiceCore(PartitionOf(addr));
  }

  // Durability partition for the address: the frozen home of its owned
  // range (migration never moves it), or the hash partition for unowned
  // addresses (which cannot migrate either).
  uint32_t DurableHomeOf(uint64_t addr) const {
    const OwnedRange* range = Find(addr);
    return range == nullptr ? HashPartitionOf(addr) : range->home_partition;
  }

  // Core id of the service hosting the address's write-ahead log.
  uint32_t DurableHomeCore(uint64_t addr) const {
    return plan_->ServiceCore(DurableHomeOf(addr));
  }

  // Monotonic directory version: bumped by every MoveOwnedRange. Lets
  // observers (the kOwnershipUpdate broadcast, tests) order flips.
  uint64_t version() const { return directory_->version.load(std::memory_order_acquire); }

  uint64_t stripe_bytes() const { return stripe_bytes_; }
  size_t num_owned_ranges() const { return directory_->size; }

  // Enumerates the registered owned ranges in address order (durability
  // uses this to capture each partition's initial image for checkpoint 0).
  // `partition` is the current lock owner; durability callers that need the
  // frozen home use ForEachDurableRange below.
  void ForEachOwnedRange(
      const std::function<void(uint64_t base, uint64_t bytes, uint32_t partition)>& fn) const {
    for (const OwnedRange& range : *directory_) {
      fn(range.base, range.bytes, range.partition.load(std::memory_order_relaxed));
    }
  }

  // Like ForEachOwnedRange but reports each range's durable home partition
  // (checkpoint capture must image a slab into the WAL that replays it).
  void ForEachDurableRange(
      const std::function<void(uint64_t base, uint64_t bytes, uint32_t partition)>& fn) const {
    for (const OwnedRange& range : *directory_) {
      fn(range.base, range.bytes, range.home_partition);
    }
  }

  // Human-readable dump of the routing configuration: stripe size, the
  // hash fallback, and every owned range with its pinned partition, owning
  // core, stripe-locked header and lock unit. For misrouting post-mortems —
  // a batch refusal with ConflictKind::kNone means runtime and service
  // disagreed on exactly the information printed here.
  std::string Describe() const {
    std::ostringstream out;
    out << "AddressMap: stripe_bytes=" << stripe_bytes_ << ", partitions="
        << plan_->num_service() << ", owned_ranges=" << directory_->size
        << ", version=" << version() << " (hash fallback elsewhere)\n";
    for (const OwnedRange& range : *directory_) {
      const uint32_t partition = range.partition.load(std::memory_order_relaxed);
      out << "  [0x" << std::hex << range.base << ", 0x" << range.base + range.bytes << std::dec
          << ") -> partition " << partition << " (core "
          << plan_->ServiceCore(partition) << ", durable home " << range.home_partition
          << "), header_bytes=" << range.header_bytes << ", lock_bytes=" << range.lock_bytes
          << "\n";
    }
    return out.str();
  }

 private:
  static constexpr size_t kMaxOwnedRanges = 1024;

  // Registration shifts ranges to keep the directory sorted. It runs at
  // setup, before any reader, so copying the atomic needs no care.
  struct CopyableAtomic : std::atomic<uint32_t> {
    CopyableAtomic& operator=(const CopyableAtomic& other) {
      store(other.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };
  struct OwnedRange {
    uint64_t base;
    uint64_t bytes;
    uint64_t lock_bytes;    // the lock unit past the header (see file comment)
    uint64_t header_bytes;  // the stripe-locked prefix
    // Current lock owner; migration flips it in place while readers race.
    CopyableAtomic partition;
    // Durability home, frozen at registration (see file comment).
    uint32_t home_partition;
  };
  // The registered ranges sorted by base, shared by every copy of the map
  // and every process forked after it was made (see header). Constructing
  // it leaves `ranges` untouched, each entry written only when registered:
  // touching the array's pages would cost a shared-memory fault per page.
  struct Directory {
    std::atomic<uint64_t> version{0};
    size_t size = 0;
    OwnedRange ranges[kMaxOwnedRanges];

    OwnedRange* begin() { return ranges; }
    OwnedRange* end() { return ranges + size; }
  };
  static_assert(std::is_trivially_destructible_v<Directory>);  // unmapping ends it

  static std::shared_ptr<Directory> NewDirectory() {
    auto mapping = std::make_shared<SharedMapping>(sizeof(Directory));
    return std::shared_ptr<Directory>(mapping, new (mapping->data()) Directory);
  }

  // The first registered range whose base lies above `addr`.
  OwnedRange* UpperBound(uint64_t addr) const {
    Directory& dir = *directory_;
    return std::upper_bound(dir.begin(), dir.end(), addr,
                            [](uint64_t a, const OwnedRange& range) { return a < range.base; });
  }

  // The registered range containing `addr`, or null for a hash-routed
  // address.
  OwnedRange* Find(uint64_t addr) const {
    OwnedRange* next = UpperBound(addr);
    if (next == directory_->begin()) {
      return nullptr;
    }
    return addr - next[-1].base < next[-1].bytes ? next - 1 : nullptr;
  }

  // The lock unit covering `addr`: its base (the lock key) and its bytes.
  // Hash-routed and header addresses lock by stripe; a header stripe ends
  // where the header does, and a unit where its range does.
  std::pair<uint64_t, uint64_t> UnitOf(uint64_t addr) const {
    const OwnedRange* range = Find(addr);
    const uint64_t units = range == nullptr ? UINT64_MAX : range->base + range->header_bytes;
    if (addr < units) {
      const uint64_t stripe = addr & ~(stripe_bytes_ - 1);
      return {stripe, std::min(stripe_bytes_, units - stripe)};
    }
    const uint64_t unit = addr - (addr - units) % range->lock_bytes;
    return {unit, std::min(range->lock_bytes, range->base + range->bytes - unit)};
  }

  uint32_t HashPartitionOf(uint64_t addr) const {
    const uint64_t stripe = addr / stripe_bytes_;
    const uint64_t h = stripe * 0x9e3779b97f4a7c15ull;
    return static_cast<uint32_t>((h >> 32) % plan_->num_service());
  }

  const DeploymentPlan* plan_;
  uint64_t stripe_bytes_;
  std::shared_ptr<Directory> directory_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_TM_ADDRESS_MAP_H_
