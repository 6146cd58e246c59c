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
// for hash-routed addresses. An owned range may register a coarser
// power-of-two unit: StripeOf then maps every address inside it to the
// base of its unit, so a store whose records are read whole (a B+-tree
// node, see src/apps/ordered_index.h) takes one lock per record.
//
// AddressMap is copied freely (TxRuntime holds one by value, DtmService
// points at TmSystem's); the ownership directory is shared state behind a
// shared_ptr, so ranges registered through any copy are visible to all of
// them. Range registration is setup-time only (call AddOwnedRange before
// the system runs), but the *owner* of a registered range may move at
// runtime: MoveOwnedRange flips the range's partition in place — the map
// structure itself never changes after setup, so concurrent lookups only
// race on the atomic partition field and the directory version counter.
//
// Two partitions per range:
//  - `partition` is the current lock owner, flipped by migration.
//  - `home_partition` is frozen at registration and names the durability
//    partition: the WAL/checkpoint image that covers the range's slab.
//    Commit records keep routing to the home even after the lock traffic
//    migrated away, so recovery never has to merge logs across partitions.
#ifndef TM2C_SRC_TM_ADDRESS_MAP_H_
#define TM2C_SRC_TM_ADDRESS_MAP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/deployment.h"

namespace tm2c {

class AddressMap {
 public:
  AddressMap(const DeploymentPlan& plan, uint64_t stripe_bytes)
      : plan_(&plan),
        stripe_bytes_(stripe_bytes),
        directory_(std::make_shared<Directory>()) {
    TM2C_CHECK(stripe_bytes >= 1 && (stripe_bytes & (stripe_bytes - 1)) == 0);
  }

  // Canonical lock unit for an address: the base address of the unit
  // that covers it. Every lock is keyed by this value.
  uint64_t StripeOf(uint64_t addr) const { return addr & ~(LockBytesOf(addr) - 1); }

  // Bytes one lock covers at `addr`: its owned range's lock unit, or
  // stripe_bytes for a hash-routed address.
  uint64_t LockBytesOf(uint64_t addr) const {
    const Entry* range = Find(addr);
    return range == nullptr ? stripe_bytes_ : range->second.lock_bytes;
  }

  // Pins [base, base + bytes) to `partition`, locked in units of
  // `lock_bytes` (0 = stripe_bytes): a power of two, at least stripe_bytes,
  // with base and bytes aligned to it (a unit cannot straddle partitions).
  // The range must not overlap a previously registered range. Setup-time
  // only: not thread-safe against concurrent lookups, so register every
  // range before the system runs.
  void AddOwnedRange(uint64_t base, uint64_t bytes, uint32_t partition, uint64_t lock_bytes = 0) {
    if (lock_bytes == 0) {
      lock_bytes = stripe_bytes_;
    }
    TM2C_CHECK_MSG((lock_bytes & (lock_bytes - 1)) == 0 && lock_bytes >= stripe_bytes_,
                   "lock unit must be a power of two no smaller than stripe_bytes");
    TM2C_CHECK_MSG(base % lock_bytes == 0 && bytes % lock_bytes == 0,
                   "owned range must be aligned to its lock unit");
    TM2C_CHECK(bytes > 0);
    TM2C_CHECK(partition < plan_->num_service());
    auto& ranges = directory_->ranges;
    // The new range must end before the next range starts and begin after
    // the previous one ends.
    auto next = ranges.lower_bound(base);
    TM2C_CHECK_MSG(next == ranges.end() || base + bytes <= next->first,
                   "owned ranges must not overlap");
    if (next != ranges.begin()) {
      auto prev = std::prev(next);
      TM2C_CHECK_MSG(prev->first + prev->second.bytes <= base,
                     "owned ranges must not overlap");
    }
    ranges.try_emplace(base, bytes, partition, lock_bytes);
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
    auto it = directory_->ranges.find(base);
    TM2C_CHECK_MSG(it != directory_->ranges.end() && it->second.bytes == bytes,
                   "MoveOwnedRange must name an exact registered range");
    it->second.partition.store(new_partition, std::memory_order_relaxed);
    return directory_->version.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  // Looks up the registered range containing `addr`. Returns false when the
  // address is hash-routed. Out-params are optional.
  bool FindOwnedRange(uint64_t addr, uint64_t* base, uint64_t* bytes,
                      uint32_t* partition) const {
    const Entry* range = Find(addr);
    if (range == nullptr) {
      return false;
    }
    if (base != nullptr) {
      *base = range->first;
    }
    if (bytes != nullptr) {
      *bytes = range->second.bytes;
    }
    if (partition != nullptr) {
      *partition = range->second.partition.load(std::memory_order_relaxed);
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
    const Entry* range = Find(addr);
    return range == nullptr ? HashPartitionOf(addr) : range->second.home_partition;
  }

  // Core id of the service hosting the address's write-ahead log.
  uint32_t DurableHomeCore(uint64_t addr) const {
    return plan_->ServiceCore(DurableHomeOf(addr));
  }

  // Monotonic directory version: bumped by every MoveOwnedRange. Lets
  // observers (the kOwnershipUpdate broadcast, tests) order flips.
  uint64_t version() const { return directory_->version.load(std::memory_order_acquire); }

  uint64_t stripe_bytes() const { return stripe_bytes_; }
  size_t num_owned_ranges() const { return directory_->ranges.size(); }

  // Enumerates the registered owned ranges in address order (durability
  // uses this to capture each partition's initial image for checkpoint 0).
  // `partition` is the current lock owner; durability callers that need the
  // frozen home use ForEachDurableRange below.
  void ForEachOwnedRange(
      const std::function<void(uint64_t base, uint64_t bytes, uint32_t partition)>& fn) const {
    for (const auto& [base, range] : directory_->ranges) {
      fn(base, range.bytes, range.partition.load(std::memory_order_relaxed));
    }
  }

  // Like ForEachOwnedRange but reports each range's durable home partition
  // (checkpoint capture must image a slab into the WAL that replays it).
  void ForEachDurableRange(
      const std::function<void(uint64_t base, uint64_t bytes, uint32_t partition)>& fn) const {
    for (const auto& [base, range] : directory_->ranges) {
      fn(base, range.bytes, range.home_partition);
    }
  }

  // Human-readable dump of the routing configuration: stripe size, the
  // hash fallback, and every owned range with its pinned partition, owning
  // core and lock unit. For misrouting post-mortems — a batch refusal with
  // ConflictKind::kNone means runtime and service disagreed on exactly the
  // information printed here.
  std::string Describe() const {
    std::ostringstream out;
    out << "AddressMap: stripe_bytes=" << stripe_bytes_ << ", partitions="
        << plan_->num_service() << ", owned_ranges=" << directory_->ranges.size()
        << ", version=" << version() << " (hash fallback elsewhere)\n";
    for (const auto& [base, range] : directory_->ranges) {
      const uint32_t partition = range.partition.load(std::memory_order_relaxed);
      out << "  [0x" << std::hex << base << ", 0x" << base + range.bytes << std::dec
          << ") -> partition " << partition << " (core "
          << plan_->ServiceCore(partition) << ", durable home " << range.home_partition
          << "), lock_bytes=" << range.lock_bytes << "\n";
    }
    return out.str();
  }

 private:
  struct OwnedRange {
    OwnedRange(uint64_t bytes_in, uint32_t partition_in, uint64_t lock_bytes_in)
        : bytes(bytes_in),
          lock_bytes(lock_bytes_in),
          partition(partition_in),
          home_partition(partition_in) {}
    uint64_t bytes = 0;
    uint64_t lock_bytes = 0;  // the range's lock unit (see file comment)
    // Current lock owner; migration flips it in place while readers race.
    std::atomic<uint32_t> partition{0};
    // Durability home, frozen at registration (see file comment).
    uint32_t home_partition = 0;
  };
  // base address -> range; shared by every copy of the map (see header).
  struct Directory {
    std::map<uint64_t, OwnedRange> ranges;
    std::atomic<uint64_t> version{0};
  };
  using Entry = std::pair<const uint64_t, OwnedRange>;

  // The registered range containing `addr`, or null for a hash-routed
  // address.
  const Entry* Find(uint64_t addr) const {
    const auto& ranges = directory_->ranges;
    auto it = ranges.upper_bound(addr);
    if (it == ranges.begin()) {
      return nullptr;
    }
    --it;
    return addr - it->first < it->second.bytes ? &*it : nullptr;
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
