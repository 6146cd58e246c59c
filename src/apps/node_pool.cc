#include "src/apps/node_pool.h"

#include <algorithm>

#include "src/common/check.h"

namespace tm2c {

namespace {

uint64_t RoundUp(uint64_t n, uint64_t unit) { return (n + unit - 1) / unit * unit; }

}  // namespace

NodePool::NodePool(ShmAllocator& allocator, SharedMemory& mem, AddressMap& map,
                   const DeploymentPlan& plan, uint64_t header_words, uint64_t node_words,
                   uint32_t capacity, uint64_t lock_bytes)
    : capacity_(capacity) {
  TM2C_CHECK(node_words >= 1 && capacity >= 1);
  const uint32_t num_parts = plan.num_service();
  TM2C_CHECK(num_parts >= 1);
  const uint64_t unit = std::max(lock_bytes, map.stripe_bytes());
  const uint64_t pad = lock_bytes == 0 ? kWordBytes : unit;
  const uint64_t header_bytes = RoundUp(header_words * kWordBytes, pad);
  node_bytes_ = RoundUp(node_words * kWordBytes, pad);
  slab_bytes_ = RoundUp(header_bytes + capacity_ * node_bytes_, unit);
  parts_.reserve(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    auto part = std::make_unique<Partition>();
    // Over-allocate by one unit so the slab can be aligned.
    const uint64_t raw = allocator.Alloc(slab_bytes_ + unit, plan.ServiceCore(p));
    part->slab_base = RoundUp(raw, unit);
    part->pool_base = part->slab_base + header_bytes;
    map.AddOwnedRange(part->slab_base, slab_bytes_, p, unit);
    for (uint64_t off = 0; off < slab_bytes_; off += kWordBytes) {
      mem.StoreWord(part->slab_base + off, 0);
    }
    parts_.push_back(std::move(part));
  }
}

uint64_t NodePool::Alloc(uint32_t partition) {
  Partition& part = *parts_[partition];
  std::lock_guard<std::mutex> lock(part.mu);
  uint64_t node = 0;
  if (!part.free_nodes.empty()) {
    node = part.free_nodes.back();
    part.free_nodes.pop_back();
  } else if (part.next_unused < capacity_) {
    node = part.pool_base + part.next_unused * node_bytes_;
    ++part.next_unused;
  }
  if (node != 0) {
    ++part.in_use;
  }
  return node;
}

void NodePool::Free(uint32_t partition, uint64_t node) {
  Partition& part = *parts_[partition];
  std::lock_guard<std::mutex> lock(part.mu);
  TM2C_DCHECK(part.in_use > 0);
  --part.in_use;
  part.free_nodes.push_back(node);
}

uint64_t NodePool::InUse(uint32_t partition) const {
  TM2C_CHECK(partition < parts_.size());
  std::lock_guard<std::mutex> lock(parts_[partition]->mu);
  return parts_[partition]->in_use;
}

void NodePool::Rebuild(uint32_t partition, const std::vector<bool>& live) {
  TM2C_CHECK(partition < parts_.size() && live.size() == capacity_);
  Partition& part = *parts_[partition];
  std::lock_guard<std::mutex> lock(part.mu);
  part.in_use = 0;
  part.next_unused = 0;
  for (uint32_t i = 0; i < capacity_; ++i) {
    if (live[i]) {
      ++part.in_use;
      part.next_unused = i + 1;
    }
  }
  part.free_nodes.clear();
  for (uint32_t i = 0; i < part.next_unused; ++i) {
    if (!live[i]) {
      part.free_nodes.push_back(part.pool_base + i * node_bytes_);
    }
  }
}

}  // namespace tm2c
