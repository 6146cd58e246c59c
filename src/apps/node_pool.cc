#include "src/apps/node_pool.h"

#include <algorithm>

#include "src/common/check.h"

namespace tm2c {

namespace {

// The slab's alignment: one cache line.
constexpr uint64_t kLineBytes = 64;

uint64_t RoundUp(uint64_t n, uint64_t unit) { return (n + unit - 1) / unit * unit; }

}  // namespace

NodePool::NodePool(ShmAllocator& allocator, SharedMemory& mem, AddressMap& map,
                   const DeploymentPlan& plan, uint64_t header_words, uint64_t node_words,
                   uint32_t capacity)
    : capacity_(capacity), node_bytes_(node_words * kWordBytes) {
  TM2C_CHECK(node_words >= 1 && capacity >= 1);
  const uint32_t num_parts = plan.num_service();
  TM2C_CHECK(num_parts >= 1);
  // The slot's natural alignment: the largest power of two dividing it,
  // at most a line. Padding the header to it keeps every slot so aligned.
  const uint64_t slot_align = std::min(node_bytes_ & (~node_bytes_ + 1), kLineBytes);
  const uint64_t header_bytes = RoundUp(header_words * kWordBytes, slot_align);
  const uint64_t slab_align = std::max(kLineBytes, map.stripe_bytes());
  slab_bytes_ = RoundUp(header_bytes + capacity_ * node_bytes_, map.stripe_bytes());
  parts_.reserve(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    auto part = std::make_unique<Partition>();
    // Over-allocate so the slab can be aligned.
    const uint64_t raw = allocator.Alloc(slab_bytes_ + slab_align, plan.ServiceCore(p));
    part->slab_base = RoundUp(raw, slab_align);
    part->pool_base = part->slab_base + header_bytes;
    map.AddOwnedRange(part->slab_base, slab_bytes_, p, node_bytes_, header_bytes);
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
