#include "src/apps/ordered_index.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <type_traits>

#include "src/apps/access.h"
#include "src/common/check.h"

namespace tm2c {
namespace {

// Descents give up past this depth: a fanout-3 tree over 2^64 keys is
// ~40 levels in theory, but every pool this suite sizes tops out far
// shallower; past the bound the structure is corrupt and a bounded wrong
// answer beats a wedged walk.
constexpr uint32_t kMaxDepth = 24;

// The meta word's top bit: set by the transaction that unlinks the node.
constexpr uint64_t kDeadMark = uint64_t{1} << 63;

uint64_t PackMeta(bool is_leaf, uint32_t count) {
  return (uint64_t{count} << 1) | (is_leaf ? 1u : 0u);
}

// The count a meta word packs, whatever its dead mark.
uint64_t MetaCount(uint64_t meta) { return (meta & ~kDeadMark) >> 1; }

}  // namespace

OrderedIndex::OrderedIndex(ShmAllocator& allocator, SharedMemory& mem, AddressMap& map,
                           const DeploymentPlan& plan, OrderedIndexConfig cfg)
    : mem_(&mem),
      cfg_(cfg),
      pool_(allocator, mem, map, plan, /*header_words=*/1, node_words(),
            cfg_.capacity_per_partition) {
  TM2C_CHECK(cfg_.key_min >= 1);  // 0 is the null pointer everywhere
  TM2C_CHECK(cfg_.key_max >= cfg_.key_min);
  TM2C_CHECK(cfg_.value_words >= 1);
  TM2C_CHECK(cfg_.fanout >= 3 && cfg_.fanout <= 16);
  TM2C_CHECK(cfg_.capacity_per_partition >= 4);
  // Every partition must own a non-empty key sub-range.
  TM2C_CHECK(cfg_.key_max - cfg_.key_min + 1 >= num_partitions());
  for (uint32_t p = 0; p < num_partitions(); ++p) {
    // Each partition starts as one empty leaf (pool slot 0) as the root.
    const uint64_t root = pool_.Alloc(p);
    mem_->StoreWord(RootPtrAddr(p), root);
    mem_->StoreWord(MetaAddr(root), PackMeta(/*is_leaf=*/true, 0));
  }
}

// ---------------------------------------------------------------------------
// Partitioning and pool management
// ---------------------------------------------------------------------------

uint64_t OrderedIndex::PartitionMinKey(uint32_t partition) const {
  const unsigned __int128 span =
      static_cast<unsigned __int128>(cfg_.key_max - cfg_.key_min) + 1;
  return cfg_.key_min +
         static_cast<uint64_t>(span * partition / num_partitions());
}

uint32_t OrderedIndex::PartitionOfKey(uint64_t key) const {
  TM2C_DCHECK(key >= cfg_.key_min && key <= cfg_.key_max);
  const unsigned __int128 span =
      static_cast<unsigned __int128>(cfg_.key_max - cfg_.key_min) + 1;
  const unsigned __int128 off = key - cfg_.key_min;
  uint32_t p = static_cast<uint32_t>(off * num_partitions() / span);
  // Floor-division rounding can land one partition off the boundary table
  // PartitionMinKey defines; nudge into agreement (at most one step).
  while (p + 1 < num_partitions() && key >= PartitionMinKey(p + 1)) {
    ++p;
  }
  while (p > 0 && key < PartitionMinKey(p)) {
    --p;
  }
  return p;
}

std::pair<uint64_t, uint64_t> OrderedIndex::SlabRange(uint32_t partition) const {
  TM2C_CHECK(partition < num_partitions());
  return pool_.Slab(partition);
}

uint64_t OrderedIndex::NodesInUse(uint32_t partition) const { return pool_.InUse(partition); }

uint64_t OrderedIndex::TakeScratchNode(uint32_t partition, SmoScratch* scratch) {
  for (size_t i = 0; i < scratch->fresh.size(); ++i) {
    if (!scratch->taken[i] && scratch->fresh[i].first == partition) {
      scratch->taken[i] = true;
      return scratch->fresh[i].second;
    }
  }
  const uint64_t node = pool_.Alloc(partition);
  TM2C_CHECK_MSG(node != 0, "OrderedIndex SMO needs a node (partition pool exhausted?)");
  scratch->fresh.emplace_back(partition, node);
  scratch->taken.push_back(true);
  return node;
}

void OrderedIndex::SettleScratch(SmoScratch* scratch) {
  for (size_t i = 0; i < scratch->fresh.size(); ++i) {
    if (!scratch->taken[i]) {
      pool_.Free(scratch->fresh[i].first, scratch->fresh[i].second);
    }
  }
  scratch->fresh.clear();
  scratch->taken.clear();
  for (const auto& [p, node] : scratch->freed) {
    pool_.Free(p, node);
  }
  scratch->freed.clear();
}

// ---------------------------------------------------------------------------
// Shared node primitives
// ---------------------------------------------------------------------------

template <typename Acc>
OrderedIndex::NodeView OrderedIndex::ReadNode(const Acc& acc, uint64_t node) const {
  const uint32_t fan = cfg_.fanout;
  std::vector<uint64_t> addrs;
  addrs.reserve(2 + 2 * size_t{fan});
  addrs.push_back(MetaAddr(node));
  addrs.push_back(NextAddr(node));
  for (uint32_t i = 0; i < fan; ++i) {
    addrs.push_back(KeyAddr(node, i));
  }
  for (uint32_t i = 0; i < fan; ++i) {
    addrs.push_back(PayloadAddr(node, i));
  }
  const std::vector<uint64_t> vals = acc.LoadMany(addrs);
  NodeView v;
  v.addr = node;
  v.is_leaf = (vals[0] & 1) != 0;
  v.dead = (vals[0] & kDeadMark) != 0;
  v.count = static_cast<uint32_t>(std::min<uint64_t>(MetaCount(vals[0]), fan));
  v.next = vals[1];
  v.keys.assign(vals.begin() + 2, vals.begin() + 2 + fan);
  v.payload0.assign(vals.begin() + 2 + fan, vals.end());
  return v;
}

template <typename Acc>
bool OrderedIndex::Descend(const Acc& acc, uint32_t partition, uint64_t key,
                           bool want_path, Descent* d) const {
  d->path.clear();
  uint64_t node = acc.Load(RootPtrAddr(partition));
  for (uint32_t depth = 0; depth < kMaxDepth; ++depth) {
    if (!pool_.Contains(partition, node)) {
      return false;
    }
    NodeView v = ReadNode(acc, node);
    if (v.is_leaf) {
      d->leaf = std::move(v);
      return true;
    }
    if (v.count == 0) {
      return false;
    }
    // Rightmost separator <= key; entry 0 also catches smaller keys.
    uint32_t i = v.count - 1;
    while (i > 0 && v.keys[i] > key) {
      --i;
    }
    v.down_index = i;
    node = v.payload0[i];
    if (want_path) {
      d->path.push_back(std::move(v));
    }
  }
  return false;  // deeper than any intact tree: corrupt
}

bool OrderedIndex::LandLeaf(Tx& tx, uint32_t partition, uint64_t key, NodeView* leaf) const {
  // Peek down as Descend routes, reading only the words routing needs.
  const PeekAccess peek{&tx};
  uint64_t node = peek.Load(RootPtrAddr(partition));
  for (uint32_t depth = 0;; ++depth) {
    if (depth == kMaxDepth || !pool_.Contains(partition, node)) {
      return false;
    }
    const uint64_t meta = peek.Load(MetaAddr(node));
    if ((meta & 1) != 0) {
      break;  // a leaf, dead or alive: the check below decides
    }
    const uint32_t count = static_cast<uint32_t>(std::min<uint64_t>(MetaCount(meta), cfg_.fanout));
    if (count == 0 || (meta & kDeadMark) != 0) {
      return false;
    }
    uint32_t i = count - 1;
    while (i > 0 && peek.Load(KeyAddr(node, i)) > key) {
      --i;
    }
    node = peek.Load(PayloadAddr(node, i));
  }
  *leaf = ReadNode(TxAccess{&tx}, node);
  return cfg_.fault == FaultMode::kLandSkipCheck ||
         (leaf->is_leaf && !leaf->dead && leaf->count > 0 && leaf->keys[0] <= key);
}

template <typename Acc>
bool OrderedIndex::LeafOf(const Acc& acc, uint32_t partition, uint64_t key,
                          NodeView* leaf) const {
  if constexpr (std::is_same_v<Acc, TxAccess>) {
    if (LandLeaf(*acc.tx, partition, key, leaf)) {
      // Right along the chain, locked, while the next leaf starts at or
      // below the key.
      for (uint32_t steps = 0; leaf->count > 0 && key > leaf->keys[leaf->count - 1] &&
                               pool_.Contains(partition, leaf->next) &&
                               ++steps <= cfg_.capacity_per_partition;) {
        NodeView next = ReadNode(acc, leaf->next);
        if (!next.is_leaf || next.count == 0 || next.keys[0] > key) {
          break;
        }
        *leaf = std::move(next);
      }
      return true;
    }
  }
  Descent d;
  if (!Descend(acc, partition, key, /*want_path=*/false, &d)) {
    return false;
  }
  *leaf = std::move(d.leaf);
  return true;
}

template <typename Acc>
std::vector<OrderedIndex::FullEntry> OrderedIndex::MaterializeEntries(
    const Acc& acc, const NodeView& view) const {
  std::vector<FullEntry> entries(view.count);
  for (uint32_t i = 0; i < view.count; ++i) {
    entries[i].key = view.keys[i];
    entries[i].payload.assign(cfg_.value_words, 0);
    entries[i].payload[0] = view.payload0[i];
  }
  if (view.is_leaf && cfg_.value_words > 1) {
    // One batch for every remaining value word of every entry.
    std::vector<uint64_t> addrs;
    addrs.reserve(size_t{view.count} * (cfg_.value_words - 1));
    for (uint32_t i = 0; i < view.count; ++i) {
      for (uint32_t w = 1; w < cfg_.value_words; ++w) {
        addrs.push_back(PayloadAddr(view.addr, i) + uint64_t{w} * kWordBytes);
      }
    }
    const std::vector<uint64_t> vals = acc.LoadMany(addrs);
    size_t at = 0;
    for (uint32_t i = 0; i < view.count; ++i) {
      for (uint32_t w = 1; w < cfg_.value_words; ++w) {
        entries[i].payload[w] = vals[at++];
      }
    }
  }
  return entries;
}

template <typename Acc>
void OrderedIndex::WriteEntries(const Acc& acc, uint64_t node, bool is_leaf,
                                const std::vector<FullEntry>& entries,
                                uint32_t from) const {
  for (uint32_t i = from; i < entries.size(); ++i) {
    acc.Store(KeyAddr(node, i), entries[i].key);
    const uint32_t words = is_leaf ? cfg_.value_words : 1;
    for (uint32_t w = 0; w < words; ++w) {
      acc.Store(PayloadAddr(node, i) + uint64_t{w} * kWordBytes, entries[i].payload[w]);
    }
  }
}

template <typename Acc>
void OrderedIndex::WriteMeta(const Acc& acc, uint64_t node, bool is_leaf,
                             uint32_t count) const {
  acc.Store(MetaAddr(node), PackMeta(is_leaf, count));
}

template <typename Acc>
void OrderedIndex::Unlink(const Acc& acc, uint32_t partition, uint64_t node, bool is_leaf,
                          uint32_t count, SmoScratch* scratch) const {
  if (cfg_.fault != FaultMode::kSmoSkipDeadMark) {
    acc.Store(MetaAddr(node), PackMeta(is_leaf, count) | kDeadMark);
  }
  scratch->freed.emplace_back(partition, node);
}

// ---------------------------------------------------------------------------
// Core algorithms (shared by the Tx and Host paths)
// ---------------------------------------------------------------------------

template <typename Acc>
bool OrderedIndex::GetImpl(const Acc& acc, uint64_t key, uint64_t* value) const {
  NodeView leaf;
  if (!LeafOf(acc, PartitionOfKey(key), key, &leaf)) {
    return false;
  }
  for (uint32_t i = 0; i < leaf.count; ++i) {
    if (leaf.keys[i] != key) {
      continue;
    }
    value[0] = leaf.payload0[i];
    if (cfg_.value_words > 1) {
      std::vector<uint64_t> addrs(cfg_.value_words - 1);
      for (uint32_t w = 1; w < cfg_.value_words; ++w) {
        addrs[w - 1] = PayloadAddr(leaf.addr, i) + uint64_t{w} * kWordBytes;
      }
      const std::vector<uint64_t> vals = acc.LoadMany(addrs);
      std::copy(vals.begin(), vals.end(), value + 1);
    }
    return true;
  }
  return false;
}

template <typename Acc>
bool OrderedIndex::RmwImpl(const Acc& acc, uint64_t key,
                           const std::function<void(uint64_t*)>& fn) const {
  std::vector<uint64_t> value(cfg_.value_words);
  NodeView leaf;
  if (!LeafOf(acc, PartitionOfKey(key), key, &leaf)) {
    return false;
  }
  for (uint32_t i = 0; i < leaf.count; ++i) {
    if (leaf.keys[i] != key) {
      continue;
    }
    value[0] = leaf.payload0[i];
    if (cfg_.value_words > 1) {
      std::vector<uint64_t> addrs(cfg_.value_words - 1);
      for (uint32_t w = 1; w < cfg_.value_words; ++w) {
        addrs[w - 1] = PayloadAddr(leaf.addr, i) + uint64_t{w} * kWordBytes;
      }
      const std::vector<uint64_t> vals = acc.LoadMany(addrs);
      std::copy(vals.begin(), vals.end(), value.data() + 1);
    }
    fn(value.data());
    for (uint32_t w = 0; w < cfg_.value_words; ++w) {
      acc.Store(PayloadAddr(leaf.addr, i) + uint64_t{w} * kWordBytes, value[w]);
    }
    return true;
  }
  return false;
}

template <typename Acc>
uint32_t OrderedIndex::ScanImpl(
    const Acc& acc, uint64_t lo, uint64_t hi, uint32_t limit,
    const std::function<void(uint64_t, const uint64_t*)>& sink) const {
  if (limit == 0 || hi < cfg_.key_min || lo > cfg_.key_max || lo > hi) {
    return 0;
  }
  lo = std::max(lo, cfg_.key_min);
  hi = std::min(hi, cfg_.key_max);
  uint32_t appended = 0;
  std::vector<uint64_t> value(cfg_.value_words);
  for (uint32_t p = PartitionOfKey(lo); p < num_partitions(); ++p) {
    if (PartitionMinKey(p) > hi) {
      break;
    }
    NodeView v;
    if (!LeafOf(acc, p, std::max(lo, PartitionMinKey(p)), &v)) {
      continue;  // corrupt partition: bounded wrong answer, skip it
    }
    uint32_t steps = 0;  // corruption bound: a chain never exceeds the pool
    while (true) {
      // Qualifying slots of this leaf (keys are sorted within a leaf).
      uint32_t a = 0;
      while (a < v.count && v.keys[a] < lo) {
        ++a;
      }
      uint32_t b = a;
      while (b < v.count && v.keys[b] <= hi && b - a < limit - appended) {
        ++b;
      }
      // One batch for the remaining value words of every reported entry.
      std::vector<uint64_t> rest;
      if (cfg_.value_words > 1 && b > a) {
        std::vector<uint64_t> addrs;
        addrs.reserve(size_t{b - a} * (cfg_.value_words - 1));
        for (uint32_t i = a; i < b; ++i) {
          for (uint32_t w = 1; w < cfg_.value_words; ++w) {
            addrs.push_back(PayloadAddr(v.addr, i) + uint64_t{w} * kWordBytes);
          }
        }
        rest = acc.LoadMany(addrs);
      }
      for (uint32_t i = a; i < b; ++i) {
        value[0] = v.payload0[i];
        for (uint32_t w = 1; w < cfg_.value_words; ++w) {
          value[w] = rest[size_t{i - a} * (cfg_.value_words - 1) + (w - 1)];
        }
        sink(v.keys[i], value.data());
        ++appended;
      }
      if (appended >= limit) {
        return appended;
      }
      if (b < v.count && v.keys[b] > hi) {
        return appended;  // sorted leaves: nothing beyond hi anywhere
      }
      if (v.next == 0 || !pool_.Contains(p, v.next) ||
          ++steps > cfg_.capacity_per_partition) {
        break;  // end of this partition's chain (or corrupt link)
      }
      v = ReadNode(acc, v.next);
    }
  }
  return appended;
}

template <typename Acc>
void OrderedIndex::InsertUpImpl(const Acc& acc, uint32_t partition,
                                const std::vector<NodeView>& path, uint64_t split_node,
                                uint64_t separator, uint64_t child,
                                SmoScratch* scratch) {
  uint64_t sep = separator;
  uint64_t new_child = child;
  uint64_t left_top = split_node;  // the node whose split bubbles upward
  for (size_t level = path.size(); level-- > 0;) {
    const NodeView& parent = path[level];
    std::vector<FullEntry> entries = MaterializeEntries(acc, parent);
    const uint32_t pos = parent.down_index + 1;  // right of the child we took
    FullEntry entry;
    entry.key = sep;
    entry.payload.assign(cfg_.value_words, 0);
    entry.payload[0] = new_child;
    entries.insert(entries.begin() + pos, std::move(entry));
    if (entries.size() <= cfg_.fanout) {
      WriteEntries(acc, parent.addr, /*is_leaf=*/false, entries, pos);
      WriteMeta(acc, parent.addr, /*is_leaf=*/false, static_cast<uint32_t>(entries.size()));
      return;
    }
    // Parent overflows: split it and keep bubbling.
    const uint32_t keep = (cfg_.fanout + 2) / 2;
    const uint64_t right = TakeScratchNode(partition, scratch);
    std::vector<FullEntry> right_entries(entries.begin() + keep, entries.end());
    entries.resize(keep);
    WriteEntries(acc, parent.addr, /*is_leaf=*/false, entries, 0);
    WriteMeta(acc, parent.addr, /*is_leaf=*/false, keep);
    acc.Store(NextAddr(right), 0);
    WriteEntries(acc, right, /*is_leaf=*/false, right_entries, 0);
    WriteMeta(acc, right, /*is_leaf=*/false, static_cast<uint32_t>(right_entries.size()));
    sep = right_entries[0].key;
    new_child = right;
    left_top = parent.addr;
  }
  // The root itself split: grow the tree by one level. Entry 0's separator
  // is a catch-all (routing forces slot 0 for smaller keys), so 0 is fine.
  const uint64_t new_root = TakeScratchNode(partition, scratch);
  std::vector<FullEntry> entries(2);
  entries[0].key = 0;
  entries[0].payload.assign(cfg_.value_words, 0);
  entries[0].payload[0] = left_top;
  entries[1].key = sep;
  entries[1].payload.assign(cfg_.value_words, 0);
  entries[1].payload[0] = new_child;
  acc.Store(NextAddr(new_root), 0);
  WriteEntries(acc, new_root, /*is_leaf=*/false, entries, 0);
  WriteMeta(acc, new_root, /*is_leaf=*/false, 2);
  acc.Store(RootPtrAddr(partition), new_root);
}

template <typename Acc>
bool OrderedIndex::PutImpl(const Acc& acc, uint64_t key, const uint64_t* value,
                           bool insert_only, SmoScratch* scratch) {
  TM2C_DCHECK(key >= cfg_.key_min && key <= cfg_.key_max);
  const uint32_t partition = PartitionOfKey(key);
  if constexpr (std::is_same_v<Acc, TxAccess>) {
    // A present key is updated on the leaf the walk landed on. An absent
    // one takes the locked descent below, which keeps the path a split
    // needs (and finds a key a racing split moved right).
    NodeView leaf;
    if (LandLeaf(*acc.tx, partition, key, &leaf)) {
      for (uint32_t pos = 0; pos < leaf.count; ++pos) {
        if (leaf.keys[pos] != key) {
          continue;
        }
        for (uint32_t w = 0; !insert_only && w < cfg_.value_words; ++w) {
          acc.Store(PayloadAddr(leaf.addr, pos) + uint64_t{w} * kWordBytes, value[w]);
        }
        return false;
      }
    }
  }
  Descent d;
  if (!Descend(acc, partition, key, /*want_path=*/true, &d)) {
    return false;  // corrupt tree: bounded wrong answer
  }
  const NodeView& leaf = d.leaf;
  uint32_t pos = 0;
  while (pos < leaf.count && leaf.keys[pos] < key) {
    ++pos;
  }
  if (pos < leaf.count && leaf.keys[pos] == key) {
    if (insert_only) {
      return false;
    }
    for (uint32_t w = 0; w < cfg_.value_words; ++w) {
      acc.Store(PayloadAddr(leaf.addr, pos) + uint64_t{w} * kWordBytes, value[w]);
    }
    return false;  // updated in place
  }
  std::vector<FullEntry> entries = MaterializeEntries(acc, leaf);
  FullEntry entry;
  entry.key = key;
  entry.payload.assign(value, value + cfg_.value_words);
  entries.insert(entries.begin() + pos, std::move(entry));
  if (entries.size() <= cfg_.fanout) {
    WriteEntries(acc, leaf.addr, /*is_leaf=*/true, entries, pos);
    WriteMeta(acc, leaf.addr, /*is_leaf=*/true, static_cast<uint32_t>(entries.size()));
    return true;
  }
  // Leaf split: left keeps the lower half, the new right leaf takes the
  // rest and slots into the chain; all writes commit atomically with the
  // parent link InsertUpImpl adds.
  const uint32_t keep = (cfg_.fanout + 2) / 2;
  const uint64_t right = TakeScratchNode(partition, scratch);
  std::vector<FullEntry> right_entries(entries.begin() + keep, entries.end());
  entries.resize(keep);
  WriteEntries(acc, leaf.addr, /*is_leaf=*/true, entries, 0);
  WriteMeta(acc, leaf.addr, /*is_leaf=*/true, keep);
  acc.Store(NextAddr(leaf.addr), right);
  acc.Store(NextAddr(right), leaf.next);
  WriteEntries(acc, right, /*is_leaf=*/true, right_entries, 0);
  WriteMeta(acc, right, /*is_leaf=*/true, static_cast<uint32_t>(right_entries.size()));
  if (cfg_.fault == FaultMode::kSmoSkipParentLink) {
    // Planted SMO fault (kSmoSkipParentLink): the new leaf is live in the
    // chain but never linked into its parent — descents miss its keys,
    // scans still see them, HostCheckStructure must cry foul.
    return true;
  }
  InsertUpImpl(acc, partition, d.path, leaf.addr, right_entries[0].key, right, scratch);
  return true;
}

template <typename Acc>
void OrderedIndex::RebalanceImpl(const Acc& acc, uint32_t partition, const Descent& d,
                                 std::vector<FullEntry> cur_entries,
                                 SmoScratch* scratch) {
  const uint32_t min_fill = (cfg_.fanout + 1) / 2;
  uint64_t cur_addr = d.leaf.addr;
  bool cur_leaf = true;
  uint64_t cur_next = d.leaf.next;
  for (size_t level = d.path.size(); /* see breaks */; --level) {
    if (level == 0) {
      // `cur` is the partition root: collapse an inner root down to its
      // only child; a root leaf may hold any count, including zero.
      if (!cur_leaf && cur_entries.size() == 1) {
        acc.Store(RootPtrAddr(partition), cur_entries[0].payload[0]);
        Unlink(acc, partition, cur_addr, /*is_leaf=*/false, 1, scratch);
      }
      return;
    }
    if (cur_entries.size() >= min_fill) {
      return;
    }
    const NodeView& parent = d.path[level - 1];
    if (parent.count < 2) {
      return;  // degenerate (corrupt) parent: give up boundedly
    }
    const uint32_t di = parent.down_index;
    const bool cur_is_left = di + 1 < parent.count;
    const uint32_t li = cur_is_left ? di : di - 1;  // left child's slot
    const uint32_t ri = li + 1;
    const uint64_t sibling_addr = parent.payload0[cur_is_left ? ri : li];
    if (!pool_.Contains(partition, sibling_addr)) {
      return;
    }
    const NodeView sib = ReadNode(acc, sibling_addr);
    if (sib.is_leaf != cur_leaf) {
      return;  // corrupt
    }
    std::vector<FullEntry> sib_entries = MaterializeEntries(acc, sib);
    std::vector<FullEntry>& left = cur_is_left ? cur_entries : sib_entries;
    std::vector<FullEntry>& right = cur_is_left ? sib_entries : cur_entries;
    const uint64_t left_addr = cur_is_left ? cur_addr : sib.addr;
    const uint64_t right_addr = cur_is_left ? sib.addr : cur_addr;
    const uint64_t right_next = cur_is_left ? sib.next : cur_next;
    if (left.size() + right.size() <= cfg_.fanout) {
      // Merge the right node into the left and drop it from the parent.
      const uint32_t left_old = static_cast<uint32_t>(left.size());
      left.insert(left.end(), right.begin(), right.end());
      WriteEntries(acc, left_addr, cur_leaf, left, left_old);
      WriteMeta(acc, left_addr, cur_leaf, static_cast<uint32_t>(left.size()));
      if (cur_leaf) {
        acc.Store(NextAddr(left_addr), right_next);
      }
      Unlink(acc, partition, right_addr, cur_leaf, static_cast<uint32_t>(right.size()),
             scratch);
      std::vector<FullEntry> parent_entries = MaterializeEntries(acc, parent);
      parent_entries.erase(parent_entries.begin() + ri);
      WriteEntries(acc, parent.addr, /*is_leaf=*/false, parent_entries, ri);
      WriteMeta(acc, parent.addr, /*is_leaf=*/false,
                static_cast<uint32_t>(parent_entries.size()));
      // The parent shrank: ascend and re-check it.
      cur_entries = std::move(parent_entries);
      cur_addr = parent.addr;
      cur_leaf = false;
      cur_next = 0;
      continue;
    }
    // Borrow one entry from the richer sibling and fix the separator.
    if (cur_is_left) {
      left.push_back(std::move(right.front()));
      right.erase(right.begin());
      WriteEntries(acc, left_addr, cur_leaf, left,
                   static_cast<uint32_t>(left.size()) - 1);
      WriteMeta(acc, left_addr, cur_leaf, static_cast<uint32_t>(left.size()));
      WriteEntries(acc, right_addr, cur_leaf, right, 0);
      WriteMeta(acc, right_addr, cur_leaf, static_cast<uint32_t>(right.size()));
    } else {
      right.insert(right.begin(), std::move(left.back()));
      left.pop_back();
      WriteEntries(acc, right_addr, cur_leaf, right, 0);
      WriteMeta(acc, right_addr, cur_leaf, static_cast<uint32_t>(right.size()));
      WriteMeta(acc, left_addr, cur_leaf, static_cast<uint32_t>(left.size()));
    }
    acc.Store(KeyAddr(parent.addr, ri), right.front().key);
    return;
  }
}

template <typename Acc>
bool OrderedIndex::DeleteImpl(const Acc& acc, uint64_t key, uint64_t* old_value,
                              SmoScratch* scratch) {
  TM2C_DCHECK(key >= cfg_.key_min && key <= cfg_.key_max);
  const uint32_t partition = PartitionOfKey(key);
  Descent d;
  if (!Descend(acc, partition, key, /*want_path=*/true, &d)) {
    return false;
  }
  const NodeView& leaf = d.leaf;
  uint32_t pos = 0;
  while (pos < leaf.count && leaf.keys[pos] != key) {
    ++pos;
  }
  if (pos == leaf.count) {
    return false;
  }
  std::vector<FullEntry> entries = MaterializeEntries(acc, leaf);
  if (old_value != nullptr) {
    std::copy(entries[pos].payload.begin(), entries[pos].payload.end(), old_value);
  }
  entries.erase(entries.begin() + pos);
  WriteEntries(acc, leaf.addr, /*is_leaf=*/true, entries, pos);
  WriteMeta(acc, leaf.addr, /*is_leaf=*/true, static_cast<uint32_t>(entries.size()));
  RebalanceImpl(acc, partition, d, std::move(entries), scratch);
  return true;
}

// ---------------------------------------------------------------------------
// Composable transactional operations
// ---------------------------------------------------------------------------

bool OrderedIndex::TxGet(Tx& tx, uint64_t key, uint64_t* value) const {
  return GetImpl(TxAccess{&tx}, key, value);
}

bool OrderedIndex::TxReadModifyWrite(Tx& tx, uint64_t key,
                                     const std::function<void(uint64_t*)>& fn) const {
  return RmwImpl(TxAccess{&tx}, key, fn);
}

uint32_t OrderedIndex::TxRangeScan(Tx& tx, uint64_t lo, uint64_t hi, uint32_t limit,
                                   std::vector<KvEntry>* out) const {
  return ScanImpl(TxAccess{&tx}, lo, hi, limit,
                  [&](uint64_t key, const uint64_t* value) {
                    KvEntry entry;
                    entry.key = key;
                    entry.value.assign(value, value + cfg_.value_words);
                    out->push_back(std::move(entry));
                  });
}

bool OrderedIndex::TxPut(Tx& tx, uint64_t key, const uint64_t* value,
                         SmoScratch* scratch) {
  return PutImpl(TxAccess{&tx}, key, value, /*insert_only=*/false, scratch);
}

bool OrderedIndex::TxInsert(Tx& tx, uint64_t key, const uint64_t* value,
                            SmoScratch* scratch) {
  return PutImpl(TxAccess{&tx}, key, value, /*insert_only=*/true, scratch);
}

bool OrderedIndex::TxDelete(Tx& tx, uint64_t key, uint64_t* old_value,
                            SmoScratch* scratch) {
  return DeleteImpl(TxAccess{&tx}, key, old_value, scratch);
}

// ---------------------------------------------------------------------------
// One-transaction wrappers
// ---------------------------------------------------------------------------

bool OrderedIndex::Get(TxRuntime& rt, uint64_t key, std::vector<uint64_t>* value) const {
  bool found = false;
  std::vector<uint64_t> buf(cfg_.value_words);
  rt.Execute([&](Tx& tx) { found = TxGet(tx, key, buf.data()); });
  if (found && value != nullptr) {
    *value = std::move(buf);
  }
  return found;
}

bool OrderedIndex::Put(TxRuntime& rt, uint64_t key, const uint64_t* value) {
  SmoScratch scratch;
  bool inserted = false;
  rt.Execute([&](Tx& tx) {
    scratch.ResetAttempt();
    inserted = TxPut(tx, key, value, &scratch);
  });
  SettleScratch(&scratch);
  return inserted;
}

bool OrderedIndex::Insert(TxRuntime& rt, uint64_t key, const uint64_t* value) {
  SmoScratch scratch;
  bool inserted = false;
  rt.Execute([&](Tx& tx) {
    scratch.ResetAttempt();
    inserted = TxInsert(tx, key, value, &scratch);
  });
  SettleScratch(&scratch);
  return inserted;
}

bool OrderedIndex::Delete(TxRuntime& rt, uint64_t key, std::vector<uint64_t>* old_value) {
  SmoScratch scratch;
  bool removed = false;
  std::vector<uint64_t> buf(cfg_.value_words);
  rt.Execute([&](Tx& tx) {
    scratch.ResetAttempt();
    removed = TxDelete(tx, key, old_value != nullptr ? buf.data() : nullptr, &scratch);
  });
  SettleScratch(&scratch);
  if (removed && old_value != nullptr) {
    *old_value = std::move(buf);
  }
  return removed;
}

bool OrderedIndex::ReadModifyWrite(TxRuntime& rt, uint64_t key,
                                   const std::function<void(uint64_t*)>& fn) const {
  bool found = false;
  rt.Execute([&](Tx& tx) { found = TxReadModifyWrite(tx, key, fn); });
  return found;
}

std::vector<KvEntry> OrderedIndex::Scan(TxRuntime& rt, uint64_t start_key,
                                        uint32_t limit) const {
  return RangeScan(rt, start_key, cfg_.key_max, limit);
}

std::vector<KvEntry> OrderedIndex::RangeScan(TxRuntime& rt, uint64_t lo, uint64_t hi,
                                             uint32_t limit) const {
  std::vector<KvEntry> out;
  rt.Execute([&](Tx& tx) {
    out.clear();  // an aborted attempt may have appended partial results
    TxRangeScan(tx, lo, hi, limit, &out);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Host-side helpers
// ---------------------------------------------------------------------------

bool OrderedIndex::HostPut(uint64_t key, const uint64_t* value) {
  SmoScratch scratch;
  scratch.ResetAttempt();
  const bool inserted =
      PutImpl(HostAccess{mem_}, key, value, /*insert_only=*/false, &scratch);
  SettleScratch(&scratch);
  return inserted;
}

bool OrderedIndex::HostDelete(uint64_t key, uint64_t* old_value) {
  SmoScratch scratch;
  scratch.ResetAttempt();
  const bool removed = DeleteImpl(HostAccess{mem_}, key, old_value, &scratch);
  SettleScratch(&scratch);
  return removed;
}

bool OrderedIndex::HostGet(uint64_t key, uint64_t* value) const {
  return GetImpl(HostAccess{mem_}, key, value);
}

uint64_t OrderedIndex::HostSize() const {
  uint64_t count = 0;
  ScanImpl(HostAccess{mem_}, cfg_.key_min, cfg_.key_max, UINT32_MAX,
           [&](uint64_t, const uint64_t*) { ++count; });
  return count;
}

void OrderedIndex::HostForEach(
    const std::function<void(uint64_t, const uint64_t*)>& fn) const {
  ScanImpl(HostAccess{mem_}, cfg_.key_min, cfg_.key_max, UINT32_MAX, fn);
}

std::vector<KvEntry> OrderedIndex::HostRangeScan(uint64_t lo, uint64_t hi,
                                                 uint32_t limit) const {
  std::vector<KvEntry> out;
  ScanImpl(HostAccess{mem_}, lo, hi, limit, [&](uint64_t key, const uint64_t* value) {
    KvEntry entry;
    entry.key = key;
    entry.value.assign(value, value + cfg_.value_words);
    out.push_back(std::move(entry));
  });
  return out;
}

uint32_t OrderedIndex::HostDepthOfPartition(uint32_t partition) const {
  TM2C_CHECK(partition < num_partitions());
  uint64_t node = mem_->LoadWord(RootPtrAddr(partition));
  uint32_t depth = 0;
  while (pool_.Contains(partition, node) && depth < kMaxDepth) {
    ++depth;
    const uint64_t meta = mem_->LoadWord(MetaAddr(node));
    if ((meta & 1) != 0) {
      break;  // reached the leaf level
    }
    node = mem_->LoadWord(PayloadAddr(node, 0));
  }
  return depth;
}

// ---------------------------------------------------------------------------
// Structural verification
// ---------------------------------------------------------------------------

void OrderedIndex::HostCheckStructure(std::vector<std::string>* problems) const {
  const HostAccess acc{mem_};
  for (uint32_t p = 0; p < num_partitions(); ++p) {
    const auto complain = [&](const std::string& what) {
      std::ostringstream os;
      os << "partition " << p << ": " << what;
      problems->push_back(os.str());
    };
    const uint64_t part_lo = PartitionMinKey(p);
    const uint64_t part_hi =
        p + 1 < num_partitions() ? PartitionMinKey(p + 1) - 1 : cfg_.key_max;

    // Pass 1: descend-reachable structure. A DFS collects every reachable
    // node, the leaves in left-to-right order, and each subtree's key
    // range, checking per-node shape and the separator invariants (entry 0
    // is a routing catch-all and carries no lower bound).
    std::set<uint64_t> reachable;
    std::vector<uint64_t> leaves;
    uint64_t descend_keys = 0;
    struct Range {
      bool any = false;
      uint64_t min = 0;
      uint64_t max = 0;
    };
    const std::function<Range(uint64_t, uint32_t)> dfs = [&](uint64_t node,
                                                             uint32_t depth) -> Range {
      Range range;
      if (depth > kMaxDepth) {
        complain("tree deeper than the corruption bound");
        return range;
      }
      if (!pool_.Contains(p, node)) {
        complain("child pointer outside the node pool");
        return range;
      }
      if (!reachable.insert(node).second) {
        complain("node reachable twice (cycle or shared child)");
        return range;
      }
      const uint64_t meta = mem_->LoadWord(MetaAddr(node));
      const bool is_leaf = (meta & 1) != 0;
      const uint64_t raw_count = MetaCount(meta);
      if ((meta & kDeadMark) != 0) {
        complain("reachable node carries the dead mark");
      }
      if (raw_count > cfg_.fanout) {
        complain("node count exceeds the fanout");
        return range;
      }
      const uint32_t count = static_cast<uint32_t>(raw_count);
      const NodeView v = ReadNode(acc, node);
      for (uint32_t i = 1; i < count; ++i) {
        if (v.keys[i] <= v.keys[i - 1]) {
          complain(is_leaf ? "leaf keys not strictly ascending"
                           : "inner separators not strictly ascending");
          break;
        }
      }
      if (is_leaf) {
        leaves.push_back(node);
        descend_keys += count;
        for (uint32_t i = 0; i < count; ++i) {
          if (v.keys[i] < part_lo || v.keys[i] > part_hi) {
            complain("leaf key outside the partition's key sub-range");
            break;
          }
        }
        if (count > 0) {
          range.any = true;
          range.min = v.keys[0];
          range.max = v.keys[count - 1];
        }
        return range;
      }
      if (count == 0) {
        complain("inner node with no children");
        return range;
      }
      std::vector<Range> child_ranges(count);
      for (uint32_t i = 0; i < count; ++i) {
        child_ranges[i] = dfs(v.payload0[i], depth + 1);
        if (child_ranges[i].any) {
          if (!range.any) {
            range = child_ranges[i];
          } else {
            range.min = std::min(range.min, child_ranges[i].min);
            range.max = std::max(range.max, child_ranges[i].max);
          }
        }
      }
      for (uint32_t i = 1; i < count; ++i) {
        if (child_ranges[i].any && child_ranges[i].min < v.keys[i]) {
          complain("subtree holds a key below its separator");
        }
        if (child_ranges[i - 1].any && child_ranges[i - 1].max >= v.keys[i]) {
          complain("subtree holds a key at or above the next separator");
        }
      }
      return range;
    };
    const uint64_t root = mem_->LoadWord(RootPtrAddr(p));
    if (!pool_.Contains(p, root)) {
      complain("root pointer outside the node pool");
      continue;
    }
    dfs(root, 1);

    // Pass 2: the leaf chain, walked from the leftmost reachable leaf, must
    // visit exactly the descend-reachable leaves in the same order (the
    // linked-leaf completeness invariant — this is what an orphaned split
    // child violates), with keys ascending across consecutive leaves.
    std::vector<uint64_t> chain;
    uint64_t chain_keys = 0;
    uint64_t prev_last_key = 0;
    bool have_prev = false;
    uint64_t node = leaves.empty() ? 0 : leaves.front();
    uint32_t steps = 0;
    while (node != 0) {
      if (!pool_.Contains(p, node)) {
        complain("leaf chain link outside the node pool");
        break;
      }
      if (++steps > cfg_.capacity_per_partition) {
        complain("leaf chain longer than the pool (cycle?)");
        break;
      }
      const NodeView v = ReadNode(acc, node);
      if (!v.is_leaf) {
        complain("leaf chain reaches a non-leaf node");
        break;
      }
      chain.push_back(node);
      chain_keys += v.count;
      if (v.count > 0) {
        if (have_prev && v.keys[0] <= prev_last_key) {
          complain("leaf chain keys not ascending across leaves");
        }
        prev_last_key = v.keys[v.count - 1];
        have_prev = true;
      }
      node = v.next;
    }
    if (chain != leaves) {
      complain("leaf chain and tree descent disagree about the leaves"
               " (orphaned or missing leaf)");
    }
    if (chain_keys != descend_keys) {
      complain("key counts differ between the leaf chain and the descent");
    }

    // Pass 3: node accounting — every live pool node must be reachable
    // from the root.
    const uint64_t in_use = NodesInUse(p);
    if (reachable.size() != in_use) {
      std::ostringstream os;
      os << "node accounting: " << reachable.size() << " reachable vs " << in_use
         << " allocated";
      complain(os.str());
    }
  }
}

}  // namespace tm2c
