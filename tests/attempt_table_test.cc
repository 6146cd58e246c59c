// The attempt table (src/tm/attempt_table.h) against std::unordered_map,
// and the allocations the read path makes once the table is warm.
//
// This binary replaces the global operator new with one that counts the
// calling thread's allocations; the simulator runs every core's fiber on
// the test thread, so the count covers a whole simulated system.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/tm/attempt_table.h"
#include "src/tm/tm_system.h"

namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tm2c {
namespace {

// Every key of the model is found with its value, and no other key of the
// address space is.
void ExpectSameContents(AttemptTable& table, const std::unordered_map<uint64_t, uint64_t>& model,
                        uint64_t base, uint64_t words) {
  ASSERT_EQ(table.size(), model.size());
  for (uint64_t w = 0; w < words; ++w) {
    const uint64_t addr = base + w * kWordBytes;
    const auto it = model.find(addr);
    const AttemptTable::Entry* entry = table.Find(addr);
    if (it == model.end()) {
      EXPECT_EQ(entry, nullptr) << "stale entry at " << addr;
    } else {
      ASSERT_NE(entry, nullptr) << "lost entry at " << addr;
      EXPECT_EQ(entry->addr(), addr);
      EXPECT_EQ(entry->written, it->second);
    }
  }
}

TEST(AttemptTable, MatchesUnorderedMapUnderRandomMixes) {
  // A small address space, so inserts hit existing keys, erases find
  // entries, and the table grows several times between clears.
  constexpr uint64_t kBase = 0x10000;
  constexpr uint64_t kWords = 600;
  AttemptTable table;
  std::unordered_map<uint64_t, uint64_t> model;
  Rng rng(29);
  for (uint64_t step = 0; step < 200000; ++step) {
    const uint64_t addr = kBase + rng.NextBelow(kWords) * kWordBytes;
    const uint64_t op = rng.NextBelow(1000);
    if (op < 450) {
      table.Insert(addr).written = step;
      model[addr] = step;
    } else if (op < 700) {
      const AttemptTable::Entry* entry = table.Find(addr);
      const auto it = model.find(addr);
      ASSERT_EQ(entry != nullptr, it != model.end()) << "step " << step;
      if (entry != nullptr) {
        ASSERT_EQ(entry->written, it->second) << "step " << step;
      }
    } else if (op < 998) {
      ASSERT_EQ(table.Erase(addr), model.erase(addr) == 1) << "step " << step;
    } else {
      table.Clear();
      model.clear();
    }
    ASSERT_EQ(table.size(), model.size()) << "step " << step;
    if (step % 5000 == 0) {
      ExpectSameContents(table, model, kBase, kWords);
    }
  }
  ExpectSameContents(table, model, kBase, kWords);
}

TEST(AttemptTable, GrowsInTheMiddleOfAnAttemptAndKeepsItsSlotsAcrossClears) {
  AttemptTable table;
  std::unordered_map<uint64_t, uint64_t> model;
  const size_t initial = table.capacity();
  for (uint64_t w = 0; w < 1000; ++w) {
    const uint64_t addr = 0x2000 + w * kWordBytes;
    AttemptTable::Entry& entry = table.Insert(addr);
    entry.written = w * 3;
    entry.flags = AttemptTable::kWritten;
    model[addr] = w * 3;
  }
  EXPECT_GE(table.capacity(), 2 * model.size());
  EXPECT_GT(table.capacity(), initial);
  ExpectSameContents(table, model, 0x2000, 1100);
  const size_t grown = table.capacity();
  table.Clear();
  model.clear();
  EXPECT_EQ(table.capacity(), grown);
  ExpectSameContents(table, model, 0x2000, 1100);
}

TEST(AttemptTable, EraseAcrossTheWrapAroundKeepsTheClusterReachable) {
  AttemptTable table;
  const size_t last = table.capacity() - 1;
  // Three keys that probe the last slot first, and one homed at slot 0,
  // inserted so that the slots read: last = wrapping[0], 0 = the slot-0
  // key, 1 and 2 = the other two wrapping keys.
  std::vector<uint64_t> wrapping;
  uint64_t homed_at_zero = 0;
  for (uint64_t addr = kWordBytes; wrapping.size() < 3 || homed_at_zero == 0;
       addr += kWordBytes) {
    if (table.HomeSlot(addr) == last && wrapping.size() < 3) {
      wrapping.push_back(addr);
    } else if (table.HomeSlot(addr) == 0 && homed_at_zero == 0) {
      homed_at_zero = addr;
    }
  }
  std::unordered_map<uint64_t, uint64_t> model;
  for (uint64_t addr : {wrapping[0], homed_at_zero, wrapping[1], wrapping[2]}) {
    table.Insert(addr).written = addr + 1;
    model[addr] = addr + 1;
  }
  ASSERT_EQ(table.capacity(), last + 1);  // no growth: the layout is as described

  // The hole in the last slot pulls wrapping[1] back across the boundary,
  // past the slot-0 key, which must stay: its probe starts after the hole.
  ASSERT_TRUE(table.Erase(wrapping[0]));
  model.erase(wrapping[0]);
  for (const auto& [addr, value] : model) {
    ASSERT_NE(table.Find(addr), nullptr) << addr;
    EXPECT_EQ(table.Find(addr)->written, value);
  }
  // A hole in the wrapped part, then the slot-0 key itself.
  ASSERT_TRUE(table.Erase(wrapping[2]));
  model.erase(wrapping[2]);
  ASSERT_TRUE(table.Erase(homed_at_zero));
  model.erase(homed_at_zero);
  EXPECT_FALSE(table.Erase(homed_at_zero));
  ASSERT_EQ(table.size(), 1u);
  ASSERT_NE(table.Find(wrapping[1]), nullptr);
  EXPECT_EQ(table.Find(wrapping[1])->written, wrapping[1] + 1);
  EXPECT_EQ(table.Find(wrapping[0]), nullptr);
  EXPECT_EQ(table.Find(wrapping[2]), nullptr);
}

TEST(AttemptTable, ClearAfterTheGenerationWrapsForgetsEveryEntry) {
  AttemptTable table;
  table.Insert(0x40).written = 1;  // stamped with the first generation
  // One clear short of 2^16 brings a 16-bit generation back to that stamp.
  for (int i = 0; i < 65535; ++i) {
    table.Clear();
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(0x40), nullptr);
  // Entries made on both sides of the wrap, checked against the model at
  // every clear, for another full turn of the generation.
  std::unordered_map<uint64_t, uint64_t> model;
  Rng rng(3);
  for (int i = 0; i < 70000; ++i) {
    const uint64_t addr = 0x40 + rng.NextBelow(32) * kWordBytes;
    table.Insert(addr).written = static_cast<uint64_t>(i);
    model[addr] = static_cast<uint64_t>(i);
    if (rng.NextBelow(2) == 0) {
      ExpectSameContents(table, model, 0x40, 32);
      table.Clear();
      model.clear();
    }
  }
  ExpectSameContents(table, model, 0x40, 32);
}

// A second ReadMany of a unit whose read lock the attempt already holds
// sends nothing and needs no lock: once the table has grown to the
// attempt's size, the call's only allocation is the vector it returns.
TEST(AttemptAllocations, ReadManyOfAHeldUnitAllocatesOnlyItsResult) {
  constexpr uint64_t kUnit = 0x1000;
  constexpr uint64_t kUnitBytes = 256;
  TmSystemConfig cfg;
  cfg.sim.platform = MakeSccPlatform(0);
  cfg.sim.num_cores = 4;
  cfg.sim.num_service = 2;
  cfg.sim.shmem_bytes = 1 << 20;
  cfg.tm.max_batch = 8;
  TmSystem sys(std::move(cfg));
  sys.address_map().AddOwnedRange(kUnit, kUnitBytes, 0, /*lock_bytes=*/kUnitBytes);
  for (uint64_t w = 0; w < kUnitBytes / kWordBytes; ++w) {
    sys.shmem().StoreWord(kUnit + w * kWordBytes, 500 + w);
  }
  const std::vector<uint64_t> first = {kUnit};
  std::vector<uint64_t> rest;
  for (uint64_t w = 1; w < kUnitBytes / kWordBytes; ++w) {
    rest.push_back(kUnit + w * kWordBytes);
  }
  uint64_t allocations = UINT64_MAX;
  uint64_t messages = UINT64_MAX;
  std::vector<uint64_t> values;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    // The first attempt grows the attempt table to the unit's 32 words;
    // the measured attempt reuses its slots.
    rt.Execute([&](Tx& tx) {
      (void)tx.ReadMany(first);
      (void)tx.ReadMany(rest);
    });
    rt.Execute([&](Tx& tx) {
      (void)tx.ReadMany(first);  // takes the unit's read lock
      const uint64_t sent = rt.stats().messages_sent;
      const uint64_t before = t_allocations;
      std::vector<uint64_t> read = tx.ReadMany(rest);
      allocations = t_allocations - before;
      messages = rt.stats().messages_sent - sent;
      values = std::move(read);
    });
  });
  sys.Run(MillisToSim(100));
  EXPECT_LE(allocations, 1u);
  EXPECT_EQ(messages, 0u);
  ASSERT_EQ(values.size(), rest.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], 501 + i);
  }
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

}  // namespace
}  // namespace tm2c
