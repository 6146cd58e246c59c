#include <gtest/gtest.h>

#include <set>

#include "src/common/core_set.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"

namespace tm2c {
namespace {

TEST(Rng, DeterministicUnderSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextInRangeInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, PercentRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextPercent(20)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.20, 0.01);
}

TEST(StatAccumulator, BasicMoments) {
  StatAccumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    acc.Add(v);
  }
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(StatAccumulator, MergeMatchesSequential) {
  StatAccumulator all;
  StatAccumulator left;
  StatAccumulator right;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble() * 100.0;
    all.Add(v);
    (i % 2 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
}

// The empty accumulator must answer every query with a defined value, not
// the +/-inf sentinels it tracks internally.
TEST(StatAccumulator, EmptyIsAllZero) {
  const StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.sum(), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 0.0);
  EXPECT_DOUBLE_EQ(acc.max(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

// A single sample has no spread: variance must be 0, not NaN (0/0).
TEST(StatAccumulator, SingleSampleVarianceIsZero) {
  StatAccumulator acc;
  acc.Add(42.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 42.0);
  EXPECT_DOUBLE_EQ(acc.min(), 42.0);
  EXPECT_DOUBLE_EQ(acc.max(), 42.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(StatAccumulator, MergeWithEmptySides) {
  StatAccumulator empty1;
  StatAccumulator empty2;
  empty1.Merge(empty2);
  EXPECT_EQ(empty1.count(), 0u);
  EXPECT_DOUBLE_EQ(empty1.variance(), 0.0);

  StatAccumulator filled;
  filled.Add(1.0);
  filled.Add(3.0);
  // Empty into filled: a no-op.
  StatAccumulator lhs = filled;
  lhs.Merge(empty2);
  EXPECT_EQ(lhs.count(), 2u);
  EXPECT_DOUBLE_EQ(lhs.mean(), 2.0);
  EXPECT_DOUBLE_EQ(lhs.variance(), 2.0);
  // Filled into empty: adopts the other side wholesale.
  StatAccumulator adopter;
  adopter.Merge(filled);
  EXPECT_EQ(adopter.count(), 2u);
  EXPECT_DOUBLE_EQ(adopter.mean(), 2.0);
  EXPECT_DOUBLE_EQ(adopter.min(), 1.0);
  EXPECT_DOUBLE_EQ(adopter.max(), 3.0);
  EXPECT_DOUBLE_EQ(adopter.variance(), 2.0);
}

TEST(StatAccumulator, MergeOfSingletonsMatchesSequential) {
  StatAccumulator a;
  StatAccumulator b;
  a.Add(10.0);
  b.Add(20.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 15.0);
  EXPECT_DOUBLE_EQ(a.variance(), 50.0);
}

TEST(LatencySampler, EmptyIsAllZero) {
  const LatencySampler lat;
  EXPECT_EQ(lat.count(), 0u);
  EXPECT_DOUBLE_EQ(lat.Percentiles({0.5})[0], 0.0);
  EXPECT_DOUBLE_EQ(lat.Percentiles({0.99})[0], 0.0);
  EXPECT_DOUBLE_EQ(lat.mean(), 0.0);
}

TEST(LatencySampler, SingleSampleIsEveryPercentile) {
  LatencySampler lat;
  lat.Add(7.5);
  EXPECT_DOUBLE_EQ(lat.Percentiles({0.0})[0], 7.5);
  EXPECT_DOUBLE_EQ(lat.Percentiles({0.5})[0], 7.5);
  EXPECT_DOUBLE_EQ(lat.Percentiles({1.0})[0], 7.5);
}

TEST(LatencySampler, NearestRankPercentiles) {
  LatencySampler lat;
  // 1..100 shuffled in (deterministically): percentiles are exact ranks.
  Rng rng(3);
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) {
    values.push_back(static_cast<double>(i));
  }
  for (size_t i = values.size() - 1; i > 0; --i) {
    std::swap(values[i], values[rng.NextBelow(i + 1)]);
  }
  for (const double v : values) {
    lat.Add(v);
  }
  EXPECT_DOUBLE_EQ(lat.Percentiles({0.0})[0], 1.0);
  EXPECT_DOUBLE_EQ(lat.Percentiles({0.50})[0], 50.0);
  EXPECT_DOUBLE_EQ(lat.Percentiles({0.95})[0], 95.0);
  EXPECT_DOUBLE_EQ(lat.Percentiles({0.99})[0], 99.0);
  EXPECT_DOUBLE_EQ(lat.Percentiles({1.0})[0], 100.0);
  // Out-of-range q clamps instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(lat.Percentiles({-1.0})[0], 1.0);
  EXPECT_DOUBLE_EQ(lat.Percentiles({2.0})[0], 100.0);
}

TEST(LatencySampler, PercentilesMatchesPercentile) {
  LatencySampler lat;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    lat.Add(rng.NextDouble() * 1000.0);
  }
  const std::vector<double> qs = {0.0, 0.5, 0.95, 0.99, 1.0};
  const std::vector<double> batch = lat.Percentiles(qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], lat.Percentiles({qs[i]})[0]);
  }
  const LatencySampler empty;
  EXPECT_EQ(empty.Percentiles({0.5, 0.99}), (std::vector<double>{0.0, 0.0}));
}

TEST(LatencySampler, MergeCombinesSamplesAndMoments) {
  LatencySampler a;
  LatencySampler b;
  a.Add(1.0);
  a.Add(2.0);
  b.Add(3.0);
  b.Add(4.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.Percentiles({1.0})[0], 4.0);
  EXPECT_DOUBLE_EQ(a.Percentiles({0.5})[0], 2.0);
}

TEST(CoreSet, InsertEraseContains) {
  CoreSet s;
  EXPECT_TRUE(s.Empty());
  s.Insert(3);
  s.Insert(47);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(47));
  EXPECT_FALSE(s.Contains(4));
  EXPECT_EQ(s.Count(), 2u);
  s.Erase(3);
  EXPECT_FALSE(s.Contains(3));
  EXPECT_FALSE(s.Empty());
  s.Erase(47);
  EXPECT_TRUE(s.Empty());
}

TEST(CoreSet, HandlesCoresAbove64) {
  CoreSet s;
  s.Insert(63);
  s.Insert(64);
  s.Insert(200);
  EXPECT_TRUE(s.Contains(63));
  EXPECT_TRUE(s.Contains(64));
  EXPECT_TRUE(s.Contains(200));
  EXPECT_EQ(s.Count(), 3u);
  const auto v = s.ToVector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 63u);
  EXPECT_EQ(v[1], 64u);
  EXPECT_EQ(v[2], 200u);
}

TEST(CoreSet, IsExactly) {
  CoreSet s;
  s.Insert(5);
  EXPECT_TRUE(s.IsExactly(5));
  s.Insert(6);
  EXPECT_FALSE(s.IsExactly(5));
}

TEST(CoreSet, ForEachVisitsAscending) {
  CoreSet s;
  for (uint32_t c : {40u, 1u, 99u, 64u}) {
    s.Insert(c);
  }
  std::vector<uint32_t> visited;
  s.ForEach([&visited](uint32_t c) { visited.push_back(c); });
  EXPECT_EQ(visited, (std::vector<uint32_t>{1, 40, 64, 99}));
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(2.0, 0), "2");
}

TEST(JsonWriter, NestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "bench");
  w.KV("n", uint64_t{3});
  w.Key("rows");
  w.BeginArray();
  w.Number(1.5);
  w.Bool(false);
  w.BeginObject();
  w.KV("ok", true);
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.Take(), "{\"name\":\"bench\",\"n\":3,\"rows\":[1.5,false,{\"ok\":true}]}");
}

TEST(JsonWriter, EscapesControlCharactersAndQuotes) {
  JsonWriter w;
  w.BeginObject();
  w.KV("k\"ey", "a\\b\n\t\x01");
  w.EndObject();
  EXPECT_EQ(w.Take(), "{\"k\\\"ey\":\"a\\\\b\\n\\t\\u0001\"}");
}

// Degenerate runs can produce NaN/inf metrics; the document must still
// parse, so non-finite numbers serialize as null.
TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Number(std::numeric_limits<double>::quiet_NaN());
  w.Number(std::numeric_limits<double>::infinity());
  w.Number(1.0);
  w.EndArray();
  EXPECT_EQ(w.Take(), "[null,null,1]");
}

}  // namespace
}  // namespace tm2c
