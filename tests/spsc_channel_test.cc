// The lock-free SPSC ring in isolation: wraparound, backpressure, FIFO
// under a concurrent producer/consumer, payload (extra vector) integrity
// across the ring, records longer than the ring, and a ring placed in a
// MAP_SHARED mapping with a forked producer. TSan-targeted: the concurrent
// cases are the ones the sanitizer job exists to watch.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "src/runtime/spsc_channel.h"

namespace tm2c {
namespace {

Message AppMsg(uint64_t value) {
  Message m;
  m.type = MsgType::kApp;
  m.w0 = value;
  return m;
}

TEST(SpscChannel, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscChannel(2).capacity(), 2u);
  EXPECT_EQ(SpscChannel(3).capacity(), 4u);
  EXPECT_EQ(SpscChannel(64).capacity(), 64u);
  EXPECT_EQ(SpscChannel(100).capacity(), 128u);
}

TEST(SpscChannel, PushPopSingleThreaded) {
  SpscChannel ch(8);
  Message out;
  EXPECT_FALSE(ch.TryPop(&out));
  Message in = AppMsg(42);
  EXPECT_TRUE(ch.TryPush(in));
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_EQ(out.w0, 42u);
  EXPECT_FALSE(ch.TryPop(&out));
}

TEST(SpscChannel, WrapsAroundManyTimesPastCapacity) {
  SpscChannel ch(4);  // tiny ring: every 4 messages wrap the indices
  Message out;
  for (uint64_t i = 0; i < 1000; ++i) {
    Message in = AppMsg(i);
    ASSERT_TRUE(ch.TryPush(in));
    ASSERT_TRUE(ch.TryPop(&out));
    EXPECT_EQ(out.w0, i);
  }
  EXPECT_TRUE(ch.EmptyHint());
}

TEST(SpscChannel, FullRingRefusesUntilDrained) {
  SpscChannel ch(4);
  for (uint64_t i = 0; i < 4; ++i) {
    Message in = AppMsg(i);
    ASSERT_TRUE(ch.TryPush(in));
  }
  Message refused = AppMsg(99);
  EXPECT_FALSE(ch.TryPush(refused));
  EXPECT_EQ(refused.w0, 99u);  // refused push leaves the message intact
  Message out;
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_EQ(out.w0, 0u);
  EXPECT_TRUE(ch.TryPush(refused));  // one slot freed, push succeeds again
  for (uint64_t expect : {1u, 2u, 3u, 99u}) {
    ASSERT_TRUE(ch.TryPop(&out));
    EXPECT_EQ(out.w0, expect);
  }
}

TEST(SpscChannel, ExtraPayloadSurvivesTheRing) {
  SpscChannel ch(2);
  Message in = AppMsg(7);
  in.extra = std::vector<uint64_t>{10, 20, 30};
  ASSERT_TRUE(ch.TryPush(in));
  Message out;
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_EQ(out.extra, (std::vector<uint64_t>{10, 20, 30}));
}

TEST(SpscChannel, ConcurrentProducerConsumerKeepsFifoOrder) {
  // Small capacity forces constant wraparound and real backpressure while
  // both sides run full speed on separate threads.
  constexpr uint64_t kMessages = 200000;
  SpscChannel ch(8);
  std::thread producer([&ch]() {
    for (uint64_t i = 0; i < kMessages; ++i) {
      Message in = AppMsg(i);
      while (!ch.TryPush(in)) {
        std::this_thread::yield();
      }
    }
  });
  uint64_t received = 0;
  uint64_t order_violations = 0;
  Message out;
  while (received < kMessages) {
    if (ch.TryPop(&out)) {
      if (out.w0 != received) {
        ++order_violations;
      }
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(order_violations, 0u);
  EXPECT_FALSE(ch.TryPop(&out));
}

TEST(SpscChannel, ConcurrentPayloadIntegrity) {
  // Every message carries an extra vector derived from its sequence
  // number; the consumer validates contents, catching torn publication.
  constexpr uint64_t kMessages = 20000;
  SpscChannel ch(4);
  std::thread producer([&ch]() {
    for (uint64_t i = 0; i < kMessages; ++i) {
      Message in = AppMsg(i);
      in.extra = std::vector<uint64_t>{i, i * 2, i * 3};
      while (!ch.TryPush(in)) {
        std::this_thread::yield();
      }
    }
  });
  Message out;
  for (uint64_t i = 0; i < kMessages; ++i) {
    while (!ch.TryPop(&out)) {
      std::this_thread::yield();
    }
    ASSERT_EQ(out.w0, i);
    ASSERT_EQ(out.extra, (std::vector<uint64_t>{i, i * 2, i * 3}));
  }
  producer.join();
}

// Message i of a test stream: i extra words, all derived from i.
Message SizedMsg(uint64_t i, uint64_t extra_words) {
  Message m = AppMsg(i);
  m.w3 = ~i;
  for (uint64_t k = 0; k < extra_words; ++k) {
    m.extra.push_back(i * 1000 + k);
  }
  return m;
}

bool SameMsg(const Message& a, const Message& b) {
  return a.type == b.type && a.w0 == b.w0 && a.w3 == b.w3 && a.extra == b.extra;
}

TEST(SpscChannel, WrapsAroundWithMixedRecordSizes) {
  // 32 words of ring: records of 7..27 words land at every offset and
  // straddle the wrap point in every way.
  SpscChannel ch(4);
  Message out;
  for (uint64_t i = 0; i < 2000; ++i) {
    const Message a = SizedMsg(i, i % 21);
    const Message b = SizedMsg(i + 1, (i * 7) % 4);
    ASSERT_TRUE(ch.TryPush(a));
    if (a.extra.size() + b.extra.size() + 14 <= 32) {
      ASSERT_TRUE(ch.TryPush(b));
      ASSERT_TRUE(ch.TryPop(&out));
      ASSERT_TRUE(SameMsg(out, a));
      ASSERT_TRUE(ch.TryPop(&out));
      ASSERT_TRUE(SameMsg(out, b));
    } else {
      EXPECT_FALSE(ch.TryPush(b));  // no room for both: refused whole
      ASSERT_TRUE(ch.TryPop(&out));
      ASSERT_TRUE(SameMsg(out, a));
    }
  }
  EXPECT_TRUE(ch.EmptyHint());
}

TEST(SpscChannel, ApproxSizeCountsRecordsNotWords) {
  SpscChannel ch(8);
  EXPECT_EQ(ch.ApproxSize(), 0u);
  ASSERT_TRUE(ch.TryPush(SizedMsg(1, 0)));
  ASSERT_TRUE(ch.TryPush(SizedMsg(2, 20)));
  ASSERT_TRUE(ch.TryPush(SizedMsg(3, 5)));
  EXPECT_EQ(ch.ApproxSize(), 3u);
  Message out;
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_EQ(ch.ApproxSize(), 2u);
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_TRUE(SameMsg(out, SizedMsg(2, 20)));
  EXPECT_EQ(ch.ApproxSize(), 1u);
}

TEST(SpscChannel, RecordLongerThanTheRingGetsThrough) {
  // 16 words of ring against records of up to 300 words: TryPush refuses
  // them, Push streams them while the consumer reassembles.
  SpscChannel ch(2);
  EXPECT_FALSE(ch.TryPush(SizedMsg(0, 100)));
  EXPECT_TRUE(ch.EmptyHint());
  constexpr uint64_t kMessages = 200;
  std::thread producer([&ch]() {
    const auto yield = [] {
      std::this_thread::yield();
      return true;
    };
    for (uint64_t i = 0; i < kMessages; ++i) {
      ASSERT_TRUE(ch.Push(SizedMsg(i, (i * 37) % 301), yield));
    }
  });
  Message out;
  for (uint64_t i = 0; i < kMessages; ++i) {
    while (!ch.TryPop(&out)) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(SameMsg(out, SizedMsg(i, (i * 37) % 301))) << "message " << i;
  }
  producer.join();
  EXPECT_TRUE(ch.EmptyHint());
}

TEST(SpscChannel, ForkedProducerThroughSharedMapping) {
  // The ring and its indexes live in a MAP_SHARED mapping formatted before
  // fork(); the child produces, the parent consumes. Small capacity forces
  // wraparound, backpressure and streamed records across the processes.
  constexpr uint32_t kCapacity = 4;
  constexpr uint64_t kMessages = 20000;
  const size_t bytes = SpscChannel::PlacedBytes(kCapacity);
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  SpscChannel ch(mem, kCapacity);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const auto yield = [] {
      std::this_thread::yield();
      return true;
    };
    for (uint64_t i = 0; i < kMessages; ++i) {
      ch.Push(SizedMsg(i, i % 40), yield);
    }
    ::_exit(0);
  }
  uint64_t mismatches = 0;
  Message out;
  for (uint64_t i = 0; i < kMessages; ++i) {
    while (!ch.TryPop(&out)) {
      std::this_thread::yield();
    }
    mismatches += SameMsg(out, SizedMsg(i, i % 40)) ? 0 : 1;
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(ch.EmptyHint());
  ::munmap(mem, bytes);
}

}  // namespace
}  // namespace tm2c
