// Micro-benchmarks of the host-side building blocks: lock-table
// operations, the contention managers' decision path, the CoreSet, the
// allocator, the event engine and the RNG. These measure real CPU cost,
// not simulated time — they bound how fast the simulator itself can run
// experiments.
//
// Each micro-op runs in timed batches on the host clock; a sample is the
// per-op time of one batch, so the reported percentiles are host-side
// latencies in microseconds and throughput is host ops/ms. Nothing can
// abort here, so commit_rate is 1 by construction.
//
// Under --backend=threads the bench instead measures three native layers
// on real OS threads with wall-clock timing: the transport, with a
// tiny-transaction workload (per-core counter increments, conflict-free,
// so every operation is pure protocol messaging) over the lock-free SPSC
// rings; the runtime's read path, with transactions that read one whole
// lock unit; and the B+-tree walk, with Scan(16) transactions. Their
// throughput is the median over the run's slices (see SliceClock).
#include <algorithm>
#include <chrono>

#include "bench/bench_util.h"
#include "src/apps/ordered_index.h"
#include "src/cm/contention_manager.h"
#include "src/common/core_set.h"
#include "src/common/rng.h"
#include "src/dslock/lock_table.h"
#include "src/noc/topology.h"
#include "src/shmem/allocator.h"
#include "src/sim/engine.h"

namespace tm2c {
namespace {

TxInfo Info(uint32_t core, uint64_t metric) {
  TxInfo info;
  info.core = core;
  info.epoch = (static_cast<uint64_t>(core) << 32) | 1;
  info.metric = metric;
  return info;
}

double HostNowUs() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  return static_cast<double>(ns) / 1000.0;
}

// Runs `op` in `batches` timed batches of `batch` calls and reports one
// standard row: each latency sample is one batch's mean per-op time.
template <typename Op>
void Measure(BenchContext& ctx, const char* name, uint64_t batch, uint64_t batches, Op op) {
  // Warm up caches and branch predictors outside the timed region.
  for (uint64_t i = 0; i < batch; ++i) {
    op();
  }
  LatencySampler lat;
  const uint64_t rounds = ctx.Iterations(batches);
  const double start_us = HostNowUs();
  for (uint64_t b = 0; b < rounds; ++b) {
    const double t0 = HostNowUs();
    for (uint64_t i = 0; i < batch; ++i) {
      op();
    }
    lat.Add((HostNowUs() - t0) / static_cast<double>(batch));
  }
  const double elapsed_ms = (HostNowUs() - start_us) / 1000.0;
  BenchRow row;
  row.Param("micro", name);
  row.ops_per_ms =
      elapsed_ms > 0.0 ? static_cast<double>(rounds * batch) / elapsed_ms : 0.0;
  row.commits = rounds * batch;
  row.latency = SummarizeLatency(lat);
  ctx.Report(row);
}

// The native rows' throughput, as bench/e2e reports its own: the median,
// over kSlices equal slices of the run's window, of the operations each
// slice completed. A stall or burst that covers a few slices of one run
// moves no row.
class SliceClock {
 public:
  static constexpr size_t kSlices = 10;

  explicit SliceClock(uint32_t cores) : starts_(cores, 0), done_(cores) {}

  // `op`, stamping each completion on its core's host clock.
  OpFn Wrap(OpFn op) {
    return [this, op = std::move(op)](CoreEnv& env, TxRuntime& rt, Rng& rng) {
      SimTime& start = starts_[env.core_id()];
      if (start == 0) {
        start = env.GlobalNow();
      }
      op(env, rt, rng);
      done_[env.core_id()].push_back(env.GlobalNow());
    };
  }

  // The window starts when the first core starts and lasts `duration`.
  double MedianOpsPerMs(SimTime duration) const {
    SimTime begin = 0;
    for (const SimTime start : starts_) {
      if (start != 0 && (begin == 0 || start < begin)) {
        begin = start;
      }
    }
    const SimTime slice = duration / kSlices;
    std::vector<double> counts(kSlices, 0.0);
    for (const std::vector<SimTime>& stamps : done_) {
      for (const SimTime t : stamps) {
        if (t >= begin && t - begin < slice * kSlices) {
          counts[(t - begin) / slice] += 1.0;
        }
      }
    }
    std::sort(counts.begin(), counts.end());
    const double median = (counts[kSlices / 2 - 1] + counts[kSlices / 2]) / 2.0;
    return median / SimToMillis(slice);
  }

 private:
  std::vector<SimTime> starts_;
  std::vector<std::vector<SimTime>> done_;  // indexed by core id
};

// Native transport (--backend=threads): commit throughput of the TM
// protocol over the SPSC rings on this host. The workload is message-bound
// by construction — single-word read-modify-write transactions on per-core
// counters, no contention, no synthetic compute.
void RunNativeTransport(BenchContext& ctx) {
  const uint32_t cores = ctx.Cores(4);
  const uint32_t service = ctx.ServiceCores(cores >= 2 ? cores / 2 : 1);
  RunSpec spec = ctx.Spec(200, 21, CmKind::kBackoffRetry);
  spec.total_cores = cores;
  spec.service_cores = service;
  spec.backend = BackendKind::kThreads;
  TmSystem sys(MakeConfig(spec));
  const uint64_t base = sys.allocator().AllocGlobal(uint64_t{cores} * kCacheLineBytes);
  LatencySampler lat;
  SliceClock clock(cores);
  InstallLoopBodies(sys, spec.duration, spec.seed,
                    clock.Wrap([base](CoreEnv& env, TxRuntime& rt, Rng&) {
                      const uint64_t addr = base + env.core_id() * kCacheLineBytes;
                      rt.Execute([addr](Tx& tx) { tx.Write(addr, tx.Read(addr) + 1); });
                    }),
                    &lat);
  sys.Run();
  BenchRow row;
  // The channel param names the one transport left; it keeps the row's key
  // equal to earlier results' spsc row.
  row.Param("micro", "tm_counter")
      .Param("channel", "spsc")
      .Param("cores", uint64_t{cores})
      .Param("service_cores", uint64_t{service})
      .Tx(sys, spec.duration, lat);
  row.ops_per_ms = clock.MedianOpsPerMs(spec.duration);
  ctx.Report(row);
}

// Native read path (--backend=threads): each app core runs conflict-free
// read-only transactions that ReadMany the 32 words of its own 256-byte
// lock unit. An op is one lock acquisition (a batch round trip), 32
// shared-memory reads and one release message, so the row prices the
// runtime's per-word read bookkeeping against one round trip.
void RunNativeReadUnit(BenchContext& ctx) {
  constexpr uint64_t kUnitBytes = 256;
  const uint32_t cores = ctx.Cores(4);
  const uint32_t service = ctx.ServiceCores(cores >= 2 ? cores / 2 : 1);
  RunSpec spec = ctx.Spec(200, 21, CmKind::kBackoffRetry);
  spec.total_cores = cores;
  spec.service_cores = service;
  spec.backend = BackendKind::kThreads;
  TmSystem sys(MakeConfig(spec));
  const uint64_t base = sys.allocator().AllocGlobal(uint64_t{cores} * kUnitBytes);
  std::vector<std::vector<uint64_t>> unit_words(cores);
  for (uint32_t core = 0; core < cores; ++core) {
    const uint64_t unit = base + core * kUnitBytes;
    sys.address_map().AddOwnedRange(unit, kUnitBytes, core % service, kUnitBytes);
    for (uint64_t offset = 0; offset < kUnitBytes; offset += kWordBytes) {
      unit_words[core].push_back(unit + offset);
    }
  }
  LatencySampler lat;
  SliceClock clock(cores);
  InstallLoopBodies(sys, spec.duration, spec.seed,
                    clock.Wrap([&unit_words](CoreEnv& env, TxRuntime& rt, Rng&) {
                      const std::vector<uint64_t>& words = unit_words[env.core_id()];
                      rt.Execute([&words](Tx& tx) { (void)tx.ReadMany(words); });
                    }),
                    &lat);
  sys.Run();
  BenchRow row;
  row.Param("micro", "tx_read_unit")
      .Param("cores", uint64_t{cores})
      .Param("service_cores", uint64_t{service})
      .Tx(sys, spec.duration, lat);
  row.ops_per_ms = clock.MedianOpsPerMs(spec.duration);
  ctx.Report(row);
}

// Native tree walk (--backend=threads): each app core runs conflict-free
// Scan(16) transactions from random start keys over a loaded OrderedIndex
// (16384 keys, fanout 6, 4-word values). The row prices a B+-tree
// operation on this host: its latency is µs per op, and the
// locks_per_op extra counts the lock units it takes.
void RunNativeIndexScan(BenchContext& ctx) {
  constexpr uint64_t kKeys = 16384;
  constexpr uint32_t kScanLen = 16;
  const uint32_t cores = ctx.Cores(4);
  const uint32_t service = ctx.ServiceCores(cores >= 2 ? cores / 2 : 1);
  RunSpec spec = ctx.Spec(200, 21, CmKind::kBackoffRetry);
  spec.total_cores = cores;
  spec.service_cores = service;
  spec.backend = BackendKind::kThreads;
  TmSystem sys(MakeConfig(spec));
  OrderedIndexConfig cfg;
  cfg.key_min = 1;
  cfg.key_max = kKeys;
  cfg.value_words = 4;
  cfg.fanout = 6;
  cfg.capacity_per_partition = static_cast<uint32_t>(kKeys / service + 64);
  OrderedIndex index(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), cfg);
  for (uint64_t key = 1; key <= kKeys; ++key) {
    const uint64_t value[4] = {key, key, key, key};
    index.HostPut(key, value);
  }
  std::vector<std::vector<KvEntry>> outs(cores);
  LatencySampler lat;
  SliceClock clock(cores);
  InstallLoopBodies(sys, spec.duration, spec.seed,
                    clock.Wrap([&](CoreEnv& env, TxRuntime& rt, Rng& rng) {
                      std::vector<KvEntry>& out = outs[env.core_id()];
                      const uint64_t start = 1 + rng.NextBelow(kKeys - kScanLen + 1);
                      rt.Execute([&](Tx& tx) {
                        out.clear();
                        index.TxScan(tx, start, kScanLen, &out);
                      });
                    }),
                    &lat);
  sys.Run();
  BenchRow row;
  row.Param("micro", "index_scan16")
      .Param("cores", uint64_t{cores})
      .Param("service_cores", uint64_t{service})
      .Tx(sys, spec.duration, lat);
  row.ops_per_ms = clock.MedianOpsPerMs(spec.duration);
  const TxStats stats = sys.MergedStats();
  const double locks_per_op =
      stats.commits > 0 ? static_cast<double>(stats.lock_acquires) / stats.commits : 0.0;
  row.Extra("locks_per_op", locks_per_op);
  ctx.Report(row);
}

void Run(BenchContext& ctx) {
  if (ctx.native()) {
    RunNativeTransport(ctx);
    RunNativeReadUnit(ctx);
    RunNativeIndexScan(ctx);
    return;
  }
  {
    LockTable table;
    const auto cm = MakeContentionManager(CmKind::kFairCm);
    uint64_t addr = 0;
    Measure(ctx, "lock_table_read_acquire_release", 64, 2000, [&]() {
      table.ReadLock(Info(1, 0), addr, *cm);
      table.ReleaseRead(1, addr);
      addr = (addr + 8) & 0xffff;
    });
  }
  {
    LockTable table;
    const auto cm = MakeContentionManager(CmKind::kFairCm);
    // Ten readers on the contested word; the writer must beat all of them.
    for (uint32_t r = 2; r < 12; ++r) {
      table.ReadLock(Info(r, 100), 0x100, *cm);
    }
    volatile int refused = 0;
    Measure(ctx, "lock_table_write_conflict", 64, 2000, [&]() {
      refused = static_cast<int>(table.WriteLock(Info(1, 1000), 0x100, *cm).refused);
    });
  }
  {
    const auto cm = MakeContentionManager(CmKind::kFairCm);
    std::vector<TxInfo> holders;
    for (uint32_t r = 0; r < 10; ++r) {
      holders.push_back(Info(r + 2, 50 + r));
    }
    volatile int decision = 0;
    Measure(ctx, "cm_decide_ten_holders", 64, 2000, [&]() {
      decision = static_cast<int>(cm->Decide(Info(1, 10), holders, ConflictKind::kWriteAfterRead));
    });
  }
  {
    CoreSet set;
    volatile uint64_t sink = 0;
    Measure(ctx, "core_set_insert_foreach_clear", 8, 2000, [&]() {
      for (uint32_t c = 0; c < 48; c += 3) {
        set.Insert(c);
      }
      uint64_t sum = 0;
      set.ForEach([&sum](uint32_t c) { sum += c; });
      sink = sink + sum;
      set.Clear();
    });
  }
  {
    SharedMemory mem(8 << 20);
    Topology topo(MakeSccPlatform(0));
    ShmAllocator alloc(&mem, topo);
    Measure(ctx, "allocator_alloc_free", 64, 2000, [&]() {
      const uint64_t a = alloc.Alloc(64, 7);
      const uint64_t b = alloc.Alloc(128, 23);
      alloc.Free(a);
      alloc.Free(b);
    });
  }
  {
    volatile uint64_t sink = 0;
    // One op = a 1000-event cascade through a fresh engine.
    Measure(ctx, "engine_1000_event_cascade", 1, 300, [&]() {
      SimEngine engine;
      int remaining = 1000;
      std::function<void()> tick = [&engine, &remaining, &tick]() {
        if (--remaining > 0) {
          engine.ScheduleAfter(10, tick);
        }
      };
      engine.ScheduleAfter(10, tick);
      engine.Run();
      sink = sink + engine.events_executed();
    });
  }
  {
    Rng rng(1);
    volatile uint64_t sink = 0;
    Measure(ctx, "rng_next", 1024, 2000, [&]() { sink = sink + rng.Next(); });
  }
}

TM2C_REGISTER_BENCH_THREADS_ONLY(  // the native rows measure the thread backend
    "micro", "host",
    "host-side micro costs; with --backend=threads, the native transport and read path", &Run);

}  // namespace
}  // namespace tm2c
