// Ablation: pipelined acquisition and the owner-local fast path.
//
// The lockstep protocol (pipeline_depth = 1) waits for every kBatchAcquire
// reply before issuing the next batch, so a transaction touching several
// partitions pays one full round trip per per-node chunk, serially. With
// pipeline_depth > 1 the runtime keeps up to that many batches in flight
// and matches the interleaved replies by request id; the owner-local fast
// path (multitasked deployments) additionally serves own-partition
// acquisitions as direct lock-table calls, skipping the message layer
// entirely.
//
// The workload is a share-little YCSB-C-style read mix on the partitioned
// KV store under the multitasked deployment: 80% of operations Get a key
// from the core's own partition (the layout the fast path exists for), 20%
// scan a 32-word shared directory region that stripes across every
// partition (the cross-partition shape pipelining exists for), issued as
// Prefetch + ReadMany. The sweep is pipeline_depth {1, 2, 4, 8} x
// fast path {off, on}; each row reports local/remote acquire counts and
// the per-stripe mean acquire latency next to the standard metrics.
//
// Default (sim) runs assert the curves this ablation exists to measure:
// pipelining must not cost throughput (deepest depth >= lockstep, per fast
// path setting), and at depth 1 the fast path must serve every
// own-partition Get without a lock message (with it off, every such Get
// sends one) and strictly cut the mean acquire latency.
#include <atomic>
#include <map>

#include "bench/workloads.h"

namespace tm2c {
namespace {

constexpr uint32_t kDepthSweep[] = {1, 2, 4, 8};
constexpr uint64_t kDirWords = 1 << 14;  // shared directory, spans all stripes
constexpr uint64_t kScanWords = 32;

struct SweepPoint {
  double ops_per_ms = 0.0;
  double mean_acquire_us = 0.0;
  uint64_t local_acquires = 0;
  uint64_t remote_acquires = 0;
  uint64_t own_gets = 0;
  uint64_t own_gets_over_wire = 0;  // own-partition Gets that sent a lock request
};

BenchRow RunPoint(BenchContext& ctx, uint32_t depth, bool fast_path, SweepPoint* point) {
  RunSpec spec = ctx.Spec(25, 13);
  spec.total_cores = ctx.Cores(16);
  spec.strategy = DeployStrategy::kMultitasked;
  spec.pipeline_depth = depth;
  spec.local_fast_path = fast_path;
  TmSystem sys(MakeConfig(spec));

  const uint64_t keys = ctx.smoke() ? 2048 : 8192;
  const uint32_t parts = sys.deployment().num_service();
  KvStoreConfig kcfg;
  kcfg.value_words = 4;
  kcfg.buckets_per_partition =
      static_cast<uint32_t>(std::max<uint64_t>(16, keys / (uint64_t{parts} * 4)));
  kcfg.capacity_per_partition = static_cast<uint32_t>(2 * keys / parts + 64);
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), kcfg);
  FillStore(store, keys);

  // Share-little layout: each core's "own" keys live in the partition it
  // serves (multitasked: partition index == core id).
  auto keys_by_part = std::make_shared<std::vector<std::vector<uint64_t>>>(parts);
  for (uint64_t key = 1; key <= keys; ++key) {
    (*keys_by_part)[store.PartitionOfKey(key)].push_back(key);
  }

  const uint64_t dir_base = sys.allocator().AllocGlobal(kDirWords * kWordBytes);
  std::atomic<uint64_t> own_gets{0};
  std::atomic<uint64_t> own_gets_over_wire{0};
  LatencySampler lat;
  InstallLoopBodies(
      sys, spec.duration, spec.seed,
      [&store, keys_by_part, parts, dir_base, &own_gets, &own_gets_over_wire](
          CoreEnv& env, TxRuntime& rt, Rng& rng) {
        if (rng.NextBelow(10) < 8) {
          // Own-partition point read: the fast path's bread and butter.
          const auto& own = (*keys_by_part)[env.core_id() % parts];
          const uint64_t remote_before = rt.stats().remote_acquires;
          store.Get(rt, own[rng.NextBelow(own.size())], nullptr);
          ++own_gets;
          if (rt.stats().remote_acquires != remote_before) {
            ++own_gets_over_wire;
          }
          return;
        }
        // Cross-partition directory scan: a strided 32-word ReadMany whose
        // stripes group into many small per-node batches — the shape
        // pipelining overlaps. The prefetch announces the whole set up
        // front so depth > 1 keeps several nodes' round trips in flight.
        const uint64_t start = rng.NextBelow(kDirWords);
        std::vector<uint64_t> addrs;
        addrs.reserve(kScanWords);
        for (uint64_t w = 0; w < kScanWords; ++w) {
          addrs.push_back(dir_base + ((start + w * 257) % kDirWords) * kWordBytes);
        }
        rt.Execute([&addrs](Tx& tx) {
          tx.Prefetch(addrs);
          (void)tx.ReadMany(addrs);
        });
      },
      &lat);
  sys.Run(spec.duration);

  const ThroughputResult r = Summarize(sys, spec.duration);
  BenchRow row;
  row.Param("workload", "share-little-ycsbc")
      .Param("platform", spec.platform_name)
      .Param("cores", uint64_t{spec.total_cores})
      .Param("pipeline_depth", uint64_t{depth})
      .Param("fast_path", fast_path ? "on" : "off")
      .TxMerged(r.stats, r.ops_per_ms, lat);
  point->ops_per_ms = r.ops_per_ms;
  point->local_acquires = r.stats.local_acquires;
  point->remote_acquires = r.stats.remote_acquires;
  point->own_gets = own_gets;
  point->own_gets_over_wire = own_gets_over_wire;
  row.Extra("local_acquires", static_cast<double>(r.stats.local_acquires));
  row.Extra("remote_acquires", static_cast<double>(r.stats.remote_acquires));
  if (r.stats.lock_acquires > 0) {
    point->mean_acquire_us =
        SimToMicros(r.stats.acquire_time) / static_cast<double>(r.stats.lock_acquires);
    row.Extra("mean_acquire_us", point->mean_acquire_us);
  }
  if (r.stats.commits > 0) {
    row.Extra("msgs_per_op", static_cast<double>(r.stats.messages_sent) /
                                 static_cast<double>(r.stats.commits));
  }
  return row;
}

void Run(BenchContext& ctx) {
  // Self-asserts arm only on default sim runs: overridden shapes and noisy
  // native wall clocks can legitimately bend the curves (see
  // bench_ablation_batching.cc for the full rationale).
  const BenchOptions& o = ctx.opts();
  const bool assert_curve = o.cores == 0 && o.service_cores == 0 && o.duration_ms == 0.0 &&
                            o.seed == 0 && o.cm.empty() && o.pipeline_depth == 0 &&
                            !ctx.native();

  std::vector<uint32_t> depths(std::begin(kDepthSweep), std::end(kDepthSweep));
  if (o.pipeline_depth > 0) {
    depths = {static_cast<uint32_t>(o.pipeline_depth)};
  }

  std::map<std::pair<bool, uint32_t>, SweepPoint> matrix;
  for (const bool fast_path : {false, true}) {
    for (const uint32_t depth : depths) {
      SweepPoint point;
      ctx.Report(RunPoint(ctx, depth, fast_path, &point));
      matrix[{fast_path, depth}] = point;
    }
  }
  if (!assert_curve) {
    return;
  }
  for (const bool fast_path : {false, true}) {
    // Pipelining must never cost throughput against the lockstep baseline.
    TM2C_CHECK_MSG(
        matrix.at({fast_path, 8}).ops_per_ms >= matrix.at({fast_path, 1}).ops_per_ms,
        "pipelined throughput fell below the lockstep baseline");
  }
  // The fast path's acceptance curve: on the share-little layout every
  // own-partition Get is served without a lock message (with the fast path
  // off, every one sends some), and skipping the message layer must
  // strictly cut the mean per-stripe acquire latency.
  const SweepPoint& off = matrix.at({false, 1});
  const SweepPoint& on = matrix.at({true, 1});
  TM2C_CHECK_MSG(off.local_acquires == 0, "fast path off but local acquisitions recorded");
  TM2C_CHECK_MSG(off.own_gets > 0 && off.own_gets_over_wire == off.own_gets,
                 "fast path off but an own-partition Get sent no lock request");
  TM2C_CHECK_MSG(on.own_gets > 0 && on.own_gets_over_wire == 0 && on.local_acquires > 0,
                 "share-little layout did not serve own-partition Gets locally");
  TM2C_CHECK_MSG(on.mean_acquire_us < off.mean_acquire_us,
                 "owner-local fast path did not cut the mean acquire latency");
}

TM2C_REGISTER_BENCH_THREADS_ONLY(  // sweeps multitasked deployments: dedicated-only process backend
    "ablation_pipeline", "ablation",
    "pipelined acquisition depth x owner-local fast path on a share-little KV mix", &Run);

}  // namespace
}  // namespace tm2c
