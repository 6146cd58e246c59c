// Figure 7: elastic transactions on the sorted linked list.
//
//  (a) speedup of elastic-early over normal transactions — modest (>1 but
//      small), because every early release costs an extra message;
//  (b) speedup of elastic-read over normal — substantial (the paper shows
//      9..17x), because read validation replaces read-lock messages with
//      (cheaper) shared memory reads; it dips past 8 cores from memory
//      congestion.
//
// 20% updates / 80% contains. The paper uses a 2048-element list; we use
// 512 elements to keep simulated transactions (and the bench) short. The
// list length moves the ratios between modes: over 2..48 cores the rows
// read elastic-read 5.6..10.5x and elastic-early 0.76..0.93x at 512
// elements, against 5.0..16.4x and 0.77..1.14x at 2048. A normal-mode run
// commits 22..134 transactions at 512 elements and 6..26 at 2048, so each
// ratio rests on a few dozen commits.
#include "bench/workloads.h"

namespace tm2c {
namespace {

constexpr uint64_t kElements = 512;
constexpr uint32_t kUpdatePct = 20;

struct TxRun {
  ThroughputResult result;
  LatencySampler lat;
};

TxRun RunOne(BenchContext& ctx, TxMode mode, uint32_t cores) {
  RunSpec spec = ctx.Spec(60, 81);
  spec.total_cores = cores;
  spec.tx_mode = mode;
  TmSystem sys(MakeConfig(spec));
  ShmHashTable list(sys.allocator(), sys.shmem(), 1);
  Rng fill_rng(83);
  const uint64_t key_range = FillHashTable(list, sys.allocator(), fill_rng, kElements);
  TxRun run;
  InstallLoopBodies(sys, spec.duration, spec.seed, HashTableMix(&list, kUpdatePct, key_range),
                    &run.lat);
  sys.Run(spec.duration);
  run.result = Summarize(sys, spec.duration);
  return run;
}

const char* ModeName(TxMode mode) {
  switch (mode) {
    case TxMode::kNormal:
      return "normal";
    case TxMode::kElasticEarly:
      return "elastic-early";
    case TxMode::kElasticRead:
      return "elastic-read";
  }
  return "?";
}

void Run(BenchContext& ctx) {
  for (const uint32_t cores : ctx.CoreSweep({2, 4, 8, 16, 32, 48})) {
    const TxRun normal = RunOne(ctx, TxMode::kNormal, cores);
    for (const TxMode mode : {TxMode::kNormal, TxMode::kElasticEarly, TxMode::kElasticRead}) {
      const TxRun run = mode == TxMode::kNormal ? normal : RunOne(ctx, mode, cores);
      BenchRow row;
      row.Param("mode", ModeName(mode))
          .Param("cores", uint64_t{cores})
          .TxMerged(run.result.stats, run.result.ops_per_ms, run.lat);
      if (mode != TxMode::kNormal && normal.result.ops_per_ms > 0.0) {
        row.Extra("speedup_vs_normal", run.result.ops_per_ms / normal.result.ops_per_ms);
      }
      ctx.Report(row);
    }
  }
}

TM2C_REGISTER_BENCH("fig7_elastic", "7",
                    "linked list: elastic transaction speedups over normal (512 elements)", &Run);

}  // namespace
}  // namespace tm2c
