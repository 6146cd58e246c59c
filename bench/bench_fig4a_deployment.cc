// Figure 4(a): multitasked vs dedicated deployment on the hash table.
//
// Load factors 2 and 8, 20% updates, 2..48 cores. The paper's result: the
// dedicated deployment outperforms multitasking because a request to a core
// busy with application code must wait for it to yield (Figure 2).
#include "bench/workloads.h"

namespace tm2c {
namespace {

constexpr uint32_t kBuckets = 64;
constexpr uint32_t kUpdatePct = 20;

// Averaged over seeds: the multitasked deployment is prone to metastable
// congestion collapse (a committing core serves requests while holding its
// write locks, stretching hold times and triggering retry storms), so
// single snapshots are bimodal.
BenchRow RunOne(BenchContext& ctx, DeployStrategy strategy, uint32_t cores,
                uint32_t load_factor) {
  const std::vector<uint64_t> seeds = ctx.SeedSweep({5, 6, 7});
  TxStats stats;
  LatencySampler lat;
  double total_tput = 0.0;
  for (const uint64_t seed : seeds) {
    RunSpec spec = ctx.Spec(25, seed);
    spec.total_cores = cores;
    spec.strategy = strategy;
    TmSystem sys(MakeConfig(spec));
    ShmHashTable table(sys.allocator(), sys.shmem(), kBuckets);
    Rng fill_rng(11);
    const uint64_t key_range =
        FillHashTable(table, sys.allocator(), fill_rng, uint64_t{kBuckets} * load_factor);
    LatencySampler run_lat;
    InstallLoopBodies(sys, spec.duration, spec.seed, HashTableMix(&table, kUpdatePct, key_range),
                      &run_lat);
    sys.Run(spec.duration);
    const ThroughputResult r = Summarize(sys, spec.duration);
    total_tput += r.ops_per_ms;
    stats.Merge(r.stats);
    lat.Merge(run_lat);
  }
  BenchRow row;
  row.Param("strategy", strategy == DeployStrategy::kMultitasked ? "multitasked" : "dedicated")
      .Param("load", uint64_t{load_factor})
      .Param("cores", uint64_t{cores})
      .TxMerged(stats, total_tput / static_cast<double>(seeds.size()), lat);
  return row;
}

void Run(BenchContext& ctx) {
  for (const uint32_t cores : ctx.CoreSweep({2, 4, 8, 16, 32, 48})) {
    for (const DeployStrategy strategy :
         {DeployStrategy::kMultitasked, DeployStrategy::kDedicated}) {
      for (const uint32_t load : ctx.Sweep<uint32_t>({2, 8})) {
        ctx.Report(RunOne(ctx, strategy, cores, load));
      }
    }
  }
}

TM2C_REGISTER_BENCH("fig4a_deployment", "4(a)",
                    "hash table throughput (ops/ms), multitasked vs dedicated deployment", &Run);

}  // namespace
}  // namespace tm2c
