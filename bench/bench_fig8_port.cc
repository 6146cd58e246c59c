// Figures 8(b), 8(c), 8(d): TM2C on the many-core (SCC / SCC800) vs the
// cache-coherent multi-core (Opteron), using the Back-off-Retry CM as the
// common ground (Section 7.1).
//
//  8(b) bank: 20%/80% balance/transfer (high contention — the SCC copes
//       better) and 100% transfers (low contention — follows messaging
//       latency);
//  8(c) linked list: 512 elements, 10% updates (high contention; the
//       multi-core's caches help the traversal hotspot);
//  8(d) hash table: initial size 512, load 4 and 16, 10% updates (low
//       contention — follows messaging latency; scc800 leads).
#include "bench/workloads.h"

namespace tm2c {
namespace {

RunSpec PortSpec(BenchContext& ctx, const std::string& platform, uint32_t cores) {
  // The CM ported in Section 7.1 is Back-off-Retry; --cm still overrides.
  RunSpec spec = ctx.Spec(30, 91, CmKind::kBackoffRetry);
  spec.platform_name = platform;
  spec.total_cores = cores;
  return spec;
}

BenchRow RunBank(BenchContext& ctx, const std::string& platform, uint32_t cores,
                 uint32_t balance_pct) {
  RunSpec spec = PortSpec(ctx, platform, cores);
  TmSystem sys(MakeConfig(spec));
  Bank bank(sys.allocator(), sys.shmem(), 1024, 100);
  LatencySampler lat;
  InstallLoopBodies(sys, spec.duration, spec.seed, BankMix(&bank, balance_pct), &lat);
  sys.Run(spec.duration);
  BenchRow row;
  row.Param("part", balance_pct > 0 ? "8b-mixed" : "8b-transfers")
      .Param("platform", platform)
      .Param("cores", uint64_t{cores})
      .Tx(sys, spec.duration, lat);
  return row;
}

BenchRow RunList(BenchContext& ctx, const std::string& platform, uint32_t cores) {
  RunSpec spec = PortSpec(ctx, platform, cores);
  spec.duration = ctx.Duration(50);
  TmSystem sys(MakeConfig(spec));
  ShmHashTable list(sys.allocator(), sys.shmem(), 1);
  Rng fill_rng(93);
  const uint64_t key_range = FillHashTable(list, sys.allocator(), fill_rng, 512);
  LatencySampler lat;
  InstallLoopBodies(sys, spec.duration, spec.seed, HashTableMix(&list, 10, key_range), &lat);
  sys.Run(spec.duration);
  BenchRow row;
  row.Param("part", "8c-list").Param("platform", platform).Param("cores", uint64_t{cores});
  row.Tx(sys, spec.duration, lat);
  return row;
}

BenchRow RunHash(BenchContext& ctx, const std::string& platform, uint32_t cores,
                 uint32_t load_factor) {
  RunSpec spec = PortSpec(ctx, platform, cores);
  TmSystem sys(MakeConfig(spec));
  const uint64_t elements = 512;
  const uint32_t buckets = static_cast<uint32_t>(elements / load_factor);
  ShmHashTable table(sys.allocator(), sys.shmem(), buckets);
  Rng fill_rng(97);
  const uint64_t key_range = FillHashTable(table, sys.allocator(), fill_rng, elements);
  LatencySampler lat;
  InstallLoopBodies(sys, spec.duration, spec.seed, HashTableMix(&table, 10, key_range), &lat);
  sys.Run(spec.duration);
  BenchRow row;
  row.Param("part", "8d-hash")
      .Param("load", uint64_t{load_factor})
      .Param("platform", platform)
      .Param("cores", uint64_t{cores})
      .Tx(sys, spec.duration, lat);
  return row;
}

void Run(BenchContext& ctx) {
  const std::vector<std::string> platforms = ctx.PlatformSweep({"scc", "scc800", "opteron"});
  for (const uint32_t cores : ctx.CoreSweep({2, 4, 8, 16, 32, 48})) {
    for (const std::string& platform : platforms) {
      ctx.Report(RunBank(ctx, platform, cores, 20));
      ctx.Report(RunBank(ctx, platform, cores, 0));
      ctx.Report(RunList(ctx, platform, cores));
      for (const uint32_t load : ctx.Sweep<uint32_t>({4, 16})) {
        ctx.Report(RunHash(ctx, platform, cores, load));
      }
    }
  }
}

TM2C_REGISTER_BENCH_NATIVE(
    "fig8_port", "8(b-d)",
    "bank/list/hash table across SCC, SCC800 and Opteron platform models", &Run);

}  // namespace
}  // namespace tm2c
