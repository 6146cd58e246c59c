// The master-less MapReduce letter-count application (Section 5.4).
//
// A synthetic text lives in shared memory (the paper used 256MB-2GB files;
// we generate seeded random text at a configurable, smaller scale, and
// bench_fig6_mapreduce states its factor). Worker cores repeatedly claim the
// next chunk through a small transaction on a shared chunk counter — TM2C
// replaces the master node — stream the chunk from memory, count letter
// occurrences locally, and finally merge their local histogram into the
// shared one with one closing transaction.
//
// The per-chunk compute cost models the P54C's small L1: chunks larger than
// the application's effective share of the data cache pay the platform's
// cache-miss penalty, which is why 8KB chunks beat 16KB ones on the SCC
// (Figure 6(b)); the per-chunk claim transaction is why 4KB chunks lose to
// 8KB.
#ifndef TM2C_SRC_APPS_MAPREDUCE_H_
#define TM2C_SRC_APPS_MAPREDUCE_H_

#include <array>
#include <cstdint>

#include "src/runtime/core_env.h"
#include "src/shmem/allocator.h"
#include "src/tm/tx_runtime.h"

namespace tm2c {

struct MapReduceConfig {
  uint64_t input_bytes = 4 << 20;
  uint64_t seed = 1;
  // Letter-counting cost per byte, in core cycles (before cache penalty).
  // Calibrated from the paper's own Figure 6(a): 256MB in ~700s at 2 cores
  // (1 worker) is ~2.7 us per byte on the 533 MHz P54C — about 1400 cycles
  // per byte of uncached word-by-word reading plus counting. This also
  // makes the per-chunk claim transaction negligible, matching the paper's
  // "transactional load is low" observation.
  uint64_t compute_cycles_per_byte = 1400;
  // Fixed per-chunk cost on workers: remapping the chunk's shared pages
  // into the core's LUT entries and the attendant TLB invalidation, a
  // well-known SCC overhead. This is what penalizes small (4KB) chunks
  // relative to 8KB ones in Figure 6(b).
  uint64_t chunk_overhead_cycles = 533000;  // ~1 ms at 533 MHz
};

class MapReduceApp {
 public:
  static constexpr uint32_t kLetters = 26;

  // Generates the input text host-side and allocates the shared chunk
  // counter and histogram.
  MapReduceApp(ShmAllocator& allocator, SharedMemory& mem, const MapReduceConfig& config);

  // Worker loop: claims chunks until the input is exhausted, then merges
  // its local histogram transactionally.
  void RunWorker(CoreEnv& env, TxRuntime& rt, uint64_t chunk_bytes) const;

  // Sequential baseline: one core scans the whole input linearly — no
  // transactions, no per-chunk page remapping, and streaming access that
  // stays cache-friendly (no chunk-size cache penalty). This is the "bare
  // sequential" program the paper's speedups are measured against.
  void RunSequential(CoreEnv& env) const;

  // Clears the chunk counter and shared histogram between runs.
  void ResetRun();

  // Host-side ground truth and the shared result.
  std::array<uint64_t, kLetters> HostExpectedCounts() const;
  std::array<uint64_t, kLetters> HostResultCounts() const;

  uint64_t input_bytes() const { return config_.input_bytes; }

 private:
  uint64_t ChunkComputeCycles(const PlatformDesc& platform, uint64_t chunk_bytes) const;
  void CountChunkHost(uint64_t offset, uint64_t bytes,
                      std::array<uint64_t, kLetters>* counts) const;

  SharedMemory* mem_;
  MapReduceConfig config_;
  uint64_t text_base_ = 0;
  uint64_t counter_addr_ = 0;
  uint64_t histogram_base_ = 0;
};

}  // namespace tm2c

#endif  // TM2C_SRC_APPS_MAPREDUCE_H_
