// std::thread backend of the runtime — the Section 7 "port".
//
// The same protocol code that runs on the simulated SCC runs here on real
// OS threads. The transport is one lock-free SPSC ring per directed core
// pair (src/runtime/spsc_channel.h) — the port of the paper's cache-line
// channels: senders publish with a release store, receivers scan their
// incoming rings with acquire loads under an adaptive
// spin-then-yield-then-park policy, and a full ring back-pressures the
// sender. Time is the host's steady clock; Compute spins and
// ChargeModelled is free.
#ifndef TM2C_SRC_RUNTIME_THREAD_SYSTEM_H_
#define TM2C_SRC_RUNTIME_THREAD_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/runtime/backend.h"
#include "src/runtime/core_env.h"
#include "src/runtime/spsc_channel.h"

namespace tm2c {

// Message transport between core threads: lock-free per-pair rings, the
// only kind. The enum survives solely because TmSystemConfig::channel still
// carries it for the benchmark harness (bench/e2e), which assigns it.
enum class ChannelKind : uint8_t {
  kSpscRing = 0,
};

struct ThreadSystemConfig {
  PlatformDesc platform;  // used for topology/partitioning only
  uint32_t num_cores = 4;
  uint32_t num_service = 2;
  DeployStrategy strategy = DeployStrategy::kDedicated;
  uint64_t shmem_bytes = 4ull << 20;

  // Bounded ring depth per directed pair (rounded up to a power of two).
  // A sender that finds the ring full spins/yields until space opens.
  uint32_t channel_capacity = 256;
  // Pin core i's thread to host CPU (i mod hardware_concurrency). Off by
  // default: pinning helps on dedicated many-core hosts and hurts badly on
  // oversubscribed CI runners.
  bool pin_threads = false;
  // Adaptive polling: a blocked receiver runs `spin_rounds` poll scans
  // back-to-back, then interleaves `yield_rounds` scans with
  // std::this_thread::yield(), then parks on its eventcount — senders wake
  // it with one notify, and the common case (receiver polling hot on
  // another CPU) costs them no syscall at all. On an oversubscribed host
  // (more core threads than CPUs) both budgets are collapsed at
  // construction, since spinning there only steals cycles from the peer
  // being waited on. Non-parking waits (send backpressure, the barrier)
  // take short naps once their budgets run out.
  uint32_t spin_rounds = 200;
  uint32_t yield_rounds = 4000;
};

class ThreadSystem : public SystemBackend {
 public:
  explicit ThreadSystem(ThreadSystemConfig config);
  ~ThreadSystem() override;

  ThreadSystem(const ThreadSystem&) = delete;
  ThreadSystem& operator=(const ThreadSystem&) = delete;

  void SetCoreMain(uint32_t core, CoreMain main) override;

  // Spawns one thread per core, runs every core's main to completion, and
  // joins. Mains that loop forever (service loops) must exit on a
  // kShutdown message; SendShutdown() delivers those.
  void RunToCompletion();

  // SystemBackend: RunToCompletion measured on the host clock. `until` is
  // ignored — thread mains bound their own work.
  SimTime Run(SimTime until) override;

  // Delivers kShutdown to the given core (typically service cores, after
  // the app cores' mains have returned). Callable from any thread: the
  // message travels through a per-core injection lane, not the SPSC rings,
  // so it never violates their single-producer contract.
  void SendShutdown(uint32_t core);
  void RequestShutdown(uint32_t core) override { SendShutdown(core); }

  CoreEnv& env(uint32_t core) override;
  const DeploymentPlan& deployment() const override { return plan_; }
  SharedMemory& shmem() override { return *shmem_; }
  ShmAllocator& allocator() override { return *allocator_; }
  bool is_simulated() const override { return false; }
  const ThreadSystemConfig& config() const { return config_; }

 private:
  class Core;
  friend class Core;

  SpscChannel& ring(uint32_t src, uint32_t dst) {
    return *rings_[static_cast<size_t>(src) * config_.num_cores + dst];
  }

  ThreadSystemConfig config_;
  DeploymentPlan plan_;
  std::unique_ptr<SharedMemory> shmem_;
  std::unique_ptr<ShmAllocator> allocator_;
  std::vector<std::unique_ptr<Core>> cores_;
  // num_cores^2 rings, indexed src * num_cores + dst.
  std::vector<std::unique_ptr<SpscChannel>> rings_;

  // More core threads than host CPUs: waiters collapse their spin budgets
  // and long Compute busy-waits yield (set once at construction).
  bool oversubscribed_ = false;

  // Sense-reversing rendezvous of all cores, lock-free on the fast path.
  std::atomic<uint32_t> barrier_waiting_{0};
  std::atomic<uint64_t> barrier_generation_{0};
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_THREAD_SYSTEM_H_
