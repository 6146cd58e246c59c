// Discrete-event simulator backend of the runtime.
//
// One SimEngine actor per simulated core. Message send occupies the sender,
// crosses the modelled mesh, and is handed to the receiver which pays the
// receive + poll-scan cost on pickup; shared-memory accesses go through the
// memory-controller occupancy model. The whole system is single-threaded
// and deterministic under a fixed seed.
#ifndef TM2C_SRC_RUNTIME_SIM_SYSTEM_H_
#define TM2C_SRC_RUNTIME_SIM_SYSTEM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/noc/latency.h"
#include "src/runtime/backend.h"
#include "src/runtime/core_env.h"
#include "src/sim/engine.h"

namespace tm2c {

struct SimSystemConfig {
  PlatformDesc platform;
  uint32_t num_cores = 48;
  uint32_t num_service = 24;
  DeployStrategy strategy = DeployStrategy::kDedicated;
  uint64_t shmem_bytes = 16ull << 20;
  uint64_t seed = 1;
  // Per-core clock offsets are drawn uniformly from [0, clock_skew_max_us]
  // (constant skew; no global clock exists on the SCC).
  double clock_skew_max_us = 50.0;
  // Optional per-core drift, uniform in [-ppm, +ppm]. Zero by default; the
  // Offset-Greedy skew ablation turns it up.
  double clock_drift_ppm = 0.0;
  // The per-payload-word messaging cost lives in
  // PlatformDesc::msg_payload_cycles_per_word (it is a platform property,
  // charged by the latency model on both ends of a message).

  // Schedule-exploration knobs (src/check/): same-instant tie shuffling in
  // the engine, per-message delay jitter, stalled/duplicated inbox polls.
  // Off by default; the chaos harness turns them on per seed. Per-pair FIFO
  // delivery is preserved under every setting (jittered arrivals are
  // clamped to stay behind the pair's previous arrival).
  ChaosConfig chaos;
};

class SimSystem : public SystemBackend {
 public:
  explicit SimSystem(SimSystemConfig config);
  ~SimSystem() override;

  SimSystem(const SimSystem&) = delete;
  SimSystem& operator=(const SimSystem&) = delete;

  // Installs the program run by `core`. Must be called for every core
  // before Run (cores without a main simply finish immediately).
  void SetCoreMain(uint32_t core, CoreMain main) override;

  // Runs the simulation until `until` (simulated time) or until all cores
  // finish. Returns the final simulated time.
  SimTime Run(SimTime until = UINT64_MAX) override;

  CoreEnv& env(uint32_t core) override;
  SimEngine& engine() { return engine_; }
  const DeploymentPlan& deployment() const override { return plan_; }
  const LatencyModel& latency() const { return latency_; }
  SharedMemory& shmem() override { return *shmem_; }
  ShmAllocator& allocator() override { return *allocator_; }
  const SimSystemConfig& config() const { return config_; }
  BackendKind kind() const override { return BackendKind::kSim; }

 private:
  class Core;  // CoreEnv implementation
  friend class Core;

  void BarrierWait(Core* core);

  SimSystemConfig config_;
  DeploymentPlan plan_;
  LatencyModel latency_;
  SimEngine engine_;
  std::unique_ptr<SharedMemory> shmem_;
  std::unique_ptr<ShmAllocator> allocator_;
  std::unique_ptr<MemControllerModel> mc_model_;
  std::vector<std::unique_ptr<Core>> cores_;
  bool started_actors_ = false;

  // Chaos bookkeeping: last scheduled arrival per (src, dst) pair, so
  // jittered wire delays can never reorder a pair's messages (indexed
  // src * num_cores + dst; only maintained when chaos is active).
  std::vector<SimTime> pair_last_arrival_;

  // Centralized zero-cost barrier.
  uint32_t barrier_waiting_ = 0;
  uint64_t barrier_generation_ = 0;
  std::vector<uint32_t> barrier_blocked_actors_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_SIM_SYSTEM_H_
