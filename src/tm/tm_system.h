// Top-level convenience wiring: a many-core running TM2C.
//
// TmSystem builds the selected runtime backend — the deterministic
// simulator (BackendKind::kSim, the default), real OS threads over
// lock-free SPSC rings (BackendKind::kThreads), or partition-server
// processes over the same rings in shared memory (BackendKind::kProcesses)
// — installs a
// DtmService on every service core (dedicated deployment) or on every core
// (multitasked), and gives each application core a TxRuntime. Benchmarks
// and examples only provide per-app-core bodies; the same body code runs
// unmodified on every backend.
#ifndef TM2C_SRC_TM_TM_SYSTEM_H_
#define TM2C_SRC_TM_TM_SYSTEM_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/durability/partition_log.h"
#include "src/runtime/backend.h"
#include "src/runtime/process_system.h"
#include "src/runtime/sim_system.h"
#include "src/runtime/thread_system.h"
#include "src/tm/address_map.h"
#include "src/tm/dtm_service.h"
#include "src/tm/tx_runtime.h"

namespace tm2c {

struct TmSystemConfig {
  // Topology, platform, deployment and sizing — shared by every backend
  // (threads and processes use platform/num_cores/num_service/strategy/
  // shmem_bytes and ignore the simulation-only knobs).
  SimSystemConfig sim;
  TmConfig tm;

  BackendKind backend = BackendKind::kSim;
  // Thread-backend tuning; ignored under the simulator. `channel` has one
  // value and selects nothing: it stays only because the frozen benchmark
  // harness (bench/e2e/workloads.cc) assigns it.
  ChannelKind channel = ChannelKind::kSpscRing;
  bool pin_threads = false;
  // Process backend with durability on: directory for the per-partition
  // WAL backing files. Required there, ignored elsewhere. Pass a fresh
  // per-run (temp) directory.
  std::string run_dir;
};

class TmSystem {
 public:
  explicit TmSystem(TmSystemConfig config);

  // Body run by the `app_index`-th application core (0-based among app
  // cores). Bodies typically loop for a fixed duration:
  //   const SimTime t0 = env.GlobalNow();
  //   while (env.GlobalNow() - t0 < duration) { rt.Execute(...); }
  using AppBody = std::function<void(CoreEnv&, TxRuntime&)>;

  void SetAppBody(uint32_t app_index, AppBody body);
  // Installs the same body on every application core.
  void SetAllAppBodies(const AppBody& body);

  // Runs the system and returns the elapsed time: simulated time under the
  // simulator (bounded by `until`), wall-clock time under threads (where
  // `until` is ignored — bodies bound their own work, and the last
  // finishing app core shuts the service loops down).
  SimTime Run(SimTime until = UINT64_MAX);

  uint32_t num_app_cores() const { return system_->deployment().num_app(); }
  const TxStats& AppStats(uint32_t app_index) const;
  TxStats MergedStats() const;
  const DtmService& ServiceAt(uint32_t partition) const;

  // End-of-run invariant: once every application body has completed (all
  // transactions committed or abandoned and their releases processed), no
  // partition may still hold a lock. Returns true when every service's
  // lock_entries() is 0. Meaningless if a horizon cut a transaction.
  bool AllLockTablesEmpty() const;

  // Attaches an execution-trace recorder (typically a check::History) to
  // every runtime and service; verification only. Call before Run, on
  // every backend: a processes run's servers fork with the trace they will
  // write. The simulator calls the sink as events happen. On threads and
  // processes each core appends to its own event log (trace.h's
  // EventLogs), and Run replays the logs into the sink, merged by stamp,
  // once every core has stopped.
  void AttachTrace(TxTraceSink* trace);

  // Backend-agnostic handles (work under sim and threads alike).
  SystemBackend& system() { return *system_; }
  const DeploymentPlan& deployment() const { return system_->deployment(); }
  SharedMemory& shmem() { return system_->shmem(); }
  ShmAllocator& allocator() { return system_->allocator(); }
  BackendKind backend() const { return config_.backend; }

  // Process-specific handle (kill/restart chaos). Checked: only valid when
  // backend() == BackendKind::kProcesses.
  ProcessSystem& process();

  // SIGKILLs the partition's server process mid-run (process backend
  // only); its cold standby recovers the partition from the WAL.
  void KillPartition(uint32_t partition) { process().KillPartition(partition); }

  // Post-run service-side counters: ServiceAt(p).stats(), read from the
  // block the partition's service core writes (src/tm/dtm_service.h) on
  // every backend. After a kill the block holds the dead primary's counts
  // plus its standby's.
  DtmServiceStats ServiceStats(uint32_t partition) const;

  // Durability handles (only valid when config.tm.durability != kOff;
  // one PartitionDurability per service partition, owned here so the log
  // image and checkpoints outlive the run for recovery).
  PartitionDurability& DurabilityAt(uint32_t partition);
  bool durability_enabled() const { return !durability_.empty(); }

  // Captures every registered owned range's current slab words as each
  // partition's checkpoint 0 (the post-load baseline image). Call after
  // the host-side load phase and before Run().
  void CaptureDurableCheckpoint0();

  const AddressMap& address_map() const { return map_; }
  // Mutable for setup-time AddressMap::AddOwnedRange registration (the
  // runtimes' and services' map copies share the ownership directory).
  AddressMap& address_map() { return map_; }
  const TmSystemConfig& config() const { return config_; }

 private:
  // Called by every app core main after its body returns; under the thread
  // backend the last one shuts down the cores still blocked in Recv.
  void OnAppBodyDone();

  // Installs the process backend's hooks: the abort-status fence, and the
  // WAL recovery a standby runs when it replaces a killed primary.
  void WireProcessBackend();

  TmSystemConfig config_;
  std::unique_ptr<SystemBackend> system_;
  AddressMap map_;
  std::vector<std::unique_ptr<DtmService>> services_;   // per service core
  // Per-partition durability (empty when config.tm.durability == kOff).
  std::vector<std::unique_ptr<PartitionDurability>> durability_;
  std::vector<std::unique_ptr<TxRuntime>> runtimes_;    // per app core
  std::vector<AppBody> bodies_;                         // per app core
  std::atomic<uint32_t> apps_running_{0};
  // The native backends' per-core event logs (null when untraced).
  std::unique_ptr<EventLogs> logs_;
  bool ran_ = false;
};

}  // namespace tm2c

#endif  // TM2C_SRC_TM_TM_SYSTEM_H_
