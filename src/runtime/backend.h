// Backend selection: the deterministic simulator, real OS threads, or
// partition server processes.
//
// The runtime backends (SimSystem, ThreadSystem, ProcessSystem) expose the
// same surface —
// install per-core mains, run them, and hand out CoreEnv/shared-memory
// handles — so everything above the transport (TmSystem, the benches, the
// examples) can be written once and pointed at either. SystemBackend is
// that surface. The simulator reports simulated time; the thread backend
// reports wall-clock time, which is what makes native bench rows directly
// comparable to real hardware.
#ifndef TM2C_SRC_RUNTIME_BACKEND_H_
#define TM2C_SRC_RUNTIME_BACKEND_H_

#include <string>

#include "src/common/check.h"
#include "src/runtime/core_env.h"

namespace tm2c {

enum class BackendKind : uint8_t {
  kSim = 0,        // discrete-event simulator: deterministic, modelled time
  kThreads = 1,    // one OS thread per core: real concurrency, wall-clock time
  kProcesses = 2,  // partition servers as forked processes, same rings
};

inline const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSim:
      return "sim";
    case BackendKind::kThreads:
      return "threads";
    case BackendKind::kProcesses:
      return "processes";
  }
  return "?";
}

inline BackendKind BackendKindByName(const std::string& name) {
  if (name.empty() || name == "sim") {
    return BackendKind::kSim;
  }
  if (name == "threads") {
    return BackendKind::kThreads;
  }
  if (name == "processes") {
    return BackendKind::kProcesses;
  }
  TM2C_FATAL("unknown backend (expected sim|threads|processes)");
}

class SystemBackend {
 public:
  virtual ~SystemBackend() = default;

  // Installs the program run by `core`; must happen before Run.
  virtual void SetCoreMain(uint32_t core, CoreMain main) = 0;

  // Runs every core's main. The simulator stops at `until` (simulated
  // time) or when all events drain; the thread backend runs every main to
  // completion and ignores `until` (mains bound their own work, service
  // loops exit on kShutdown). Returns the elapsed time — simulated or
  // wall-clock — in picoseconds.
  virtual SimTime Run(SimTime until) = 0;

  // Delivers kShutdown to `core` from outside any core context (the thread
  // backend's way of ending a blocked service loop). The simulator has no
  // use for it: a core blocked in Recv with no events left simply ends the
  // run.
  virtual void RequestShutdown(uint32_t core) { (void)core; }

  virtual CoreEnv& env(uint32_t core) = 0;
  virtual const DeploymentPlan& deployment() const = 0;
  virtual SharedMemory& shmem() = 0;
  virtual ShmAllocator& allocator() = 0;

  // True for the simulator: time is modelled, runs are deterministic, and
  // one host thread runs everything.
  virtual bool is_simulated() const = 0;
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_BACKEND_H_
