// Per-core runtime interface.
//
// All TM2C protocol code (transaction wrappers, DS-Lock service, contention
// managers) and all applications are written against CoreEnv, which exposes
// exactly the primitives the paper's many-core model provides: reliable
// asynchronous message passing, a local (possibly skewed) clock, local
// computation, and non-coherent shared memory. Three backends implement it:
// the deterministic discrete-event simulator (SimSystem), real std::threads
// (ThreadSystem, the Section 7 port), and forked partition-server processes
// over the same rings in shared memory (ProcessSystem).
//
// Cost model: Compute is time that must pass on every backend (application
// work, back-offs). ChargeModelled is the simulator's SCC cost model for
// work the caller has just done on the host — service handling, log
// appends, coroutine switches — so only the simulator charges it; the
// native backends have already paid it in real time.
#ifndef TM2C_SRC_RUNTIME_CORE_ENV_H_
#define TM2C_SRC_RUNTIME_CORE_ENV_H_

#include <cstdint>
#include <functional>

#include "src/noc/platform.h"
#include "src/runtime/deployment.h"
#include "src/runtime/message.h"
#include "src/shmem/allocator.h"
#include "src/shmem/shared_memory.h"
#include "src/sim/time.h"

namespace tm2c {

class CoreEnv {
 public:
  virtual ~CoreEnv() = default;

  virtual uint32_t core_id() const = 0;
  virtual const DeploymentPlan& plan() const = 0;
  virtual const PlatformDesc& platform() const = 0;

  // Sends a message; occupies the sender for the marshalling cost.
  // Messages between the same pair of cores are delivered in FIFO order.
  virtual void Send(uint32_t dst, Message msg) = 0;

  // Blocks until a message is available and returns it (paying the
  // receive/poll cost).
  virtual Message Recv() = 0;

  // Non-blocking receive. Returns false when no message is pending.
  virtual bool TryRecv(Message* out) = 0;

  // Number of messages currently pending for this core — the admission
  // controller's load signal (TmConfig::overload_high_water). Advisory: on
  // the thread backend it is a racy snapshot of the incoming rings; on the
  // simulator it is exact. The default (0) keeps admission control inert
  // for harnesses that never queue.
  virtual size_t InboxDepth() const { return 0; }

  // Local clock. Per-core constant offset (and optional drift) model the
  // absence of a synchronized global clock, which is what breaks the
  // Offset-Greedy contention manager (Section 4.3).
  virtual SimTime LocalNow() const = 0;

  // Global time, for harness bookkeeping only — protocol code must not use
  // it (the paper's system has no global clock).
  virtual SimTime GlobalNow() const = 0;

  // Spends `core_cycles` of local computation. The time passes on every
  // backend: the simulator sleeps, native backends busy-wait the modelled
  // duration.
  virtual void Compute(uint64_t core_cycles) = 0;

  // Charges `core_cycles` of modelled cost for work that has already run on
  // the host. The simulator sleeps exactly as for Compute; native backends
  // return at once.
  virtual void ChargeModelled(uint64_t core_cycles) = 0;

  // Word-granularity access to the non-coherent shared memory, paying the
  // memory latency plus memory-controller queueing.
  virtual uint64_t ShmemRead(uint64_t addr) = 0;
  virtual void ShmemWrite(uint64_t addr, uint64_t value) = 0;

  // Atomic test-and-set on a shared word: sets it to 1 and returns true if
  // it was 0, else leaves it and returns false. Models the SCC's globally
  // accessible test-and-set registers, which the paper's lock-based bank
  // baseline builds its single global lock from.
  virtual bool ShmemTestAndSet(uint64_t addr) = 0;

  // Charges the time of streaming `bytes` from shared memory starting at
  // `addr` (one controller occupancy per cache-line-sized beat). Used for
  // bulk data (MapReduce chunks); contents are inspected host-side through
  // shmem() at zero simulated cost.
  virtual void ShmemBulkAccess(uint64_t addr, uint64_t bytes) = 0;

  // Rendezvous of all cores. Infrastructure only (workload phase changes);
  // carries no simulated cost.
  virtual void Barrier() = 0;

  // Direct handles for application setup code.
  virtual SharedMemory& shmem() = 0;
  virtual ShmAllocator& allocator() = 0;
};

// Entry point a core runs; installed per core before the system starts.
using CoreMain = std::function<void(CoreEnv&)>;

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_CORE_ENV_H_
