// std::thread backend of the runtime — the Section 7 "port" — and the ring
// transport both native backends share.
//
// The same protocol code that runs on the simulated SCC runs here on real
// OS threads. The transport is one SPSC ring per directed core pair
// (spsc_channel.h) plus one doorbell per core: a receiver scans its rings,
// spins, yields, then parks in FUTEX_WAIT; a sender makes the wake syscall
// only for a parked receiver, and a full ring back-pressures it. Rings,
// doorbells and shutdown words live in one mapping without pointers, so
// the processes backend (process_system.h) maps the same transport
// MAP_SHARED and its app cores are this file's NativeCore. Time is the
// host's steady clock; Compute spins and ChargeModelled is free.
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

  // Ring depth per directed pair, in messages without extra words (rounded
  // up to a power of two). A sender that finds the ring full spins/yields
  // until space opens.
  uint32_t channel_capacity = 256;
  // Pin core i's thread to host CPU (i mod hardware_concurrency). Off by
  // default: pinning helps on dedicated many-core hosts and hurts badly on
  // oversubscribed CI runners.
  bool pin_threads = false;
  // Adaptive polling: a blocked receiver runs `spin_rounds` poll scans
  // back-to-back, then interleaves `yield_rounds` scans with
  // std::this_thread::yield(), then parks on its doorbell. On an
  // oversubscribed host (more busy cores than CPUs) both budgets collapse,
  // since spinning there only steals cycles from the peer being waited on.
  // Non-parking waits (send backpressure, the barrier) take short naps once
  // their budgets run out.
  uint32_t spin_rounds = 200;
  uint32_t yield_rounds = 4000;
};

// Host clock in picoseconds (both native backends).
SimTime HostNowPs();

// One core's wake-up line. The futex word is the handshake pivot: Ring
// bumps it with an acq_rel RMW and a parking owner reads it with one, so
// whichever comes second acquires the other side's prior writes — the
// sender sees `parked`, or the owner's re-poll sees the push. (A seq_cst
// fence would do the same, but TSan cannot follow it.) The futex calls
// omit FUTEX_PRIVATE_FLAG so the wait works across fork().
struct Doorbell {
  alignas(kCacheLineBytes) std::atomic<uint32_t> word{0};
  std::atomic<uint32_t> parked{0};
  // Polled once every ring came up empty, so traffic drains before a
  // shutdown lands. Its own line keeps the polls off the senders' RMWs.
  alignas(kCacheLineBytes) std::atomic<uint32_t> shutdown{0};

  // Sender side, after publishing: wakes the owner if it is parked.
  void Ring();
  // Owner side: announces the park and returns the word to Wait() on after
  // a re-poll of the rings (Cancel() if that finds something).
  uint32_t Announce();
  void Wait(uint32_t seen);
  void Cancel() { parked.store(0, std::memory_order_relaxed); }
  // Any thread: raises the shutdown word and wakes the owner.
  void RaiseShutdown();
};

// Escalating wait of every blocking point of the transport: spinning (cheap
// while the peer runs on another CPU), then yields (the peer may need this
// very CPU), then the caller's terminal wait: parking (Recv) or, Pause past
// the budgets, short naps (send backpressure, the barrier).
class Backoff {
 public:
  Backoff(uint32_t spin_rounds, uint32_t yield_rounds)
      : spin_rounds_(spin_rounds), yield_rounds_(yield_rounds) {}

  bool Exhausted() const { return rounds_ >= spin_rounds_ + yield_rounds_; }
  void Pause();
  void Reset() { rounds_ = 0; }

 private:
  uint32_t spin_rounds_;
  uint32_t yield_rounds_;
  uint32_t rounds_ = 0;
};

// Traffic with service cores that the processes backend routes itself
// (partition gate, the sending core's own crash ledger, server
// generations).
class ServiceLinks {
 public:
  virtual ~ServiceLinks() = default;
  virtual void Send(uint32_t src, uint32_t service, const Message& msg) = 0;
  virtual bool TryRecv(uint32_t core, uint32_t service, Message* out) = 0;
};

// What the cores of one native system share: the data memory, and one
// anonymous mapping with a doorbell per core and, per generation, a ring
// per directed core pair. The processes backend maps it MAP_SHARED with a
// generation for each server of a partition (primary and standby).
struct NativeShared {
  // `config` sizes the rings and sets the wait budgets.
  NativeShared(const ThreadSystemConfig& config, uint32_t generations, bool interprocess);
  ~NativeShared();
  NativeShared(const NativeShared&) = delete;
  NativeShared& operator=(const NativeShared&) = delete;

  SpscChannel& ring(uint32_t generation, uint32_t src, uint32_t dst) {
    const size_t n = plan.num_cores();
    return rings_[(generation * n + src) * n + dst];
  }
  Doorbell& bell(uint32_t core) { return bells_[core]; }

  DeploymentPlan plan;
  PlatformDesc platform;
  std::unique_ptr<SharedMemory> shmem;
  std::unique_ptr<ShmAllocator> allocator;
  uint32_t spin_rounds = 0;
  uint32_t yield_rounds = 0;
  // More busy cores than host CPUs: long Compute busy-waits yield.
  bool oversubscribed = false;
  // Cores that rendezvous in Barrier (partition servers never do).
  uint32_t barrier_parties = 0;
  // Sense-reversing rendezvous, lock-free on the fast path.
  std::atomic<uint32_t> barrier_waiting{0};
  std::atomic<uint64_t> barrier_generation{0};

 private:
  void* mapping_ = nullptr;
  size_t mapping_bytes_ = 0;
  Doorbell* bells_ = nullptr;
  std::vector<SpscChannel> rings_;
};

// One core of a native backend: sends push into the shared rings, Recv
// scans them round-robin and parks on the core's doorbell. Its own cache
// lines: the owner rewrites its scan cursor on every poll.
class alignas(2 * kCacheLineBytes) NativeCore : public CoreEnv {
 public:
  NativeCore(NativeShared* shared, uint32_t id, ServiceLinks* links = nullptr)
      : shared_(shared), id_(id), links_(links) {}

  // In a forked partition server: serve that generation's rings.
  void BindServer(uint32_t generation) {
    generation_ = generation;
    server_ = true;
  }

  uint32_t core_id() const override { return id_; }
  const DeploymentPlan& plan() const override { return shared_->plan; }
  const PlatformDesc& platform() const override { return shared_->platform; }

  void Send(uint32_t dst, Message msg) override;
  Message Recv() override;
  bool TryRecv(Message* out) override { return Poll(out); }
  size_t InboxDepth() const override;

  SimTime LocalNow() const override { return HostNowPs(); }
  SimTime GlobalNow() const override { return HostNowPs(); }
  void Compute(uint64_t core_cycles) override;
  // The modelled work already ran on this thread.
  void ChargeModelled(uint64_t /*core_cycles*/) override {}

  uint64_t ShmemRead(uint64_t addr) override { return shared_->shmem->LoadWord(addr); }
  void ShmemWrite(uint64_t addr, uint64_t value) override {
    shared_->shmem->StoreWord(addr, value);
  }
  // Word-level CAS on the shared array: the modelled SCC test-and-set
  // register.
  bool ShmemTestAndSet(uint64_t addr) override { return shared_->shmem->CasWord(addr, 0, 1); }
  // The address range only matters to the simulated backend, which charges
  // DRAM/mesh time for it; on real memory there is nothing to charge.
  void ShmemBulkAccess(uint64_t /*addr*/, uint64_t /*bytes*/) override {}
  void Barrier() override;

  SharedMemory& shmem() override { return *shared_->shmem; }
  ShmAllocator& allocator() override { return *shared_->allocator; }

  // Pushes `msg` into `ring` and rings `dst`'s doorbell, backing off while
  // the ring is full; gives up (returning false) once `alive()` is false.
  template <typename Alive>
  bool Deliver(SpscChannel& ring, uint32_t dst, const Message& msg, Alive&& alive) {
    Doorbell& bell = shared_->bell(dst);
    Backoff backoff(shared_->spin_rounds, shared_->yield_rounds);
    const bool delivered = ring.Push(msg, [&] {
      bell.Ring();  // a parked receiver cannot drain the ring
      backoff.Pause();
      return alive();
    });
    bell.Ring();
    return delivered;
  }

  CoreMain main;

 private:
  // Scans the incoming rings round-robin from where the last scan left
  // off, so one chatty peer cannot starve the others.
  bool Poll(Message* out);

  NativeShared* shared_;
  uint32_t id_;
  ServiceLinks* links_;
  uint32_t generation_ = 0;
  bool server_ = false;
  uint32_t next_poll_ = 0;  // ring scan cursor, receiver thread only
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
  // the app cores' mains have returned). Callable from any thread: it
  // raises the core's shutdown word, not a ring, so it never violates
  // their single-producer contract.
  void SendShutdown(uint32_t core);
  void RequestShutdown(uint32_t core) override { SendShutdown(core); }

  CoreEnv& env(uint32_t core) override;
  const DeploymentPlan& deployment() const override { return shared_.plan; }
  SharedMemory& shmem() override { return *shared_.shmem; }
  ShmAllocator& allocator() override { return *shared_.allocator; }
  bool is_simulated() const override { return false; }
  const ThreadSystemConfig& config() const { return config_; }

 private:
  ThreadSystemConfig config_;
  NativeShared shared_;
  std::vector<std::unique_ptr<NativeCore>> cores_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_THREAD_SYSTEM_H_
