#include "src/runtime/thread_system.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "src/common/check.h"

namespace tm2c {
namespace {

SimTime HostNowPs() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  return static_cast<SimTime>(ns) * kPicosPerNano;
}

// One spin-wait iteration that tells the CPU (and SMT sibling) we are in a
// busy-wait, without giving up the time slice.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Escalating wait policy shared by every blocking point of the SPSC
// transport: pure spinning first (cheap if the peer is running on another
// CPU), yields next (mandatory on oversubscribed hosts — the peer may need
// this very CPU), then either parking on the receiver's eventcount (Recv)
// or short naps (send backpressure, barrier) so a long-idle thread stops
// burning a host CPU.
class Backoff {
 public:
  explicit Backoff(const ThreadSystemConfig& config) : config_(config) {}

  // True once the spin and yield budgets are exhausted: the caller should
  // fall through to its terminal wait (park or nap).
  bool Exhausted() const { return rounds_ >= config_.spin_rounds + config_.yield_rounds; }

  void Pause() {
    ++rounds_;
    if (rounds_ <= config_.spin_rounds) {
      CpuRelax();
    } else if (rounds_ <= config_.spin_rounds + config_.yield_rounds) {
      std::this_thread::yield();
    } else {
      constexpr auto kIdleSleep = std::chrono::microseconds(50);
      std::this_thread::sleep_for(kIdleSleep);
    }
  }

  void Reset() { rounds_ = 0; }

 private:
  const ThreadSystemConfig& config_;
  uint32_t rounds_ = 0;
};

}  // namespace

class ThreadSystem::Core : public CoreEnv {
 public:
  Core(ThreadSystem* sys, uint32_t id) : sys_(sys), id_(id) {}

  uint32_t core_id() const override { return id_; }
  const DeploymentPlan& plan() const override { return sys_->plan_; }
  const PlatformDesc& platform() const override { return sys_->config_.platform; }

  void Send(uint32_t dst, Message msg) override {
    TM2C_CHECK(dst < sys_->plan_.num_cores());
    msg.src = id_;
    Core* receiver = sys_->cores_[dst].get();
    // SPSC ring: this thread is the only producer of ring(id_, dst).
    // A full ring back-pressures us until the receiver drains it.
    SpscChannel& ring = sys_->ring(id_, dst);
    Backoff backoff(sys_->config_);
    while (!ring.TryPush(msg)) {
      backoff.Pause();
      receiver->WakeIfParked();  // a parked receiver cannot drain the ring
    }
    receiver->WakeIfParked();
  }

  Message Recv() override {
    Message msg;
    Backoff backoff(sys_->config_);
    for (;;) {
      if (PollRings(&msg)) {
        return msg;
      }
      if (!backoff.Exhausted()) {
        backoff.Pause();
        continue;
      }
      // Park on the eventcount until a sender wakes us. Announce first,
      // re-poll second (mirroring the senders' push-then-check), so a
      // message that lands between the poll above and the wait below is
      // never missed. The acq_rel RMWs on park_fence_ pivot the two sides:
      // whichever RMW comes second in its modification order acquires the
      // other side's prior writes, so either the sender observes parked_
      // and notifies, or our re-poll observes the push. (A seq_cst fence
      // would do the same but is unsupported under TSan.)
      std::unique_lock<std::mutex> lock(park_mu_);
      parked_.store(true, std::memory_order_relaxed);
      park_fence_.fetch_add(1, std::memory_order_acq_rel);
      if (PollRings(&msg)) {
        parked_.store(false, std::memory_order_relaxed);
        return msg;
      }
      park_cv_.wait(lock);  // spurious wakeups just re-poll
      parked_.store(false, std::memory_order_relaxed);
      lock.unlock();
      backoff.Reset();  // fresh spin budget after a wake
    }
  }

  bool TryRecv(Message* out) override { return PollRings(out); }

  size_t InboxDepth() const override {
    size_t depth = 0;
    const uint32_t n = sys_->plan_.num_cores();
    for (uint32_t src = 0; src < n; ++src) {
      depth += sys_->ring(src, id_).ApproxSize();
    }
    return depth;
  }

  SimTime LocalNow() const override { return HostNowPs(); }
  SimTime GlobalNow() const override { return HostNowPs(); }

  void Compute(uint64_t core_cycles) override {
    // Wall-clock busy wait for the modelled duration at the platform clock
    // (533 cycles at 533 MHz = 1 us), read off steady_clock. On an
    // oversubscribed host the spin yields once it has burned a microsecond:
    // long computations (contention-manager backoffs especially) must not
    // starve the peer threads they are implicitly waiting for — two
    // contenders that busy-wait their backoffs in lock-step on one CPU
    // re-collide forever.
    const SimTime deadline = HostNowPs() + platform().CoreCyclesToPs(core_cycles);
    const SimTime spin_until =
        sys_->oversubscribed_ ? HostNowPs() + kPicosPerMicro : deadline;
    while (HostNowPs() < deadline) {
      if (HostNowPs() >= spin_until) {
        std::this_thread::yield();
      }
    }
  }

  // The modelled work already ran on this thread.
  void ChargeModelled(uint64_t /*core_cycles*/) override {}

  uint64_t ShmemRead(uint64_t addr) override { return sys_->shmem_->LoadWord(addr); }
  void ShmemWrite(uint64_t addr, uint64_t value) override {
    sys_->shmem_->StoreWord(addr, value);
  }

  bool ShmemTestAndSet(uint64_t addr) override {
    // Word-level CAS on the shared array — the modelled SCC test-and-set
    // register, minus the global mutex the v1 backend serialized it with.
    return sys_->shmem_->CasWord(addr, 0, 1);
  }

  // The address range only matters to the simulated backend, which charges
  // DRAM/mesh time for it; on real memory there is nothing to charge and
  // the caller reads through shmem(), so both stay unnamed by design.
  void ShmemBulkAccess(uint64_t /*addr*/, uint64_t /*bytes*/) override {}

  void Barrier() override {
    // Sense-reversing barrier: the last arrival resets the count, then
    // bumps the generation; everyone else spins on the generation flip.
    const uint64_t generation = sys_->barrier_generation_.load(std::memory_order_acquire);
    if (sys_->barrier_waiting_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        sys_->plan_.num_cores()) {
      sys_->barrier_waiting_.store(0, std::memory_order_relaxed);
      sys_->barrier_generation_.fetch_add(1, std::memory_order_release);
      return;
    }
    Backoff backoff(sys_->config_);
    while (sys_->barrier_generation_.load(std::memory_order_acquire) == generation) {
      backoff.Pause();
    }
  }

  SharedMemory& shmem() override { return *sys_->shmem_; }
  ShmAllocator& allocator() override { return *sys_->allocator_; }

 private:
  friend class ThreadSystem;

  // Scans this core's incoming rings round-robin from where the last scan
  // left off, so one chatty peer cannot starve the others. The injection
  // lane (SendShutdown from outside any core) is polled only when every
  // ring came up empty: protocol traffic drains before a shutdown lands.
  bool PollRings(Message* out) {
    const uint32_t n = sys_->plan_.num_cores();
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t src = next_poll_;
      next_poll_ = next_poll_ + 1 == n ? 0 : next_poll_ + 1;
      if (sys_->ring(src, id_).TryPop(out)) {
        return true;
      }
    }
    if (inject_pending_.load(std::memory_order_acquire) != 0) {
      std::lock_guard<std::mutex> lock(inject_mu_);
      if (!inject_.empty()) {
        *out = std::move(inject_.front());
        inject_.pop_front();
        inject_pending_.fetch_sub(1, std::memory_order_release);
        return true;
      }
    }
    return false;
  }

  void InjectPush(Message msg) {
    {
      std::lock_guard<std::mutex> lock(inject_mu_);
      inject_.push_back(std::move(msg));
    }
    inject_pending_.fetch_add(1, std::memory_order_release);
    WakeIfParked();
  }

  // Sender half of the eventcount handshake: pivot RMW, then notify only
  // when the receiver announced it is parked. The common case (receiver
  // polling hot on another CPU) costs one uncontended RMW and one load —
  // no syscall, no lock.
  void WakeIfParked() {
    park_fence_.fetch_add(1, std::memory_order_acq_rel);
    if (!parked_.load(std::memory_order_acquire)) {
      return;
    }
    // Taking the mutex orders us with the receiver's announce-then-wait
    // window, so the notify cannot fall between its re-poll and its wait.
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_one();
  }

  ThreadSystem* sys_;
  uint32_t id_;
  uint32_t next_poll_ = 0;  // ring scan cursor, receiver thread only

  // Injection lane for messages produced outside any core thread
  // (SendShutdown).
  std::deque<Message> inject_;
  std::mutex inject_mu_;
  std::atomic<uint32_t> inject_pending_{0};

  // Eventcount the receiver parks on once its spin/yield budget runs out.
  // parked_ is the receiver's announcement; the mutex/condvar pair only
  // ever sees traffic while the receiver is parked or about to park.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<bool> parked_{false};
  // Dekker pivot for the announce/recheck vs push/check handshake; both
  // sides RMW it acq_rel in place of a seq_cst fence (see Recv).
  std::atomic<uint64_t> park_fence_{0};

  CoreMain main_;
};

ThreadSystem::ThreadSystem(ThreadSystemConfig config)
    : config_(std::move(config)),
      plan_(config_.num_cores, config_.num_service, config_.strategy) {
  TM2C_CHECK_MSG(config_.channel_capacity >= 2, "channel_capacity must be at least 2");
  // Oversubscribed host (more core threads than CPUs): spinning only
  // steals cycles from the very peer being waited on. Collapse the budgets
  // so waiters yield almost immediately and park soon after.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 && config_.num_cores > hw) {
    oversubscribed_ = true;
    config_.spin_rounds = 0;
    config_.yield_rounds = std::min<uint32_t>(config_.yield_rounds, 16);
  }
  shmem_ = std::make_unique<SharedMemory>(config_.shmem_bytes);
  allocator_ = std::make_unique<ShmAllocator>(shmem_.get(), Topology(config_.platform));
  for (uint32_t c = 0; c < config_.num_cores; ++c) {
    cores_.push_back(std::make_unique<Core>(this, c));
  }
  rings_.reserve(static_cast<size_t>(config_.num_cores) * config_.num_cores);
  for (uint32_t src = 0; src < config_.num_cores; ++src) {
    for (uint32_t dst = 0; dst < config_.num_cores; ++dst) {
      rings_.push_back(std::make_unique<SpscChannel>(config_.channel_capacity));
    }
  }
}

ThreadSystem::~ThreadSystem() = default;

void ThreadSystem::SetCoreMain(uint32_t core, CoreMain main) {
  TM2C_CHECK(core < cores_.size());
  cores_[core]->main_ = std::move(main);
}

void ThreadSystem::SendShutdown(uint32_t core) {
  TM2C_CHECK(core < cores_.size());
  Core* receiver = cores_[core].get();
  Message msg;
  msg.type = MsgType::kShutdown;
  msg.src = core;
  receiver->InjectPush(std::move(msg));
}

void ThreadSystem::RunToCompletion() {
  std::vector<std::thread> threads;
  threads.reserve(cores_.size());
  for (auto& core : cores_) {
    Core* c = core.get();
    threads.emplace_back([c]() {
      if (c->main_) {
        c->main_(*c);
      }
    });
#if defined(__linux__)
    if (config_.pin_threads) {
      const unsigned hw = std::thread::hardware_concurrency();
      if (hw > 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(c->id_ % hw, &set);
        // Best effort: a restricted affinity mask (cgroups) may refuse.
        (void)pthread_setaffinity_np(threads.back().native_handle(), sizeof(set), &set);
      }
    }
#endif
  }
  for (auto& t : threads) {
    t.join();
  }
}

SimTime ThreadSystem::Run(SimTime /*until*/) {
  const SimTime start = HostNowPs();
  RunToCompletion();
  return HostNowPs() - start;
}

CoreEnv& ThreadSystem::env(uint32_t core) {
  TM2C_CHECK(core < cores_.size());
  return *cores_[core];
}

}  // namespace tm2c
