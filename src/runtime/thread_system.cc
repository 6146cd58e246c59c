#include "src/runtime/thread_system.h"

#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "src/common/check.h"

namespace tm2c {
namespace {

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

long Futex(std::atomic<uint32_t>* word, int op, uint32_t value) {
  return ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), op, value, nullptr, nullptr, 0);
}

}  // namespace

SimTime HostNowPs() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  return static_cast<SimTime>(ns) * kPicosPerNano;
}

void Doorbell::Ring() {
  word.fetch_add(1, std::memory_order_acq_rel);
  if (parked.load(std::memory_order_relaxed) != 0) {
    Futex(&word, FUTEX_WAKE, 1);
  }
}

uint32_t Doorbell::Announce() {
  parked.store(1, std::memory_order_relaxed);
  return word.fetch_add(0, std::memory_order_acq_rel);
}

void Doorbell::Wait(uint32_t seen) {
  // Returns at once if a Ring bumped the word since Announce; spurious
  // wakeups just re-poll.
  Futex(&word, FUTEX_WAIT, seen);
  parked.store(0, std::memory_order_relaxed);
}

void Doorbell::RaiseShutdown() {
  shutdown.store(1, std::memory_order_release);
  Ring();
}

void Backoff::Pause() {
  ++rounds_;
  if (rounds_ <= spin_rounds_) {
    CpuRelax();
  } else if (rounds_ <= spin_rounds_ + yield_rounds_) {
    std::this_thread::yield();
  } else {
    constexpr auto kIdleSleep = std::chrono::microseconds(50);
    std::this_thread::sleep_for(kIdleSleep);
  }
}

NativeShared::NativeShared(const ThreadSystemConfig& config, uint32_t generations,
                           bool interprocess)
    : plan(config.num_cores, config.num_service, config.strategy),
      platform(config.platform),
      shmem(std::make_unique<SharedMemory>(config.shmem_bytes, interprocess)),
      allocator(std::make_unique<ShmAllocator>(shmem.get(), Topology(platform))),
      spin_rounds(config.spin_rounds),
      yield_rounds(config.yield_rounds),
      barrier_parties(config.num_cores) {
  TM2C_CHECK_MSG(config.channel_capacity >= 2, "channel_capacity must be at least 2");
  // Oversubscribed host: spinning only steals cycles from the very peer
  // being waited on. Collapse the budgets so waiters yield almost
  // immediately and park soon after.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 && config.num_cores > hw) {
    oversubscribed = true;
    spin_rounds = 0;
    yield_rounds = std::min<uint32_t>(yield_rounds, 16);
  }
  const size_t ring_bytes = SpscChannel::PlacedBytes(config.channel_capacity);
  const size_t num_rings = static_cast<size_t>(generations) * config.num_cores * config.num_cores;
  mapping_bytes_ = config.num_cores * sizeof(Doorbell) + num_rings * ring_bytes;
  mapping_ = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                    (interprocess ? MAP_SHARED : MAP_PRIVATE) | MAP_ANONYMOUS, -1, 0);
  TM2C_CHECK_MSG(mapping_ != MAP_FAILED, "ring transport: mmap failed");
  char* at = static_cast<char*>(mapping_);
  bells_ = reinterpret_cast<Doorbell*>(at);
  for (uint32_t c = 0; c < config.num_cores; ++c, at += sizeof(Doorbell)) {
    new (at) Doorbell();
  }
  rings_.reserve(num_rings);
  for (size_t r = 0; r < num_rings; ++r, at += ring_bytes) {
    rings_.emplace_back(at, config.channel_capacity);
  }
}

NativeShared::~NativeShared() { ::munmap(mapping_, mapping_bytes_); }

void NativeCore::Send(uint32_t dst, Message msg) {
  msg.src = id_;
  TM2C_CHECK(dst < shared_->plan.num_cores());
  if (links_ != nullptr && shared_->plan.IsService(dst)) {
    links_->Send(id_, dst, msg);
    return;
  }
  const auto always = [] { return true; };
  Deliver(shared_->ring(generation_, id_, dst), dst, msg, always);
}

bool NativeCore::Poll(Message* out) {
  const uint32_t n = shared_->plan.num_cores();
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t src = next_poll_;
    next_poll_ = next_poll_ + 1 == n ? 0 : next_poll_ + 1;
    if (links_ != nullptr && shared_->plan.IsService(src)) {
      if (links_->TryRecv(id_, src, out)) {
        return true;
      }
    } else if (shared_->ring(generation_, src, id_).TryPop(out)) {
      return true;
    }
  }
  Doorbell& bell = shared_->bell(id_);
  if (bell.shutdown.load(std::memory_order_acquire) != 0 &&
      bell.shutdown.exchange(0, std::memory_order_acq_rel) != 0) {
    *out = Message();
    out->type = MsgType::kShutdown;
    out->src = id_;
    return true;
  }
  return false;
}

Message NativeCore::Recv() {
  Message msg;
  Backoff backoff(shared_->spin_rounds, shared_->yield_rounds);
  for (;;) {
    if (Poll(&msg)) {
      return msg;
    }
    if (!backoff.Exhausted()) {
      backoff.Pause();
      continue;
    }
    // Park: announce first, re-poll second (mirroring the senders'
    // push-then-ring), so a message that lands between the poll above and
    // the wait below is never missed.
    Doorbell& bell = shared_->bell(id_);
    const uint32_t seen = bell.Announce();
    if (Poll(&msg)) {
      bell.Cancel();
      return msg;
    }
    bell.Wait(seen);
    backoff.Reset();  // fresh spin budget after a wake
  }
}

size_t NativeCore::InboxDepth() const {
  size_t depth = 0;
  for (uint32_t src = 0; src < shared_->plan.num_cores(); ++src) {
    depth += shared_->ring(generation_, src, id_).ApproxSize();
  }
  return depth;
}

void NativeCore::Compute(uint64_t core_cycles) {
  // Wall-clock busy wait for the modelled duration at the platform clock
  // (533 cycles at 533 MHz = 1 us), read off steady_clock. On an
  // oversubscribed host the spin yields once it has burned a microsecond:
  // long computations (contention-manager backoffs especially) must not
  // starve the peer threads they are implicitly waiting for — two
  // contenders that busy-wait their backoffs in lock-step on one CPU
  // re-collide forever.
  const SimTime deadline = HostNowPs() + platform().CoreCyclesToPs(core_cycles);
  const SimTime spin_until = shared_->oversubscribed ? HostNowPs() + kPicosPerMicro : deadline;
  while (HostNowPs() < deadline) {
    if (HostNowPs() >= spin_until) {
      std::this_thread::yield();
    }
  }
}

void NativeCore::Barrier() {
  TM2C_CHECK_MSG(!server_, "partition servers have no barrier");
  // Sense-reversing barrier: the last arrival resets the count, then bumps
  // the generation; everyone else spins on the generation flip.
  NativeShared& s = *shared_;
  const uint64_t generation = s.barrier_generation.load(std::memory_order_acquire);
  if (s.barrier_waiting.fetch_add(1, std::memory_order_acq_rel) + 1 == s.barrier_parties) {
    s.barrier_waiting.store(0, std::memory_order_relaxed);
    s.barrier_generation.fetch_add(1, std::memory_order_release);
    return;
  }
  Backoff backoff(s.spin_rounds, s.yield_rounds);
  while (s.barrier_generation.load(std::memory_order_acquire) == generation) {
    backoff.Pause();
  }
}

ThreadSystem::ThreadSystem(ThreadSystemConfig config)
    : config_(std::move(config)), shared_(config_, /*generations=*/1, /*interprocess=*/false) {
  for (uint32_t c = 0; c < config_.num_cores; ++c) {
    cores_.push_back(std::make_unique<NativeCore>(&shared_, c));
  }
}

ThreadSystem::~ThreadSystem() = default;

void ThreadSystem::SetCoreMain(uint32_t core, CoreMain main) {
  TM2C_CHECK(core < cores_.size());
  cores_[core]->main = std::move(main);
}

void ThreadSystem::RequestShutdown(uint32_t core) {
  TM2C_CHECK(core < cores_.size());
  shared_.bell(core).RaiseShutdown();
}

SimTime ThreadSystem::Run(SimTime /*until*/) {
  const SimTime start = HostNowPs();
  std::vector<std::thread> threads;
  threads.reserve(cores_.size());
  for (auto& core : cores_) {
    NativeCore* c = core.get();
    threads.emplace_back([c]() {
      if (c->main) {
        c->main(*c);
      }
    });
#if defined(__linux__)
    if (config_.pin_threads) {
      const unsigned hw = std::thread::hardware_concurrency();
      if (hw > 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(c->core_id() % hw, &set);
        // Best effort: a restricted affinity mask (cgroups) may refuse.
        (void)pthread_setaffinity_np(threads.back().native_handle(), sizeof(set), &set);
      }
    }
#endif
  }
  for (auto& t : threads) {
    t.join();
  }
  return HostNowPs() - start;
}

CoreEnv& ThreadSystem::env(uint32_t core) {
  TM2C_CHECK(core < cores_.size());
  return *cores_[core];
}

}  // namespace tm2c
