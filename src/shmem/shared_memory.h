// Non-coherent shared memory.
//
// The SCC exposes off-chip DRAM that any core can address but that no
// hardware keeps coherent; TM2C treats it as a flat array of bytes whose
// consistency is managed entirely by the DS-Lock protocol. We model it as a
// flat word array (64-bit words, the simulator's access granularity) plus a
// memory-controller occupancy model that charges queueing delay when many
// cores hit the same controller (the effect behind the paper's elastic-read
// congestion and hash-table balancing observations).
#ifndef TM2C_SRC_SHMEM_SHARED_MEMORY_H_
#define TM2C_SRC_SHMEM_SHARED_MEMORY_H_

#include <sys/mman.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/noc/latency.h"
#include "src/sim/time.h"

namespace tm2c {

constexpr uint64_t kWordBytes = 8;

class SharedMemory {
 public:
  // The word array is an anonymous mapping, which the kernel hands out
  // zero-filled, so no word is written (or touched) until it is used.
  // `interprocess` maps it MAP_SHARED, so forked partition servers (the
  // process backend) address the same physical words as the parent —
  // exactly the SCC's off-chip DRAM: shared, addressable by everyone, kept
  // consistent only by the DS-Lock protocol. std::atomic<uint64_t> is
  // address-free when lock-free, so the atomics work across the process
  // boundary. In-process backends map it MAP_PRIVATE: a forked child (a
  // death test) then gets a copy-on-write view, as it would of the heap.
  explicit SharedMemory(uint64_t bytes, bool interprocess = false)
      : size_bytes_((bytes + kWordBytes - 1) / kWordBytes * kWordBytes) {
    static_assert(std::atomic<uint64_t>::is_always_lock_free,
                  "cross-process shared words need address-free atomics");
    void* mem = ::mmap(nullptr, size_bytes_, PROT_READ | PROT_WRITE,
                       (interprocess ? MAP_SHARED : MAP_PRIVATE) | MAP_ANONYMOUS, -1, 0);
    TM2C_CHECK_MSG(mem != MAP_FAILED, "shmem: mmap of the word array failed");
    words_ = static_cast<std::atomic<uint64_t>*>(mem);
  }

  ~SharedMemory() { ::munmap(words_, size_bytes_); }

  SharedMemory(const SharedMemory&) = delete;
  SharedMemory& operator=(const SharedMemory&) = delete;

  // Acquire/release word accesses: free on x86 (plain MOVs) and what the
  // thread backend needs so a word used as a flag or lock register orders
  // the data it protects — in particular the modelled TAS register is
  // released by a plain StoreWord(addr, 0), which must pair with the next
  // winner's CasWord acquire. The simulator backend is single-threaded and
  // unaffected.
  uint64_t LoadWord(uint64_t addr) const {
    return words_[WordIndex(addr)].load(std::memory_order_acquire);
  }

  void StoreWord(uint64_t addr, uint64_t value) {
    words_[WordIndex(addr)].store(value, std::memory_order_release);
  }

  // Atomic compare-and-swap on one word: installs `desired` and returns
  // true iff the word held `expected`. The thread backend builds its
  // test-and-set register from this; the simulator never needs it (one
  // host thread runs everything).
  bool CasWord(uint64_t addr, uint64_t expected, uint64_t desired) {
    return words_[WordIndex(addr)].compare_exchange_strong(
        expected, desired, std::memory_order_acq_rel, std::memory_order_acquire);
  }

  // Latched status words (the abort-status words of TmConfig). The word's
  // owner latches it with CasWord(addr, seen, kLatchedWord) around a short
  // section that no publication may interleave with, and unlatches it by
  // storing `seen` back. PublishWord installs `value` only into an unlatched
  // word, waiting out a latch, so every publication lands wholly before or
  // wholly after the section. The simulator never sees a latch: its owner
  // latches and unlatches within one simulated instant.
  static constexpr uint64_t kLatchedWord = ~uint64_t{0};
  void PublishWord(uint64_t addr, uint64_t value) {
    uint64_t seen = LoadWord(addr);
    while (seen == kLatchedWord || !CasWord(addr, seen, value)) {
      if (seen == kLatchedWord) {
        std::this_thread::yield();
      }
      seen = LoadWord(addr);
    }
  }

  uint64_t size_bytes() const { return size_bytes_; }

 private:
  uint64_t WordIndex(uint64_t addr) const {
    TM2C_DCHECK(addr % kWordBytes == 0);
    TM2C_DCHECK(addr < size_bytes_);
    return addr / kWordBytes;
  }

  uint64_t size_bytes_;
  // Atomic words so the std::thread backend can share the array without
  // data races; the simulator backend is single-threaded and unaffected.
  std::atomic<uint64_t>* words_ = nullptr;
};

// Queueing model for the platform's memory controllers. Each controller
// serves one request at a time with a fixed occupancy; a request issued at
// time t to a busy controller waits until the controller frees up. Only the
// simulator backend uses this (real threads experience real memory timing).
class MemControllerModel {
 public:
  MemControllerModel(const PlatformDesc& platform, uint64_t shmem_bytes)
      : shmem_bytes_(shmem_bytes),
        service_ps_(platform.mc_service_ns * kPicosPerNano),
        stream_bytes_per_us_(platform.mc_stream_bytes_per_us),
        busy_until_(platform.num_mem_controllers, 0) {}

  // Completion time of a word access issued at `now` from `core`; advances
  // the controller's occupancy window.
  SimTime Access(SimTime now, uint32_t core, uint64_t addr, const LatencyModel& latency) {
    const uint32_t mc = latency.topology().MemControllerOf(addr, shmem_bytes_);
    const SimTime start = now > busy_until_[mc] ? now : busy_until_[mc];
    busy_until_[mc] = start + service_ps_;
    return start + latency.MemAccessPs(core, addr, shmem_bytes_);
  }

  // Completion time of streaming `bytes` starting at `addr`: one initial
  // latency plus bandwidth-limited transfer, occupying the controller for
  // the whole burst.
  SimTime BulkAccess(SimTime now, uint32_t core, uint64_t addr, uint64_t bytes,
                     const LatencyModel& latency) {
    const uint32_t mc = latency.topology().MemControllerOf(addr, shmem_bytes_);
    const SimTime start = now > busy_until_[mc] ? now : busy_until_[mc];
    const SimTime transfer = bytes * kPicosPerMicro / stream_bytes_per_us_;
    busy_until_[mc] = start + transfer;
    return start + transfer + latency.MemAccessPs(core, addr, shmem_bytes_);
  }

 private:
  uint64_t shmem_bytes_;
  SimTime service_ps_;
  uint64_t stream_bytes_per_us_;
  std::vector<SimTime> busy_until_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_SHMEM_SHARED_MEMORY_H_
