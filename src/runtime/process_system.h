// Multi-process backend of the runtime — partitions as server processes.
//
// Each DTM partition's service loop runs in a forked child process. App
// cores stay host-side as threads and share the transaction data with the
// servers through a MAP_SHARED region, the paper's non-coherent shared
// memory, and so is the control plane (the ownership directory, each
// service's counters). What a partition owns privately (lock table, WAL
// tail) dies with its server.
//
// Messages travel the thread backend's ring transport (thread_system.h),
// mapped MAP_SHARED before the fork: app cores are its NativeCore, the
// server's service core runs the same ring and doorbell code, and a lock
// round trip enters the kernel only to wake a parked peer. Each server
// generation (a partition's primary, then its cold standby) has rings of
// its own. Each server also holds one end of a socket pair that carries no
// frames: the host sends one command byte down it, and its EOF tells the
// host the server died.
//
// Each app core keeps its own crash ledger per partition: the requests it
// sent that await a reply, and the newest epoch it quoted there. A send
// records into it and a pop from the partition's rings retires from it,
// each under that core's ledger lock alone, which no other app core takes.
// Only the router takes them all: after the partition mutex, in core
// order. A sender that finds the partition down waits at the gate holding
// no ledger lock.
//
// KillPartition SIGKILLs a server mid-run. The partition's router thread
// sees the EOF and takes the partition mutex, then every ledger lock in
// core order, so no core pops, retires or records while it works. It
// tells answered requests from unanswered ones exactly: a reply still
// unconsumed in the dead rings answers its request. After those replies
// it appends a ConflictKind::kOverload refusal (the runtime's
// back-off-and-retry path) for each unanswered request, then the
// revocation fence for every core that quoted an epoch at the partition:
// its locks died with the lock table. Committers past their commit point
// ignore the fence, as with contention-manager revocations. The standby
// then recovers the WAL from disk (truncating the torn tail); the router
// pushes the in-doubt commit records into its rings and reopens the
// partition's gate only once it has taken them, so they reach its WAL
// before any new write. App cores move to the successor's rings once they
// have drained the dead ones.
#ifndef TM2C_SRC_RUNTIME_PROCESS_SYSTEM_H_
#define TM2C_SRC_RUNTIME_PROCESS_SYSTEM_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/backend.h"
#include "src/runtime/core_env.h"
#include "src/runtime/thread_system.h"

namespace tm2c {

struct ProcessSystemConfig {
  PlatformDesc platform;  // used for topology/partitioning only
  uint32_t num_cores = 4;
  uint32_t num_service = 2;
  uint64_t shmem_bytes = 4ull << 20;
  // Unused: the servers' sockets are anonymous pairs. The field stays only
  // because the benchmark harness (bench/e2e) still assigns it.
  std::string run_dir;
};

// The deployment is always dedicated: a partition server process cannot
// interleave an application main the way the multitasked simulator does.
class ProcessSystem : public SystemBackend, private ServiceLinks {
 public:
  explicit ProcessSystem(ProcessSystemConfig config);
  ~ProcessSystem() override;

  ProcessSystem(const ProcessSystem&) = delete;
  ProcessSystem& operator=(const ProcessSystem&) = delete;

  void SetCoreMain(uint32_t core, CoreMain main) override;

  // Forks the partition servers (one primary plus one cold standby each),
  // runs every app core's main on a host thread, joins, and reaps. `until`
  // is ignored — mains bound their own work, service loops exit on
  // kShutdown. Returns wall-clock picoseconds. Runs once.
  SimTime Run(SimTime until) override;

  // Raises the core's shutdown word. A partition server then flushes its
  // commit log and exits.
  void RequestShutdown(uint32_t core) override;

  CoreEnv& env(uint32_t core) override;
  const DeploymentPlan& deployment() const override { return shared_.plan; }
  SharedMemory& shmem() override { return *shared_.shmem; }
  ShmAllocator& allocator() override { return *shared_.allocator; }
  bool is_simulated() const override { return false; }
  const ProcessSystemConfig& config() const { return config_; }

  // --- process-specific surface (wired up by TmSystem before Run) ---

  // Runs in a standby's process once it is activated to replace a killed
  // primary, before its service main: the hook recovers the partition's
  // WAL and primes the service's recovered-commit table.
  void SetStandbyStart(std::function<void(uint32_t partition)> hook) {
    standby_start_ = std::move(hook);
  }

  // Base of the per-core abort-status words (TmConfig::abort_status_base)
  // so the restart fence can publish revocations the same way contention
  // managers do. Unset: the fence relies on kAbortNotify delivery alone.
  void SetAbortStatusBase(uint64_t base) { abort_status_base_ = base; }

  // SIGKILLs the partition's current server process mid-run. The partition
  // router detects the death, activates the cold standby, and resumes; a
  // second kill of the same partition is fatal (one standby each).
  void KillPartition(uint32_t partition);

  // Times the partition's server was killed and replaced so far (its
  // generation: one standby each).
  uint32_t restarts(uint32_t partition);

 private:
  // Server generations per partition: the primary and one cold standby.
  static constexpr uint32_t kGenerations = 2;

  struct Server {
    pid_t pid = -1;
    // Host end of the server's socket pair: it carries one command byte
    // ('p' serve, 'r' recover then serve, 'q' quit unused); EOF is death.
    int fd = -1;
    bool reaped = false;
  };
  // A request the server has not answered yet, as the router collects
  // them from the ledgers at a death: commit records are retransmitted to
  // the successor, everything else is refused back to the requester.
  struct Outstanding {
    uint32_t src = 0;
    Message request;
  };
  // One app core's crash ledger at one partition. Its lock is taken by the
  // core's own sends and pops, and by the router (after the partition
  // mutex), so while the partition is up no other thread contends for it.
  struct alignas(kCacheLineBytes) CoreLedger {
    std::mutex mu;
    // Requests the server has not answered yet, in send order.
    std::deque<Message> outstanding;
    // Newest epoch the core quoted at the partition, once `quoted`: the
    // revocation fence published when the server dies.
    uint64_t last_epoch = 0;
    bool quoted = false;
  };
  // One partition's gate, ledgers and server generations. Lock order: `mu`,
  // then the ledger locks in core order. Senders wait on `cv`, holding no
  // ledger lock, while the partition is down.
  struct Partition {
    explicit Partition(uint32_t num_cores) : ledgers(num_cores) {}

    std::mutex mu;
    std::condition_variable cv;
    // Written only by the router (and by Run before it starts), holding
    // `mu` and every ledger lock, so a core reads it under either.
    std::atomic<bool> up{false};
    bool shutdown_sent = false;
    // The live server's generation; the router advances it under `mu`.
    std::atomic<uint32_t> generation{0};
    // Generations below this one died: pushes into their rings give up.
    std::atomic<uint32_t> dead{0};
    std::vector<Server> servers;
    std::vector<CoreLedger> ledgers;  // indexed by core id; app cores only
    std::thread router;
  };

  // ServiceLinks: an app core's traffic with a partition server.
  void Send(uint32_t src, uint32_t service, const Message& msg) override;
  bool TryRecv(uint32_t core, uint32_t service, Message* out) override;

  Server ForkServer(uint32_t partition, uint32_t generation);
  [[noreturn]] void ChildMain(uint32_t partition, uint32_t generation, int fd);
  static void Command(const Server& server, char cmd);
  void DismissServers();
  void RouterLoop(uint32_t partition);
  std::vector<std::unique_lock<std::mutex>> LockLedgers(uint32_t partition);
  std::vector<Outstanding> Unanswered(uint32_t partition);
  void RestartPartition(uint32_t partition);
  void DeliverAfterDeath(uint32_t generation, uint32_t service, uint32_t core, const Message& msg);
  static Message SynthesizeRefusal(uint32_t service_core, const Message& req);
  static void Reap(Server* server);

  ProcessSystemConfig config_;
  // Shared memory (MAP_SHARED: real cross-process words) and the ring
  // transport, both mapped before the fork.
  NativeShared shared_;
  std::vector<std::unique_ptr<NativeCore>> cores_;
  // Each app core's view of each partition's generation, indexed
  // core * num_service + partition; touched only by that core's thread.
  std::vector<uint32_t> gen_view_;
  std::vector<std::unique_ptr<Partition>> parts_;

  std::function<void(uint32_t)> standby_start_;
  uint64_t abort_status_base_ = ~uint64_t{0};
  pid_t host_pid_ = -1;
  bool started_ = false;
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_PROCESS_SYSTEM_H_
