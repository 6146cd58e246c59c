// Multi-process backend of the runtime — partitions as server processes.
//
// Each DTM partition's service loop runs in a forked child process. App
// cores stay host-side as threads and share the transaction data with the
// servers through a MAP_SHARED region, the paper's non-coherent shared
// memory; what a partition owns privately (lock table, WAL tail, counters)
// dies with its server.
//
// Messages travel the thread backend's ring transport (thread_system.h),
// mapped MAP_SHARED before the fork: app cores are its NativeCore, the
// server's service core runs the same ring and doorbell code, and a lock
// round trip enters the kernel only to wake a parked peer. Each server
// generation (a partition's primary, then its cold standby) has rings of
// its own plus a host lane, a ring carrying what the server addresses to
// the host (wire.h's kWireHostDst: trace events, the exit report). Each
// server also holds one end of a socket pair that carries no frames: the
// host sends one command byte down it, and its EOF tells the host the
// server died.
//
// Ordering rule: an app core drains partition p's host lane into the host
// handler before it acts on anything it popped from p, and drainers
// release a lane record only after the handler returns. A server writes a
// trace event before the reply it precedes, so the event reaches the sink
// first, as the crash-restart oracle's commit-before-ack check requires.
//
// KillPartition SIGKILLs a server mid-run. The partition's router thread
// sees the EOF and, holding the partition mutex (under which every pop
// from the partition's rings retires its ledger entry), tells answered
// requests from unanswered ones exactly: a reply still unconsumed in the
// dead rings answers its request. After those replies it appends a
// ConflictKind::kOverload refusal (the runtime's back-off-and-retry path)
// for each unanswered request, then the revocation fence for every
// transaction that quoted an epoch at the partition: its locks died with
// the lock table. Committers past their commit point ignore the fence, as
// with contention-manager revocations. The standby then recovers the WAL
// from disk (truncating the torn tail); the router pushes the in-doubt
// commit records into its rings and reopens the partition's gate only once
// it has taken them, so they reach its WAL before any new write. App cores
// move to the successor's rings once they have drained the dead ones.
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
#include <unordered_map>
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
  // commit log, reports its stats, and exits.
  void RequestShutdown(uint32_t core) override;

  CoreEnv& env(uint32_t core) override;
  const DeploymentPlan& deployment() const override { return shared_.plan; }
  SharedMemory& shmem() override { return *shared_.shmem; }
  ShmAllocator& allocator() override { return *shared_.allocator; }
  bool is_simulated() const override { return false; }
  const ProcessSystemConfig& config() const { return config_; }

  // --- process-specific surface (wired up by TmSystem before Run) ---

  // Runs in the child process after its socket is connected and before its
  // service main. `is_restart` marks a standby activated to replace a
  // killed primary: the hook recovers the partition's WAL and primes the
  // service's recovered-commit table. `env` is the only conduit back to
  // the host: its kWireHostDst sends go to the partition's host lane.
  void SetChildStart(std::function<void(uint32_t partition, bool is_restart, CoreEnv& env)> hook) {
    child_start_ = std::move(hook);
  }

  // Builds the child's exit report (sent to kWireHostDst after its main
  // returns, surfaced host-side through host_stats()).
  void SetChildExitReport(std::function<Message(uint32_t partition)> hook) {
    child_exit_report_ = std::move(hook);
  }

  // Receives every host-lane record except kHostStats (trace events), on
  // whichever host thread drains the lane. The handler must be thread-safe
  // — TmSystem feeds a MutexTraceSink.
  void SetHostFrameHandler(std::function<void(uint32_t partition, const Message&)> handler) {
    host_frame_ = std::move(handler);
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

  // The partition's exit report (kHostStats extra words), empty until its
  // server exited cleanly.
  std::vector<uint64_t> host_stats(uint32_t partition);

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
  // A request the server has not answered yet. Kept host-side so a killed
  // server's obligations are explicit: commit records are retransmitted to
  // the successor, everything else is refused back to the requester.
  struct Outstanding {
    uint32_t src = 0;
    Message request;
  };
  // One partition's gate, ledger and server generations. Senders block on
  // `cv` while the partition is down.
  struct Partition {
    std::mutex mu;
    std::condition_variable cv;
    bool up = false;
    bool shutdown_sent = false;
    // The live server's generation; the router advances it under `mu`.
    std::atomic<uint32_t> generation{0};
    // Generations below this one died: pushes into their rings give up.
    std::atomic<uint32_t> dead{0};
    std::vector<Server> servers;
    std::deque<Outstanding> outstanding;
    // Newest epoch each app core quoted at this partition — the revocation
    // fence published when the server dies.
    std::unordered_map<uint32_t, uint64_t> last_epoch;
    std::vector<uint64_t> host_stats;
    // Serializes each generation's host-lane drainers.
    std::mutex lane_mu[kGenerations];
    std::thread router;
  };

  // ServiceLinks: an app core's traffic with a partition server.
  void Send(uint32_t src, uint32_t service, const Message& msg) override;
  bool TryRecv(uint32_t core, uint32_t service, Message* out) override;

  SpscChannel& lane(uint32_t partition, uint32_t generation) {
    return lanes_[partition * kGenerations + generation];
  }
  Server ForkServer(uint32_t partition, uint32_t generation);
  [[noreturn]] void ChildMain(uint32_t partition, uint32_t generation, int fd);
  static void Command(const Server& server, char cmd);
  void DismissServers();
  void RouterLoop(uint32_t partition);
  void DrainLane(uint32_t partition, uint32_t generation);
  std::deque<Outstanding> Unanswered(uint32_t partition);
  void RestartPartition(uint32_t partition);
  void DeliverAfterDeath(uint32_t generation, uint32_t service, uint32_t core, const Message& msg);
  static Message SynthesizeRefusal(uint32_t service_core, const Message& req);
  static void Reap(Server* server);

  ProcessSystemConfig config_;
  // Shared memory (MAP_SHARED: real cross-process words) and the ring
  // transport, both mapped before the fork.
  NativeShared shared_;
  void* lanes_mem_ = nullptr;
  size_t lanes_bytes_ = 0;
  std::vector<SpscChannel> lanes_;  // per partition and generation
  std::vector<std::unique_ptr<NativeCore>> cores_;
  // Each app core's view of each partition's generation, indexed
  // core * num_service + partition; touched only by that core's thread.
  std::vector<uint32_t> gen_view_;
  std::vector<std::unique_ptr<Partition>> parts_;

  std::function<void(uint32_t, bool, CoreEnv&)> child_start_;
  std::function<Message(uint32_t)> child_exit_report_;
  std::function<void(uint32_t, const Message&)> host_frame_;
  uint64_t abort_status_base_ = ~uint64_t{0};
  pid_t host_pid_ = -1;
  bool started_ = false;
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_PROCESS_SYSTEM_H_
