#include "src/runtime/process_system.h"

#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>

#include "src/common/check.h"

namespace tm2c {
namespace {

// True for request types the server answers with exactly one reply.
bool ExpectsReply(MsgType type) {
  switch (type) {
    case MsgType::kReadLockReq:
    case MsgType::kWriteLockReq:
    case MsgType::kBatchAcquire:
    case MsgType::kCommitLog:
    case MsgType::kEcho:
      return true;
    default:
      return false;
  }
}

// True for messages whose w1 is the sender's transaction epoch — the
// bookkeeping feeding the death fence.
bool CarriesEpoch(MsgType type) {
  switch (type) {
    case MsgType::kReadLockReq:
    case MsgType::kWriteLockReq:
    case MsgType::kBatchAcquire:
    case MsgType::kReadRelease:
    case MsgType::kWriteRelease:
    case MsgType::kReleaseAllReads:
    case MsgType::kReleaseAllWrites:
    case MsgType::kEarlyReadRelease:
    case MsgType::kCommitLog:
      return true;
    default:
      return false;
  }
}

// True when `reply` from a partition server answers `req`.
bool Answers(const Message& req, const Message& reply) {
  switch (reply.type) {
    case MsgType::kLockGranted:
    case MsgType::kLockConflict:
      return (req.type == MsgType::kReadLockReq || req.type == MsgType::kWriteLockReq) &&
             req.w0 == reply.w0;
    case MsgType::kBatchReply:
      return req.type == MsgType::kBatchAcquire &&
             (req.w0 >> kBatchReqIdShift) == (reply.w3 >> kBatchReqIdShift);
    case MsgType::kCommitLogAck:
      return req.type == MsgType::kCommitLog && req.w1 == reply.w1;
    case MsgType::kEchoRsp:
      return req.type == MsgType::kEcho && req.w0 == reply.w0;
    default:
      return false;
  }
}

// Retires the oldest of one core's requests in `ledger` that `reply`
// answers. Returns false for an answer that matches none; unsolicited
// notifications answer nothing and always return true.
bool Retire(std::deque<Message>* ledger, const Message& reply) {
  if (reply.type == MsgType::kAbortNotify || reply.type == MsgType::kOwnershipUpdate) {
    return true;
  }
  for (auto it = ledger->begin(); it != ledger->end(); ++it) {
    if (Answers(*it, reply)) {
      ledger->erase(it);
      return true;
    }
  }
  return false;
}

// The thread backend's ring depth and wait budgets: app threads and
// partition servers are all busy cores.
ThreadSystemConfig RingConfig(const ProcessSystemConfig& config) {
  ThreadSystemConfig ring;
  ring.platform = config.platform;
  ring.num_cores = config.num_cores;
  ring.num_service = config.num_service;
  ring.shmem_bytes = config.shmem_bytes;
  return ring;
}

}  // namespace

ProcessSystem::ProcessSystem(ProcessSystemConfig config)
    : config_(std::move(config)),
      shared_(RingConfig(config_), kGenerations, /*interprocess=*/true) {
  shared_.barrier_parties = shared_.plan.num_app();
  for (uint32_t c = 0; c < config_.num_cores; ++c) {
    ServiceLinks* links = shared_.plan.IsApp(c) ? this : nullptr;
    cores_.push_back(std::make_unique<NativeCore>(&shared_, c, links));
  }
  gen_view_.assign(static_cast<size_t>(config_.num_cores) * config_.num_service, 0);
  for (uint32_t p = 0; p < config_.num_service; ++p) {
    parts_.push_back(std::make_unique<Partition>(config_.num_cores));
  }
}

ProcessSystem::~ProcessSystem() {
  // Normal runs finish everything inside Run(); this is the abandoned-run
  // path (a fatal test failure between construction and Run).
  for (auto& part : parts_) {
    if (part->router.joinable()) {
      part->router.join();
    }
  }
  DismissServers();
}

void ProcessSystem::SetCoreMain(uint32_t core, CoreMain main) {
  TM2C_CHECK(core < cores_.size());
  cores_[core]->main = std::move(main);
}

CoreEnv& ProcessSystem::env(uint32_t core) {
  TM2C_CHECK(core < cores_.size());
  return *cores_[core];
}

ProcessSystem::Server ProcessSystem::ForkServer(uint32_t partition, uint32_t generation) {
  int fds[2];
  TM2C_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  const pid_t pid = ::fork();
  TM2C_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    ChildMain(partition, generation, fds[1]);
  }
  // Closed before the next fork, so the server holds the only copy of its
  // end: its death is this end's EOF.
  ::close(fds[1]);
  Server server;
  server.pid = pid;
  server.fd = fds[0];
  return server;
}

void ProcessSystem::Command(const Server& server, char cmd) {
  // A server that is already gone just refuses the byte.
  (void)::send(server.fd, &cmd, 1, MSG_NOSIGNAL);
}

void ProcessSystem::DismissServers() {
  // Standbys never activated quit; every child is reaped.
  for (auto& part : parts_) {
    for (Server& s : part->servers) {
      if (s.fd >= 0) {
        Command(s, 'q');
        ::close(s.fd);
        s.fd = -1;
      }
      Reap(&s);
    }
  }
}

void ProcessSystem::ChildMain(uint32_t partition, uint32_t generation, int fd) {
  // In the forked server: the parent's mutexes, threads and ledgers are
  // inert copies; shared memory and the rings are the bridges back. A
  // server parked on its doorbell would not notice the host's death, so
  // the kernel kills it with the forking thread.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != host_pid_) {
    ::_exit(0);
  }
  char cmd = 0;
  ssize_t n;
  do {
    n = ::read(fd, &cmd, 1);
  } while (n < 0 && errno == EINTR);
  if (n <= 0 || cmd == 'q') {
    ::_exit(0);  // unused standby: the run ended without needing us
  }
  // `fd` stays open, unused, until _exit closes it: that close is the
  // host's death signal.

  NativeCore& env = *cores_[shared_.plan.ServiceCore(partition)];
  env.BindServer(generation);
  if (cmd == 'r' && standby_start_) {
    standby_start_(partition);
  }
  if (env.main) {
    env.main(env);
  }
  ::_exit(0);
}

SimTime ProcessSystem::Run(SimTime /*until*/) {
  TM2C_CHECK_MSG(!started_, "a ProcessSystem runs once");
  started_ = true;
  const SimTime start = HostNowPs();

  // Fork every server — one primary plus one cold standby per partition —
  // while the host is still single-threaded, so the children inherit a
  // quiescent copy of the pre-run state.
  host_pid_ = ::getpid();
  for (uint32_t p = 0; p < config_.num_service; ++p) {
    for (uint32_t g = 0; g < kGenerations; ++g) {
      parts_[p]->servers.push_back(ForkServer(p, g));
    }
  }
  for (uint32_t p = 0; p < config_.num_service; ++p) {
    Command(parts_[p]->servers[0], 'p');
    parts_[p]->up.store(true, std::memory_order_relaxed);
    parts_[p]->router = std::thread([this, p]() { RouterLoop(p); });
  }

  std::vector<std::thread> app_threads;
  app_threads.reserve(shared_.plan.num_app());
  for (uint32_t core : shared_.plan.app_cores()) {
    NativeCore* c = cores_[core].get();
    app_threads.emplace_back([c]() {
      if (c->main) {
        c->main(*c);
      }
    });
  }
  for (auto& t : app_threads) {
    t.join();
  }
  // The last app main's completion hook requested the shutdowns; each
  // router exits at its server's clean EOF.
  for (auto& part : parts_) {
    part->router.join();
  }
  DismissServers();
  return HostNowPs() - start;
}

void ProcessSystem::RequestShutdown(uint32_t core) {
  TM2C_CHECK(core < config_.num_cores);
  if (shared_.plan.IsService(core)) {
    Partition& c = *parts_[shared_.plan.PartitionOf(core)];
    std::unique_lock<std::mutex> lock(c.mu);
    while (!c.up.load(std::memory_order_relaxed)) {
      c.cv.wait(lock);  // a restart in flight finishes first
    }
    c.shutdown_sent = true;
  }
  shared_.bell(core).RaiseShutdown();
}

void ProcessSystem::KillPartition(uint32_t partition) {
  TM2C_CHECK(partition < parts_.size());
  Partition& c = *parts_[partition];
  std::unique_lock<std::mutex> lock(c.mu);
  while (!c.up.load(std::memory_order_relaxed)) {
    c.cv.wait(lock);  // serialize with an in-flight restart
  }
  TM2C_CHECK_MSG(!c.shutdown_sent, "KillPartition after shutdown");
  const Server& server = c.servers[c.generation.load(std::memory_order_relaxed)];
  TM2C_CHECK(!server.reaped);
  ::kill(server.pid, SIGKILL);
  // The router owns the rest: it sees the server's EOF, then runs the
  // death protocol.
}

uint32_t ProcessSystem::restarts(uint32_t partition) {
  return parts_[partition]->generation.load(std::memory_order_acquire);
}

void ProcessSystem::Send(uint32_t src, uint32_t service, const Message& msg) {
  Partition& c = *parts_[shared_.plan.PartitionOf(service)];
  CoreLedger& ledger = c.ledgers[src];
  uint32_t generation;
  {
    std::unique_lock<std::mutex> lock(ledger.mu);
    if (CarriesEpoch(msg.type)) {
      ledger.last_epoch = ledger.quoted ? std::max(ledger.last_epoch, msg.w1) : msg.w1;
      ledger.quoted = true;
    }
    while (!c.up.load(std::memory_order_relaxed)) {
      // The partition is down; all traffic stalls. The router takes this
      // lock after the partition mutex, so the wait at the gate holds none.
      lock.unlock();
      {
        std::unique_lock<std::mutex> gate(c.mu);
        c.cv.wait(gate, [&c] { return c.up.load(std::memory_order_relaxed); });
      }
      lock.lock();
    }
    if (ExpectsReply(msg.type)) {
      ledger.outstanding.push_back(msg);
    }
    generation = c.generation.load(std::memory_order_relaxed);
  }
  // A server that dies meanwhile leaves this push to a ring nobody reads;
  // the ledger entry above makes the router answer or resend it.
  const auto alive = [&c, generation] {
    return c.dead.load(std::memory_order_acquire) <= generation;
  };
  cores_[src]->Deliver(shared_.ring(generation, src, service), service, msg, alive);
}

bool ProcessSystem::TryRecv(uint32_t core, uint32_t service, Message* out) {
  const uint32_t partition = shared_.plan.PartitionOf(service);
  Partition& c = *parts_[partition];
  CoreLedger& ledger = c.ledgers[core];
  uint32_t& generation = gen_view_[core * config_.num_service + partition];
  for (;;) {
    SpscChannel& ring = shared_.ring(generation, service, core);
    if (!ring.EmptyHint()) {
      // Pop and retire in one critical section, so the router can tell
      // answered requests from unanswered ones once the server dies.
      std::lock_guard<std::mutex> lock(ledger.mu);
      TM2C_CHECK(ring.TryPop(out));
      TM2C_CHECK_MSG(Retire(&ledger.outstanding, *out),
                     "partition server reply matches no outstanding request");
      return true;
    }
    if (c.generation.load(std::memory_order_acquire) == generation) {
      return false;
    }
    // The server died, and the router appended all it owes this core to
    // the dead ring before advancing the generation: once that ring is
    // empty, the successor's take over. The router holds this core's
    // ledger lock until the restart is done.
    std::lock_guard<std::mutex> lock(ledger.mu);
    if (ring.EmptyHint()) {
      ++generation;
    }
  }
}

void ProcessSystem::RouterLoop(uint32_t partition) {
  Partition& c = *parts_[partition];
  for (;;) {
    char byte;
    const uint32_t live = c.generation.load(std::memory_order_relaxed);
    const ssize_t n = ::recv(c.servers[live].fd, &byte, 1, 0);
    if (n > 0 || (n < 0 && errno == EINTR)) {
      continue;  // the server writes nothing; only its EOF matters
    }
    // EOF: the server process is gone.
    bool clean;
    {
      std::lock_guard<std::mutex> lock(c.mu);
      Reap(&c.servers[live]);
      clean = c.shutdown_sent;
    }
    if (!clean) {
      RestartPartition(partition);
      continue;
    }
    const auto held = LockLedgers(partition);
    TM2C_CHECK_MSG(Unanswered(partition).empty(),
                   "partition server exited with requests pending");
    c.up.store(false, std::memory_order_relaxed);
    return;
  }
}

std::vector<std::unique_lock<std::mutex>> ProcessSystem::LockLedgers(uint32_t partition) {
  Partition& c = *parts_[partition];
  std::vector<std::unique_lock<std::mutex>> held;
  held.reserve(1 + shared_.plan.num_app());
  held.emplace_back(c.mu);
  for (uint32_t core : shared_.plan.app_cores()) {
    held.emplace_back(c.ledgers[core].mu);
  }
  return held;
}

std::vector<ProcessSystem::Outstanding> ProcessSystem::Unanswered(uint32_t partition) {
  // Under every ledger lock: nobody pops meanwhile. A reply still
  // unconsumed in any generation's rings answers its request. Each core's
  // requests stay in send order. Across cores no order is kept, and none
  // is needed: the successor serves its rings round-robin, and two
  // unacknowledged commit records never share a word, since each
  // committer holds its write locks until its ack.
  const Partition& c = *parts_[partition];
  const uint32_t service = shared_.plan.ServiceCore(partition);
  std::vector<Outstanding> left;
  for (uint32_t core : shared_.plan.app_cores()) {
    std::deque<Message> mine = c.ledgers[core].outstanding;
    for (uint32_t g = 0; g <= c.generation.load(std::memory_order_relaxed); ++g) {
      shared_.ring(g, service, core).ForEachUnread([&mine](const Message& reply) {
        TM2C_CHECK_MSG(Retire(&mine, reply),
                       "partition server reply matches no outstanding request");
      });
    }
    for (const Message& request : mine) {
      left.push_back(Outstanding{core, request});
    }
  }
  return left;
}

Message ProcessSystem::SynthesizeRefusal(uint32_t service_core, const Message& req) {
  Message rsp;
  rsp.src = service_core;
  switch (req.type) {
    case MsgType::kReadLockReq:
    case MsgType::kWriteLockReq:
      rsp.type = MsgType::kLockConflict;
      rsp.w0 = req.w0;
      rsp.w1 = req.w1;
      rsp.w2 = static_cast<uint64_t>(ConflictKind::kOverload);
      break;
    case MsgType::kBatchAcquire:
      rsp.type = MsgType::kBatchReply;
      rsp.w0 = 0;  // nothing granted
      rsp.w1 = req.w1;
      rsp.w2 = static_cast<uint64_t>(ConflictKind::kOverload);
      rsp.w3 = (req.w0 >> kBatchReqIdShift) << kBatchReqIdShift;  // id echoed, count 0
      break;
    case MsgType::kEcho:
      rsp.type = MsgType::kEchoRsp;
      rsp.w0 = req.w0;
      break;
    default:
      TM2C_FATAL("unexpected outstanding request type");
  }
  return rsp;
}

void ProcessSystem::DeliverAfterDeath(uint32_t generation, uint32_t service, uint32_t core,
                                      const Message& msg) {
  // Never waits: the core may be blocked on its ledger lock, which the
  // router holds. The ring has room: the dead server left at most a reply
  // per outstanding request (64 pipelined batches at most) and a
  // notification per attempt.
  TM2C_CHECK_MSG(shared_.ring(generation, service, core).TryPush(msg),
                 "no room for a dead partition server's refusals");
  shared_.bell(core).Ring();
}

void ProcessSystem::RestartPartition(uint32_t partition) {
  Partition& c = *parts_[partition];
  const uint32_t service = shared_.plan.ServiceCore(partition);
  const uint32_t dead = c.generation.load(std::memory_order_relaxed);
  // Pushes into the dead server's rings give up.
  c.dead.store(dead + 1, std::memory_order_release);

  // Until the gate reopens, no core pops, retires or records.
  auto held = LockLedgers(partition);
  c.up.store(false, std::memory_order_relaxed);
  TM2C_CHECK_MSG(dead + 1 < kGenerations,
                 "partition server died twice (one cold standby per partition)");

  // The router is now the dead rings' only producer. Unanswered commit
  // records are retransmitted to the successor below (the durability
  // contract); the rest are refused as kOverload, since any lock they got
  // died with the lock table. A refusal retires its entry when popped.
  const std::vector<Outstanding> unanswered = Unanswered(partition);
  for (const Outstanding& o : unanswered) {
    if (o.request.type != MsgType::kCommitLog) {
      DeliverAfterDeath(dead, service, o.src, SynthesizeRefusal(service, o.request));
    }
  }

  // Death fence: every lock the dead server had granted is implicitly
  // revoked, so publish a revocation, in core order, to every core that
  // ever quoted an epoch here — abort-status word first (catches
  // transactions up to their commit point, like a contention-manager
  // revocation), kAbortNotify second (wakes the ones parked in Recv). Stale
  // epochs are harmless: the status check compares for equality with the
  // current attempt. Committers already past their commit point ignore
  // both; their retransmitted kCommitLog completes the commit against the
  // successor. PublishWord waits out a committer that has latched its word
  // for the persist.
  for (uint32_t core : shared_.plan.app_cores()) {
    const CoreLedger& ledger = c.ledgers[core];
    if (!ledger.quoted) {
      continue;
    }
    const uint64_t epoch = ledger.last_epoch;
    if (abort_status_base_ != ~uint64_t{0}) {
      shared_.shmem->PublishWord(abort_status_base_ + core * kWordBytes, epoch);
    }
    Message fence;
    fence.type = MsgType::kAbortNotify;
    fence.src = service;
    fence.w1 = epoch;
    fence.w2 = static_cast<uint64_t>(ConflictKind::kOverload);
    DeliverAfterDeath(dead, service, core, fence);
  }
  const uint32_t successor = dead + 1;
  c.generation.store(successor, std::memory_order_release);

  // Activate the cold standby: it recovers the partition's WAL from the
  // backing file (truncating the torn tail) and serves its own rings.
  Command(c.servers[successor], 'r');

  // Retransmit the in-doubt commit records, oldest first, and wait until
  // the successor (which re-logs each, or acks it from the recovered
  // prefix) has taken them: it serves its rings round-robin, so only then
  // can no new request overtake them into its WAL.
  const auto always = [] { return true; };
  for (const Outstanding& o : unanswered) {
    if (o.request.type == MsgType::kCommitLog) {
      cores_[o.src]->Deliver(shared_.ring(successor, o.src, service), service, o.request,
                             always);
    }
  }
  Backoff backoff(shared_.spin_rounds, shared_.yield_rounds);
  for (const Outstanding& o : unanswered) {
    while (shared_.ring(successor, o.src, service).ApproxSize() != 0) {
      backoff.Pause();
    }
  }
  c.up.store(true, std::memory_order_relaxed);
  held.clear();
  c.cv.notify_all();
  // App cores parked on a reply from the dead server find it (or its
  // refusal) in the dead ring, then step to the successor.
  for (uint32_t core : shared_.plan.app_cores()) {
    shared_.bell(core).Ring();
  }
}

void ProcessSystem::Reap(Server* server) {
  if (server->reaped || server->pid < 0) {
    return;
  }
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(server->pid, &status, 0);
  } while (r < 0 && errno == EINTR);
  server->reaped = true;
}

}  // namespace tm2c
