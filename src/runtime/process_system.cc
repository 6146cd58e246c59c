#include "src/runtime/process_system.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "src/common/check.h"

namespace tm2c {
namespace {

SimTime HostNowPs() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  return static_cast<SimTime>(ns) * kPicosPerNano;
}

// Compute on both core kinds: the thread backend's wall-clock busy wait for
// the modelled duration, always in its oversubscribed flavour (yield after a
// microsecond): app threads, router threads and the partition server
// processes together far exceed the host CPUs.
void ComputeSpin(const PlatformDesc& platform, uint64_t core_cycles) {
  const SimTime deadline = HostNowPs() + platform.CoreCyclesToPs(core_cycles);
  const SimTime spin_until = HostNowPs() + kPicosPerMicro;
  while (HostNowPs() < deadline) {
    if (HostNowPs() >= spin_until) {
      std::this_thread::yield();
    }
  }
}

// Streams a whole buffer into a socket. Failures (EPIPE against a killed
// server) are deliberately swallowed: every message that must survive a
// server death is tracked in the connection's outstanding queue, and the
// router's death protocol re-issues or refuses it explicitly.
void WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    off += static_cast<size_t>(n);
  }
}

void WriteFrame(int fd, uint32_t dst, const Message& msg) {
  std::vector<uint8_t> frame;
  EncodeFrame(dst, msg, &frame);
  WriteAll(fd, frame);
}

// True for request types the server answers with exactly one reply frame.
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

}  // namespace

// Application core: a host thread with a mutex/condvar mailbox (the thread
// backend's kMutexMailbox transport). Messages to a service core leave
// through the partition's socket; messages to another app core (the
// privatization barrier tokens) land in its mailbox directly.
class ProcessSystem::AppCore : public CoreEnv {
 public:
  AppCore(ProcessSystem* sys, uint32_t id) : sys_(sys), id_(id) {}

  uint32_t core_id() const override { return id_; }
  const DeploymentPlan& plan() const override { return sys_->plan_; }
  const PlatformDesc& platform() const override { return sys_->config_.platform; }

  void Send(uint32_t dst, Message msg) override {
    TM2C_CHECK(dst < sys_->plan_.num_cores());
    msg.src = id_;
    if (sys_->plan_.IsService(dst)) {
      sys_->SendToPartition(id_, dst, std::move(msg));
      return;
    }
    sys_->DeliverToApp(dst, std::move(msg));
  }

  Message Recv() override {
    std::unique_lock<std::mutex> lock(inbox_mu_);
    inbox_cv_.wait(lock, [this]() { return !inbox_.empty(); });
    Message msg = std::move(inbox_.front());
    inbox_.pop_front();
    return msg;
  }

  bool TryRecv(Message* out) override {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    if (inbox_.empty()) {
      return false;
    }
    *out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }

  size_t InboxDepth() const override {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    return inbox_.size();
  }

  SimTime LocalNow() const override { return HostNowPs(); }
  SimTime GlobalNow() const override { return HostNowPs(); }
  void Compute(uint64_t core_cycles) override { ComputeSpin(platform(), core_cycles); }
  void ChargeModelled(uint64_t /*core_cycles*/) override {}  // already ran on the host

  uint64_t ShmemRead(uint64_t addr) override { return sys_->shmem_->LoadWord(addr); }
  void ShmemWrite(uint64_t addr, uint64_t value) override {
    sys_->shmem_->StoreWord(addr, value);
  }
  bool ShmemTestAndSet(uint64_t addr) override { return sys_->shmem_->CasWord(addr, 0, 1); }
  void ShmemBulkAccess(uint64_t /*addr*/, uint64_t /*bytes*/) override {}

  void Barrier() override {
    // Sense-reversing barrier over the app cores only: partition servers
    // never rendezvous (their loops are pure request/response), and the
    // dedicated deployment is the only one this backend supports.
    const uint64_t generation = sys_->barrier_generation_.load(std::memory_order_acquire);
    if (sys_->barrier_waiting_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        sys_->plan_.num_app()) {
      sys_->barrier_waiting_.store(0, std::memory_order_relaxed);
      sys_->barrier_generation_.fetch_add(1, std::memory_order_release);
      return;
    }
    uint32_t rounds = 0;
    while (sys_->barrier_generation_.load(std::memory_order_acquire) == generation) {
      if (++rounds < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

  SharedMemory& shmem() override { return *sys_->shmem_; }
  ShmAllocator& allocator() override { return *sys_->allocator_; }

  void MailboxPush(Message msg) {
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      inbox_.push_back(std::move(msg));
    }
    inbox_cv_.notify_one();
  }

 private:
  ProcessSystem* sys_;
  uint32_t id_;
  std::deque<Message> inbox_;
  mutable std::mutex inbox_mu_;  // InboxDepth() is a const observer
  std::condition_variable inbox_cv_;
};

// Service core: lives in the forked partition server. Its inbox is the
// socket — frames are decoded on demand, replies and host-addressed trace
// frames are encoded straight back onto it. Constructed host-side before
// the fork so DtmService can bind its CoreEnv reference; only the child
// ever calls its methods.
class ProcessSystem::ServiceCore : public CoreEnv {
 public:
  ServiceCore(ProcessSystem* sys, uint32_t id) : sys_(sys), id_(id) {}

  void Activate(int fd) { fd_ = fd; }

  uint32_t core_id() const override { return id_; }
  const DeploymentPlan& plan() const override { return sys_->plan_; }
  const PlatformDesc& platform() const override { return sys_->config_.platform; }

  void Send(uint32_t dst, Message msg) override {
    if (dst != kWireHostDst) {
      TM2C_CHECK(dst < sys_->plan_.num_cores());
    }
    msg.src = id_;
    WriteFrame(fd_, dst, msg);
  }

  Message Recv() override {
    for (;;) {
      if (!inbox_.empty()) {
        Message msg = std::move(inbox_.front());
        inbox_.pop_front();
        return msg;
      }
      ReadMore(/*blocking=*/true);
    }
  }

  bool TryRecv(Message* out) override {
    if (inbox_.empty()) {
      ReadMore(/*blocking=*/false);
    }
    if (inbox_.empty()) {
      return false;
    }
    *out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }

  // Decoded-but-unprocessed backlog. Advisory (like the thread backend's
  // racy ring snapshot): bytes still in the socket buffer are not counted.
  size_t InboxDepth() const override { return inbox_.size(); }

  SimTime LocalNow() const override { return HostNowPs(); }
  SimTime GlobalNow() const override { return HostNowPs(); }
  void Compute(uint64_t core_cycles) override { ComputeSpin(platform(), core_cycles); }
  void ChargeModelled(uint64_t /*core_cycles*/) override {}  // already ran on the host

  uint64_t ShmemRead(uint64_t addr) override { return sys_->shmem_->LoadWord(addr); }
  void ShmemWrite(uint64_t addr, uint64_t value) override {
    sys_->shmem_->StoreWord(addr, value);
  }
  bool ShmemTestAndSet(uint64_t addr) override { return sys_->shmem_->CasWord(addr, 0, 1); }
  void ShmemBulkAccess(uint64_t /*addr*/, uint64_t /*bytes*/) override {}

  void Barrier() override { TM2C_FATAL("partition servers have no barrier"); }

  SharedMemory& shmem() override { return *sys_->shmem_; }
  ShmAllocator& allocator() override { return *sys_->allocator_; }

 private:
  void ReadMore(bool blocking) {
    uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), blocking ? 0 : MSG_DONTWAIT);
      if (n > 0) {
        decoder_.Feed(buf, static_cast<uint64_t>(n));
        break;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && !blocking) {
        return;
      }
      // EOF or a hard error: the host is gone; an orphaned server has
      // nothing left to serve.
      ::_exit(0);
    }
    for (;;) {
      uint32_t dst = 0;
      Message msg;
      const WireDecodeStatus status = decoder_.TryNext(&dst, &msg);
      if (status == WireDecodeStatus::kNeedMore) {
        return;
      }
      TM2C_CHECK_MSG(status == WireDecodeStatus::kOk, "corrupt frame from the host");
      TM2C_CHECK_MSG(dst == id_, "frame routed to the wrong partition server");
      inbox_.push_back(std::move(msg));
    }
  }

  ProcessSystem* sys_;
  uint32_t id_;
  int fd_ = -1;
  WireDecoder decoder_;
  std::deque<Message> inbox_;
};

ProcessSystem::ProcessSystem(ProcessSystemConfig config)
    : config_(std::move(config)),
      plan_(config_.num_cores, config_.num_service, DeployStrategy::kDedicated) {
  TM2C_CHECK_MSG(!config_.run_dir.empty(), "the process backend needs run_dir for its sockets");
  shmem_ = std::make_unique<SharedMemory>(config_.shmem_bytes, /*interprocess=*/true);
  allocator_ = std::make_unique<ShmAllocator>(shmem_.get(), Topology(config_.platform));
  mains_.resize(config_.num_cores);
  app_cores_.resize(config_.num_cores);
  service_cores_.resize(config_.num_cores);
  for (uint32_t c = 0; c < config_.num_cores; ++c) {
    if (plan_.IsService(c)) {
      service_cores_[c] = std::make_unique<ServiceCore>(this, c);
    } else {
      app_cores_[c] = std::make_unique<AppCore>(this, c);
    }
  }
  for (uint32_t p = 0; p < config_.num_service; ++p) {
    conns_.push_back(std::make_unique<Connection>());
  }
}

ProcessSystem::~ProcessSystem() {
  // Normal runs finish everything inside Run(); this is the abandoned-run
  // path (a fatal test failure between construction and Run).
  for (auto& conn : conns_) {
    if (conn->router.joinable()) {
      conn->router.join();
    }
    for (Server& s : conn->servers) {
      if (s.control_wr >= 0) {
        const char quit = 'q';
        (void)!::write(s.control_wr, &quit, 1);
        ::close(s.control_wr);
        s.control_wr = -1;
      }
      Reap(&s);
    }
    if (conn->fd >= 0) {
      ::close(conn->fd);
    }
  }
}

void ProcessSystem::SetCoreMain(uint32_t core, CoreMain main) {
  TM2C_CHECK(core < mains_.size());
  mains_[core] = std::move(main);
}

CoreEnv& ProcessSystem::env(uint32_t core) {
  TM2C_CHECK(core < config_.num_cores);
  if (app_cores_[core] != nullptr) {
    return *app_cores_[core];
  }
  return *service_cores_[core];
}

std::string ProcessSystem::SocketPath(uint32_t partition, uint32_t generation) const {
  return config_.run_dir + "/part" + std::to_string(partition) + ".g" +
         std::to_string(generation) + ".sock";
}

ProcessSystem::Server ProcessSystem::ForkServer(uint32_t partition, uint32_t generation) {
  int pipe_fds[2];
  TM2C_CHECK(::pipe(pipe_fds) == 0);
  const pid_t pid = ::fork();
  TM2C_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(pipe_fds[1]);
    ChildMain(partition, generation, pipe_fds[0]);
  }
  ::close(pipe_fds[0]);
  Server server;
  server.pid = pid;
  server.control_wr = pipe_fds[1];
  return server;
}

void ProcessSystem::ChildMain(uint32_t partition, uint32_t generation, int control_rd) {
  // In the forked server. Only the forking thread exists here; the parent's
  // mutexes, threads and mailboxes are inert copy-on-write state. The
  // shared-memory words are the one real bridge back to the host.
  ::signal(SIGPIPE, SIG_IGN);
  char cmd = 0;
  ssize_t n;
  do {
    n = ::read(control_rd, &cmd, 1);
  } while (n < 0 && errno == EINTR);
  if (n <= 0 || cmd == 'q') {
    ::_exit(0);  // unused standby: the run ended without needing us
  }
  ::close(control_rd);

  const std::string path = SocketPath(partition, generation);
  ::unlink(path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (listen_fd < 0 || path.size() >= sizeof(addr.sun_path)) {
    ::_exit(3);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd, 1) != 0) {
    ::_exit(3);
  }
  int conn_fd;
  do {
    conn_fd = ::accept(listen_fd, nullptr, nullptr);
  } while (conn_fd < 0 && errno == EINTR);
  if (conn_fd < 0) {
    ::_exit(3);
  }
  ::close(listen_fd);

  const uint32_t core = plan_.ServiceCore(partition);
  ServiceCore& env = *service_cores_[core];
  env.Activate(conn_fd);
  if (child_start_) {
    child_start_(partition, /*is_restart=*/cmd == 'r', env);
  }
  if (mains_[core]) {
    mains_[core](env);
  }
  if (child_exit_report_) {
    env.Send(kWireHostDst, child_exit_report_(partition));
  }
  ::_exit(0);
}

SimTime ProcessSystem::Run(SimTime /*until*/) {
  TM2C_CHECK_MSG(!started_, "a ProcessSystem runs once");
  started_ = true;
  const SimTime start = HostNowPs();
  // The parent writes into sockets whose server may be freshly killed;
  // losing those bytes is handled explicitly, dying on SIGPIPE is not.
  ::signal(SIGPIPE, SIG_IGN);
  ::mkdir(config_.run_dir.c_str(), 0755);  // EEXIST is fine

  if (pre_fork_) {
    pre_fork_();
  }
  // Fork every server — one primary plus one cold standby per partition —
  // while the host is still single-threaded, so the children inherit a
  // quiescent copy of the pre-run state.
  for (uint32_t p = 0; p < config_.num_service; ++p) {
    conns_[p]->servers.push_back(ForkServer(p, 0));
    conns_[p]->servers.push_back(ForkServer(p, 1));
  }
  for (uint32_t p = 0; p < config_.num_service; ++p) {
    const char go = 'p';
    ssize_t n;
    do {
      n = ::write(conns_[p]->servers[0].control_wr, &go, 1);
    } while (n < 0 && errno == EINTR);
    TM2C_CHECK(n == 1);
  }
  for (uint32_t p = 0; p < config_.num_service; ++p) {
    conns_[p]->fd = ConnectWithRetry(SocketPath(p, 0));
    conns_[p]->up = true;
  }
  for (uint32_t p = 0; p < config_.num_service; ++p) {
    conns_[p]->router = std::thread([this, p]() { RouterLoop(p); });
  }

  std::vector<std::thread> app_threads;
  app_threads.reserve(plan_.num_app());
  for (uint32_t core : plan_.app_cores()) {
    app_threads.emplace_back([this, core]() {
      if (mains_[core]) {
        mains_[core](*app_cores_[core]);
      }
    });
  }
  for (auto& t : app_threads) {
    t.join();
  }
  // The last app main's completion hook sent the shutdowns; each router
  // exits at its server's clean EOF.
  for (auto& conn : conns_) {
    conn->router.join();
  }
  // Dismiss the standbys that were never activated, reap every child.
  for (auto& conn : conns_) {
    for (Server& s : conn->servers) {
      if (s.control_wr >= 0) {
        const char quit = 'q';
        (void)!::write(s.control_wr, &quit, 1);
        ::close(s.control_wr);
        s.control_wr = -1;
      }
      Reap(&s);
    }
  }
  return HostNowPs() - start;
}

void ProcessSystem::RequestShutdown(uint32_t core) {
  TM2C_CHECK(core < config_.num_cores);
  Message msg;
  msg.type = MsgType::kShutdown;
  msg.src = core;
  if (plan_.IsApp(core)) {
    DeliverToApp(core, std::move(msg));
    return;
  }
  Connection& c = *conns_[plan_.PartitionOf(core)];
  std::unique_lock<std::mutex> lock(c.mu);
  while (!c.up) {
    c.cv.wait(lock);  // a restart in flight finishes first
  }
  c.shutdown_sent = true;
  WriteFrame(c.fd, core, msg);
}

void ProcessSystem::KillPartition(uint32_t partition) {
  TM2C_CHECK(partition < conns_.size());
  Connection& c = *conns_[partition];
  std::unique_lock<std::mutex> lock(c.mu);
  while (!c.up) {
    c.cv.wait(lock);  // serialize with an in-flight restart
  }
  TM2C_CHECK_MSG(!c.shutdown_sent, "KillPartition after shutdown");
  const Server& server = c.servers[c.generation];
  TM2C_CHECK(!server.reaped);
  ::kill(server.pid, SIGKILL);
  // The router owns the rest: it sees EOF after draining everything the
  // server managed to write, then runs the death protocol.
}

uint32_t ProcessSystem::restarts(uint32_t partition) {
  Connection& c = *conns_[partition];
  std::lock_guard<std::mutex> lock(c.mu);
  return c.restarts;
}

std::vector<uint64_t> ProcessSystem::host_stats(uint32_t partition) {
  Connection& c = *conns_[partition];
  std::lock_guard<std::mutex> lock(c.mu);
  return c.host_stats;
}

void ProcessSystem::SendToPartition(uint32_t src_core, uint32_t dst_core, Message msg) {
  Connection& c = *conns_[plan_.PartitionOf(dst_core)];
  std::unique_lock<std::mutex> lock(c.mu);
  if (CarriesEpoch(msg.type)) {
    uint64_t& last = c.last_epoch[src_core];
    last = std::max(last, msg.w1);
  }
  while (!c.up) {
    c.cv.wait(lock);  // the partition is restarting; all traffic stalls
  }
  if (ExpectsReply(msg.type)) {
    c.outstanding.push_back(Outstanding{src_core, msg});
  }
  WriteFrame(c.fd, dst_core, msg);
}

void ProcessSystem::DeliverToApp(uint32_t core, Message msg) {
  TM2C_CHECK(core < app_cores_.size() && app_cores_[core] != nullptr);
  app_cores_[core]->MailboxPush(std::move(msg));
}

void ProcessSystem::RouterLoop(uint32_t partition) {
  Connection& c = *conns_[partition];
  WireDecoder decoder;
  std::vector<uint8_t> buf(1 << 16);
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      decoder.Feed(buf.data(), static_cast<uint64_t>(n));
      DrainFrames(partition, &decoder);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    // EOF: the server process is gone, and everything it wrote before
    // dying has been drained above (a Unix socket delivers queued bytes
    // before reporting the close).
    bool clean;
    {
      std::lock_guard<std::mutex> lock(c.mu);
      clean = c.shutdown_sent;
    }
    if (clean) {
      std::lock_guard<std::mutex> lock(c.mu);
      TM2C_CHECK_MSG(c.outstanding.empty(), "partition server exited with requests pending");
      ::close(c.fd);
      c.fd = -1;
      c.up = false;
      Reap(&c.servers[c.generation]);
      return;
    }
    RestartPartition(partition);
    decoder = WireDecoder();  // the dead stream's partial tail dies with it
  }
}

void ProcessSystem::DrainFrames(uint32_t partition, WireDecoder* decoder) {
  Connection& c = *conns_[partition];
  for (;;) {
    uint32_t dst = 0;
    Message msg;
    const WireDecodeStatus status = decoder->TryNext(&dst, &msg);
    if (status == WireDecodeStatus::kNeedMore) {
      return;
    }
    TM2C_CHECK_MSG(status == WireDecodeStatus::kOk, "corrupt frame from partition server");
    if (dst == kWireHostDst) {
      if (msg.type == MsgType::kHostStats) {
        std::lock_guard<std::mutex> lock(c.mu);
        c.host_stats = msg.extra;
      } else if (host_frame_) {
        host_frame_(partition, msg);
      }
      continue;
    }
    RetireOutstanding(&c, dst, msg);
    DeliverToApp(dst, std::move(msg));
  }
}

void ProcessSystem::RetireOutstanding(Connection* c, uint32_t dst, const Message& msg) {
  switch (msg.type) {
    case MsgType::kLockGranted:
    case MsgType::kLockConflict:
    case MsgType::kBatchReply:
    case MsgType::kCommitLogAck:
    case MsgType::kEchoRsp:
      break;
    case MsgType::kAbortNotify:
    case MsgType::kOwnershipUpdate:
      return;  // unsolicited notifications answer nothing
    default:
      TM2C_FATAL("unexpected message type from a partition server");
  }
  std::lock_guard<std::mutex> lock(c->mu);
  for (auto it = c->outstanding.begin(); it != c->outstanding.end(); ++it) {
    if (it->src != dst) {
      continue;
    }
    const Message& req = it->request;
    bool match = false;
    switch (msg.type) {
      case MsgType::kLockGranted:
      case MsgType::kLockConflict:
        match = (req.type == MsgType::kReadLockReq || req.type == MsgType::kWriteLockReq) &&
                req.w0 == msg.w0;
        break;
      case MsgType::kBatchReply:
        match = req.type == MsgType::kBatchAcquire &&
                (req.w0 >> kBatchReqIdShift) == (msg.w3 >> kBatchReqIdShift);
        break;
      case MsgType::kCommitLogAck:
        match = req.type == MsgType::kCommitLog && req.w1 == msg.w1;
        break;
      case MsgType::kEchoRsp:
        match = req.type == MsgType::kEcho && req.w0 == msg.w0;
        break;
      default:
        break;
    }
    if (match) {
      c->outstanding.erase(it);
      return;
    }
  }
  TM2C_FATAL("partition server reply matches no outstanding request");
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

void ProcessSystem::RestartPartition(uint32_t partition) {
  Connection& c = *conns_[partition];
  const uint32_t service_core = plan_.ServiceCore(partition);
  std::unique_lock<std::mutex> lock(c.mu);
  c.up = false;
  ::close(c.fd);
  c.fd = -1;
  Reap(&c.servers[c.generation]);
  ++c.restarts;
  TM2C_CHECK_MSG(c.generation + 1 < c.servers.size(),
                 "partition server died twice (one cold standby per partition)");

  // The dead server's unanswered requests: commit records are retransmitted
  // to the successor below (they are the durability contract); acquisitions
  // are refused as kOverload — the runtime's uniform back-off-and-retry
  // path — because any lock they might have been granted died with the
  // server's lock table anyway.
  for (auto it = c.outstanding.begin(); it != c.outstanding.end();) {
    if (it->request.type == MsgType::kCommitLog) {
      ++it;
      continue;
    }
    DeliverToApp(it->src, SynthesizeRefusal(service_core, it->request));
    it = c.outstanding.erase(it);
  }

  // Death fence: every lock the dead server had granted is implicitly
  // revoked, so publish a revocation to every core that ever quoted an
  // epoch here — abort-status word first (catches transactions up to their
  // commit point, like a contention-manager revocation), kAbortNotify
  // second (wakes the ones parked in Recv). Stale epochs are harmless: the
  // status check compares for equality with the current attempt. Committers
  // already past their commit point ignore both; their retransmitted
  // kCommitLog completes the commit against the successor. PublishWord
  // waits out a committer that has latched its word for the persist.
  for (const auto& [core, epoch] : c.last_epoch) {
    if (abort_status_base_ != ~uint64_t{0}) {
      shmem_->PublishWord(abort_status_base_ + core * kWordBytes, epoch);
    }
    Message fence;
    fence.type = MsgType::kAbortNotify;
    fence.src = service_core;
    fence.w1 = epoch;
    fence.w2 = static_cast<uint64_t>(ConflictKind::kOverload);
    DeliverToApp(core, std::move(fence));
  }

  // Activate the cold standby: it recovers the partition's WAL from the
  // backing file (truncating the torn tail) and serves a fresh socket
  // generation.
  ++c.generation;
  Server& standby = c.servers[c.generation];
  const char restart = 'r';
  ssize_t n;
  do {
    n = ::write(standby.control_wr, &restart, 1);
  } while (n < 0 && errno == EINTR);
  TM2C_CHECK(n == 1);
  c.fd = ConnectWithRetry(SocketPath(partition, c.generation));

  // Retransmit the in-doubt commit records, oldest first, before opening
  // the gate to new traffic: the successor re-logs each one (or acks it
  // straight from the recovered prefix if the record survived the crash).
  for (const Outstanding& o : c.outstanding) {
    Message req = o.request;
    req.src = o.src;
    WriteFrame(c.fd, service_core, req);
  }
  c.up = true;
  lock.unlock();
  c.cv.notify_all();
}

int ProcessSystem::ConnectWithRetry(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  TM2C_CHECK_MSG(path.size() < sizeof(addr.sun_path), "socket path too long for sun_path");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (uint32_t attempt = 0; attempt < config_.connect_attempts; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    TM2C_CHECK(fd >= 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(config_.connect_retry_ms));
  }
  TM2C_FATAL("partition server socket never came up");
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
