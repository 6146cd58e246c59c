#include "src/runtime/sim_system.h"

#include <utility>

#include "src/common/check.h"

namespace tm2c {

// CoreEnv implementation bound to one simulated core (one engine actor).
class SimSystem::Core : public CoreEnv {
 public:
  Core(SimSystem* sys, uint32_t id, SimTime clock_offset_ps, double drift_factor)
      : sys_(sys),
        id_(id),
        clock_offset_ps_(clock_offset_ps),
        drift_factor_(drift_factor),
        // Per-core chaos stream: deterministic regardless of how the cores
        // interleave, and decorrelated from the workload/skew streams.
        chaos_rng_((sys->config_.chaos.seed + 1) * 0x2545f4914f6cdd1dull + id) {}

  uint32_t core_id() const override { return id_; }
  const DeploymentPlan& plan() const override { return sys_->plan_; }
  const PlatformDesc& platform() const override { return sys_->config_.platform; }

  void Send(uint32_t dst, Message msg) override {
    TM2C_CHECK(dst < sys_->plan_.num_cores());
    TM2C_CHECK(dst != id_);
    msg.src = id_;
    // Sender occupancy: marshal the payload into the MPB (or channel line),
    // one fixed cost plus a per-payload-word term.
    sys_->engine_.Sleep(sys_->latency_.SendOverheadPs() + sys_->latency_.PayloadPs(msg.extra.size()));
    // Wire crossing, then deposit into the receiver's inbox.
    SimTime wire = sys_->latency_.WirePs(id_, dst);
    const ChaosConfig& chaos = sys_->config_.chaos;
    if (chaos.msg_jitter_max_ps > 0) {
      wire += chaos_rng_.NextBelow(chaos.msg_jitter_max_ps + 1);
    }
    SimTime arrival = sys_->engine_.now() + wire;
    if (chaos.any()) {
      // Jitter (and same-instant tie shuffling) must not reorder one pair's
      // messages: FIFO delivery per pair is a platform guarantee the
      // protocol is allowed to rely on. Clamp each arrival strictly behind
      // the pair's previous one.
      SimTime& last = sys_->pair_last_arrival_[static_cast<size_t>(id_) *
                                                   sys_->plan_.num_cores() + dst];
      if (arrival <= last) {
        arrival = last + 1;
      }
      last = arrival;
    }
    Core* receiver = sys_->cores_[dst].get();
    sys_->engine_.ScheduleAt(arrival, [this, receiver, m = std::move(msg)]() mutable {
      receiver->inbox_.push_back(std::move(m));
      if (receiver->waiting_recv_ && sys_->engine_.ActorBlocked(receiver->actor_)) {
        sys_->engine_.WakeActor(receiver->actor_);
      }
    });
  }

  Message Recv() override {
    while (inbox_.empty()) {
      waiting_recv_ = true;
      sys_->engine_.BlockCurrent();
      waiting_recv_ = false;
    }
    return PopAndPay();
  }

  bool TryRecv(Message* out) override {
    if (inbox_.empty()) {
      return false;
    }
    *out = PopAndPay();
    return true;
  }

  size_t InboxDepth() const override { return inbox_.size(); }

  SimTime LocalNow() const override {
    const double global = static_cast<double>(sys_->engine_.now());
    return static_cast<SimTime>(global * drift_factor_) + clock_offset_ps_;
  }

  SimTime GlobalNow() const override { return sys_->engine_.now(); }

  void Compute(uint64_t core_cycles) override {
    if (core_cycles > 0) {
      sys_->engine_.Sleep(platform().CoreCyclesToPs(core_cycles));
    }
  }

  void ChargeModelled(uint64_t core_cycles) override { Compute(core_cycles); }

  uint64_t ShmemRead(uint64_t addr) override {
    WaitForMemory(addr);
    return sys_->shmem_->LoadWord(addr);
  }

  void ShmemWrite(uint64_t addr, uint64_t value) override {
    WaitForMemory(addr);
    sys_->shmem_->StoreWord(addr, value);
  }

  bool ShmemTestAndSet(uint64_t addr) override {
    // The read-modify-write happens atomically at the completion instant;
    // the simulator is single-threaded, so after the wait no other core can
    // interleave before the store below.
    WaitForMemory(addr);
    if (sys_->shmem_->LoadWord(addr) != 0) {
      return false;
    }
    sys_->shmem_->StoreWord(addr, 1);
    return true;
  }

  void ShmemBulkAccess(uint64_t addr, uint64_t bytes) override {
    const SimTime now = sys_->engine_.now();
    const SimTime done = sys_->mc_model_->BulkAccess(now, id_, addr, bytes, sys_->latency_);
    if (done > now) {
      sys_->engine_.Sleep(done - now);
    }
  }

  void Barrier() override { sys_->BarrierWait(this); }

  SharedMemory& shmem() override { return *sys_->shmem_; }
  ShmAllocator& allocator() override { return *sys_->allocator_; }

 private:
  friend class SimSystem;

  Message PopAndPay() {
    Message msg = std::move(inbox_.front());
    inbox_.pop_front();
    const uint32_t peers = sys_->plan_.PolledPeers(id_);
    SimTime cost = sys_->latency_.RecvOverheadPs(peers) + sys_->latency_.PayloadPs(msg.extra.size());
    const ChaosConfig& chaos = sys_->config_.chaos;
    if (chaos.poll_duplicate_pct > 0 && chaos_rng_.NextPercent(chaos.poll_duplicate_pct)) {
      cost *= 2;  // a wasted poll rotation before the scan that hit
    }
    if (chaos.poll_stall_pct > 0 && chaos_rng_.NextPercent(chaos.poll_stall_pct)) {
      cost += chaos_rng_.NextBelow(chaos.poll_stall_max_ps + 1);
    }
    sys_->engine_.Sleep(cost);
    return msg;
  }

  void WaitForMemory(uint64_t addr) {
    const SimTime now = sys_->engine_.now();
    const SimTime done = sys_->mc_model_->Access(now, id_, addr, sys_->latency_);
    if (done > now) {
      sys_->engine_.Sleep(done - now);
    }
  }

  SimSystem* sys_;
  uint32_t id_;
  SimTime clock_offset_ps_;
  double drift_factor_;
  Rng chaos_rng_;
  std::deque<Message> inbox_;
  bool waiting_recv_ = false;
  size_t actor_ = 0;
  CoreMain main_;
};

SimSystem::SimSystem(SimSystemConfig config)
    : config_(std::move(config)),
      plan_(config_.num_cores, config_.num_service, config_.strategy),
      latency_(config_.platform) {
  TM2C_CHECK_MSG(config_.num_cores <= config_.platform.max_cores,
                 "more cores requested than the platform has");
  shmem_ = std::make_unique<SharedMemory>(config_.shmem_bytes);
  allocator_ = std::make_unique<ShmAllocator>(shmem_.get(), Topology(config_.platform));
  mc_model_ = std::make_unique<MemControllerModel>(config_.platform, shmem_->size_bytes());
  engine_.SetChaos(config_.chaos);
  if (config_.chaos.any()) {
    pair_last_arrival_.assign(
        static_cast<size_t>(config_.num_cores) * config_.num_cores, 0);
  }

  Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + 7);
  const auto skew_max_ps =
      static_cast<uint64_t>(config_.clock_skew_max_us * static_cast<double>(kPicosPerMicro));
  for (uint32_t c = 0; c < config_.num_cores; ++c) {
    const SimTime offset = skew_max_ps > 0 ? rng.NextBelow(skew_max_ps + 1) : 0;
    double drift = 1.0;
    if (config_.clock_drift_ppm > 0.0) {
      drift = 1.0 + (rng.NextDouble() * 2.0 - 1.0) * config_.clock_drift_ppm * 1e-6;
    }
    cores_.push_back(std::make_unique<Core>(this, c, offset, drift));
  }
}

SimSystem::~SimSystem() = default;

void SimSystem::SetCoreMain(uint32_t core, CoreMain main) {
  TM2C_CHECK(core < cores_.size());
  cores_[core]->main_ = std::move(main);
}

SimTime SimSystem::Run(SimTime until) {
  if (!started_actors_) {
    started_actors_ = true;
    for (auto& core : cores_) {
      Core* c = core.get();
      c->actor_ = engine_.AddActor([c]() {
        if (c->main_) {
          c->main_(*c);
        }
      });
    }
  }
  return engine_.Run(until);
}

CoreEnv& SimSystem::env(uint32_t core) {
  TM2C_CHECK(core < cores_.size());
  return *cores_[core];
}

void SimSystem::BarrierWait(Core* core) {
  const uint64_t my_generation = barrier_generation_;
  ++barrier_waiting_;
  if (barrier_waiting_ == plan_.num_cores()) {
    barrier_waiting_ = 0;
    ++barrier_generation_;
    for (uint32_t actor : barrier_blocked_actors_) {
      engine_.WakeActor(actor);
    }
    barrier_blocked_actors_.clear();
    return;
  }
  barrier_blocked_actors_.push_back(static_cast<uint32_t>(core->actor_));
  while (barrier_generation_ == my_generation) {
    engine_.BlockCurrent();
  }
}

}  // namespace tm2c
