#include "src/tm/tm_system.h"

#include "src/common/check.h"

namespace tm2c {
namespace {

std::unique_ptr<SystemBackend> MakeBackend(const TmSystemConfig& config) {
  if (config.backend == BackendKind::kSim) {
    return std::make_unique<SimSystem>(config.sim);
  }
  if (config.backend == BackendKind::kProcesses) {
    TM2C_CHECK_MSG(config.sim.strategy == DeployStrategy::kDedicated,
                   "the process backend is dedicated-only (a partition server "
                   "process cannot interleave an application task)");
    ProcessSystemConfig pcfg;
    pcfg.platform = config.sim.platform;
    pcfg.num_cores = config.sim.num_cores;
    pcfg.num_service = config.sim.num_service;
    pcfg.shmem_bytes = config.sim.shmem_bytes;
    return std::make_unique<ProcessSystem>(pcfg);
  }
  ThreadSystemConfig tcfg;
  tcfg.platform = config.sim.platform;
  tcfg.num_cores = config.sim.num_cores;
  tcfg.num_service = config.sim.num_service;
  tcfg.strategy = config.sim.strategy;
  tcfg.shmem_bytes = config.sim.shmem_bytes;
  tcfg.pin_threads = config.pin_threads;
  return std::make_unique<ThreadSystem>(tcfg);
}

}  // namespace

TmSystem::TmSystem(TmSystemConfig config)
    : config_(std::move(config)),
      system_(MakeBackend(config_)),
      map_(system_->deployment(), config_.tm.stripe_bytes) {
  const DeploymentPlan& plan = system_->deployment();
  TM2C_CHECK_MSG(config_.tm.max_batch >= 1 && config_.tm.max_batch <= kMaxBatchEntries,
                 "max_batch must be in [1, kMaxBatchEntries]");
  TM2C_CHECK_MSG(config_.tm.pipeline_depth >= 1 && config_.tm.pipeline_depth <= 64,
                 "pipeline_depth must be in [1, 64]");
  // Per-core abort status words (see TmConfig::abort_status_base).
  if (config_.tm.abort_status_base == TmConfig::kNoAbortStatus) {
    config_.tm.abort_status_base =
        system_->allocator().AllocGlobal(static_cast<uint64_t>(plan.num_cores()) * kWordBytes);
    for (uint32_t c = 0; c < plan.num_cores(); ++c) {
      system_->shmem().StoreWord(config_.tm.abort_status_base + c * kWordBytes, 0);
    }
  }
  bodies_.resize(plan.num_app());
  apps_running_.store(plan.num_app(), std::memory_order_relaxed);

  if (plan.strategy() == DeployStrategy::kDedicated) {
    // Service cores run the DTM loop; app cores run their body with a
    // TxRuntime that has no local partition.
    services_.reserve(plan.num_service());
    if (config_.tm.durability != DurabilityMode::kOff) {
      durability_.reserve(plan.num_service());
    }
    for (uint32_t p = 0; p < plan.num_service(); ++p) {
      const uint32_t core = plan.ServiceCore(p);
      auto service = std::make_unique<DtmService>(system_->env(core), config_.tm, &map_);
      if (config_.tm.durability != DurabilityMode::kOff) {
        PartitionDurability::Options opts;
        opts.mode = config_.tm.durability;
        opts.checkpoint_every_records = config_.tm.checkpoint_every_records;
        if (config_.backend == BackendKind::kProcesses) {
          // The log must survive the server process: back it with a file
          // in the run directory so a restarted standby can recover it.
          TM2C_CHECK_MSG(!config_.run_dir.empty(), "durable processes need run_dir");
          opts.path = config_.run_dir + "/part" + std::to_string(p) + ".wal";
        }
        durability_.push_back(std::make_unique<PartitionDurability>(p, opts));
        service->AttachDurability(durability_.back().get());
      }
      DtmService* svc = service.get();
      system_->SetCoreMain(core, [svc](CoreEnv&) { svc->RunLoop(); });
      services_.push_back(std::move(service));
    }
    runtimes_.reserve(plan.num_app());
    for (uint32_t i = 0; i < plan.num_app(); ++i) {
      const uint32_t core = plan.app_cores()[i];
      runtimes_.push_back(
          std::make_unique<TxRuntime>(system_->env(core), config_.tm, map_, nullptr));
      TxRuntime* rt = runtimes_.back().get();
      system_->SetCoreMain(core, [this, i, rt](CoreEnv& env) {
        if (bodies_[i]) {
          bodies_[i](env, *rt);
        }
        OnAppBodyDone();
      });
    }
    if (config_.backend == BackendKind::kProcesses) {
      WireProcessBackend();
    }
    return;
  }

  // Multitasked: every core hosts a DTM partition and an application task.
  // Durability is dedicated-only: a self-addressed kCommitLog (or two
  // cores awaiting each other's deferred group-commit acks) would
  // deadlock the multitasked serve loops.
  TM2C_CHECK_MSG(config_.tm.durability == DurabilityMode::kOff,
                 "durability requires the dedicated deployment");
  services_.reserve(plan.num_cores());
  runtimes_.reserve(plan.num_cores());
  for (uint32_t core = 0; core < plan.num_cores(); ++core) {
    auto service = std::make_unique<DtmService>(system_->env(core), config_.tm, &map_);
    runtimes_.push_back(
        std::make_unique<TxRuntime>(system_->env(core), config_.tm, map_, service.get()));
    services_.push_back(std::move(service));
    TxRuntime* rt = runtimes_.back().get();
    const uint32_t i = core;  // app index == core id under multitasking
    system_->SetCoreMain(core, [this, i, rt](CoreEnv& env) {
      if (bodies_[i]) {
        bodies_[i](env, *rt);
      }
      OnAppBodyDone();
      // The application task finished; keep serving DTM requests so other
      // cores' transactions can still make progress (the libtask scheduler
      // would keep running the service coroutine). The simulator run ends
      // when its events drain; the thread backend ends on the kShutdown
      // the last app body broadcast.
      for (;;) {
        Message msg = env.Recv();
        if (msg.type == MsgType::kShutdown) {
          return;
        }
        if (msg.type == MsgType::kAbortNotify) {
          continue;  // stale: our transactions are done
        }
        TM2C_CHECK(services_[i]->HandleMessage(msg));
      }
    });
  }
}

void TmSystem::WireProcessBackend() {
  auto* proc = static_cast<ProcessSystem*>(system_.get());
  proc->SetAbortStatusBase(config_.tm.abort_status_base);
  if (!durability_.empty()) {
    proc->SetStandbyStart([this](uint32_t partition) {
      services_[partition]->SetRecoveredCommits(durability_[partition]->RecoverFromBackingFile());
    });
  }
}

void TmSystem::OnAppBodyDone() {
  if (system_->is_simulated()) {
    return;  // the simulator ends the run by draining its event queue
  }
  if (apps_running_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  // Last application body to finish: wake every core still blocked in a
  // service loop. All transactions are complete, so the only in-flight
  // messages are one-way (releases, stale notifications) — a service that
  // drains its rings before seeing the injected shutdown loses nothing.
  const DeploymentPlan& plan = system_->deployment();
  if (plan.strategy() == DeployStrategy::kDedicated) {
    for (uint32_t core : plan.service_cores()) {
      system_->RequestShutdown(core);
    }
  } else {
    for (uint32_t core = 0; core < plan.num_cores(); ++core) {
      system_->RequestShutdown(core);
    }
  }
}

void TmSystem::SetAppBody(uint32_t app_index, AppBody body) {
  TM2C_CHECK(app_index < bodies_.size());
  bodies_[app_index] = std::move(body);
}

void TmSystem::SetAllAppBodies(const AppBody& body) {
  for (auto& b : bodies_) {
    b = body;
  }
}

void TmSystem::AttachTrace(TxTraceSink* trace) {
  TM2C_CHECK_MSG(!ran_, "AttachTrace after Run: the run's events are gone");
  const DeploymentPlan& plan = system_->deployment();
  if (!system_->is_simulated()) {
    logs_ = std::make_unique<EventLogs>(plan.num_cores(), trace);
  }
  const auto sink = [&](uint32_t core) { return logs_ != nullptr ? logs_->sink(core) : trace; };
  const bool dedicated = plan.strategy() == DeployStrategy::kDedicated;
  for (uint32_t i = 0; i < runtimes_.size(); ++i) {
    runtimes_[i]->set_trace(sink(dedicated ? plan.app_cores()[i] : i));
  }
  for (uint32_t p = 0; p < services_.size(); ++p) {
    services_[p]->set_trace(sink(dedicated ? plan.ServiceCore(p) : p));
  }
}

PartitionDurability& TmSystem::DurabilityAt(uint32_t partition) {
  TM2C_CHECK_MSG(partition < durability_.size(),
                 "DurabilityAt: durability off or bad partition index");
  return *durability_[partition];
}

void TmSystem::CaptureDurableCheckpoint0() {
  TM2C_CHECK_MSG(!durability_.empty(), "durability is off");
  // Imaged by durable home, not current lock owner: the checkpoint must
  // live in the WAL that replays the slab, and migration never moves that.
  map_.ForEachDurableRange([this](uint64_t base, uint64_t bytes, uint32_t partition) {
    PartitionDurability& dur = *durability_[partition];
    for (uint64_t addr = base; addr < base + bytes; addr += kWordBytes) {
      dur.CaptureInitial(addr, system_->shmem().LoadWord(addr));
    }
  });
  for (auto& dur : durability_) {
    dur->SealInitialCheckpoint();
  }
}

SimTime TmSystem::Run(SimTime until) {
  ran_ = true;
  const SimTime elapsed = system_->Run(until);
  // Horizon/shutdown quiesce: a service fiber can be frozen between a
  // record append and its group-commit flush. The records are in the log;
  // force them durable so post-run accounting is exact (commit_records ==
  // flushed records) and the final WAL image matches the final KV state.
  // Under processes the host's services never ran (every partition server
  // flushed on its own kShutdown path), so this finds nothing to do and
  // must not: a flush here would count in the servers' shared counters.
  for (auto& service : services_) {
    service->QuiesceFlush();
  }
  if (logs_ != nullptr) {
    logs_->Replay();
  }
  return elapsed;
}

ProcessSystem& TmSystem::process() {
  TM2C_CHECK_MSG(config_.backend == BackendKind::kProcesses,
                 "process() is only valid on the process backend");
  return static_cast<ProcessSystem&>(*system_);
}

DtmServiceStats TmSystem::ServiceStats(uint32_t partition) const {
  TM2C_CHECK(partition < services_.size());
  return services_[partition]->stats();
}

const TxStats& TmSystem::AppStats(uint32_t app_index) const {
  TM2C_CHECK(app_index < runtimes_.size());
  return runtimes_[app_index]->stats();
}

TxStats TmSystem::MergedStats() const {
  TxStats total;
  for (const auto& rt : runtimes_) {
    total.Merge(rt->stats());
  }
  return total;
}

const DtmService& TmSystem::ServiceAt(uint32_t partition) const {
  TM2C_CHECK(partition < services_.size());
  return *services_[partition];
}

bool TmSystem::AllLockTablesEmpty() const {
  for (const auto& service : services_) {
    if (service->lock_entries() != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace tm2c
