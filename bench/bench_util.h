// Shared plumbing for the figure-reproduction benches.
//
// Every bench binary is one registered bench body linked against the
// unified runner in bench/bench_main.cc. The runner owns the shared command
// line (platform, cores, service cores, CM, duration, seed, smoke mode),
// prints a uniform results table, and emits one machine-readable JSON
// document per binary (see bench/run_all.sh, which merges them into
// BENCH_results.json). Bench bodies build TmSystems from RunSpecs, install
// per-core operation loops that run until the simulated horizon, and report
// one BenchRow per measured scenario: throughput (ops/ms), commit/abort
// rate, and p50/p95/p99 operation latency.
#ifndef TM2C_BENCH_BENCH_UTIL_H_
#define TM2C_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/tm/tm_system.h"

namespace tm2c {

struct RunSpec {
  std::string platform_name = "scc";
  uint32_t total_cores = 48;
  // Service cores for the dedicated deployment; by default half, the
  // allocation Section 5.3 justifies.
  uint32_t service_cores = 0;  // 0 => total/2
  DeployStrategy strategy = DeployStrategy::kDedicated;
  CmKind cm = CmKind::kFairCm;
  TxMode tx_mode = TxMode::kNormal;
  WriteAcquire write_acquire = WriteAcquire::kLazy;
  // Benches default to a batched commit (the paper's Section 3.3
  // behaviour); TmConfig's own default of 1 is the unbatched protocol
  // baseline the batching ablation sweeps from.
  uint32_t max_batch = 16;
  // Pipelined acquisition depth (TmConfig::pipeline_depth); 1 = the
  // lockstep request/reply protocol, larger depths overlap per-node
  // batches. Swept by bench_ablation_pipeline, overridable everywhere via
  // --pipeline-depth.
  uint32_t pipeline_depth = 1;
  // Owner-local fast path (TmConfig::local_fast_path): multitasked
  // deployments serve own-partition acquisitions as direct lock-table
  // calls instead of self-addressed messages.
  bool local_fast_path = false;
  uint64_t shmem_bytes = 32ull << 20;
  uint64_t seed = 1;
  // Simulated time under the sim backend, wall-clock under threads.
  SimTime duration = MillisToSim(50);
  // Runtime backend: the deterministic simulator (default) or real OS
  // threads over the SPSC channels; --backend=threads selects the latter,
  // turning the bench's rows into measured native performance.
  BackendKind backend = BackendKind::kSim;
  bool pin_threads = false;
};

// Fresh WAL directory for one process-backend TmSystem. Each system needs
// its own: the partition servers keep their logs in it, and sequential
// sweep points must not inherit a predecessor's files. It is made in
// TMPDIR (else /tmp) and removed, with its files, when the bench exits.
inline std::string FreshProcessRunDir() {
  struct Reaper {
    ~Reaper() {
      for (const std::string& dir : dirs) {
        std::filesystem::remove_all(dir);
      }
    }
    std::vector<std::string> dirs;
  };
  static Reaper reaper;
  const char* tmp = std::getenv("TMPDIR");
  std::string templ = std::string(tmp != nullptr ? tmp : "/tmp") + "/tm2c_bench_XXXXXX";
  TM2C_CHECK(::mkdtemp(templ.data()) != nullptr);
  reaper.dirs.push_back(templ);
  return templ;
}

inline TmSystemConfig MakeConfig(const RunSpec& spec) {
  TmSystemConfig cfg;
  cfg.sim.platform = PlatformByName(spec.platform_name);
  cfg.sim.num_cores = spec.total_cores;
  cfg.sim.num_service =
      spec.strategy == DeployStrategy::kMultitasked
          ? 0
          : (spec.service_cores != 0 ? spec.service_cores
                                     : (spec.total_cores >= 2 ? spec.total_cores / 2 : 1));
  cfg.sim.strategy = spec.strategy;
  cfg.sim.shmem_bytes = spec.shmem_bytes;
  cfg.sim.seed = spec.seed;
  cfg.tm.cm = spec.cm;
  cfg.tm.tx_mode = spec.tx_mode;
  cfg.tm.write_acquire = spec.write_acquire;
  cfg.tm.max_batch = spec.max_batch;
  cfg.tm.pipeline_depth = spec.pipeline_depth;
  cfg.tm.local_fast_path = spec.local_fast_path;
  cfg.backend = spec.backend;
  cfg.pin_threads = spec.pin_threads;
  if (spec.backend == BackendKind::kProcesses) {
    cfg.run_dir = FreshProcessRunDir();
  }
  return cfg;
}

// One benchmark operation; invoked repeatedly until the horizon.
using OpFn = std::function<void(CoreEnv&, TxRuntime&, Rng&)>;

// Serializes sampler merges from concurrently finishing app threads (the
// simulator's single thread passes through uncontended).
inline std::mutex& LoopSamplerMutex() {
  static std::mutex mu;
  return mu;
}

// One core's duration-bounded operation loop. The horizon is relative to
// the body's start, which makes the same loop correct on both backends:
// simulated cores start at time 0 (so relative == absolute), thread cores
// start at an arbitrary host clock reading.
//
// Latency recording differs per backend by necessity. The simulator is
// single-threaded but freezes bodies mid-op at the horizon, so samples go
// straight into the shared sampler (an end-of-body merge would lose every
// frozen core's samples). Thread bodies always run to completion but race
// each other, so each records into a core-local sampler merged under a
// mutex when the body finishes.
inline TmSystem::AppBody MakeLoopBody(bool simulated, SimTime duration, uint64_t seed,
                                      uint32_t index, OpFn op, LatencySampler* lat) {
  return [op = std::move(op), simulated, duration, seed, index, lat](CoreEnv& env,
                                                                     TxRuntime& rt) {
    Rng rng(seed * 7919 + index);
    LatencySampler local;
    LatencySampler* sink = simulated ? lat : &local;
    const SimTime t0 = env.GlobalNow();
    while (env.GlobalNow() - t0 < duration) {
      const SimTime start = env.GlobalNow();
      op(env, rt, rng);
      if (sink != nullptr) {
        sink->Add(SimToMicros(env.GlobalNow() - start));
      }
    }
    if (!simulated && lat != nullptr) {
      std::lock_guard<std::mutex> lock(LoopSamplerMutex());
      lat->Merge(local);
    }
  };
}

// Installs the same operation loop on every application core. Core `i`
// draws from an Rng seeded with (seed, i). When `lat` is non-null every
// completed operation records its end-to-end latency (including aborted
// attempts and retries) in microseconds — simulated time on the sim
// backend, wall-clock on threads.
inline void InstallLoopBodies(TmSystem& sys, SimTime duration, uint64_t seed, OpFn op,
                              LatencySampler* lat = nullptr) {
  const bool simulated = sys.backend() == BackendKind::kSim;
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, MakeLoopBody(simulated, duration, seed, i, op, lat));
  }
}

// Like InstallLoopBodies but application core 0 runs `special` instead
// (Figure 5(c)'s one-balance-core workloads).
inline void InstallLoopBodiesWithSpecialCore(TmSystem& sys, SimTime duration, uint64_t seed,
                                             OpFn special, OpFn op,
                                             LatencySampler* lat = nullptr) {
  const bool simulated = sys.backend() == BackendKind::kSim;
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, MakeLoopBody(simulated, duration, seed, i, i == 0 ? special : op, lat));
  }
}

struct ThroughputResult {
  double ops_per_ms = 0.0;
  double commit_rate = 1.0;
  uint64_t ops = 0;
  TxStats stats;
};

// Transactional throughput: every committed transaction is one operation.
inline ThroughputResult Summarize(const TmSystem& sys, SimTime duration) {
  ThroughputResult result;
  result.stats = sys.MergedStats();
  result.ops = result.stats.commits;
  result.ops_per_ms = static_cast<double>(result.ops) / SimToMillis(duration);
  result.commit_rate = result.stats.CommitRate();
  return result;
}

// Non-transactional (lock-based or sequential) throughput: the bodies count
// operations themselves into `counter`.
inline double OpsPerMs(uint64_t ops, SimTime duration) {
  return static_cast<double>(ops) / SimToMillis(duration);
}

// ---------------------------------------------------------------------------
// Unified runner layer
// ---------------------------------------------------------------------------

// Shared command line of every bench binary; zero/empty means "use the
// bench's own default". --smoke shrinks sweeps and durations so the whole
// suite finishes in CI time while still exercising every code path.
struct BenchOptions {
  std::string platform;      // "" = bench default
  int cores = 0;             // 0 = bench default sweep
  int service_cores = 0;     // 0 = bench default
  std::string cm;            // "" = bench default
  double duration_ms = 0.0;  // 0 = bench default
  uint64_t seed = 0;         // 0 = bench default
  bool smoke = false;
  std::string json_path;     // "" = no JSON output
  std::string backend;       // "" = sim; "threads" = native run, wall-clock
  bool pin = false;          // pin thread-backend threads to host CPUs
  int pipeline_depth = 0;    // 0 = bench default; >= 1 overrides everywhere
  std::string index;         // store index structure: "" = bench default
                             // sweep; "hash" | "btree" pins one
};

// p50/p95/p99 of per-operation latency, in (simulated) microseconds.
struct LatencySummary {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  uint64_t samples = 0;
};

inline LatencySummary SummarizeLatency(const LatencySampler& lat) {
  const std::vector<double> p = lat.Percentiles({0.50, 0.95, 0.99});
  LatencySummary s;
  s.p50_us = p[0];
  s.p95_us = p[1];
  s.p99_us = p[2];
  s.mean_us = lat.mean();
  s.samples = lat.count();
  return s;
}

// One measured scenario, under the schema every bench shares. `params`
// carries the scenario's sweep dimensions (cores, CM, load factor, ...);
// `extra` carries bench-specific metrics (speedup, messages/op, ...).
struct BenchRow {
  std::vector<std::pair<std::string, std::string>> params;
  double ops_per_ms = 0.0;
  double commit_rate = 1.0;
  double abort_rate = 0.0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  LatencySummary latency;
  std::vector<std::pair<std::string, double>> extra;

  BenchRow& Param(const std::string& key, const std::string& value) {
    params.emplace_back(key, value);
    return *this;
  }
  BenchRow& Param(const std::string& key, uint64_t value) {
    return Param(key, std::to_string(value));
  }
  BenchRow& Extra(const std::string& key, double value) {
    extra.emplace_back(key, value);
    return *this;
  }

  // Fills the standard metrics from pre-merged transactional stats (e.g.
  // several seeds of the same scenario).
  BenchRow& TxMerged(const TxStats& stats, double tput_ops_per_ms, const LatencySampler& lat) {
    ops_per_ms = tput_ops_per_ms;
    commit_rate = stats.CommitRate();
    abort_rate = 1.0 - commit_rate;
    commits = stats.commits;
    aborts = stats.aborts;
    latency = SummarizeLatency(lat);
    return *this;
  }

  // Fills the standard metrics from a transactional run.
  BenchRow& Tx(const TmSystem& sys, SimTime duration, const LatencySampler& lat) {
    const ThroughputResult r = Summarize(sys, duration);
    return TxMerged(r.stats, r.ops_per_ms, lat);
  }

  // Fills the standard metrics from a run where the bodies counted `ops`
  // themselves (lock-based, sequential, message-echo): nothing aborts.
  BenchRow& Ops(uint64_t ops, SimTime duration, const LatencySampler& lat) {
    ops_per_ms = OpsPerMs(ops, duration);
    commit_rate = 1.0;
    abort_rate = 0.0;
    commits = ops;
    aborts = 0;
    latency = SummarizeLatency(lat);
    return *this;
  }
};

// Handed to the bench body: resolves defaults against the shared command
// line and collects the rows the runner prints and serializes.
class BenchContext {
 public:
  explicit BenchContext(const BenchOptions& opts) : opts_(opts) {}

  const BenchOptions& opts() const { return opts_; }
  bool smoke() const { return opts_.smoke; }

  // Core-count sweep: --cores pins a single point; --smoke keeps one
  // mid-sweep point so even CI exercises a multi-core deployment. Sweep
  // points that a --service-cores override would make invalid (a dedicated
  // deployment needs at least one application core) are dropped here, in
  // the shared layer, so forwarding the flag through run_all.sh skips
  // those points instead of CHECK-aborting mid-suite; if nothing is left
  // the runner reports the empty result set and exits nonzero.
  std::vector<uint32_t> CoreSweep(std::vector<uint32_t> def) const {
    if (opts_.cores > 0) {
      def = {static_cast<uint32_t>(opts_.cores)};
    } else if (opts_.smoke && def.size() > 1) {
      def = {def[def.size() / 2]};
    }
    if (opts_.service_cores > 0) {
      std::vector<uint32_t> kept;
      for (const uint32_t cores : def) {
        if (static_cast<uint32_t>(opts_.service_cores) < cores) {
          kept.push_back(cores);
        }
      }
      return kept;
    }
    return def;
  }

  // Single total-core count for benches that fix the machine size rather
  // than sweep it; --cores overrides.
  uint32_t Cores(uint32_t def) const {
    return opts_.cores > 0 ? static_cast<uint32_t>(opts_.cores) : def;
  }

  // Generic sweep over any dimension: --smoke keeps only the first point.
  // (Built by hand rather than via resize(1): GCC 12's -O2 array-bounds
  // checker reports a false positive through vector::resize shrinkage.)
  template <typename T>
  std::vector<T> Sweep(std::vector<T> def) const {
    if (opts_.smoke && def.size() > 1) {
      std::vector<T> first;
      first.push_back(std::move(def.front()));
      return first;
    }
    return def;
  }

  // Contention-manager sweep: --cm restricts the sweep to that manager,
  // --smoke keeps the first point.
  std::vector<CmKind> CmSweep(std::vector<CmKind> def) const {
    if (!opts_.cm.empty()) {
      return {CmKindByName(opts_.cm)};
    }
    return Sweep(std::move(def));
  }

  // Platform sweep: --platform restricts the sweep to that model. Not
  // smoke-reduced — cross-platform comparison is the point of the benches
  // that sweep platforms, and each extra platform is cheap.
  std::vector<std::string> PlatformSweep(std::vector<std::string> def) const {
    if (!opts_.platform.empty()) {
      return {opts_.platform};
    }
    return def;
  }

  // Store-index sweep (benches on TxStoreApi): --index pins one structure.
  // Not smoke-reduced — comparing the index structures is the point of the
  // benches that sweep them, and the CI smoke gate checks both appear.
  std::vector<std::string> IndexSweep(std::vector<std::string> def) const {
    if (!opts_.index.empty()) {
      return {opts_.index};
    }
    return def;
  }

  // DTM-service-core sweep: --service-cores pins a single point; --smoke
  // keeps the first.
  std::vector<uint32_t> ServiceCoreSweep(std::vector<uint32_t> def) const {
    if (opts_.service_cores > 0) {
      return {static_cast<uint32_t>(opts_.service_cores)};
    }
    return Sweep(std::move(def));
  }

  // Simulated horizon: --duration-ms overrides, --smoke caps at 5 ms.
  SimTime Duration(uint64_t def_ms) const {
    if (opts_.duration_ms > 0.0) {
      return static_cast<SimTime>(opts_.duration_ms * static_cast<double>(kPicosPerMilli));
    }
    if (opts_.smoke && def_ms > 5) {
      return MillisToSim(5);
    }
    return MillisToSim(def_ms);
  }

  uint64_t Seed(uint64_t def) const { return opts_.seed != 0 ? opts_.seed : def; }

  // Seed sweep for benches that average over seeds: a --seed override runs
  // the single pinned seed once instead of repeating one simulation
  // per sweep entry; --smoke keeps the first.
  std::vector<uint64_t> SeedSweep(std::vector<uint64_t> def) const {
    if (opts_.seed != 0) {
      return {opts_.seed};
    }
    return Sweep(std::move(def));
  }

  std::string Platform(const std::string& def = "scc") const {
    return opts_.platform.empty() ? def : opts_.platform;
  }

  CmKind Cm(CmKind def) const { return opts_.cm.empty() ? def : CmKindByName(opts_.cm); }

  uint32_t ServiceCores(uint32_t def) const {
    return opts_.service_cores > 0 ? static_cast<uint32_t>(opts_.service_cores) : def;
  }

  BackendKind Backend() const { return BackendKindByName(opts_.backend); }
  // True on any wall-clock backend (threads or processes): rows are host
  // measurements, so the deterministic-run extras the sim rows carry
  // (modelled-time identities, seeded reproducibility checks) don't apply.
  bool native() const { return Backend() != BackendKind::kSim; }

  // Seeds a RunSpec with every shared override (platform, service cores,
  // CM, duration, seed) applied over the bench's defaults, so no flag is
  // silently ignored. A bench that sweeps one of these dimensions assigns
  // that field afterwards from the corresponding *Sweep helper.
  RunSpec Spec(uint64_t def_duration_ms, uint64_t def_seed,
               CmKind def_cm = CmKind::kFairCm) const {
    RunSpec spec;
    spec.platform_name = Platform();
    if (opts_.service_cores > 0) {
      spec.service_cores = static_cast<uint32_t>(opts_.service_cores);
    }
    spec.cm = Cm(def_cm);
    spec.duration = Duration(def_duration_ms);
    spec.seed = Seed(def_seed);
    spec.backend = Backend();
    spec.pin_threads = opts_.pin;
    if (opts_.pipeline_depth > 0) {
      spec.pipeline_depth = static_cast<uint32_t>(opts_.pipeline_depth);
    }
    return spec;
  }

  // Pipeline-depth for benches that fix it; --pipeline-depth overrides.
  uint32_t PipelineDepth(uint32_t def = 1) const {
    return opts_.pipeline_depth > 0 ? static_cast<uint32_t>(opts_.pipeline_depth) : def;
  }

  // Host-side iteration count (bench_micro): --smoke divides by 20.
  uint64_t Iterations(uint64_t def) const {
    return opts_.smoke ? (def / 20 == 0 ? 1 : def / 20) : def;
  }

  void Report(BenchRow row) { rows_.push_back(std::move(row)); }
  const std::vector<BenchRow>& rows() const { return rows_; }

 private:
  BenchOptions opts_;
  std::vector<BenchRow> rows_;
};

// Echo round-trip workload shared by the latency benches (fig8a,
// platforms): each application core sends `echoes_per_core` echo messages
// evenly across the service cores, a service core responds immediately.
// Service cores serve until the run drains — a core blocked in Recv with
// no events left simply ends the simulation. Returns the RTT samples
// (microseconds) and the simulated end time.
struct EchoResult {
  LatencySampler rtt;
  SimTime end = 0;
};

inline EchoResult RunEchoWorkload(const PlatformDesc& platform, uint32_t num_cores,
                                  uint32_t num_service, int echoes_per_core, uint64_t seed) {
  SimSystemConfig cfg;
  cfg.platform = platform;
  cfg.num_cores = num_cores;
  cfg.num_service = num_service;
  cfg.shmem_bytes = 1 << 20;
  cfg.seed = seed;
  SimSystem sys(cfg);
  const auto& plan = sys.deployment();
  auto rtt = std::make_shared<LatencySampler>();
  for (uint32_t core : plan.service_cores()) {
    sys.SetCoreMain(core, [](CoreEnv& env) {
      for (;;) {
        Message m = env.Recv();
        Message rsp;
        rsp.type = MsgType::kEchoRsp;
        rsp.w0 = m.w0;
        env.Send(m.src, std::move(rsp));
      }
    });
  }
  for (uint32_t core : plan.app_cores()) {
    sys.SetCoreMain(core, [&plan, rtt, echoes_per_core](CoreEnv& env) {
      for (int i = 0; i < echoes_per_core; ++i) {
        const uint32_t dst = plan.ServiceCore(static_cast<uint32_t>(i) % plan.num_service());
        const SimTime start = env.GlobalNow();
        Message m;
        m.type = MsgType::kEcho;
        env.Send(dst, std::move(m));
        Message rsp = env.Recv();
        TM2C_CHECK(rsp.type == MsgType::kEchoRsp);
        rtt->Add(SimToMicros(env.GlobalNow() - start));
      }
    });
  }
  EchoResult result;
  result.end = sys.Run();
  result.rtt = *rtt;
  return result;
}

// The one bench a binary carries.
struct BenchDef {
  const char* name;         // stable id used in JSON and run_all.sh
  const char* figure;       // paper figure ("4(a)", "ablation", ...)
  const char* description;  // one line, printed and serialized
  void (*fn)(BenchContext&);
  // Whether the bench supports --backend=threads. Benches that drive the
  // simulator engine directly (echo RTT workloads, chaos schedules) cannot;
  // the runner rejects the flag for them instead of mislabelling sim rows
  // as native.
  bool native = false;
  // Whether the bench also supports --backend=processes (forked partition
  // servers over shared-memory rings). That backend is dedicated-deployment-only and
  // has no thread transport, so a native bench that sweeps multitasked
  // deployments or measures the thread transport stays threads-only.
  bool processes = false;
};

// Registers the binary's bench with the runner in bench_main.cc; call once
// at namespace scope via TM2C_REGISTER_BENCH (sim-only),
// TM2C_REGISTER_BENCH_NATIVE (also runnable on the thread and process
// backends) or TM2C_REGISTER_BENCH_THREADS_ONLY (thread backend, but the
// bench sweeps a dimension the process backend does not have).
bool RegisterBench(const BenchDef& def);

#define TM2C_REGISTER_BENCH(name, figure, desc, fn) \
  [[maybe_unused]] const bool tm2c_bench_registered = \
      ::tm2c::RegisterBench({name, figure, desc, fn, false, false})

#define TM2C_REGISTER_BENCH_NATIVE(name, figure, desc, fn) \
  [[maybe_unused]] const bool tm2c_bench_registered = \
      ::tm2c::RegisterBench({name, figure, desc, fn, true, true})

#define TM2C_REGISTER_BENCH_THREADS_ONLY(name, figure, desc, fn) \
  [[maybe_unused]] const bool tm2c_bench_registered = \
      ::tm2c::RegisterBench({name, figure, desc, fn, true, false})

}  // namespace tm2c

#endif  // TM2C_BENCH_BENCH_UTIL_H_
