// tm2c_e2e: one workload of the end-to-end benchmark, in a fresh process.
//
//   tm2c_e2e --workload=kv-read --seed=1 --seconds=10 [--trace --trace-out=F]
//
// Sets the system up --setups times (the last set-up then runs the load),
// runs a closed loop on every application thread for --warmup seconds and
// then for the --seconds measured window, checks the workload's
// invariants, and prints one JSON object as its last stdout line:
// {"workload", "correct", "attempted", "failed", "problems", "meta",
// "metrics"}. bench/e2e/run.py builds and runs it.
//
// Untraced runs emit the end-to-end metrics and tail.*; traced runs also
// record attempt-phase spans, read the layers' counters and time the
// layers' functions in isolation (layers.cc), and emit the per-layer
// metrics.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench/e2e/e2e.h"
#include "bench/e2e/layers.h"
#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/durability/partition_log.h"

namespace tm2c::e2e {
namespace {

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

// Scratch directory for partition sockets, WAL files and the layer phase:
// mkdtemp under $TMPDIR, removed when the program returns from main or
// calls exit. Forked partition servers leave through _exit and never run
// the removal.
class RunDir {
 public:
  RunDir() {
    const char* tmp = std::getenv("TMPDIR");
    std::string templ =
        std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") + "/tm2c_e2e_XXXXXX";
    TM2C_CHECK_MSG(::mkdtemp(templ.data()) != nullptr, "mkdtemp failed under $TMPDIR");
    Live() = templ;
    std::atexit(&Remove);
  }
  ~RunDir() { Remove(); }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  std::string Sub(const std::string& name) const {
    const std::string path = Live() + "/" + name;
    TM2C_CHECK_MSG(::mkdir(path.c_str(), 0755) == 0, "could not create a run subdirectory");
    return path;
  }

 private:
  static std::string& Live() {
    static std::string path;
    return path;
  }
  static void Remove() {
    if (!Live().empty()) {
      std::error_code ec;
      std::filesystem::remove_all(Live(), ec);
      Live().clear();
    }
  }
};

// Releases every application body at one instant once all have started,
// so warm-up and window are the same interval on every thread.
class StartGate {
 public:
  explicit StartGate(uint32_t bodies) : bodies_(bodies) {}

  uint64_t Arrive() {
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == bodies_) {
      go_.store(NowNs(), std::memory_order_release);
    }
    uint64_t go = 0;
    while ((go = go_.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    return go;
  }

 private:
  const uint32_t bodies_;
  std::atomic<uint32_t> arrived_{0};
  std::atomic<uint64_t> go_{0};
};

struct Usage {
  double cpu_s = 0.0;
  double switches = 0.0;
  double peak_rss_mib = 0.0;  // own maxrss + largest reaped child's maxrss
};

Usage ReadUsage() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  Usage u;
  u.cpu_s = secs(self.ru_utime) + secs(self.ru_stime) + secs(kids.ru_utime) + secs(kids.ru_stime);
  u.switches = static_cast<double>(self.ru_nvcsw + self.ru_nivcsw + kids.ru_nvcsw + kids.ru_nivcsw);
  u.peak_rss_mib = static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
  return u;
}

// Nearest-rank percentile of latency samples in ns, reported in us.
double PercentileUs(std::vector<uint32_t>& ns, double q) {
  if (ns.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(ns.size())));
  const size_t idx = std::min(ns.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(idx), ns.end());
  return ns[idx] / 1000.0;
}

// One set-up: TmSystem construction, load (and checkpoint 0) and, on the
// processes backend, the servers' fork and connect inside Run, up to the
// instant the last application body starts. Returns seconds.
double SetupOnly(const WorkloadSpec& spec, uint64_t seed, const std::string& dir) {
  const uint64_t t0 = NowNs();
  TmSystem sys(MakeSystemConfig(spec, seed, dir));
  const std::unique_ptr<Workload> workload = MakeWorkload(spec);
  workload->Load(sys);
  std::vector<uint64_t> started(sys.num_app_cores(), 0);
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [&started, i](CoreEnv&, TxRuntime&) { started[i] = NowNs(); });
  }
  sys.Run();
  return (*std::max_element(started.begin(), started.end()) - t0) / 1e9;
}

struct Durable {
  uint64_t records = 0;
  uint64_t payload_words = 0;
  uint64_t pairs = 0;
  uint64_t wal_bytes = 0;  // frames, header excluded
};

Durable ReadDurable(TmSystem& sys) {
  Durable d;
  for (uint32_t p = 0; p < sys.deployment().num_service(); ++p) {
    const WalReadResult wal =
        ReadWalFile(sys.config().run_dir + "/part" + std::to_string(p) + ".wal");
    d.wal_bytes += wal.valid_bytes - std::min(wal.valid_bytes, kWalHeaderBytes);
    for (const WalRecord& r : wal.records) {
      ++d.records;
      d.payload_words += r.payload.size();
      CommitRecord rec;
      if (ParseCommitRecord(r, &rec)) {
        d.pairs += rec.pairs.size();
      }
    }
  }
  return d;
}

void WriteTrace(const std::string& path, const std::vector<std::unique_ptr<OpRecorder>>& recs,
                const std::vector<LayerTiming>& layers, uint64_t base_ns,
                const std::string& workload) {
  JsonWriter w;
  w.BeginObject();
  w.KV("displayTimeUnit", "ns");
  w.Key("otherData");
  w.BeginObject();
  w.KV("workload", workload);
  w.EndObject();
  w.Key("traceEvents");
  w.BeginArray();
  auto event = [&w, base_ns](const Span& s, const char* cat, uint64_t tid) {
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("cat", cat);
    w.KV("ph", "X");
    w.KV("pid", 1);
    w.KV("tid", tid);
    w.KV("ts", (s.start_ns - base_ns) / 1000.0);
    w.KV("dur", (s.end_ns - s.start_ns) / 1000.0);
    w.EndObject();
  };
  auto thread_name = [&w](uint64_t tid, const std::string& name) {
    w.BeginObject();
    w.KV("name", "thread_name");
    w.KV("ph", "M");
    w.KV("pid", 1);
    w.KV("tid", tid);
    w.Key("args");
    w.BeginObject();
    w.KV("name", name);
    w.EndObject();
    w.EndObject();
  };
  for (uint64_t i = 0; i < recs.size(); ++i) {
    thread_name(i + 1, "app " + std::to_string(i));
    for (const Span& s : recs[i]->spans()) {
      event(s, std::strncmp(s.name, "tm.", 3) == 0 ? "tm" : "op", i + 1);
    }
  }
  const uint64_t micro_tid = recs.size() + 1;
  thread_name(micro_tid, "layer timings");
  for (const LayerTiming& t : layers) {
    event(t.span, "micro", micro_tid);
  }
  w.EndArray();
  w.EndObject();
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent);
  }
  std::ofstream f(path);
  f << w.Take() << "\n";
  TM2C_CHECK_MSG(f.good(), "could not write the trace output");
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  double warmup = 2.0;
  int setups = 5;
  bool trace = false;
  std::string trace_out;
  bool plant_fault = false;
  FlagSet flags;
  flags.Register("workload", &workload_name, "kv-read | kv-durable | index-scan | tpcc-contended");
  flags.Register("seed", &seed, "seed of the op generators");
  flags.Register("seconds", &seconds, "measured window, seconds");
  flags.Register("warmup", &warmup, "warm-up before the window, seconds");
  flags.Register("setups", &setups, "set-ups per run; setup_s is their median (>= 1)");
  flags.Register("trace", &trace, "record spans, read layer counters, time layers");
  flags.Register("trace-out", &trace_out, "Chrome trace-event JSON output (with --trace)");
  flags.Register("plant-fault", &plant_fault,
                 "after the checks pass, corrupt one slab word and require the checks to fail");
  flags.Parse(argc, argv);
  const WorkloadSpec* spec = FindSpec(workload_name);
  if (spec == nullptr || setups < 1 || seconds <= 0.0 || warmup < 0.0) {
    std::fprintf(stderr, "usage: tm2c_e2e --workload=NAME [--seed=N --seconds=S ...]\n");
    flags.PrintUsage(argv[0]);
    return 2;
  }

  RunDir dir;
  std::vector<double> setup_s;
  for (int r = 1; r < setups; ++r) {
    setup_s.push_back(SetupOnly(*spec, seed, dir.Sub("setup" + std::to_string(r))));
  }

  // The measured run. Its set-up is the last set-up sample.
  const uint64_t t0 = NowNs();
  TmSystem sys(MakeSystemConfig(*spec, seed, dir.Sub("run")));
  const std::unique_ptr<Workload> workload = MakeWorkload(*spec);
  workload->Load(sys);
  const uint32_t apps = sys.num_app_cores();
  std::vector<std::unique_ptr<OpRecorder>> recs;
  for (uint32_t i = 0; i < apps; ++i) {
    recs.push_back(std::make_unique<OpRecorder>(trace));
  }
  std::vector<uint64_t> started(apps, 0);
  StartGate gate(apps);
  const auto warmup_ns = static_cast<uint64_t>(warmup * 1e9);
  const auto window_ns = static_cast<uint64_t>(seconds * 1e9);
  // The host's speed drifts over seconds; every end-to-end value is the
  // median over the window's one-second slices, so a slow or fast burst
  // that covers a few slices moves no reported value.
  const size_t slices = std::max<size_t>(1, static_cast<size_t>(std::llround(seconds)));
  const uint64_t slice_ns = window_ns / slices;
  for (uint32_t i = 0; i < apps; ++i) {
    sys.SetAppBody(i, [&, i](CoreEnv&, TxRuntime& rt) {
      started[i] = NowNs();
      const uint64_t window_start = gate.Arrive() + warmup_ns;
      const uint64_t window_end = window_start + window_ns;
      Rng rng(seed * 1000 + i);
      OpRecorder& rec = *recs[i];
      bool in_window = false;
      for (uint64_t now = NowNs(); now < window_end; now = NowNs()) {
        if (!in_window && now >= window_start) {
          in_window = true;
          rec.EnterWindow(window_start, slice_ns, slices);
        }
        workload->RunOp(i, rng, rt, rec);
      }
    });
  }
  const Usage before = ReadUsage();
  sys.Run();
  const Usage after = ReadUsage();
  setup_s.push_back((*std::max_element(started.begin(), started.end()) - t0) / 1e9);

  // Ops and outcomes.
  std::vector<std::vector<uint32_t>> read_slice(slices), write_slice(slices);
  std::vector<uint32_t> read_ns, write_ns;  // the whole window, for tail.*
  uint64_t attempted = 0, failed = 0, failed_total = 0, ops = 0, write_ops = 0;
  Tally tally{};
  for (const auto& rec : recs) {
    for (size_t s = 0; s < rec->read_ns().size(); ++s) {
      const auto& r = rec->read_ns()[s];
      const auto& w = rec->write_ns()[s];
      read_slice[s].insert(read_slice[s].end(), r.begin(), r.end());
      write_slice[s].insert(write_slice[s].end(), w.begin(), w.end());
      read_ns.insert(read_ns.end(), r.begin(), r.end());
      write_ns.insert(write_ns.end(), w.begin(), w.end());
    }
    attempted += rec->window_ops();
    failed += rec->failed();
    failed_total += rec->failed_total();
    ops += rec->ops_total();
    write_ops += rec->write_ops_total();
    for (size_t s = 0; s < tally.size(); ++s) {
      tally[s] += rec->tally()[s];
    }
  }
  std::vector<std::string> problems = workload->Check(sys, tally);
  if (failed_total != 0) {
    problems.push_back(std::to_string(failed_total) + " ops returned a wrong result");
  }
  if (!sys.AllLockTablesEmpty()) {
    problems.push_back("a lock table still holds locks after every body finished");
  }

  auto slice_median = [slices](auto&& per_slice) {
    std::vector<double> v;
    for (size_t s = 0; s < slices; ++s) {
      v.push_back(per_slice(s));
    }
    return Median(v);
  };
  const double slice_s = slice_ns / 1e9;
  std::vector<Metric> metrics;
  auto add = [&metrics](const char* name, const char* unit, double value) {
    metrics.push_back({name, unit, value});
  };
  add("throughput_ops_s", "ops/s", slice_median([&](size_t s) {
          return (read_slice[s].size() + write_slice[s].size()) / slice_s;
        }));
  add("read_p50_us", "us",
        slice_median([&](size_t s) { return PercentileUs(read_slice[s], 0.50); }));
  add("read_p95_us", "us",
        slice_median([&](size_t s) { return PercentileUs(read_slice[s], 0.95); }));
  add("write_p50_us", "us",
        slice_median([&](size_t s) { return PercentileUs(write_slice[s], 0.50); }));
  add("write_p95_us", "us",
        slice_median([&](size_t s) { return PercentileUs(write_slice[s], 0.95); }));
  add("setup_s", "s", Median(setup_s));
  add("tail.read_p999_us", "us", PercentileUs(read_ns, 0.999));
  add("tail.write_p999_us", "us", PercentileUs(write_ns, 0.999));
  add("tail.read_samples", "count", static_cast<double>(read_ns.size()));
  add("tail.write_samples", "count", static_cast<double>(write_ns.size()));

  std::vector<LayerTiming> layers;
  if (trace) {
    // Counters cover the whole run (warm-up included) and are divided by
    // every op the run committed.
    const TxStats tx = sys.MergedStats();
    DtmServiceStats svc;
    LockTableStats locks;
    for (uint32_t p = 0; p < sys.deployment().num_service(); ++p) {
      const DtmServiceStats s = sys.ServiceStats(p);
      svc.requests += s.requests;
      svc.batch_requests += s.batch_requests;
      svc.batch_entries += s.batch_entries;
      svc.notifications_sent += s.notifications_sent;
      svc.commit_records += s.commit_records;
      svc.log_flushes += s.log_flushes;
      if (spec->backend == BackendKind::kThreads) {
        const LockTableStats& l = sys.ServiceAt(p).lock_table().stats();
        locks.read_acquires += l.read_acquires;
        locks.write_acquires += l.write_acquires;
        locks.read_refused += l.read_refused;
        locks.write_refused += l.write_refused;
        locks.revocations += l.revocations;
      }
    }
    const Durable dur = spec->durable ? ReadDurable(sys) : Durable{};
    const auto n = static_cast<double>(ops);
    const auto kops = n / 1000.0;

    LayerShapes shapes;
    shapes.batch_entries = static_cast<uint32_t>(std::clamp<double>(
        std::round(Ratio(svc.batch_entries, svc.batch_requests)), 1, kMaxBatchEntries));
    shapes.record_words =
        spec->durable ? static_cast<uint32_t>(std::round(Ratio(dur.payload_words, dur.records)))
                      : 3 + 2 * static_cast<uint32_t>(std::round(Ratio(tx.writes, write_ops)));
    shapes.record_words = std::max<uint32_t>(shapes.record_words, 5);
    shapes.backend = spec->backend;
    shapes.dir = dir.Sub("layers");
    shapes.seed = seed;
    layers = MeasureLayers(shapes, *workload);
    for (const LayerTiming& t : layers) {
      add(t.name, t.unit, t.value);
    }

    uint64_t op_ns = 0, loop_ns = 0, loop_gaps = 0;
    std::array<uint64_t, kNumPhases> phase{};
    for (const auto& rec : recs) {
      op_ns += rec->op_ns();
      loop_ns += rec->loop_ns();
      loop_gaps += rec->loop_gaps();
      for (int p = 0; p < kNumPhases; ++p) {
        phase[p] += rec->phase_ns(static_cast<Phase>(p));
      }
    }
    const auto window_ops = static_cast<double>(attempted);
    uint64_t phase_sum = 0;
    for (const uint64_t v : phase) {
      phase_sum += v;
    }
    const double refused = static_cast<double>(locks.read_refused + locks.write_refused);

    add("apps.stripes_per_op", "stripes/op", Ratio(tx.lock_acquires, n));
    add("tm.op_us", "us", Ratio(op_ns, window_ops) / 1000.0);
    add("tm.execute_us", "us", Ratio(phase[kExecute], window_ops) / 1000.0);
    add("tm.commit_us", "us", Ratio(phase[kCommit], window_ops) / 1000.0);
    add("tm.aborted_pct", "%", 100.0 * Ratio(phase[kAborted], op_ns));
    add("tm.backoff_pct", "%", 100.0 * Ratio(phase[kBackoff], op_ns));
    add("tm.loop_us", "us", Ratio(loop_ns, loop_gaps) / 1000.0);
    add("tm.split_gap_pct", "%", 100.0 * Ratio(static_cast<double>(op_ns - phase_sum), op_ns));
    add("tm.attempts_per_op", "attempts/op", Ratio(tx.commits + tx.aborts, n));
    add("tm.abort_frac", "frac", Ratio(tx.aborts, tx.commits + tx.aborts));
    add("tm.acquire_us_per_stripe", "us", Ratio(SimToMicros(tx.acquire_time), tx.lock_acquires));
    add("tm.msgs_per_op", "msgs/op", Ratio(tx.messages_sent, n));
    add("tm.stripes_per_batch", "stripes/batch", Ratio(svc.batch_entries, svc.batch_requests));
    add("tm.commit_log_wait_pct", "%", 100.0 * Ratio(tx.commit_log_wait, tx.busy_time));
    add("tm.service_requests_per_op", "reqs/op", Ratio(svc.requests, n));
    add("tm.batch_entries_per_request", "entries/req", Ratio(svc.batch_entries, svc.requests));
    // The processes backend's lock tables die with the servers: there the
    // client-side refusals (aborts not caused by a revocation) and the
    // service's revocation notifications stand in.
    if (spec->backend == BackendKind::kThreads) {
      add("dslock.refused_frac", "frac",
            Ratio(refused, locks.read_acquires + locks.write_acquires + refused));
      add("dslock.revocations_per_kop", "count/kop", Ratio(locks.revocations, kops));
    } else {
      add("dslock.refused_frac", "frac",
            Ratio(tx.aborts - std::min(tx.aborts, tx.notify_aborts), tx.lock_acquires));
      add("dslock.revocations_per_kop", "count/kop", Ratio(svc.notifications_sent, kops));
    }
    add("cm.raw_per_kop", "count/kop", Ratio(tx.raw_conflicts, kops));
    add("cm.waw_per_kop", "count/kop", Ratio(tx.waw_conflicts, kops));
    add("cm.war_per_kop", "count/kop", Ratio(tx.war_conflicts, kops));
    add("cm.notify_aborts_per_kop", "count/kop", Ratio(tx.notify_aborts, kops));
    add("durability.flushes_per_commit", "flushes/commit",
          Ratio(svc.log_flushes, svc.commit_records));
    add("durability.wal_bytes_per_commit", "B/commit", Ratio(dur.wal_bytes, dur.records));
    add("durability.write_amp", "ratio", Ratio(dur.wal_bytes, dur.pairs * kWordBytes));
    // Checkpoints are cut inside the partition servers every
    // checkpoint_every_records appends; the count follows from the records.
    add("durability.checkpoints", "count",
          std::floor(Ratio(svc.commit_records, sys.config().tm.checkpoint_every_records)));
    add("host.cpu_us_per_op", "us/op", Ratio((after.cpu_s - before.cpu_s) * 1e6, n));
    add("host.ctx_switches_per_op", "switches/op", Ratio(after.switches - before.switches, n));
    if (!trace_out.empty()) {
      WriteTrace(trace_out, recs, layers, t0, spec->name);
    }
  }

  if (plant_fault && problems.empty()) {
    workload->PlantFault(sys);
    if (workload->Check(sys, tally).empty()) {
      problems.push_back("the planted slab corruption went undetected");
    } else {
      std::fprintf(stderr, "tm2c_e2e: planted fault detected as expected\n");
    }
  }
  add("peak_rss_mib", "MiB", ReadUsage().peak_rss_mib);

  const bool processes = spec->backend == BackendKind::kProcesses;
  const uint64_t service = sys.deployment().num_service();
  JsonWriter w;
  w.BeginObject();
  w.KV("workload", spec->name);
  w.KV("correct", problems.empty());
  w.KV("attempted", attempted);
  w.KV("failed", failed);
  w.Key("problems");
  w.BeginArray();
  for (const std::string& p : problems) {
    w.String(p);
    std::fprintf(stderr, "tm2c_e2e: %s: %s\n", spec->name, p.c_str());
  }
  w.EndArray();
  w.Key("meta");
  w.BeginObject();
  w.KV("workload_shape", spec->shape);
  w.KV("backend", BackendKindName(spec->backend));
  w.KV("client_threads", uint64_t{apps});
  w.KV("service_threads", processes ? 0 : service);
  w.KV("service_processes", processes ? service : 0);
  w.KV("router_threads", processes ? service : 0);
  w.KV("sockets", processes ? service : 0);
  w.KV("busy_entities", apps + service * (processes ? 2 : 1));
  w.KV("platform", "scc");
  w.KV("cm", "faircm");
  w.KV("tx_mode", "normal");
  w.KV("write_acquire", "lazy");
  w.KV("max_batch", 16);
  w.KV("pipeline_depth", 1);
  w.KV("channel", "spsc");
  w.KV("pinned", false);
  w.KV("durability", spec->durable ? "buffered" : "off");
  w.KV("seed", seed);
  w.KV("warmup_s", warmup);
  w.KV("window_s", seconds);
  w.KV("setups", setups);
  w.KV("compiler", TM2C_E2E_COMPILER);
  w.KV("cxx_flags", TM2C_E2E_CXX_FLAGS);
  w.KV("build_type", TM2C_E2E_BUILD_TYPE);
  w.EndObject();
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& metric : metrics) {
    w.Key(metric.name);
    w.BeginObject();
    w.KV("value", metric.value);
    w.KV("unit", metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.Take().c_str());
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace tm2c::e2e

int main(int argc, char** argv) { return tm2c::e2e::Main(argc, argv); }
