// Unified entry point for every bench binary.
//
// Parses the shared flag set, runs the one bench the binary registered via
// TM2C_REGISTER_BENCH, prints a uniform results table, and (with --json)
// writes a machine-readable document under the shared schema:
//
//   {
//     "schema_version": 1,
//     "bench": "...", "figure": "...", "description": "...",
//     "backend": "sim" | "threads" | "processes",
//     "smoke": false,
//     "results": [
//       {"scenario": "cores=48 cm=faircm", "params": {...},
//        "throughput_ops_per_ms": ..., "commit_rate": ..., "abort_rate": ...,
//        "commits": ..., "aborts": ...,
//        "latency_us": {"p50": ..., "p95": ..., "p99": ..., "mean": ...,
//                       "samples": ...},
//        "extra": {...}},
//       ...
//     ]
//   }
//
// bench/run_all.sh runs every binary and merges the documents into
// BENCH_results.json; tools/bench_json.py validates the schema.
#include <cstdio>
#include <fstream>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/common/table.h"

namespace tm2c {
namespace {

const BenchDef* g_bench = nullptr;

// "cores=48 cm=faircm" — the human-readable row label and JSON scenario id.
std::string ScenarioLabel(const BenchRow& row) {
  std::string label;
  for (const auto& [key, value] : row.params) {
    if (!label.empty()) {
      label += ' ';
    }
    label += key + '=' + value;
  }
  return label.empty() ? "default" : label;
}

void PrintRows(const BenchDef& def, const std::vector<BenchRow>& rows) {
  TextTable table({"scenario", "ops/ms", "commit %", "p50 us", "p95 us", "p99 us", "extra"});
  for (const BenchRow& row : rows) {
    std::string extras;
    for (const auto& [key, value] : row.extra) {
      if (!extras.empty()) {
        extras += ' ';
      }
      extras += key + '=' + TextTable::Num(value, 2);
    }
    table.AddRow({ScenarioLabel(row), TextTable::Num(row.ops_per_ms, 2),
                  TextTable::Num(100.0 * row.commit_rate, 1), TextTable::Num(row.latency.p50_us, 1),
                  TextTable::Num(row.latency.p95_us, 1), TextTable::Num(row.latency.p99_us, 1),
                  extras});
  }
  table.Print(std::string(def.figure) + ": " + def.description);
}

std::string ToJson(const BenchDef& def, const BenchOptions& opts,
                   const std::vector<BenchRow>& rows) {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema_version", 1);
  w.KV("bench", def.name);
  w.KV("figure", def.figure);
  w.KV("description", def.description);
  w.KV("backend", BackendKindName(BackendKindByName(opts.backend)));
  w.KV("smoke", opts.smoke);
  w.Key("results");
  w.BeginArray();
  for (const BenchRow& row : rows) {
    w.BeginObject();
    w.KV("scenario", ScenarioLabel(row));
    w.Key("params");
    w.BeginObject();
    for (const auto& [key, value] : row.params) {
      w.KV(key, value);
    }
    w.EndObject();
    w.KV("throughput_ops_per_ms", row.ops_per_ms);
    w.KV("commit_rate", row.commit_rate);
    w.KV("abort_rate", row.abort_rate);
    w.KV("commits", row.commits);
    w.KV("aborts", row.aborts);
    w.Key("latency_us");
    w.BeginObject();
    w.KV("p50", row.latency.p50_us);
    w.KV("p95", row.latency.p95_us);
    w.KV("p99", row.latency.p99_us);
    w.KV("mean", row.latency.mean_us);
    w.KV("samples", row.latency.samples);
    w.EndObject();
    w.Key("extra");
    w.BeginObject();
    for (const auto& [key, value] : row.extra) {
      w.KV(key, value);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace

bool RegisterBench(const BenchDef& def) {
  static BenchDef storage;
  storage = def;
  g_bench = &storage;
  return true;
}

}  // namespace tm2c

int main(int argc, char** argv) {
  using namespace tm2c;

  if (g_bench == nullptr) {
    std::fprintf(stderr, "no bench registered in this binary\n");
    return 1;
  }
  const BenchDef& def = *g_bench;

  BenchOptions opts;
  FlagSet flags;
  flags.Register("platform", &opts.platform, "platform model override: scc|scc800|opteron");
  flags.Register("cores", &opts.cores, "pin the core sweep to one total core count");
  flags.Register("service-cores", &opts.service_cores, "override the DTM service core count");
  flags.Register("cm", &opts.cm,
                 "contention manager override: none|backoff|offset-greedy|wholly|faircm");
  flags.Register("duration-ms", &opts.duration_ms, "simulated duration override per run");
  flags.Register("seed", &opts.seed, "seed override");
  flags.Register("smoke", &opts.smoke, "shrink sweeps/durations for a CI-sized run");
  flags.Register("json", &opts.json_path, "write machine-readable results to this file");
  flags.Register("backend", &opts.backend,
                 "runtime backend: sim (deterministic simulator, default) | threads "
                 "(real OS threads over SPSC channels, wall-clock timing) | processes "
                 "(forked partition servers over shared-memory rings, wall-clock timing)");
  flags.Register("pin", &opts.pin, "pin thread-backend threads to host CPUs");
  flags.Register("pipeline-depth", &opts.pipeline_depth,
                 "override the acquisition pipeline depth (1 = lockstep request/reply; "
                 "> 1 overlaps per-node batches; 0 = bench default)");
  flags.Register("index", &opts.index,
                 "store index structure for benches on the unified store API: "
                 "hash | btree (default: the bench sweeps both)");
  bool native_capable_probe = false;
  flags.Register("native-capable", &native_capable_probe,
                 "exit 0 if this bench supports --backend=threads, 3 otherwise (run_all.sh "
                 "uses this to discover the native pass)");
  bool processes_capable_probe = false;
  flags.Register("processes-capable", &processes_capable_probe,
                 "exit 0 if this bench supports --backend=processes, 3 otherwise "
                 "(run_all.sh uses this to discover the processes pass)");
  flags.Parse(argc, argv);

  if (native_capable_probe) {
    return def.native ? 0 : 3;
  }
  if (processes_capable_probe) {
    return def.processes ? 0 : 3;
  }

  if (BackendKindByName(opts.backend) == BackendKind::kThreads && !def.native) {
    std::fprintf(stderr,
                 "bench %s drives the simulator directly and has no native counterpart; "
                 "--backend=threads is not supported here\n",
                 def.name);
    return 1;
  }
  if (BackendKindByName(opts.backend) == BackendKind::kProcesses && !def.processes) {
    std::fprintf(stderr,
                 "bench %s sweeps a dimension the dedicated-only process backend does not "
                 "have (or drives the simulator directly); --backend=processes is not "
                 "supported here\n",
                 def.name);
    return 1;
  }

  std::printf("bench %s (figure %s, backend %s)%s\n", def.name, def.figure,
              BackendKindName(BackendKindByName(opts.backend)), opts.smoke ? " [smoke]" : "");

  BenchContext ctx(opts);
  def.fn(ctx);
  if (ctx.rows().empty()) {
    // Fail here, next to the flags that caused it, rather than minutes
    // later when the merge step rejects an empty results array.
    std::fprintf(stderr,
                 "bench %s produced no results; the flag combination filtered out every "
                 "scenario (e.g. --service-cores >= --cores)\n",
                 def.name);
    return 1;
  }
  PrintRows(def, ctx.rows());

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
      return 1;
    }
    out << ToJson(def, opts, ctx.rows()) << "\n";
  }
  return 0;
}
