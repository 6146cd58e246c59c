#!/usr/bin/env python3
"""End-to-end benchmark of TM2C: builds the tm2c_e2e program, runs it, prints
and checks the results. Run from anywhere; paths resolve from this file.

  run.py --workload kv-read [--seed 1 --seconds 10 --trace 0|1]
      One run. The last stdout line is one JSON object {correct, attempted,
      failed, metrics}: the end-to-end metrics of BENCHMARK.json with
      --trace 0, its per-layer metrics with --trace 1 (an untraced run for
      tail.* and the tracing overhead, then a traced run that also writes
      build/e2e/trace/<workload>.json).
  run.py --self-test
      Smoke pass over every workload (0.3 s warm-up, 1 s window) that checks
      metric names and units against BENCHMARK.json, the trace file, the
      layer separation and a planted slab corruption.
  run.py --repeat N [--workload W ...] [--trace 1] [--out set.json]
      N runs per workload on seeds seed..seed+N-1, alternating the workload
      order; prints median, quartiles and spread per metric and flags every
      end-to-end spread above its bound.
  run.py --compare A.json B.json
      Applies the end-to-end bounds to two --repeat result sets (B against A).

Every run and result set is also saved under build/e2e/results/ with the
host metadata. Exit status: 0 on success, 1 on a failed check, flagged
spread or regression, 2 on a usage or environment error.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build" / "e2e"
BINARY = BUILD / "tm2c_e2e"
TRACE_DIR = BUILD / "trace"
RESULTS = BUILD / "results"
TMP = BUILD / "tmp"

WORKLOADS = ["kv-read", "kv-durable", "index-scan", "tpcc-contended"]
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
WARMUP_S = 2.0
SETUPS = 5
RUN_TIMEOUT_S = 85  # a traced run starts tm2c_e2e twice
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    with open(path) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    return e2e, layer


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"the TM2C sources are not in {ROOT}; nothing to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def stop_group(pgid):
    """Kills whatever is left of tm2c_e2e's process group (forked
    partition servers share it) and waits until the group is empty."""
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise BenchError(f"process group {pgid} would not die")


_runs = 0


def run_e2e(workload, seed, seconds, trace, warmup=WARMUP_S, setups=SETUPS,
               plant_fault=False):
    """Runs tm2c_e2e once in its own process group and scratch TMPDIR;
    returns its result object. Nothing it starts outlives the call."""
    global _runs
    _runs += 1
    # Relative to the checkout root (tm2c_e2e's cwd) so socket paths stay
    # short whatever the checkout's location.
    tmpdir = Path("build") / "e2e" / "tmp" / f"{os.getpid()}-{_runs}"
    (ROOT / tmpdir).mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--warmup={warmup}", f"--setups={setups}", f"--trace={1 if trace else 0}"]
    if trace:
        cmd.append(f"--trace-out={TRACE_DIR / (workload + '.json')}")
    if plant_fault:
        cmd.append("--plant-fault")
    env = dict(os.environ, TMPDIR=str(tmpdir))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: tm2c_e2e exceeded {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
        shutil.rmtree(ROOT / tmpdir, ignore_errors=True)
    if err.strip():
        log(err.rstrip())
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: tm2c_e2e exited with {proc.returncode}")
    return json.loads(lines[-1])


def host_meta():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True)
        sha = r.stdout.strip() or sha
    return {"nproc": os.cpu_count(), "cpu_model": model, "kernel": platform.release(),
            "git_sha": sha}


def meta_of(result, host):
    meta = dict(host, **result["meta"])
    meta["busy_per_nproc"] = meta["busy_entities"] / (host["nproc"] or 1)
    return meta


def nests(events):
    """True when the complete ("X") spans of every thread nest properly."""
    by_tid = {}
    for e in events:
        if e.get("ph") == "X":
            by_tid.setdefault(e["tid"], []).append((e["ts"], -e["dur"], e["ts"] + e["dur"]))
    eps = 1e-6
    for spans in by_tid.values():
        stack = []
        for start, _, end in sorted(spans):
            while stack and stack[-1] <= start + eps:
                stack.pop()
            if stack and end > stack[-1] + eps:
                return False
            stack.append(end)
    return True


def check_trace(workload):
    path = TRACE_DIR / (workload + ".json")
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not any(e.get("ph") == "X" for e in events):
        return f"{path} holds no spans"
    if not nests(events):
        return f"{path}: spans do not nest"
    return None


def one_run(workload, seed, seconds, trace, e2e, layer, host):
    """One run as BENCHMARK.json's command makes it: returns {correct,
    attempted, failed, metrics} and the run's result document."""
    untraced = run_e2e(workload, seed, seconds, False)
    problems = list(untraced["problems"])
    attempted, failed = untraced["attempted"], untraced["failed"]
    if not trace:
        names, source = e2e, untraced["metrics"]
        metrics = {n: source[n] for n in names if n in source}
    else:
        traced = run_e2e(workload, seed, seconds, True)
        problems += traced["problems"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        source = dict(traced["metrics"])
        for n in ("tail.read_p999_us", "tail.write_p999_us", "tail.read_samples",
                  "tail.write_samples"):
            source[n] = untraced["metrics"][n]
        base = untraced["metrics"]["throughput_ops_s"]["value"]
        slowed = base - traced["metrics"]["throughput_ops_s"]["value"]
        source["trace.overhead_pct"] = {"value": 100.0 * slowed / base if base else 0.0,
                                        "unit": "%"}
        trace_problem = check_trace(workload)
        if trace_problem:
            problems.append(trace_problem)
        names = layer
        metrics = {n: source[n] for n in names if n in source}
    missing = [n for n in names if n not in metrics]
    if missing:
        problems.append("metrics not emitted: " + ", ".join(missing))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(parents=True, exist_ok=True)
    doc = dict(result, workload=workload, seed=seed, trace=int(trace), problems=problems,
               meta=meta_of(untraced, host))
    with open(RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(doc, f, indent=1)
    return result, doc


def print_run(doc):
    meta = doc["meta"]
    log(f"# {doc['workload']} seed={doc['seed']} trace={doc['trace']}: {meta['workload_shape']}")
    log(f"# host: {meta['cpu_model']}, nproc={meta['nproc']}, kernel {meta['kernel']}, "
        f"{meta['compiler']} {meta['build_type']} [{meta['cxx_flags'].strip()}], "
        f"sha {meta['git_sha'][:12]}")
    log(f"# load: {meta['backend']}, {meta['client_threads']} client threads, "
        f"{meta['service_threads']} service threads, {meta['service_processes']} service "
        f"processes, {meta['sockets']} sockets, busy/nproc={meta['busy_per_nproc']:.2f}")
    for name, m in doc["metrics"].items():
        log(f"  {name:34s} {m['value']:16.4f} {m['unit']}")
    for p in doc["problems"]:
        log(f"  PROBLEM: {p}")


def spread(values):
    """Median, quartiles, and the quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def repeat(args, e2e, layer, host):
    workloads = args.workload or WORKLOADS
    if args.repeat < 2:
        raise BenchError("--repeat needs at least 2 runs")
    runs = {w: [] for w in workloads}
    ok = True
    for i in range(args.repeat):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, doc = one_run(w, args.seed + i, args.seconds, args.trace, e2e, layer, host)
            ok &= result["correct"]
            runs[w].append({"seed": args.seed + i, "correct": result["correct"],
                            "metrics": {n: m["value"] for n, m in result["metrics"].items()}})
            log(f"run {i + 1}/{args.repeat} {w}: correct={result['correct']}")
    summary = {}
    for w in workloads:
        log(f"\n{w}: {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
            f"{'spread':>8s} {'bound':>7s}")
        summary[w] = {}
        for name in runs[w][0]["metrics"]:
            med, q1, q3, s = spread([r["metrics"][name] for r in runs[w]])
            bound = e2e[name]["bound"] if name in e2e else None
            flagged = bound is not None and name != "setup_s" and s > bound
            ok &= not flagged
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": s}
            log(f"{'':{len(w) + 1}s} {name:34s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                f"{100 * s:7.2f}% {'' if bound is None else f'{100 * bound:6.1f}%'}"
                f"{'  FLAG' if flagged else ''}")
    out = Path(args.out) if args.out else RESULTS / f"repeat-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"meta": host, "trace": int(args.trace), "seconds": args.seconds,
                   "runs": runs, "summary": summary}, f, indent=1)
    log(f"\nresult set: {out}")
    return ok


def compare(path_a, path_b, e2e):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    ok = True
    for w in a["summary"]:
        if w not in b["summary"]:
            continue
        for name, m in e2e.items():
            if name not in a["summary"][w] or name not in b["summary"][w]:
                continue
            ma, mb = a["summary"][w][name]["median"], b["summary"][w][name]["median"]
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            regressed = worse > m["bound"]
            ok &= not regressed
            log(f"{w:15s} {name:16s} {ma:14.4f} -> {mb:14.4f} {100 * change:+8.2f}% "
                f"(bound {100 * m['bound']:.0f}%){'  REGRESSION' if regressed else ''}")
    return ok


def self_test(e2e, layer):
    start = time.time()
    problems = []
    units = {n: m["unit"] for n, m in {**e2e, **layer}.items()}
    counts = {}
    for w in WORKLOADS:
        untraced = run_e2e(w, 1, 1.0, False, warmup=0.3, setups=1)
        traced = run_e2e(w, 1, 1.0, True, warmup=0.3, setups=1, plant_fault=True)
        for r in (untraced, traced):
            problems += [f"{w}: {p}" for p in r["problems"]]
            for name, m in r["metrics"].items():
                if not NAME_RE.match(name):
                    problems.append(f"{w}: bad metric name {name!r}")
                if name not in units:
                    problems.append(f"{w}: unnamed metric {name}")
                elif m["unit"] != units[name]:
                    problems.append(f"{w}: {name} unit {m['unit']} != {units[name]}")
        emitted = set(untraced["metrics"]) | set(traced["metrics"]) | {"trace.overhead_pct"}
        problems += [f"{w}: {n} not emitted" for n in units if n not in emitted]
        trace_problem = check_trace(w)
        if trace_problem:
            problems.append(trace_problem)
        counts[w] = {n: m["value"] for n, m in traced["metrics"].items()}
        log(f"self-test {w}: {time.time() - start:.1f} s")
    # The workloads separate the layers (see README.md).
    stripes = counts["index-scan"]["apps.stripes_per_op"]
    if stripes < 4 * counts["kv-read"]["apps.stripes_per_op"]:
        problems.append("index-scan takes fewer than 4x kv-read's stripes per op")
    if counts["tpcc-contended"]["tm.abort_frac"] < 0.05:
        problems.append("tpcc-contended aborts under 5% of attempts")
    if counts["kv-read"]["tm.abort_frac"] > 0.005:
        problems.append("kv-read aborts over 0.5% of attempts")
    for w in WORKLOADS:
        active = counts[w]["durability.flushes_per_commit"] > 0
        if active != (w == "kv-durable"):
            problems.append(f"{w}: durability counters {'active' if active else 'idle'}")
    leftovers = list(TMP.iterdir()) if TMP.is_dir() else []
    if leftovers:
        problems.append(f"run directories left behind: {leftovers}")
    for p in problems:
        log(f"FAIL {p}")
    log(f"self-test {'passed' if not problems else 'FAILED'} in {time.time() - start:.1f} s")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    try:
        e2e, layer = load_benchmark()
        if args.compare:
            return 0 if compare(*args.compare, e2e) else 1
        build()
        if args.self_test:
            return 0 if self_test(e2e, layer) else 1
        host = host_meta()
        if args.repeat:
            return 0 if repeat(args, e2e, layer, host) else 1
        if not args.workload or len(args.workload) != 1:
            raise BenchError("give exactly one --workload (or --self-test/--repeat/--compare)")
        result, doc = one_run(args.workload[0], args.seed, args.seconds, bool(args.trace),
                              e2e, layer, host)
        print_run(doc)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    except (BenchError, OSError, subprocess.SubprocessError, json.JSONDecodeError,
            KeyError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
