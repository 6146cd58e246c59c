#!/usr/bin/env python3
"""Merge, validate and compare the bench JSON documents.

Every bench binary emits one document under the shared schema (see
bench/bench_main.cc); the `backend` field says whether its rows were
measured on the deterministic simulator ("sim"), on real OS threads
("threads") or on forked partition-server processes over shared-memory
rings ("processes"), so one merged file carries every kind side by side. `merge`
combines documents into BENCH_results.json; `validate` checks either a
per-bench document or a merged file, so CI can gate on the schema staying
intact; `compare` diffs mean throughput per (bench, backend, platform,
index) between two merged files and fails on regressions beyond a
threshold.

  tools/bench_json.py merge --out BENCH_results.json [--smoke] a.json b.json ...
  tools/bench_json.py validate BENCH_results.json
  tools/bench_json.py compare old.json new.json --max-regress=15
  tools/bench_json.py report BENCH_results.json --out docs/BENCHMARKS.md
  tools/bench_json.py identical old.json new.json

`report` renders a merged file into a markdown summary (the committed
docs/BENCHMARKS.md): one row per bench with its best-throughput scenario on
each backend. The output is deterministic for a given input, so CI can
regenerate it and diff against the committed file as a freshness check.

`identical` says whether two runs of the suite simulated the same thing:
it matches documents by (bench, backend) and lists every simulated
document that differs, or exists on one side only, and exits 1 if any
does. Host-timed documents are skipped: `figure: host` (bench_micro's
host-side costs) and every native-backend document, since their rows
differ between any two runs.

`compare` gates sim rows only by default: they are deterministic, so any
drift is a real code change. Native (threads and processes) rows are
wall-clock numbers from whatever host ran them — they are reported but only
enforced with --gate-native (for dedicated, quiet perf hosts). The backend
is part of every group key, so processes rows gate (or advise) against
processes history, never against the threads numbers. Rows measured at
pipeline_depth != 1 are excluded from the compare groups: the lockstep
depth-1 rows are the regression baseline. Rows carrying a truthy
`migration` param (bench_elastic's live-handoff scenarios) are excluded
too: they deliberately measure saturated and mid-migration phases, so
their throughput tracks the elasticity scenario, not the protocol
baseline. Rows carrying a non-zero `scan_len` param (YCSB-E range-scan
sweeps) are likewise excluded — their throughput tracks the swept scan
length. The `index` param (hash vs btree store) is a grouping dimension,
not an exclusion: each index structure forms its own compare group, so
hash-index lockstep rows stay a stable baseline while btree rows are
gated separately rather than diluting it.
"""
import argparse
import json
import os
import sys

SCHEMA_VERSION = 1
BACKENDS = ("sim", "threads", "processes")

RESULT_NUMBER_FIELDS = [
    "throughput_ops_per_ms",
    "commit_rate",
    "abort_rate",
    "commits",
    "aborts",
]
LATENCY_FIELDS = ["p50", "p95", "p99", "mean", "samples"]


def fail(msg):
    print(f"bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def check_result(bench_name, i, result):
    where = f"{bench_name} results[{i}]"
    if not isinstance(result.get("scenario"), str):
        fail(f"{where}: missing scenario string")
    if not isinstance(result.get("params"), dict):
        fail(f"{where}: missing params object")
    for field in RESULT_NUMBER_FIELDS:
        if not isinstance(result.get(field), (int, float)):
            fail(f"{where}: missing numeric field '{field}'")
    lat = result.get("latency_us")
    if not isinstance(lat, dict):
        fail(f"{where}: missing latency_us object")
    for field in LATENCY_FIELDS:
        if not isinstance(lat.get(field), (int, float)):
            fail(f"{where}: latency_us missing numeric field '{field}'")
    if not isinstance(result.get("extra"), dict):
        fail(f"{where}: missing extra object")
    if not 0.0 <= result["commit_rate"] <= 1.0:
        fail(f"{where}: commit_rate {result['commit_rate']} outside [0,1]")
    if not 0.0 <= result["abort_rate"] <= 1.0:
        fail(f"{where}: abort_rate {result['abort_rate']} outside [0,1]")


def check_bench(doc):
    for field in ("bench", "figure", "description"):
        if not isinstance(doc.get(field), str):
            fail(f"bench document missing string field '{field}'")
    if doc.get("schema_version") != SCHEMA_VERSION:
        fail(f"{doc.get('bench')}: schema_version {doc.get('schema_version')} "
             f"!= {SCHEMA_VERSION}")
    if doc.get("backend", "sim") not in BACKENDS:
        fail(f"{doc['bench']}: backend '{doc.get('backend')}' not in {BACKENDS}")
    if not isinstance(doc.get("smoke"), bool):
        fail(f"{doc['bench']}: missing bool field 'smoke'")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail(f"{doc['bench']}: results must be a non-empty array")
    for i, result in enumerate(results):
        check_result(doc["bench"], i, result)


def cmd_merge(args):
    benches = []
    for path in args.inputs:
        with open(path) as f:
            doc = json.load(f)
        check_bench(doc)
        benches.append(doc)
    benches.sort(key=lambda d: (d["bench"], d.get("backend", "sim")))
    merged = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "bench/run_all.sh",
        "smoke": args.smoke,
        "benches": benches,
    }
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")
    print(f"merged {len(benches)} bench documents into {args.out}")


def cmd_validate(args):
    with open(args.input) as f:
        doc = json.load(f)
    if "benches" in doc:  # merged file
        if doc.get("schema_version") != SCHEMA_VERSION:
            fail(f"merged schema_version {doc.get('schema_version')} != {SCHEMA_VERSION}")
        if not isinstance(doc["benches"], list) or not doc["benches"]:
            fail("merged file has no bench documents")
        for bench in doc["benches"]:
            check_bench(bench)
        n = len(doc["benches"])
        rows = sum(len(b["results"]) for b in doc["benches"])
        print(f"{args.input}: OK ({n} benches, {rows} result rows)")
    else:  # single bench document
        check_bench(doc)
        print(f"{args.input}: OK ({len(doc['results'])} result rows)")


def load_benches(path):
    """Returns the list of bench documents in a merged or per-bench file."""
    with open(path) as f:
        doc = json.load(f)
    return doc["benches"] if "benches" in doc else [doc]


def throughput_groups(benches):
    """Mean throughput per (bench, backend, platform, index) across rows.

    Rows swept at pipeline_depth != 1 are excluded: the lockstep depth-1
    protocol is the regression baseline, and pipelined rows shifting (in
    either direction) as the overlap machinery evolves must neither mask
    nor fake a baseline regression. The depth-1 rows of the same sweep
    still count. Rows marked with a truthy `migration` param are excluded
    for the same reason: elasticity scenarios measure deliberately
    saturated and mid-migration throughput, which moves with the scenario
    (policy windows, backoffs, admission control), not with the baseline
    protocol. Rows with a non-zero `scan_len` param (YCSB-E scan-length
    sweeps) are excluded for the same reason again: their throughput
    tracks the swept scan length, not the protocol.

    The `index` param is different: hash and btree rows are both
    legitimate baselines, just not each other's. It joins the group key
    (default "-" for benches that predate it), so each store structure is
    gated against its own history and hash rows stay a stable baseline
    as index sweeps grow.
    """
    sums = {}
    for bench in benches:
        for result in bench.get("results", []):
            params = result.get("params", {})
            if str(params.get("pipeline_depth", "1")) != "1":
                continue
            if str(params.get("migration", "0")) not in ("0", ""):
                continue
            if str(params.get("scan_len", "0")) not in ("0", ""):
                continue
            key = (bench["bench"], bench.get("backend", "sim"),
                   params.get("platform", "-"), params.get("index", "-"))
            total, count = sums.get(key, (0.0, 0))
            sums[key] = (total + result["throughput_ops_per_ms"], count + 1)
    return {key: total / count for key, (total, count) in sums.items() if count > 0}


def file_schema_version(path):
    with open(path) as f:
        return json.load(f).get("schema_version")


def cmd_compare(args):
    # A baseline written under an older schema predates whatever field the
    # current reader expects; comparing against it would die in a KeyError
    # deep in throughput_groups. The baseline is historical data — skip the
    # compare (success: there is nothing to gate against yet). The NEW file
    # was produced by this checkout, so a mismatch there is a real bug.
    old_version = file_schema_version(args.old)
    if old_version != SCHEMA_VERSION:
        print(f"compare: baseline {args.old} incompatible "
              f"(schema_version {old_version} != {SCHEMA_VERSION}), skipping")
        sys.exit(0)
    new_version = file_schema_version(args.new)
    if new_version != SCHEMA_VERSION:
        fail(f"{args.new}: schema_version {new_version} != {SCHEMA_VERSION}")
    old = throughput_groups(load_benches(args.old))
    new = throughput_groups(load_benches(args.new))
    regressions = []
    advisories = []
    print(f"{'bench':<24} {'backend':<8} {'platform':<9} {'index':<6} "
          f"{'old op/ms':>10} {'new op/ms':>10} {'delta %':>8}")
    for key in sorted(set(old) | set(new)):
        bench, backend, platform, index = key
        if key not in old:
            print(f"{bench:<24} {backend:<8} {platform:<9} {index:<6} {'-':>10} "
                  f"{new[key]:>10.2f}    (new)")
            continue
        if key not in new:
            print(f"{bench:<24} {backend:<8} {platform:<9} {index:<6} "
                  f"{old[key]:>10.2f} {'-':>10}    (gone)")
            continue
        delta_pct = (100.0 * (new[key] - old[key]) / old[key]) if old[key] > 0 else 0.0
        flag = ""
        if delta_pct < -args.max_regress:
            if backend == "sim" or args.gate_native:
                regressions.append((key, delta_pct))
                flag = "  REGRESSION"
            else:
                advisories.append((key, delta_pct))
                flag = "  (native, advisory)"
        print(f"{bench:<24} {backend:<8} {platform:<9} {index:<6} "
              f"{old[key]:>10.2f} {new[key]:>10.2f} {delta_pct:>+8.1f}{flag}")
    if advisories:
        print(f"{len(advisories)} native group(s) regressed beyond "
              f"{args.max_regress}% (advisory only; use --gate-native to enforce)")
    if regressions:
        print(f"FAIL: {len(regressions)} group(s) regressed beyond "
              f"{args.max_regress}%", file=sys.stderr)
        sys.exit(1)
    print("compare: OK")


def simulated_documents(benches):
    """The documents the simulator decides, keyed by (bench, backend)."""
    return {(b["bench"], b.get("backend", "sim")): b for b in benches
            if b.get("backend", "sim") == "sim" and b.get("figure") != "host"}


def differing_documents(old_benches, new_benches):
    """Sorted (bench, backend) keys of the simulated documents that differ."""
    old = simulated_documents(old_benches)
    new = simulated_documents(new_benches)
    return sorted(key for key in set(old) | set(new) if old.get(key) != new.get(key))


def cmd_identical(args):
    old = load_benches(args.old)
    new = load_benches(args.new)
    differing = differing_documents(old, new)
    for bench, backend in differing:
        print(f"differs: {bench} ({backend})")
    total = len(set(simulated_documents(old)) | set(simulated_documents(new)))
    print(f"{len(differing)} of {total} simulated documents differ")
    if differing:
        sys.exit(1)


def best_row(bench):
    """The result row with the highest throughput in a bench document."""
    return max(bench["results"], key=lambda r: r["throughput_ops_per_ms"])


def render_report(benches, source_name):
    """Markdown summary of a merged file: best row per (bench, backend)."""
    by_name = {}
    for bench in benches:
        entry = by_name.setdefault(bench["bench"], {"figure": bench["figure"],
                                                    "description": bench["description"]})
        entry[bench.get("backend", "sim")] = bench
    lines = [
        "# Benchmark results",
        "",
        "<!-- Generated file, do not edit. Regenerate with:",
        "       bench/run_all.sh --with-native --with-processes --native-cores 4",
        f"       tools/bench_json.py report {source_name} --out docs/BENCHMARKS.md -->",
        "",
        "Best-throughput scenario per bench and backend, rendered from the",
        f"committed `{source_name}`. Simulator rows are deterministic modelled",
        "time (reproducible to the byte under a fixed seed); threads and",
        "processes rows are wall-clock measurements from whatever host produced",
        "the file and are comparable only to themselves.",
        "",
        "| Bench | Figure | Best sim scenario | Sim ops/ms | Commit % "
        "| Best threads scenario | Threads ops/ms "
        "| Best processes scenario | Processes ops/ms |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    total_rows = 0
    any_smoke = False
    for name in sorted(by_name):
        entry = by_name[name]
        cells = [name, entry["figure"]]
        for backend in BACKENDS:
            bench = entry.get(backend)
            if bench is None:
                cells += ["—", "—", "—"] if backend == "sim" else ["—", "—"]
                continue
            total_rows += len(bench["results"])
            any_smoke = any_smoke or bench.get("smoke", False)
            best = best_row(bench)
            cells += [f"`{best['scenario']}`", f"{best['throughput_ops_per_ms']:.2f}"]
            if backend == "sim":
                cells.append(f"{100.0 * best['commit_rate']:.1f}")
        lines.append("| " + " | ".join(cells) + " |")
    lines += [
        "",
        f"{len(by_name)} benches, {total_rows} result rows in the source file.",
    ]
    if any_smoke:
        lines += ["", "**Warning:** contains smoke-mode rows (CI-sized sweeps), "
                      "not full-length runs."]
    lines.append("")
    return "\n".join(lines)


def cmd_report(args):
    benches = load_benches(args.input)
    for bench in benches:
        check_bench(bench)
    text = render_report(benches, os.path.basename(args.input))
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out} ({len(benches)} bench documents)")
    else:
        print(text, end="")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    merge = sub.add_parser("merge")
    merge.add_argument("--out", required=True)
    merge.add_argument("--smoke", action="store_true")
    merge.add_argument("inputs", nargs="+")
    merge.set_defaults(fn=cmd_merge)
    validate = sub.add_parser("validate")
    validate.add_argument("input")
    validate.set_defaults(fn=cmd_validate)
    compare = sub.add_parser("compare")
    compare.add_argument("old")
    compare.add_argument("new")
    compare.add_argument("--max-regress", type=float, default=15.0,
                         help="tolerated throughput drop per group, percent")
    compare.add_argument("--gate-native", action="store_true",
                         help="fail on wall-clock (threads/processes) regressions too")
    compare.set_defaults(fn=cmd_compare)
    report = sub.add_parser("report")
    report.add_argument("input")
    report.add_argument("--out", help="output path (default: stdout)")
    report.set_defaults(fn=cmd_report)
    identical = sub.add_parser("identical")
    identical.add_argument("old")
    identical.add_argument("new")
    identical.set_defaults(fn=cmd_identical)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
