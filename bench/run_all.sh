#!/usr/bin/env bash
# Runs every bench binary and merges their per-binary JSON documents into
# one BENCH_results.json so the perf trajectory can be tracked PR-over-PR.
#
#   bench/run_all.sh [--smoke] [--with-native] [--with-processes]
#                    [--native-cores N] [--build-dir DIR] [--out FILE]
#                    [extra bench flags...]
#
#   --smoke         forward --smoke to every bench (CI-sized sweeps)
#   --with-native   additionally run the native-capable benches with
#                   --backend=threads (real OS threads, wall-clock rows);
#                   both row kinds land side by side in the merged file
#   --with-processes additionally run the processes-capable benches with
#                   --backend=processes (forked partition servers over
#                   shared-memory rings, wall-clock rows); their WAL scratch
#                   dirs land in this script's temp dir and vanish with it
#   --native-cores  pin --cores for the native and processes passes only
#                   (both spawn one OS thread or process per core — size
#                   them to the host)
#   --build-dir     where the bench binaries live      (default: build)
#   --out           merged results file                (default: BENCH_results.json)
#
# Any remaining arguments are forwarded verbatim to every bench binary
# (e.g. --cores=8 --duration-ms=2).
set -euo pipefail

BENCHES=(
  bench_ablation_batching
  bench_ablation_durability
  bench_ablation_pipeline
  bench_ablation_skew
  bench_elastic
  bench_fig4a_deployment
  bench_fig4b_speedup
  bench_fig4c_eager_lazy
  bench_fig5a_cm_effect
  bench_fig5b_service_cores
  bench_fig5c_cm_compare
  bench_fig5d_locks
  bench_fig6_mapreduce
  bench_fig7_elastic
  bench_fig8_port
  bench_fig8a_latency
  bench_micro
  bench_platforms
  bench_tpcc
  bench_ycsb
)

build_dir=build
out=BENCH_results.json
smoke=""
with_native=""
with_processes=""
native_cores=""
extra=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke="--smoke"; shift ;;
    --with-native) with_native=1; shift ;;
    --with-processes) with_processes=1; shift ;;
    --native-cores) native_cores="$2"; shift 2 ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) extra+=("$1"); shift ;;
  esac
done

script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo_root="$(dirname "$script_dir")"
json_dir="$(mktemp -d)"
trap 'rm -rf "$json_dir"' EXIT

for bench in "${BENCHES[@]}"; do
  bin="$build_dir/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (run: cmake -B $build_dir -S . && cmake --build $build_dir -j)" >&2
    exit 1
  fi
  echo "=== $bench ==="
  "$bin" $smoke --json "$json_dir/$bench.json" ${extra[@]+"${extra[@]}"}
done

if [[ -n "$with_native" ]]; then
  # Each binary knows whether it was registered with
  # TM2C_REGISTER_BENCH_NATIVE; probe instead of maintaining a second list.
  for bench in "${BENCHES[@]}"; do
    if ! "$build_dir/$bench" --native-capable; then
      continue
    fi
    echo "=== $bench (native) ==="
    # --native-cores comes last so it overrides a forwarded --cores.
    "$build_dir/$bench" $smoke --backend=threads \
      --json "$json_dir/$bench.native.json" ${extra[@]+"${extra[@]}"} \
      ${native_cores:+--cores "$native_cores"}
  done
fi

if [[ -n "$with_processes" ]]; then
  for bench in "${BENCHES[@]}"; do
    if ! "$build_dir/$bench" --processes-capable; then
      continue
    fi
    echo "=== $bench (processes) ==="
    # TMPDIR points the per-system WAL run dirs into our scratch
    # space: a bench removes its own when it exits, and the EXIT trap
    # removes those of a bench that aborted.
    TMPDIR="$json_dir" "$build_dir/$bench" $smoke --backend=processes \
      --json "$json_dir/$bench.processes.json" ${extra[@]+"${extra[@]}"} \
      ${native_cores:+--cores "$native_cores"}
  done
fi

python3 "$repo_root/tools/bench_json.py" merge \
  --out "$out" $( [[ -n "$smoke" ]] && echo --smoke ) "$json_dir"/*.json
python3 "$repo_root/tools/bench_json.py" validate "$out"
echo "wrote $out"
