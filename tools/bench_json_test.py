#!/usr/bin/env python3
"""Unit tests for tools/bench_json.py.

Focused on the compare-grouping policy (which rows count towards the
regression baseline) and on what `identical` calls a differing
simulated document. Registered with CTest (see CMakeLists.txt) so the
gating logic is itself gated.

  python3 tools/bench_json_test.py
"""
import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_json


def row(tput, **params):
    return {
        "scenario": " ".join(f"{k}={v}" for k, v in params.items()) or "default",
        "params": {k: str(v) for k, v in params.items()},
        "throughput_ops_per_ms": tput,
        "commit_rate": 1.0,
        "abort_rate": 0.0,
        "commits": 100,
        "aborts": 0,
        "latency_us": {"p50": 1.0, "p95": 2.0, "p99": 3.0, "mean": 1.5, "samples": 100},
        "extra": {},
    }


def bench(name, results, backend="sim"):
    return {
        "bench": name,
        "figure": "test",
        "description": "test bench",
        "schema_version": bench_json.SCHEMA_VERSION,
        "backend": backend,
        "smoke": False,
        "results": results,
    }


class ThroughputGroupsTest(unittest.TestCase):
    def test_groups_mean_per_bench_backend_platform(self):
        groups = bench_json.throughput_groups([
            bench("a", [row(10.0, platform="scc"), row(20.0, platform="scc")]),
            bench("a", [row(40.0, platform="scc")], backend="threads"),
        ])
        self.assertEqual(groups[("a", "sim", "scc", "-")], 15.0)
        self.assertEqual(groups[("a", "threads", "scc", "-")], 40.0)

    def test_processes_rows_form_their_own_group(self):
        # The same bench measured on all three backends must yield three
        # separate compare groups: processes rows gate against processes
        # history, never against the sim or threads numbers.
        groups = bench_json.throughput_groups([
            bench("a", [row(10.0, platform="scc")]),
            bench("a", [row(40.0, platform="scc")], backend="threads"),
            bench("a", [row(25.0, platform="scc")], backend="processes"),
        ])
        self.assertEqual(groups[("a", "sim", "scc", "-")], 10.0)
        self.assertEqual(groups[("a", "threads", "scc", "-")], 40.0)
        self.assertEqual(groups[("a", "processes", "scc", "-")], 25.0)

    def test_excludes_pipelined_rows_but_keeps_depth_one(self):
        groups = bench_json.throughput_groups([
            bench("p", [row(10.0, pipeline_depth=1), row(99.0, pipeline_depth=4)]),
        ])
        self.assertEqual(groups[("p", "sim", "-", "-")], 10.0)

    def test_excludes_migration_rows(self):
        # bench_elastic's rows all carry migration=1: its saturated and
        # mid-migration phases must not drag a regression group.
        groups = bench_json.throughput_groups([
            bench("elastic", [row(36.0, policy="static", migration=1),
                              row(80.0, policy="elastic", migration=1)]),
            bench("ycsb", [row(50.0)]),
        ])
        self.assertNotIn(("elastic", "sim", "-", "-"), groups)
        self.assertEqual(groups[("ycsb", "sim", "-", "-")], 50.0)

    def test_migration_zero_or_absent_rows_still_count(self):
        groups = bench_json.throughput_groups([
            bench("m", [row(10.0, migration=0), row(30.0)]),
        ])
        self.assertEqual(groups[("m", "sim", "-", "-")], 20.0)

    def test_mixed_bench_only_marked_rows_excluded(self):
        groups = bench_json.throughput_groups([
            bench("mix", [row(10.0), row(99.0, migration=1)]),
        ])
        self.assertEqual(groups[("mix", "sim", "-", "-")], 10.0)

    def test_index_param_is_a_grouping_dimension(self):
        # Hash and btree rows are both legitimate baselines — each against
        # its own history. Adding btree rows to a sweep must not shift the
        # pre-existing hash group's mean.
        groups = bench_json.throughput_groups([
            bench("ycsb_kv", [row(10.0, index="hash"), row(20.0, index="hash"),
                              row(4.0, index="btree")]),
        ])
        self.assertEqual(groups[("ycsb_kv", "sim", "-", "hash")], 15.0)
        self.assertEqual(groups[("ycsb_kv", "sim", "-", "btree")], 4.0)
        self.assertNotIn(("ycsb_kv", "sim", "-", "-"), groups)

    def test_excludes_scan_len_rows_but_keeps_point_ops(self):
        # YCSB-E rows carry scan_len; their throughput tracks the swept
        # scan length, so only the point-op rows form the baseline.
        groups = bench_json.throughput_groups([
            bench("ycsb_kv", [row(50.0, index="hash"),
                              row(9.0, index="hash", scan_len=8),
                              row(2.0, index="hash", scan_len=64)]),
        ])
        self.assertEqual(groups[("ycsb_kv", "sim", "-", "hash")], 50.0)

    def test_scan_len_zero_or_absent_rows_still_count(self):
        groups = bench_json.throughput_groups([
            bench("s", [row(10.0, scan_len=0), row(30.0)]),
        ])
        self.assertEqual(groups[("s", "sim", "-", "-")], 20.0)


class CompareGateTest(unittest.TestCase):
    """Wall-clock (threads/processes) regressions advise; sim ones gate."""

    def _compare(self, old_benches, new_benches, gate_native=False):
        with tempfile.TemporaryDirectory() as d:
            old_path = os.path.join(d, "old.json")
            new_path = os.path.join(d, "new.json")
            for path, benches in ((old_path, old_benches), (new_path, new_benches)):
                with open(path, "w") as f:
                    json.dump({"schema_version": bench_json.SCHEMA_VERSION,
                               "benches": benches}, f)
            args = argparse.Namespace(old=old_path, new=new_path,
                                      max_regress=15.0, gate_native=gate_native)
            with contextlib.redirect_stdout(io.StringIO()):
                bench_json.cmd_compare(args)

    def test_processes_regression_is_advisory_by_default(self):
        old = [bench("a", [row(100.0)], backend="processes")]
        new = [bench("a", [row(40.0)], backend="processes")]
        self._compare(old, new)  # must not raise SystemExit

    def test_processes_regression_gates_with_gate_native(self):
        old = [bench("a", [row(100.0)], backend="processes")]
        new = [bench("a", [row(40.0)], backend="processes")]
        with self.assertRaises(SystemExit):
            self._compare(old, new, gate_native=True)

    def test_sim_regression_always_gates(self):
        old = [bench("a", [row(100.0)])]
        new = [bench("a", [row(40.0)])]
        with self.assertRaises(SystemExit):
            self._compare(old, new)


class IdenticalTest(unittest.TestCase):
    """`identical` compares simulated documents and skips host-timed ones."""

    def _identical(self, old_benches, new_benches):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, benches in (("old.json", old_benches), ("new.json", new_benches)):
                path = os.path.join(d, name)
                with open(path, "w") as f:
                    json.dump({"schema_version": bench_json.SCHEMA_VERSION,
                               "benches": benches}, f)
                paths.append(path)
            out = io.StringIO()
            args = argparse.Namespace(old=paths[0], new=paths[1])
            with contextlib.redirect_stdout(out):
                try:
                    bench_json.cmd_identical(args)
                    status = 0
                except SystemExit as e:
                    status = e.code
            return status, out.getvalue()

    def test_equal_inputs_are_identical(self):
        docs = [bench("a", [row(10.0)]), bench("b", [row(20.0)])]
        status, out = self._identical(docs, json.loads(json.dumps(docs)))
        self.assertEqual(status, 0)
        self.assertIn("0 of 2 simulated documents differ", out)

    def test_a_changed_row_or_a_missing_document_differs(self):
        old = [bench("a", [row(10.0)]), bench("b", [row(20.0)]), bench("c", [row(5.0)])]
        new = [bench("a", [row(10.0)]), bench("b", [row(20.5)])]
        status, out = self._identical(old, new)
        self.assertEqual(status, 1)
        self.assertIn("differs: b (sim)", out)
        self.assertIn("differs: c (sim)", out)
        self.assertNotIn("differs: a", out)
        self.assertIn("2 of 3 simulated documents differ", out)

    def test_host_timed_rows_are_skipped(self):
        host_old = bench("micro", [row(10.0)])
        host_old["figure"] = "host"
        host_new = bench("micro", [row(99.0)])
        host_new["figure"] = "host"
        old = [bench("a", [row(10.0)]), host_old, bench("a", [row(1.0)], backend="threads")]
        new = [bench("a", [row(10.0)]), host_new, bench("a", [row(2.0)], backend="threads")]
        status, out = self._identical(old, new)
        self.assertEqual(status, 0)
        self.assertIn("0 of 1 simulated documents differ", out)


class SchemaCheckTest(unittest.TestCase):
    def test_valid_document_passes(self):
        bench_json.check_bench(bench("ok", [row(1.0)]))

    def test_processes_backend_is_valid(self):
        bench_json.check_bench(bench("ok", [row(1.0)], backend="processes"))

    def test_unknown_backend_fails(self):
        with self.assertRaises(SystemExit):
            bench_json.check_bench(bench("bad", [row(1.0)], backend="fibers"))

    def test_missing_field_fails(self):
        bad = bench("bad", [row(1.0)])
        del bad["results"][0]["latency_us"]
        with self.assertRaises(SystemExit):
            bench_json.check_bench(bad)


if __name__ == "__main__":
    unittest.main()
