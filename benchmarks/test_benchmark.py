"""Self-tests of the benchmark: it must catch wrong output and trace cleanly.

    python3 -m unittest discover -s benchmarks -p 'test_*.py'

Takes about 30 s: one real ``statecount verify`` run and a few CLI
invocations.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


class VerifyExpectationTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        _, proc = run.timed_run([sys.executable, *run.VERIFY_ARGV], run.ROOT)
        cls.report, cls.exit_code = proc.stdout, proc.returncode
        cls.expected = run.load_expected()

    def problems(self, report: str, expected: dict | None = None, exit_code: int | None = None):
        return run.report_problems(report, self.exit_code if exit_code is None else exit_code,
                                   expected or self.expected)

    def test_recorded_report_passes(self):
        self.assertEqual(self.problems(self.report), [])
        self.assertEqual(len(self.expected["verify_rows"]), 251)

    def test_added_notes_and_oracle_values_are_not_failures(self):
        extended = "\n".join(
            line + " oracle=1 note: extra" if line.startswith("[") else line
            for line in self.report.splitlines())
        self.assertEqual(self.problems(extended), [])

    def test_corrupted_expectations_are_caught(self):
        def corrupt(edit):
            expected = copy.deepcopy(self.expected)
            edit(expected)
            return self.problems(self.report, expected)

        self.assertTrue(corrupt(lambda e: e["verify_rows"][0].__setitem__(1, "mismatch")))
        self.assertTrue(corrupt(lambda e: e["verify_rows"][7].__setitem__(2, "12345")))
        self.assertTrue(corrupt(lambda e: e["verify_rows"].pop()))
        self.assertTrue(corrupt(lambda e: e.__setitem__("verify_summary", "summary: x")))
        self.assertTrue(corrupt(lambda e: e["totals"].__setitem__("jg.total", "1")))

    def test_wrong_exit_code_or_output_is_caught(self):
        self.assertTrue(self.problems(self.report, exit_code=1))
        wrong = self.report.replace("computed=7583767311308936928441671793917387439659",
                                    "computed=7583767311308936928441671793917387439658")
        self.assertTrue(self.problems(wrong))


class CliExpectationTest(unittest.TestCase):
    def run_main(self, expected: dict) -> tuple[int, dict, dict]:
        out = io.StringIO()
        original = run.load_expected
        run.load_expected = lambda: expected
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "cli-tables", "--seed", "5", "--seconds", "0"])
        finally:
            run.load_expected = original
        lines = out.getvalue().strip().splitlines()
        detail = next(json.loads(line[8:]) for line in lines if line.startswith("detail: "))
        return code, json.loads(lines[-1]), detail["figures"]

    def test_corrupted_digest_makes_failed_frac_nonzero_and_exit_nonzero(self):
        expected = copy.deepcopy(run.load_expected())
        key = "table --variant janggi --table t6 --format csv"
        expected["cli_sha256"][key] = "0" * 64
        code, result, figures = self.run_main(expected)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(figures["failed_frac"], 0)
        self.assertGreaterEqual(result["attempted"], 100)

    def test_cases_cover_every_count_and_table(self):
        self.assertEqual(len(run.CLI_CASES), 28)
        self.assertEqual({" ".join(c) for c in run.CLI_CASES},
                         set(run.load_expected()["cli_sha256"]))


class TracerTest(unittest.TestCase):
    def test_patches_every_binding_and_restores_them(self):
        from statecount import combinatorics, janggi, verify, xiangqi
        originals = (verify.binom, xiangqi.pair_fill_count, xiangqi.xq_positions)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for module in (verify, xiangqi, janggi):
                self.assertIsNot(module.binom, originals[0])
                self.assertIs(module.binom, combinatorics.binom)
            self.assertIs(xiangqi.pair_fill_count, combinatorics.pair_fill_count)
            xiangqi.xq_positions.cache_clear()
            self.assertEqual(xiangqi.xq_positions.cache_info().currsize, 0)
            tracing.clear_closed_form_caches()
            xiangqi.xq_grand_total()
            metrics = tracing.layer_metrics(tracer, tracing.lru_hits_misses("xiangqi"))
            overhead_s = tracing.overhead_s(tracer)
        finally:
            tracer.uninstall()
        self.assertEqual((verify.binom, xiangqi.pair_fill_count, xiangqi.xq_positions),
                         originals)
        self.assertEqual(metrics["xiangqi.xq_positions.calls"], 19)
        self.assertGreater(overhead_s, 0)
        self.assertGreater(metrics["combinatorics.binom.calls"], 0)
        self.assertLessEqual(metrics["xiangqi.xq_positions.s"], metrics["xiangqi.xq_grand_total.s"])


class HostSpeedTest(unittest.TestCase):
    def test_scales_by_the_probes_around_an_interval(self):
        speed = run.HostSpeed()
        speed.probes = [(10.0, 0.002), (10.3, 0.004), (20.0, 0.0005)]
        nominal = run.NOMINAL_PROBE_S
        self.assertAlmostEqual(speed.scaled(10.1, 0.1), 0.1 * nominal / 0.003)
        self.assertAlmostEqual(speed.scaled(9.8, 0.05), 0.05 * nominal / 0.002)
        self.assertAlmostEqual(speed.scaled(30.0, 1.0), 1.0 * nominal / 0.0005)

    def test_probes_on_one_cpu_and_restores_affinity(self):
        before = os.sched_getaffinity(0)
        with run.HostSpeed() as speed:
            self.assertEqual(len(os.sched_getaffinity(0)), 1)
            time.sleep(0.35)
        self.assertEqual(os.sched_getaffinity(0), before)
        self.assertGreaterEqual(len(speed.probes), 3)
        self.assertTrue(all(d > 0 for _, d in speed.probes))


class ContractTest(unittest.TestCase):
    spec = run.benchmark_spec()

    def test_benchmark_json_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))
        for metric in self.spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_every_per_layer_metric_is_produced(self):
        tracer = tracing.Tracer()
        produced = set(tracing.layer_metrics(tracer, (0, 0)))
        produced |= {"import.statecount_cli.s", "interp.s", "trace.overhead_ms"}
        for metric in self.spec["per_layer"]:
            self.assertIn(metric["name"], produced)

    def test_refuses_a_checkout_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=BENCH_DIR) as empty:
            err = io.StringIO()
            out = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = run.main(["--workload", "cli-tables", "--seconds", "1", "--root", empty])
        self.assertNotEqual(code, 0)
        self.assertNotIn("correct", out.getvalue())

    def test_commit_is_unknown_outside_a_git_work_tree(self):
        with tempfile.TemporaryDirectory(dir=BENCH_DIR) as empty:
            self.assertEqual(run.commit_hash(Path(empty)), "unknown")


class CompareTest(unittest.TestCase):
    def test_a_failing_side_stops_with_a_message(self):
        with tempfile.TemporaryDirectory(dir=BENCH_DIR) as empty:
            with self.assertRaises(SystemExit) as stop:
                compare.run_side(empty, "cli-tables", 1)
        self.assertIn("run failed (exit 2)", str(stop.exception.code))
        self.assertIn("no statecount sources", str(stop.exception.code))


class VerdictTest(unittest.TestCase):
    def test_rules(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        faster = [v * 0.8 for v in parent]
        self.assertEqual(compare.verdict(parent, faster, 0.1, "lower")["verdict"], "better")
        self.assertEqual(compare.verdict(parent, [v * 1.3 for v in parent], 0.1, "lower")
                         ["verdict"], "worse")
        self.assertEqual(compare.verdict(parent, list(parent), 0.1, "lower")["verdict"], "same")
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(compare.verdict(noisy, list(noisy), 0.1, "lower")["verdict"],
                         "unresolved")
        self.assertEqual(compare.verdict(parent, faster, 0.1, "higher")["verdict"], "worse")


if __name__ == "__main__":
    unittest.main()
