"""The statecount benchmark: one closed-loop client, one process at a time.

    python3 benchmarks/run.py --workload verify-cold --seed 1 --seconds 32 --trace 0
    python3 benchmarks/run.py --all [--trace 1] [--record benchmarks/trajectory.jsonl]

Workloads (see benchmarks/README.md for why each exists):

* ``verify-cold``: a fresh ``statecount verify --scope all`` process per sample.
* ``verify-warm``: one process runs ``run_verify("all")`` once untimed, then
  times the following calls.
* ``cli-tables``: rounds of 28 fresh ``count``/``table`` processes, in an
  order shuffled by ``--seed``.

Timed runs pin themselves and every process they start to one CPU, where a
thread times a fixed probe; each timed interval is scaled by the probe to the
speed of an uncontended core (see ``HostSpeed``).  Every output is checked
against ``expected.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``).  The exit code is 0 only when
every output was correct.  Run from the root of a statecount checkout; the
program is imported from its ``src`` directory, never from site-packages.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from itertools import product
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 11
TRACE_CLI_ROUNDS = 5
PROBE_INTERVAL_S = 0.1
PROBE_PAD_S = 0.25
NOMINAL_PROBE_S = 0.001

CLI_TABLES = {
    "xiangqi": ("t1", "t2", "t3", "t4", "t5", "klist", "slist", "geometry"),
    "janggi": ("t6", "klist", "slist", "geometry"),
}
CLI_CASES = [
    ["count", "--variant", variant, "--format", fmt]
    for variant in CLI_TABLES for fmt in ("dec", "json")
] + [
    ["table", "--variant", variant, "--table", table, "--format", fmt]
    for variant, tables in CLI_TABLES.items() for table in tables for fmt in ("csv", "json")
]
_ROW = re.compile(r"^\[([a-z-]+)\] (\S+) paper=(\d+) computed=(\d+)")


class Failure(Exception):
    """The checkout cannot be benchmarked (e.g. it holds no program)."""


# --- correctness -----------------------------------------------------------

def load_expected(path: Path = BENCH_DIR / "expected.json") -> dict:
    return json.loads(path.read_text())


def report_problems(text: str, exit_code: int, expected: dict) -> list[str]:
    """Differences between a verify report and the recorded expectations.

    Rows are compared on (quantity id, verdict, computed value) only, so
    added notes or oracle values are not failures.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    rows = {}
    for line in text.splitlines():
        match = _ROW.match(line)
        if match:
            verdict, quantity_id, _, computed = match.groups()
            rows[quantity_id] = [verdict, computed]
    want = {qid: [verdict, computed] for qid, verdict, computed in expected["verify_rows"]}
    for qid in want.keys() | rows.keys():
        if rows.get(qid) != want.get(qid):
            problems.append(f"row {qid}: got {rows.get(qid)}, expected {want.get(qid)}")
    for qid, total in expected["totals"].items():
        if rows.get(qid, [None, None])[1] != total:
            problems.append(f"{qid} is not {total}")
    summary = text.rstrip("\n").rsplit("\n", 1)[-1]
    if summary != expected["verify_summary"]:
        problems.append(f"summary line {summary!r}")
    return problems


def cli_problems(key: str, exit_code: int, digest: str, expected: dict) -> list[str]:
    problems = [] if exit_code == 0 else [f"{key}: exit code {exit_code}"]
    if digest != expected["cli_sha256"].get(key):
        problems.append(f"{key}: output digest {digest[:12]} differs")
    return problems


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons += problems[: 5 - len(self.reasons)]


# --- host speed -------------------------------------------------------------

def probe_work() -> None:
    """A fixed pure-Python load of the kind the oracles run, about 1 ms."""
    for seq in product(range(4), repeat=5):
        if all(seq.count(symbol) <= 2 for symbol in set(seq)):
            pass


class HostSpeed:
    """The speed of the CPU the timed processes run on, while they run.

    The host shares its cores with other tenants, and a core's speed jumps
    between levels about 1.6x apart every few seconds, so raw wall times of
    the same work spread widely from run to run.  Inside this context the
    benchmark and every process it starts are pinned to one CPU, and a thread
    times ``probe_work`` there every ``PROBE_INTERVAL_S`` with its own CPU
    clock.  ``scaled(start, wall)`` converts a wall time measured from
    ``start`` into the time it takes on a core where the probe takes
    ``NOMINAL_PROBE_S``.  The probe is benchmark code, so a change to the
    program moves the scaled times as much as the raw ones.  Intervals are
    padded by ``PROBE_PAD_S`` on each side, so that a 0.1 s process start
    still has a few probes; a core's level holds for seconds.
    """

    def __enter__(self) -> "HostSpeed":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})
        self.probes: list[tuple[float, float]] = []
        self._probe()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _probe(self) -> None:
        t0 = time.thread_time()
        probe_work()
        self.probes.append((time.perf_counter(), time.thread_time() - t0))

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._probe()

    def scaled(self, start: float, wall: float) -> float:
        """``wall`` seconds from ``start`` at the nominal probe time."""
        low, high = start - PROBE_PAD_S, start + wall + PROBE_PAD_S
        inside = [d for t, d in self.probes if low <= t <= high] or [self.probes[-1][1]]
        return wall * NOMINAL_PROBE_S / statistics.mean(inside)


# --- processes --------------------------------------------------------------

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def timed_run(argv: list[str], root: Path) -> tuple[float, subprocess.CompletedProcess]:
    """Spawn one process and wait for it; wall seconds from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def child_json(argv: list[str], root: Path) -> tuple[float, dict]:
    wall, proc = timed_run([sys.executable, str(CHILD), *argv], root)
    if proc.returncode != 0:
        raise Failure(f"child {argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])


_PROBE = ("import time; t = time.perf_counter(); import statecount.cli, statecount; "
          "print(time.perf_counter() - t, statecount.__file__)")


def setup_probes(root: Path, speed: HostSpeed | None = None) -> dict:
    """Fresh interpreters, bare and importing ``statecount.cli``: medians.

    The first import is untimed: it checks that the program comes from this
    checkout and leaves the bytecode cache a user's second run would find.
    With ``speed``, ``setup_s`` is the median of the scaled set-up times.
    """
    if not (root / "src" / "statecount" / "cli.py").is_file():
        raise Failure(f"no statecount sources under {root / 'src'}")
    interp, setup, scaled, imports = [], [], [], []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        wall, proc = timed_run([sys.executable, "-c", _PROBE], root)
        if proc.returncode != 0:
            raise Failure(f"import statecount.cli failed: {proc.stderr[-2000:]}")
        import_s, module_file = proc.stdout.split()
        if not Path(module_file).resolve().is_relative_to((root / "src").resolve()):
            raise Failure(f"statecount imported from {module_file}, outside {root}")
        if i == 0:
            continue
        setup.append(wall)
        if speed:
            scaled.append(speed.scaled(start, wall))
        imports.append(float(import_s))
        interp.append(timed_run([sys.executable, "-c", "pass"], root)[0])
    figures = {
        "setup_wall_s": statistics.median(setup),
        "import.statecount_cli.s": statistics.median(imports),
        "interp.s": statistics.median(interp),
    }
    if speed:
        figures["setup_s"] = statistics.median(scaled)
    return figures


def another_fits(started: float, durations: list[float], seconds: float) -> bool:
    """Start another sample if the run then ends nearer to ``seconds``."""
    return time.perf_counter() - started + statistics.median(durations) / 2 <= seconds


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- workloads --------------------------------------------------------------

VERIFY_ARGV = ["-m", "statecount.cli", "verify", "--scope", "all"]


def verify_cold(root: Path, expected: dict, seconds: float, tally: Tally,
                speed: HostSpeed) -> dict:
    samples: list[float] = []
    scaled: list[float] = []
    started = time.perf_counter()
    while True:
        start = time.perf_counter()
        wall, proc = timed_run([sys.executable, *VERIFY_ARGV], root)
        tally.add(report_problems(proc.stdout, proc.returncode, expected))
        samples.append(wall)
        scaled.append(speed.scaled(start, wall))
        if not another_fits(started, samples, seconds):
            break
    return {"latency_ms": statistics.median(scaled) * 1000,
            "verify_s": statistics.median(samples), "samples_s": samples}


def verify_warm(root: Path, expected: dict, seconds: float, tally: Tally,
                speed: HostSpeed) -> dict:
    _, record = child_json(["warm", str(seconds), "0"], root)
    for report in record["reports"]:
        tally.add(report_problems(report, 0, expected))
    samples = [end - start for start, end in record["windows"]]
    scaled = [speed.scaled(start, end - start) for start, end in record["windows"]]
    return {"latency_ms": statistics.median(scaled) * 1000,
            "verify_warm_s": statistics.median(samples), "samples_s": samples}


def cli_rounds(seed: int):
    """Endless rounds of the 28 CLI cases, each round in a seeded order."""
    rng = random.Random(seed)
    while True:
        cases = [list(case) for case in CLI_CASES]
        rng.shuffle(cases)
        yield cases


def cli_tables(root: Path, expected: dict, seconds: float, tally: Tally,
               seed: int, speed: HostSpeed) -> dict:
    samples: list[float] = []
    scaled: list[float] = []
    round_s: list[float] = []
    started = time.perf_counter()
    for cases in cli_rounds(seed):
        t_round = time.perf_counter()
        for argv in cases:
            start = time.perf_counter()
            wall, proc = timed_run([sys.executable, "-m", "statecount.cli", *argv], root)
            digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
            tally.add(cli_problems(" ".join(argv), proc.returncode, digest, expected))
            samples.append(wall)
            scaled.append(speed.scaled(start, wall))
        round_s.append(time.perf_counter() - t_round)
        # p90 needs ten samples beyond it: at least 100 invocations
        if len(samples) >= 100 and not another_fits(started, round_s, seconds):
            break
    return {"latency_ms": statistics.median(scaled) * 1000,
            "cli_p50_ms": statistics.median(samples) * 1000,
            "cli_p90_ms": percentile(samples, 90) * 1000, "samples_s": samples}


# --- traced workloads -------------------------------------------------------

def trace_verify_cold(root: Path, expected: dict, tally: Tally) -> dict:
    wall, record = child_json(["trace-verify"], root)
    tally.add(report_problems(record["report"], record["exit"], expected))
    # spawn to exit of the traced process, which holds every span
    return record["layers"] | {"verify_traced_s": wall}


def trace_verify_warm(root: Path, expected: dict, tally: Tally) -> dict:
    _, record = child_json(["warm", "0", "1"], root)
    for report in record["reports"]:
        tally.add(report_problems(report, 0, expected))
    return record["layers"]


def trace_cli_tables(root: Path, expected: dict, tally: Tally, seed: int) -> dict:
    cases = next(cli_rounds(seed))
    _, record = child_json(["trace-cli", json.dumps(cases), str(TRACE_CLI_ROUNDS)], root)
    for key, code, digest in record["outputs"]:
        tally.add(cli_problems(key, code, digest, expected))
    return record["layers"]


WORKLOADS = ("verify-cold", "verify-warm", "cli-tables")


def timed_workload(name: str, root: Path, seed: int, seconds: float, tally: Tally,
                   expected: dict) -> dict:
    """End-to-end figures, every time scaled by the probe of its interval."""
    with HostSpeed() as speed:
        figures = setup_probes(root, speed)
        if name == "verify-cold":
            figures |= verify_cold(root, expected, seconds, tally, speed)
        elif name == "verify-warm":
            figures |= verify_warm(root, expected, seconds, tally, speed)
        else:
            figures |= cli_tables(root, expected, seconds, tally, seed, speed)
    figures["host.probe_ms"] = statistics.median([d for _, d in speed.probes]) * 1000
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return figures


def traced_workload(name: str, root: Path, seed: int, tally: Tally, expected: dict) -> dict:
    figures = setup_probes(root)
    if name == "verify-cold":
        figures |= trace_verify_cold(root, expected, tally)
    elif name == "verify-warm":
        figures |= trace_verify_warm(root, expected, tally)
    else:
        figures |= trace_cli_tables(root, expected, tally, seed)
    return figures


def run_workload(name: str, root: Path, seed: int, seconds: float, trace: bool,
                 expected: dict) -> tuple[Tally, dict]:
    """All figures of one run: end-to-end or per-layer, plus set-up."""
    tally = Tally()
    if trace:
        figures = traced_workload(name, root, seed, tally, expected)
    else:
        figures = timed_workload(name, root, seed, seconds, tally, expected)
    figures["failed_frac"] = tally.failed / tally.attempted
    return tally, figures


# --- reporting --------------------------------------------------------------

def benchmark_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def commit_hash(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit_hash(root), "loadavg_start": loadavg}


def result_line(tally: Tally, figures: dict, metrics_spec: list[dict]) -> dict:
    metrics = {}
    for spec in metrics_spec:
        metrics[spec["name"]] = {"value": figures[spec["name"]], "unit": spec["unit"]}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_one(args: argparse.Namespace) -> int:
    root = Path(args.root).resolve()
    spec = benchmark_spec()
    env = environment(root)
    tally, figures = run_workload(args.workload, root, args.seed, args.seconds,
                                  bool(args.trace), load_expected())
    env["interp.s"] = figures["interp.s"]
    samples = figures.pop("samples_s", [])
    figures["samples"] = len(samples)
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    for name in sorted(figures):
        print(f"{name} = {figures[name]:.6g}")
    result = result_line(tally, figures, spec["per_layer" if args.trace else "end_to_end"])
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "figures": figures,
              "samples_s": [round(s, 6) for s in samples]}
    print("detail: " + json.dumps(detail))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({**detail, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process, and one table of results."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--root", args.root]
        if args.record:
            argv += ["--record", args.record]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        detail = next((json.loads(line[8:]) for line in lines if line.startswith("detail: ")),
                      None)
        if proc.returncode != 0 or detail is None:
            status = 1
            print(f"{workload}: FAILED (exit {proc.returncode})")
            print("\n".join(line for line in lines if line.startswith("FAILED")) or proc.stderr[-2000:])
            if detail is None:
                continue
        result = json.loads(lines[-1])
        print(f"== {workload}  attempted={result['attempted']} failed={result['failed']} "
              f"env={json.dumps(detail['env'])}")
        shown = dict(result["metrics"])
        figures = detail["figures"]
        for name in ("verify_s", "verify_traced_s", "verify_warm_s", "cli_p50_ms",
                     "cli_p90_ms", "setup_wall_s", "host.probe_ms", "samples"):
            if name in figures:
                unit = {"cli_p50_ms": "ms", "cli_p90_ms": "ms", "host.probe_ms": "ms",
                        "samples": "count"}.get(name, "s")
                shown[name] = {"value": figures[name], "unit": unit}
        shown["failed_frac"] = {"value": figures["failed_frac"], "unit": "ratio"}
        for name, metric in shown.items():
            print(f"   {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=str(ROOT), help="checkout holding src/statecount")
    parser.add_argument("--record", help="append a JSON line per run to this file")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = benchmark_spec()["run_seconds"]
        return run_all(args) if args.all else run_one(args)
    except (Failure, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
