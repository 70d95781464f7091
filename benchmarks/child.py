"""Work that has to run inside a fresh statecount process.

``run.py`` spawns this script with ``PYTHONPATH`` set to the checkout's
``src`` directory; each mode prints one JSON object as its last line.

    child.py warm BUDGET_S TRACE   run_verify("all") untimed, then timed calls
    child.py trace-verify          traced ``statecount verify --scope all``
    child.py trace-cli CASES ROUNDS  traced CLI rounds in-process

Traced modes report ``trace.overhead_ms`` per sample of the workload's
latency (one verify call, one CLI invocation), estimated by
``tracer.overhead_s``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time

import tracer as tracing


def _report_of(result) -> str:
    from statecount import verify
    return verify.format_report(result) + "\n"


def warm(budget_s: float, traced: bool) -> dict:
    """Time the second and later ``run_verify("all")`` calls of one process.

    Untraced: timed calls continue while the run then ends nearer to
    ``budget_s`` seconds.  Each call is reported as its ``perf_counter``
    start and end (CLOCK_MONOTONIC on Linux, shared by all processes), so that
    ``run.py`` can scale it by the probes it took in that interval.
    Traced: the first call is traced too (so repeated oracle calls are
    recognised) and the second is the traced sample.
    """
    started = time.perf_counter()
    from statecount import verify
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    _report_of(verify.run_verify("all"))
    windows, reports = [], []
    out: dict = {}
    while True:
        tracer.reset()
        xq_before = tracing.lru_hits_misses("xiangqi")
        t0 = time.perf_counter()
        result = verify.run_verify("all")
        windows.append([t0, time.perf_counter()])
        reports.append(_report_of(result))
        if traced:
            xq_after = tracing.lru_hits_misses("xiangqi")
            out["layers"] = tracing.layer_metrics(
                tracer, (xq_after[0] - xq_before[0], xq_after[1] - xq_before[1]))
            out["layers"]["trace.overhead_ms"] = tracing.overhead_s(tracer) * 1000
            tracer.uninstall()
            break
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(end - start for start, end in windows) / 2 > budget_s:
            break
    out.update(windows=windows, reports=reports)
    return out


def trace_verify() -> dict:
    """A traced ``statecount verify --scope all`` run in this process."""
    from statecount import cli
    tracer = tracing.Tracer()
    tracer.install()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["verify", "--scope", "all"])
    layers = tracing.layer_metrics(tracer, tracing.lru_hits_misses("xiangqi"))
    layers["trace.overhead_ms"] = tracing.overhead_s(tracer) * 1000
    return {"exit": code, "report": buffer.getvalue(), "layers": layers}


def _cli_call(cli, argv: list[str]) -> list:
    """One case through ``cli.main`` with cold closed-form caches."""
    tracing.clear_closed_form_caches()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return [" ".join(argv), code, hashlib.sha256(buffer.getvalue().encode()).hexdigest()]


def trace_cli(cases: list[list[str]], rounds: int) -> dict:
    from statecount import cli
    tracer = tracing.Tracer()
    tracer.install()
    outputs: list[list] = []
    hits = misses = 0
    for _ in range(rounds):
        for argv in cases:
            outputs.append(_cli_call(cli, argv))
            h, m = tracing.lru_hits_misses("xiangqi")
            hits, misses = hits + h, misses + m
    tracer.uninstall()
    layers = tracing.layer_metrics(tracer, (hits, misses), units=rounds)
    layers["trace.overhead_ms"] = tracing.overhead_s(tracer) * 1000 / (rounds * len(cases))
    return {"layers": layers, "outputs": outputs}


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "warm":
        record = warm(float(argv[1]), argv[2] == "1")
    elif mode == "trace-verify":
        record = trace_verify()
    elif mode == "trace-cli":
        record = trace_cli(json.loads(argv[1]), int(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
