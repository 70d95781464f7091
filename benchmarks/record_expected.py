"""Write expected.json: the outputs every benchmark run is checked against.

    python3 benchmarks/record_expected.py

Records, from the checkout's own ``src``: the 251 (quantity id, verdict,
computed) rows and the summary line of ``statecount verify --scope all``,
and a SHA-256 of the stdout of each of the 28 cli-tables invocations.  The
two grand totals are spelled out here and must equal the recomputation.
Expectations change only with a deliberate change of the program's output.
"""
from __future__ import annotations

import hashlib
import json
import sys

import run

TOTALS = {
    "xq.total": "7583767311308936928441671793917387439659",
    "jg.total": "2870116040986980773201799732849914138750908392",
}


def main() -> int:
    _, proc = run.timed_run([sys.executable, *run.VERIFY_ARGV], run.ROOT)
    rows = [[m.group(2), m.group(1), m.group(4)]
            for m in map(run._ROW.match, proc.stdout.splitlines()) if m]
    expected = {
        "verify_rows": rows,
        "verify_summary": proc.stdout.rstrip("\n").rsplit("\n", 1)[-1],
        "totals": TOTALS,
        "cli_sha256": {},
    }
    for argv in run.CLI_CASES:
        _, cli = run.timed_run([sys.executable, "-m", "statecount.cli", *argv], run.ROOT)
        if cli.returncode != 0:
            raise SystemExit(f"{argv} exited {cli.returncode}")
        expected["cli_sha256"][" ".join(argv)] = hashlib.sha256(cli.stdout.encode()).hexdigest()
    problems = run.report_problems(proc.stdout, proc.returncode, expected)
    if problems or len(rows) != 251:
        raise SystemExit(f"verify output is not as published: {problems[:5]}, {len(rows)} rows")
    (run.BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
