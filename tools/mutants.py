"""Mutation census: apply one small mutation at a time to a module and see
whether the tests notice.  A mutant the tests miss is dead code or a
missing check.

    python3 tools/mutants.py src/statecount/verify.py --first tests/test_verify.py

The operators: swap ``+``/``-``, ``*`` -> ``+``, ``//`` -> ``*``,
``**`` -> ``*``, ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
``in``/``not in``, ``and``/``or``, or add 1 to an integer literal.

The checkout is copied once into a temporary directory; each mutant is
written there with ``ast.unparse`` and ``pytest -x -q`` runs in the copy,
so the checkout itself is never written.  The unmutated module, unparsed
the same way, must pass first.  ``--first``, which may be repeated, puts
the fastest killers at the head of the run; every other
``tests/test_*.py`` file follows.

A mutant's run is stopped, and the mutant counted as killed (``"timeout"``),
once it takes ``TIMEOUT_FACTOR`` times as long as the unmutated run: such a
mutant loops, or widens a walk past any bound the tests can wait for.  A
mutant may also slow the code it touches without making it wrong.  In two
``oracle.py`` censuses, whose unmutated runs took 16.3 and 17.0 s, the
slowest such survivor, ``most > 0`` -> ``most >= 0`` in ``oracle._subsets``,
took 26.7 and 22.6 s, at most 1.6 times as long, and each core of a shared
2-core host switches between two speeds about 1.6x apart: 2.6 times in
all.  The factor stays at 12: no mutant of those censuses timed out, so a
smaller factor would have saved nothing there, and it would risk false
kills in modules whose slowest equivalent mutant has not been timed, while
a looping mutant still costs three or four minutes, not ten.  A timeout only says that the tests did
not finish, so read each one by hand.

Prints one JSON record: the unmutated run's seconds, the timeout, the
mutant count, each mutant with the first test that failed on it (``null``
for a survivor) and its run's seconds, and the survivors.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_FACTOR = 12

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add,
    ast.FloorDiv: ast.Mult, ast.Pow: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.And: ast.Or, ast.Or: ast.And,
}


def sites(tree: ast.AST):
    """(node, comparison index or None) for each mutable site, in walk order."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(node.op) in SWAPS:
                yield node, None
        elif isinstance(node, ast.Compare):
            for index, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, index
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, None


def mutate(node: ast.AST, index: int | None) -> str:
    """Apply the site's mutation in place and describe it."""
    if isinstance(node, ast.Constant):
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    if index is None:
        old, node.op = node.op, SWAPS[type(node.op)]()
        new = node.op
    else:
        old = node.ops[index]
        new = node.ops[index] = SWAPS[type(old)]()
    return f"{type(old).__name__} -> {type(new).__name__}"


def mutants(source: str):
    """(line, mutation, mutated module text) for every site."""
    count = sum(1 for _ in sites(ast.parse(source)))
    for k in range(count):
        tree = ast.parse(source)
        node, index = list(sites(tree))[k]
        mutation = mutate(node, index)
        yield node.lineno, mutation, ast.unparse(tree)


def run_tests(copy: Path, targets: list[str], timeout: float | None = None) -> str | None:
    """The first failing test id, or None when every test passes.  A run
    that outlasts ``timeout`` seconds (a mutant that loops) counts as killed."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *targets],
            cwd=copy, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 0:
        return None
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"exit {done.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module path relative to the checkout")
    parser.add_argument("--first", nargs="*", action="extend", default=[],
                        help="test files to run before the rest")
    args = parser.parse_args(argv)

    source = (ROOT / args.module).read_text()
    rest = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))
    targets = args.first + [t for t in rest if t not in args.first]
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".benchmarks"))
        target = copy / args.module
        target.write_text(ast.unparse(ast.parse(source)))
        started = time.monotonic()
        baseline = run_tests(copy, targets)
        baseline_s = time.monotonic() - started
        if baseline is not None:
            print(json.dumps({"module": args.module, "baseline_failure": baseline}))
            return 1
        timeout = TIMEOUT_FACTOR * baseline_s
        print(f"baseline passed in {baseline_s:.1f} s; "
              f"a mutant times out after {timeout:.0f} s", file=sys.stderr)
        for line, mutation, text in mutants(source):
            target.write_text(text)
            started = time.monotonic()
            killed_by = run_tests(copy, targets, timeout)
            seconds = round(time.monotonic() - started, 1)
            records.append({"line": line, "mutation": mutation, "killed_by": killed_by,
                            "seconds": seconds})
            print(f"line {line} {mutation}: {killed_by or 'SURVIVED'} ({seconds} s)",
                  file=sys.stderr)
    records.sort(key=lambda r: r["line"])
    lines = source.splitlines()
    survivors = [{**r, "source": lines[r["line"] - 1].strip()}
                 for r in records if r["killed_by"] is None]
    print(json.dumps({
        "module": args.module,
        "tests": ["pytest", "-x", "-q", *targets],
        "baseline_s": round(baseline_s, 1),
        "timeout_s": round(timeout),
        "mutants": len(records),
        "killed": len(records) - len(survivors),
        "records": records,
        "survivors": survivors,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
