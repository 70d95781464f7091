"""Command-line interface.

Subcommands: ``count`` (grand totals), ``table`` (recomputed tables as
CSV/JSON), ``verify`` (the discrepancy report), ``oracle`` (run one
oracle of ``ORACLES``).  Exit codes: 0 success, 1 verification mismatch,
2 usage error.  All JSON counts are decimal strings, never floats.

``count`` and most tables need only the closed forms.  ``oracle``,
``fixtures`` and ``verify`` are deferred: importing this module registers them
in ``sys.modules``, where callers such as the benchmark tracer look them up,
but runs each body only on first attribute use.  Imports inside the handlers
would leave them unregistered.

``count`` and ``table`` argvs in their canonical form (``_fast_args``) are
parsed without argparse, whose import and parser construction would cost each
such process more than the parsing; every other argv goes to ``build_parser``.
"""
from __future__ import annotations

import importlib.util
import os
import sys
import time
from functools import partial
from types import ModuleType, SimpleNamespace
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import argparse


def _deferred(name: str) -> ModuleType:
    """``statecount.<name>`` as imported, its body run on first attribute use;
    a module already imported is returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# ahead of the closed forms in sys.modules, so that a walk over it in order (the
# bench tracer's patching) runs each deferred body before patching what it imports
oracle, fixtures, verify = map(_deferred, ("oracle", "fixtures", "verify"))

from . import janggi, xiangqi  # noqa: E402
from .geometry import VARIANTS, zone, zone_names  # noqa: E402

TABLE_IDS = ("t1", "t2", "t3", "t4", "t5", "t6", "klist", "slist", "geometry")
TABLES_BY_VARIANT = {
    "xiangqi": ("t1", "t2", "t3", "t4", "t5", "klist", "slist", "geometry"),
    "janggi": ("t6", "klist", "slist", "geometry"),
}
# per variant: index header, light-stage indices and closed form, pair-fill family
LISTS = {
    "xiangqi": ("blanks", xiangqi.BLANKS_RANGE, lambda x: xiangqi.xq_positions(x), "xq.dlist"),
    "janggi": ("pieces", janggi.PIECES_RANGE, lambda n: janggi.jg_positions(n), "jg.slist"),
}
# index ranges of the published grids: blanks on one Xiangqi half, soldiers
# used or held in reserve, pieces in one Janggi home zone
SIDE_BLANKS = range(xiangqi.MIN_SIDE_BLANKS, xiangqi.MAX_SIDE_BLANKS + 1)
SOLDIERS = range(xiangqi.MAX_SOLDIERS + 1)
HOME_PIECES = range(1, janggi.MAX_HOME_PIECES + 1)
# t3-t6 print one closed form as a grid: its value at (row, column), row
# header, row indices, column header prefix, column indices; the closed forms
# are looked up at call time, so a patched module attribute sees every cell
GRIDS = {
    "t3": (lambda s, blank: xiangqi.soldier_own_side(blank, s),
           "soldiers", SOLDIERS, "blank_", (10, 9, 8)),
    "t4": (lambda s, n: xiangqi.side_exact(n, s), "soldiers", SOLDIERS, "blanks_", SIDE_BLANKS),
    "t5": (lambda k, n: xiangqi.side_reserve(n, k), "reserve", SOLDIERS, "blanks_", SIDE_BLANKS),
    "t6": (lambda n, k: janggi.jg_home_count(n, k), "pieces", HOME_PIECES, "reserve_", SOLDIERS),
}
CAMP_HEADERS = ["total", "two_shared", "one_shared", "no_shared"]
# the options of count and table, in the order argparse lists them: name ->
# choices; --format is optional with its first choice the default, and every
# other option is required
OPTIONS = {
    "count": {"--variant": VARIANTS, "--format": ("dec", "json")},
    "table": {"--variant": VARIANTS, "--table": TABLE_IDS, "--format": ("csv", "json")},
}


def _by_pieces_text(counts) -> str:
    return " ".join(f"{t}:{counts[t]}" for t in sorted(counts))


# target (the name of its oracle function) -> (one domain per parameter, how the
# result prints); a domain is a range or a tuple of names, and the ranges index
# the published tables checked
ORACLES = {
    "enum_camp_xq": ((range(3), range(3)), lambda row: " ".join(
        f"{h}={v}" for h, v in zip(CAMP_HEADERS, row.columns))),
    "enum_soldiers_xq": ((range(3), SOLDIERS), str),
    "enum_side_exact_xq": ((SIDE_BLANKS, SOLDIERS), str),
    "enum_side_xq": ((SIDE_BLANKS, SOLDIERS), str),
    "enum_home_jg": ((HOME_PIECES, SOLDIERS), str),
    "enum_pair_fill": ((range(9), range(17)), str),
    "count_pair_fill": ((range(9), range(17)), str),
    # light pieces up to oracle.POSITIONS_MAX_LIGHT_PIECES
    "enum_positions_small": ((VARIANTS, range(2, 5)), _by_pieces_text),
    "scan_positions": ((VARIANTS,), _by_pieces_text),
    "scan_total": ((VARIANTS,), str),
}


def _add_command(sub: argparse._SubParsersAction, command: str,
                 help_text: str) -> argparse.ArgumentParser:
    """The ``count`` or ``table`` subparser, with the options of ``OPTIONS``."""
    parser = sub.add_parser(command, help=help_text)
    for option, choices in OPTIONS[command].items():
        if option == "--format":
            parser.add_argument(option, default=choices[0], choices=choices)
        else:
            parser.add_argument(option, required=True, choices=choices)
    return parser


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, not at module level: _fast_args parses count and table without it
    parser = argparse.ArgumentParser(
        prog="statecount",
        description="Exact state-space counts for Xiangqi and Janggi, "
        "with oracle-backed verification against the published figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "count", "print a grand total").set_defaults(handler=_cmd_count)
    p_table = _add_command(sub, "table", "emit a recomputed table")
    p_table.set_defaults(handler=partial(_defined_table, p_table))

    p_verify = sub.add_parser("verify", help="recompute fixtures and report discrepancies")
    p_verify.add_argument(
        "--scope", default="all", choices=("all", "xiangqi", "janggi", "combinatorics")
    )
    p_verify.set_defaults(handler=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="run one oracle")
    p_oracle.add_argument("--target", required=True, choices=ORACLES)
    p_oracle.add_argument("params", nargs="*", help="oracle arguments")
    p_oracle.set_defaults(handler=partial(_cmd_oracle, p_oracle))
    return parser


def _fast_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """``argv`` parsed as argparse parses it, if it is ``count`` or ``table``
    followed by whole ``--option value`` pairs: each option of ``OPTIONS``
    given once with one of its choices, every required option given, and the
    table defined for the variant.  None for any other argv, which is left to
    argparse: help, ``--option=value``, abbreviations and usage errors."""
    options = OPTIONS.get(argv[0]) if argv else None
    pairs = dict(zip(argv[1::2], argv[2::2]))
    if options is None or len(argv) != 1 + 2 * len(pairs) or not pairs.keys() <= options.keys():
        return None
    args = SimpleNamespace(command=argv[0])
    for option, choices in options.items():
        value = pairs.get(option, choices[0] if option == "--format" else None)
        if value not in choices:
            return None
        setattr(args, option[2:], value)
    if args.command == "count":
        args.handler = _cmd_count
    elif args.table in TABLES_BY_VARIANT[args.variant]:
        args.handler = _cmd_table
    else:
        return None
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = _fast_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = build_parser().parse_args(argv)
    # each command returns its output, so a reader that closes stdout early
    # (`| head`) cannot change the exit status
    output, status = args.handler(args)
    try:
        print(output, flush=True)
    except BrokenPipeError:
        # as the signal module docs advise, so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


def _cmd_count(args: argparse.Namespace | SimpleNamespace) -> tuple[str, int]:
    pipeline = xiangqi if args.variant == "xiangqi" else janggi
    terms = list(pipeline.grand_total_terms())
    total = sum(term for *_, term in terms)
    index_name = LISTS[args.variant][0]
    if args.format == "dec":
        return str(total), 0
    import json  # in the JSON branches only: dec and csv output never load it
    record = {
        "variant": args.variant,
        "total": str(total),
        "digits": len(str(total)),
        "terms": [
            {index_name: index, "heavy_pieces": y, "count": str(term)}
            for index, y, term in terms
        ],
    }
    return json.dumps(record, indent=2), 0


def _render(headers: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(",".join(row) for row in [headers, *rows])
    import json
    return json.dumps([dict(zip(headers, row)) for row in rows], indent=2)


def _defined_table(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> tuple[str, int]:
    if args.table not in TABLES_BY_VARIANT[args.variant]:
        parser.error(
            f"table {args.table!r} is not defined for {args.variant}; "
            f"valid: {', '.join(TABLES_BY_VARIANT[args.variant])}"
        )
    return _cmd_table(args)


def _cmd_table(args: argparse.Namespace | SimpleNamespace) -> tuple[str, int]:
    if args.table == "geometry":
        return _render_geometry(args), 0
    return _render(*_build_table(args.variant, args.table), args.format), 0


def _build_table(variant: str, table_id: str) -> tuple[list[str], list[list[str]]]:
    index_name, indices, positions, slist = LISTS[variant]
    if table_id in GRIDS:
        cell, row_header, row_indices, prefix, col_indices = GRIDS[table_id]
        headers = [row_header] + [f"{prefix}{c}" for c in col_indices]
        rows = [[str(r)] + [str(cell(r, c)) for c in col_indices] for r in row_indices]
        return headers, rows
    if table_id == "klist":
        return [index_name, "count"], [[str(i), str(positions(i))] for i in indices]
    if table_id == "slist":
        fam = fixtures.FAMILIES[slist]
        rows = []
        for (k,), printed in fam.values.items():
            computed = fam.compute(k)
            status = "ok" if computed == printed else "typo-suspect"
            rows.append([str(k), str(computed), str(printed), status])
        return ["sites", "computed", "printed", "status"], rows
    if table_id == "t1":
        headers = ["used_pieces", "advisors", "elephants"]
        camp = [(a + e + 1, a, e, xiangqi.camp_classes(a, e))
                for a in (2, 1, 0) for e in (2, 1, 0)]
    else:  # t2
        headers = ["used_pieces"]
        camp = [(p, xiangqi.camp_by_piece_count(p)) for p in (5, 4, 3, 2, 1)]
    rows = [[str(v) for v in (*lead, *row.columns)] for *lead, row in camp]
    return headers + CAMP_HEADERS, rows


def _render_geometry(args: argparse.Namespace | SimpleNamespace) -> str:
    if args.format == "json":
        import json
        record = {
            "variant": args.variant,
            "zones": {
                player: {
                    name: sorted([s.file, s.rank] for s in zone(args.variant, player, name))
                    for name in zone_names(args.variant)
                }
                for player in ("A", "B")
            },
        }
        return json.dumps(record, indent=2)
    lines = ["player,zone,file,rank"]
    for player in ("A", "B"):
        for name in zone_names(args.variant):
            lines += [f"{player},{name},{site.file},{site.rank}"
                      for site in sorted(zone(args.variant, player, name))]
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    result = verify.run_verify(args.scope)
    return verify.format_report(result), result.exit_code


def _cmd_oracle(parser: argparse.ArgumentParser, args: argparse.Namespace) -> tuple[str, int]:
    import inspect  # here, not at module level: it costs every CLI process start-up
    function = getattr(oracle, args.target)
    domains, render = ORACLES[args.target]
    names = list(inspect.signature(function).parameters)
    if len(args.params) != len(domains):
        parser.error(f"oracle {args.target} takes ({', '.join(names)})")
    params = []
    for name, domain, raw in zip(names, domains, args.params):
        accepted = {str(value): value for value in domain}
        if raw not in accepted:
            shown = f"{domain[0]}..{domain[-1]}" if isinstance(domain, range) else "|".join(domain)
            parser.error(f"oracle {args.target}: {name} must be in {shown}, got {raw!r}")
        params.append(accepted[raw])
    started = time.perf_counter()
    try:
        output = render(function(*params))
    except oracle.OracleBoundError as exc:
        parser.error(str(exc))
    return f"{output}\nwall_time_s={time.perf_counter() - started:.3f}", 0


if __name__ == "__main__":
    sys.exit(main())
