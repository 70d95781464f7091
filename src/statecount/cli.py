"""Command-line interface.

Subcommands: ``count`` (grand totals), ``table`` (recomputed tables as
CSV/JSON), ``verify`` (the discrepancy report), ``oracle`` (run one
oracle of ``commands.ORACLES``).  Exit codes: 0 success, 1 verification
mismatch, 2 usage error.  All JSON counts are decimal strings, never floats.

A ``count`` or ``table`` process runs only the modules it prints from.  Every
module but ``geometry`` is deferred: importing this one registers it in
``sys.modules``, where callers such as the benchmark tracer look it up, but
runs its body only on first attribute use.  Imports inside the handlers
would leave them unregistered.  ``xiangqi`` and ``janggi`` hold one variant's
closed forms each, with ``combinatorics`` under both; ``oracle``,
``fixtures`` and ``verify`` serve ``verify``, ``oracle`` and the ``slist``
table; ``commands`` is the argparse parser.

``count`` and ``table`` argvs in their canonical form (``_fast_args``) are
parsed without argparse, whose import and parser construction would cost each
such process more than the parsing; every other argv goes to
``commands.build_parser``.
"""
from __future__ import annotations

import importlib.util
import os
import sys
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


# ahead of geometry in sys.modules, so that a walk over it in order (the bench
# tracer's patching) runs each deferred body before patching what it imports
oracle, fixtures, verify, commands, xiangqi, janggi, combinatorics = map(_deferred, (
    "oracle", "fixtures", "verify", "commands", "xiangqi", "janggi", "combinatorics"))

from .geometry import VARIANTS, zone, zone_names  # noqa: E402

TABLE_IDS = ("t1", "t2", "t3", "t4", "t5", "t6", "klist", "slist", "geometry")
TABLES_BY_VARIANT = {
    "xiangqi": ("t1", "t2", "t3", "t4", "t5", "klist", "slist", "geometry"),
    "janggi": ("t6", "klist", "slist", "geometry"),
}
# each variant's closed-form module.  LISTS and GRIDS name its attributes, looked
# up at call time, so a process runs only its own variant's module and a
# patched closed form is seen by every cell
PIPELINES = {"xiangqi": xiangqi, "janggi": janggi}
# per variant: index header, light-stage indices and closed form, pair-fill family
LISTS = {
    "xiangqi": ("blanks", "BLANKS_RANGE", "xq_positions", "xq.dlist"),
    "janggi": ("pieces", "PIECES_RANGE", "jg_positions", "jg.slist"),
}
# t3-t6 print one closed form as a grid: the closed form, row header, row
# indices, column header prefix, column indices, and whether the closed form
# takes the column first
GRIDS = {
    "t3": ("soldier_own_side", "soldiers", "SOLDIERS", "blank_", "BLANK_SOLDIER_SITES", True),
    "t4": ("side_exact", "soldiers", "SOLDIERS", "blanks_", "SIDE_BLANKS", True),
    "t5": ("side_reserve", "reserve", "SOLDIERS", "blanks_", "SIDE_BLANKS", True),
    "t6": ("jg_home_count", "pieces", "HOME_PIECES", "reserve_", "SOLDIERS", False),
}
# the options of count and table, in the order argparse lists them: name ->
# choices; --format is optional with its first choice the default, and every
# other option is required
OPTIONS = {
    "count": {"--variant": VARIANTS, "--format": ("dec", "json")},
    "table": {"--variant": VARIANTS, "--table": TABLE_IDS, "--format": ("csv", "json")},
}


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
        args = commands.build_parser(sys.modules[__name__]).parse_args(argv)
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
    terms = list(PIPELINES[args.variant].grand_total_terms())
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


def _cmd_table(args: argparse.Namespace | SimpleNamespace) -> tuple[str, int]:
    if args.table == "geometry":
        return _render_geometry(args), 0
    return _render(*_build_table(args.variant, args.table), args.format), 0


def _build_table(variant: str, table_id: str) -> tuple[list[str], list[list[str]]]:
    pipeline = PIPELINES[variant]
    if table_id in GRIDS:
        form, row_header, row_range, prefix, col_range, column_first = GRIDS[table_id]
        cell, row_indices, col_indices = (getattr(pipeline, name)
                                          for name in (form, row_range, col_range))
        headers = [row_header] + [f"{prefix}{c}" for c in col_indices]
        rows = [[str(r)] + [str(cell(c, r) if column_first else cell(r, c)) for c in col_indices]
                for r in row_indices]
        return headers, rows
    index_name, indices, positions, slist = LISTS[variant]
    if table_id == "klist":
        count = getattr(pipeline, positions)
        return [index_name, "count"], [[str(i), str(count(i))] for i in getattr(pipeline, indices)]
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
    rows = [[str(v) for v in (*lead, *row)] for *lead, row in camp]
    return [*headers, *xiangqi.CampClassRow._fields], rows


def _render_geometry(args: argparse.Namespace | SimpleNamespace) -> str:
    zones = {player: {name: sorted(zone(args.variant, player, name))
                      for name in zone_names(args.variant)}
             for player in ("A", "B")}
    if args.format == "json":
        import json  # a Site is a (file, rank) tuple, so it prints as [file, rank]
        return json.dumps({"variant": args.variant, "zones": zones}, indent=2)
    rows = [[player, name, str(site.file), str(site.rank)]
            for player, named in zones.items()
            for name, sites in named.items() for site in sites]
    return _render(["player", "zone", "file", "rank"], rows, "csv")


if __name__ == "__main__":
    sys.exit(main())
