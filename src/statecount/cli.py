"""Command-line interface.

Subcommands: ``count`` (grand totals), ``table`` (recomputed tables as
CSV/JSON), ``verify`` (the discrepancy report), ``oracle`` (run one
oracle of ``ORACLES``).  Exit codes: 0 success, 1 verification mismatch,
2 usage error.  All JSON counts are decimal strings, never floats.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from typing import Sequence

from . import janggi, oracle, verify, xiangqi
from .fixtures import FAMILIES
from .geometry import zone, zone_names

TABLE_IDS = ("t1", "t2", "t3", "t4", "t5", "t6", "klist", "slist", "geometry")
TABLES_BY_VARIANT = {
    "xiangqi": ("t1", "t2", "t3", "t4", "t5", "klist", "slist", "geometry"),
    "janggi": ("t6", "klist", "slist", "geometry"),
}
# per variant: index header, light-stage family, pair-fill family
LISTS = {
    "xiangqi": ("blanks", "xq.klist", "xq.dlist"),
    "janggi": ("pieces", "jg.klist", "jg.slist"),
}
# t3-t6 print one family as a grid: family, row header, row indices, column
# header prefix, column indices, and whether a key is (row, column) rather
# than (column, row)
GRIDS = {
    "t3": ("xq.table3", "soldiers", range(6), "blank_", (10, 9, 8), False),
    "t4": ("xq.table4", "soldiers", range(6), "blanks_", range(35, 45), False),
    "t5": ("xq.table5", "reserve", range(6), "blanks_", range(35, 45), False),
    "t6": ("jg.table6", "pieces", range(1, 9), "reserve_", range(6), True),
}
CAMP_HEADERS = ["total", "two_shared", "one_shared", "no_shared"]
VARIANTS = ("xiangqi", "janggi")


def _by_pieces_text(counts) -> str:
    return " ".join(f"{t}:{counts[t]}" for t in sorted(counts))


# target -> (oracle, one domain per parameter, how the result prints); a domain is
# a range or a tuple of names, and the ranges index the published tables checked
ORACLES = {
    "enum_camp_xq": (oracle.enum_camp_xq, (range(3), range(3)), lambda row: " ".join(
        f"{h}={v}" for h, v in zip(CAMP_HEADERS, row.columns))),
    "enum_soldiers_xq": (oracle.enum_soldiers_xq, (range(3), range(6)), str),
    "enum_side_exact_xq": (oracle.enum_side_exact_xq, (range(35, 45), range(6)), str),
    "enum_side_xq": (oracle.enum_side_xq, (range(35, 45), range(6)), str),
    "enum_home_jg": (oracle.enum_home_jg, (range(1, 9), range(6)), str),
    "enum_pair_fill": (oracle.enum_pair_fill, (range(9), range(17)), str),
    "count_pair_fill": (oracle.count_pair_fill, (range(9), range(17)), str),
    "enum_positions_small": (oracle.enum_positions_small, (
        VARIANTS, range(2, oracle.POSITIONS_MAX_LIGHT_PIECES + 1)), _by_pieces_text),
    "scan_positions": (oracle.scan_positions, (VARIANTS,), _by_pieces_text),
    "scan_total": (oracle.scan_total, (VARIANTS,), str),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statecount",
        description="Exact state-space counts for Xiangqi and Janggi, "
        "with oracle-backed verification against the published figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print a grand total")
    p_count.add_argument("--variant", required=True, choices=VARIANTS)
    p_count.add_argument("--format", default="dec", choices=("dec", "json"))

    p_table = sub.add_parser("table", help="emit a recomputed table")
    p_table.add_argument("--variant", required=True, choices=VARIANTS)
    p_table.add_argument("--table", required=True, choices=TABLE_IDS)
    p_table.add_argument("--format", default="csv", choices=("csv", "json"))

    p_verify = sub.add_parser("verify", help="recompute fixtures and report discrepancies")
    p_verify.add_argument(
        "--scope", default="all", choices=("all", "xiangqi", "janggi", "combinatorics")
    )

    p_oracle = sub.add_parser("oracle", help="run one oracle")
    p_oracle.add_argument("--target", required=True, choices=ORACLES)
    p_oracle.add_argument("params", nargs="*", help="oracle arguments")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "count":
        return _cmd_count(args)
    if args.command == "table":
        return _cmd_table(parser, args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "oracle":
        return _cmd_oracle(parser, args)
    parser.error(f"unknown command {args.command!r}")
    return 2


def _cmd_count(args: argparse.Namespace) -> int:
    pipeline = xiangqi if args.variant == "xiangqi" else janggi
    terms = list(pipeline.grand_total_terms())
    total = sum(term for *_, term in terms)
    index_name = LISTS[args.variant][0]
    if args.format == "dec":
        print(total)
        return 0
    record = {
        "variant": args.variant,
        "total": str(total),
        "digits": len(str(total)),
        "terms": [
            {index_name: index, "heavy_pieces": y, "count": str(term)}
            for index, y, term in terms
        ],
    }
    print(json.dumps(record, indent=2))
    return 0


def _emit(headers: list[str], rows: list[list[str]], fmt: str) -> None:
    if fmt == "csv":
        print(",".join(headers))
        for row in rows:
            print(",".join(row))
    else:
        print(json.dumps(
            [dict(zip(headers, row)) for row in rows], indent=2
        ))


def _cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.table not in TABLES_BY_VARIANT[args.variant]:
        parser.error(
            f"table {args.table!r} is not defined for {args.variant}; "
            f"valid: {', '.join(TABLES_BY_VARIANT[args.variant])}"
        )
    if args.table == "geometry":
        return _emit_geometry(args)
    headers, rows = _build_table(args.variant, args.table)
    _emit(headers, rows, args.format)
    return 0


def _build_table(variant: str, table_id: str) -> tuple[list[str], list[list[str]]]:
    index_name, klist, slist = LISTS[variant]
    if table_id in GRIDS:
        name, row_header, row_indices, prefix, col_indices, row_first = GRIDS[table_id]
        compute = FAMILIES[name].compute
        headers = [row_header] + [f"{prefix}{c}" for c in col_indices]
        rows = [
            [str(r)] + [str(compute(r, c) if row_first else compute(c, r))
                        for c in col_indices]
            for r in row_indices
        ]
        return headers, rows
    if table_id == "klist":
        fam = FAMILIES[klist]
        rows = [[str(i), str(fam.compute(i))] for (i,) in sorted(fam.values)]
        return [index_name, "count"], rows
    if table_id == "slist":
        fam = FAMILIES[slist]
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


def _emit_geometry(args: argparse.Namespace) -> int:
    if args.format == "json":
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
        print(json.dumps(record, indent=2))
    else:
        print("player,zone,file,rank")
        for player in ("A", "B"):
            for name in zone_names(args.variant):
                for site in sorted(zone(args.variant, player, name)):
                    print(f"{player},{name},{site.file},{site.rank}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    result = verify.run_verify(args.scope)
    print(verify.format_report(result))
    return result.exit_code


def _cmd_oracle(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    function, domains, render = ORACLES[args.target]
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
    print(f"{output}\nwall_time_s={time.perf_counter() - started:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
