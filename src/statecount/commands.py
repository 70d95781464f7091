"""The argparse command line: every argv that ``cli._fast_args`` leaves.

Help, usage errors, non-canonical ``count``/``table`` argvs, ``verify`` and
``oracle`` are parsed here; ``cli`` defers this module, so a canonical
``count`` or ``table`` process never compiles or runs it.
"""
from __future__ import annotations

import argparse
import time
from functools import partial
from types import ModuleType

from . import fixtures, janggi, oracle, verify, xiangqi
from .geometry import VARIANTS


def _by_pieces_text(counts) -> str:
    return " ".join(f"{t}:{counts[t]}" for t in sorted(counts))


# pairs up to Janggi's eight, on up to their sixteen sites
_PAIR_FILL_DOMAINS = (range(janggi.HEAVY_PAIRS + 1), range(2 * janggi.HEAVY_PAIRS + 1))
# target (the name of its oracle function) -> (one domain per parameter, how the
# result prints); a domain is a range or a tuple of names, and the ranges index
# the published tables checked
ORACLES = {
    "enum_camp_xq": ((range(3), range(3)), lambda row: " ".join(
        f"{h}={v}" for h, v in zip(xiangqi.CampClassRow._fields, row))),
    "enum_soldiers_xq": ((range(3), xiangqi.SOLDIERS), str),
    "enum_side_exact_xq": ((xiangqi.SIDE_BLANKS, xiangqi.SOLDIERS), str),
    "enum_side_xq": ((xiangqi.SIDE_BLANKS, xiangqi.SOLDIERS), str),
    "enum_home_jg": ((janggi.HOME_PIECES, janggi.SOLDIERS), str),
    "enum_pair_fill": (_PAIR_FILL_DOMAINS, str),
    "count_pair_fill": (_PAIR_FILL_DOMAINS, str),
    "enum_positions_small": ((VARIANTS, range(2, oracle.POSITIONS_MAX_LIGHT_PIECES + 1)),
                             _by_pieces_text),
    "scan_positions": ((VARIANTS,), _by_pieces_text),
    "scan_total": ((VARIANTS,), str),
}


def _add_command(sub: argparse._SubParsersAction, command: str, options: dict,
                 help_text: str) -> argparse.ArgumentParser:
    """The ``count`` or ``table`` subparser, with ``options`` (name -> choices)."""
    parser = sub.add_parser(command, help=help_text)
    for option, choices in options.items():
        if option == "--format":
            parser.add_argument(option, default=choices[0], choices=choices)
        else:
            parser.add_argument(option, required=True, choices=choices)
    return parser


def build_parser(cli: ModuleType) -> argparse.ArgumentParser:
    """The parser of every subcommand.  ``cli`` is the fast-path module: the
    ``count`` and ``table`` subparsers take its ``OPTIONS``,
    ``TABLES_BY_VARIANT`` and handlers.  It is passed in, not imported,
    because under ``python -m statecount.cli`` it runs as ``__main__``, and an
    import would run a second copy of it."""
    parser = argparse.ArgumentParser(
        prog="statecount",
        description="Exact state-space counts for Xiangqi and Janggi, "
        "with oracle-backed verification against the published figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = _add_command(sub, "count", cli.OPTIONS["count"], "print a grand total")
    p_count.set_defaults(handler=cli._cmd_count)
    p_table = _add_command(sub, "table", cli.OPTIONS["table"], "emit a recomputed table")
    p_table.set_defaults(handler=partial(_defined_table, p_table, cli))

    p_verify = sub.add_parser("verify", help="recompute fixtures and report discrepancies")
    p_verify.add_argument("--scope", default="all", choices=fixtures.SCOPES)
    p_verify.set_defaults(handler=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="run one oracle")
    p_oracle.add_argument("--target", required=True, choices=ORACLES)
    p_oracle.add_argument("params", nargs="*", help="oracle arguments")
    p_oracle.set_defaults(handler=partial(_cmd_oracle, p_oracle))
    return parser


def _defined_table(parser: argparse.ArgumentParser, cli: ModuleType,
                   args: argparse.Namespace) -> tuple[str, int]:
    tables = cli.TABLES_BY_VARIANT[args.variant]
    if args.table not in tables:
        parser.error(
            f"table {args.table!r} is not defined for {args.variant}; "
            f"valid: {', '.join(tables)}"
        )
    return cli._cmd_table(args)


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    result = verify.run_verify(args.scope)
    return verify.format_report(result), result.exit_code


def _cmd_oracle(parser: argparse.ArgumentParser, args: argparse.Namespace) -> tuple[str, int]:
    import inspect  # here, not at module level: only oracle uses it
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
