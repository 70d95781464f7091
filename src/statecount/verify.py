"""Discrepancy adjudication: recomputation vs. published reference values.

A row is a ``Family`` and one key that it prints.  Its value is recomputed
from geometry and the closed-form pipeline, and counted again by the
family's oracle, which never calls the closed forms.  Verdicts:

* ``mismatch`` — the oracle disagrees with the recomputation; this indicts
  the build, not the source, and fails the run.
* ``match`` — recomputed value equals the printed value.
* ``paper-typo-confirmed`` — the values differ, and the oracle agrees with
  the recomputation, so the printed value is the erroneous one.  A grand
  total's note says whether ``heavy_stage`` folds its printed light-stage
  and pair-fill lists into the printed total.

The exit contract: 0 when no row is a mismatch and all geometry checks
pass, 1 otherwise.
"""
from __future__ import annotations

from typing import NamedTuple

from . import janggi, xiangqi
from .combinatorics import binom, heavy_stage
from .fixtures import FAMILIES, Family, fixtures_for_scope, quantity_id
from .geometry import GeometryCheck, validate_geometry

MATCH = "match"
TYPO = "paper-typo-confirmed"
MISMATCH = "mismatch"


class ReportRow(NamedTuple):
    quantity_id: str
    paper_value: int
    computed_value: int
    oracle_value: int
    verdict: str
    note: str = ""


class VerifyResult(NamedTuple):
    geometry_checks: list[GeometryCheck]
    rows: list[ReportRow]
    breakdowns: dict[str, list[tuple[int, int, int]]]

    @property
    def exit_code(self) -> int:
        bad_geometry = any(not c.passed for c in self.geometry_checks)
        return 1 if bad_geometry or any(r.verdict == MISMATCH for r in self.rows) else 0

    def counts(self) -> dict[str, int]:
        out = {MATCH: 0, TYPO: 0, MISMATCH: 0}
        for row in self.rows:
            out[row.verdict] += 1
        return out


def compute_quantity(family: Family, key: tuple) -> int:
    """Recompute a row's value through its family's closed form."""
    return family.compute(*key)


def oracle_quantity(family: Family, key: tuple) -> int:
    """Count a row's value with its family's oracle."""
    return family.oracle(*key)


# grand total: (variant module, K family, T family, heavy-site choice at index i)
_TOTALS = {
    "xq.total": (xiangqi, "xq.klist", "xq.dlist", binom),
    "jg.total": (janggi, "jg.klist", "jg.slist", janggi.heavy_site_choices),
}


def _verdict(family: Family, key: tuple, computed: int, oracle_value: int) -> tuple[str, str]:
    if oracle_value != computed:
        return MISMATCH, "closed form disagrees with its oracle (build defect)"
    printed = family.values[key]
    if computed == printed:
        return MATCH, ""
    if family.name not in _TOTALS:
        return TYPO, "the oracle confirms the recomputed value"
    _, klist, tlist, choose = _TOTALS[family.name]
    light = [(i, k) for (i,), k in FAMILIES[klist].values.items()]
    fills = list(FAMILIES[tlist].values.values())
    if printed == sum(term for *_, term in heavy_stage(light, choose, fills)):
        return TYPO, ("printed total equals the printed light-stage list folded "
                      "through the heavy stage, so it inherits that list's "
                      "confirmed errors; recomputation uses the corrected list")
    return TYPO, ("printed total matches no reconstruction from the source's "
                  "own printed components")


def run_verify(scope: str = "all") -> VerifyResult:
    """Recompute every row in scope, oracle-check it, and adjudicate.

    The (family, key) rows come from ``fixtures_for_scope``, which refuses an
    unknown scope (``ValueError``) before any count; a key its family does
    not print raises ``KeyError`` before its row is counted.
    """
    in_scope = fixtures_for_scope(scope)
    geometry_checks: list[GeometryCheck] = []
    if scope in ("all", "xiangqi"):
        geometry_checks += validate_geometry("xiangqi")
    if scope in ("all", "janggi"):
        geometry_checks += validate_geometry("janggi")

    rows: list[ReportRow] = []
    breakdowns: dict[str, list[tuple[int, int, int]]] = {}
    for family, key in in_scope:
        printed = family.values[key]
        computed = compute_quantity(family, key)
        oracle_value = oracle_quantity(family, key)
        verdict, note = _verdict(family, key, computed, oracle_value)
        row_id = quantity_id(family, key)
        rows.append(ReportRow(row_id, printed, computed, oracle_value, verdict, note))
        if verdict != MATCH and family.name in _TOTALS:
            breakdowns[row_id] = list(_TOTALS[family.name][0].grand_total_terms())
    return VerifyResult(geometry_checks, rows, breakdowns)


def format_report(result: VerifyResult) -> str:
    """Deterministic plain-text rendering of a verify run."""
    lines: list[str] = []
    for check in result.geometry_checks:
        lines.append(f"[geometry] {'ok  ' if check.passed else 'FAIL'} {check.check_id}")
    for row in result.rows:
        parts = [
            f"[{row.verdict}]",
            row.quantity_id,
            f"paper={row.paper_value}",
            f"computed={row.computed_value}",
            f"oracle={row.oracle_value}",
        ]
        if row.note:
            parts.append(f"note: {row.note}")
        lines.append(" ".join(parts))
    for quantity_id, terms in result.breakdowns.items():
        lines.append(f"-- term breakdown for {quantity_id} "
                     "(index, heavy pieces, contribution) --")
        for index, y, term in terms:
            if term:
                lines.append(f"   {index:3d} {y:3d} {term}")
    counts = result.counts()
    lines.append(
        f"summary: {counts[MATCH]} match, {counts[TYPO]} paper-typo-confirmed, "
        f"{counts[MISMATCH]} mismatch; exit {result.exit_code}"
    )
    return "\n".join(lines)
