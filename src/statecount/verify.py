"""Discrepancy adjudication: recomputation vs. published reference values.

Every fixture quantity is recomputed from geometry and the closed-form
pipeline, and counted again by its family's oracle, which never calls the
closed forms.  Verdicts:

* ``mismatch`` — the oracle disagrees with the recomputation; this indicts
  the build, not the source, and fails the run.
* ``match`` — recomputed value equals the printed value.
* ``paper-typo-confirmed`` — the values differ, and the oracle agrees with
  the recomputation, so the printed value is the erroneous one.  A grand
  total's note says whether the sum of K(i) * C(free(i), y) * T(y) over its
  printed light-stage list K and pair-fill list T gives the printed total.

The exit contract: 0 when no row is a mismatch and all geometry checks
pass, 1 otherwise.
"""
from __future__ import annotations

from typing import NamedTuple

from . import janggi, xiangqi
from .combinatorics import binom
from .fixtures import FAMILIES, ReferenceFixture, fixtures_for_scope
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


def compute_quantity(fx: ReferenceFixture) -> int:
    """Recompute a fixture's value through its family's closed form."""
    return fx.family.compute(*fx.key)


def oracle_quantity(fx: ReferenceFixture) -> int:
    """Count a fixture's value with its family's oracle."""
    return fx.family.oracle(*fx.key)


# grand total: (variant module, K family, T family, free sites at index i)
_TOTALS = {
    "xq.total": (xiangqi, "xq.klist", "xq.dlist", lambda x: x),
    "jg.total": (janggi, "jg.klist", "jg.slist", lambda n: janggi.BOARD_SITES - n),
}


def _verdict(fx: ReferenceFixture, computed: int, oracle_value: int) -> tuple[str, str]:
    if oracle_value != computed:
        return MISMATCH, "closed form disagrees with its oracle (build defect)"
    if computed == fx.paper_value:
        return MATCH, ""
    if fx.family.name not in _TOTALS:
        return TYPO, "the oracle confirms the recomputed value"
    _, klist, tlist, free = _TOTALS[fx.family.name]
    if fx.paper_value == sum(k * binom(free(i), y) * t
                             for (i,), k in FAMILIES[klist].values.items()
                             for (y,), t in FAMILIES[tlist].values.items()):
        return TYPO, ("printed total equals the printed light-stage list folded "
                      "through the heavy stage, so it inherits that list's "
                      "confirmed errors; recomputation uses the corrected list")
    return TYPO, ("printed total matches no reconstruction from the source's "
                  "own printed components")


def run_verify(scope: str = "all") -> VerifyResult:
    """Recompute every fixture in scope, oracle-check it, and adjudicate.

    The fixtures come from ``fixtures_for_scope``, so each key is one its
    family prints, and an unknown scope is refused there (``ValueError``)
    before any count.
    """
    fixtures = fixtures_for_scope(scope)
    geometry_checks: list[GeometryCheck] = []
    if scope in ("all", "xiangqi"):
        geometry_checks += validate_geometry("xiangqi")
    if scope in ("all", "janggi"):
        geometry_checks += validate_geometry("janggi")

    rows: list[ReportRow] = []
    breakdowns: dict[str, list[tuple[int, int, int]]] = {}
    for fx in fixtures:
        computed = compute_quantity(fx)
        oracle_value = oracle_quantity(fx)
        verdict, note = _verdict(fx, computed, oracle_value)
        rows.append(ReportRow(
            fx.quantity_id, fx.paper_value, computed, oracle_value, verdict, note,
        ))
        if verdict != MATCH and fx.family.name in _TOTALS:
            module = _TOTALS[fx.family.name][0]
            breakdowns[fx.quantity_id] = list(module.grand_total_terms())
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
