"""The discrepancy engine: verdicts, evidence, exit codes."""
from collections import Counter

import pytest

from statecount import janggi, oracle, verify, xiangqi
from statecount.fixtures import FAMILIES, SCOPES, fixtures_for_scope, quantity_id
from statecount.verify import (
    MATCH,
    MISMATCH,
    TYPO,
    format_report,
    run_verify,
)

from frozen import JG_SLIST_DIVERGENT, XQ_KLIST_DIVERGENT


def fixture(row_id, printed=None):
    """The (family, key) row labelled ``row_id``; with ``printed``, its family
    is a copy that prints that value at the key instead."""
    ((family, key),) = [row for row in fixtures_for_scope("all") if quantity_id(*row) == row_id]
    if printed is not None:
        family = family._replace(values={**family.values, key: printed})
    return family, key


def verify_only(monkeypatch, scope, *rows):
    """``run_verify(scope)`` over exactly ``rows``, in order: the scope's
    row source is rebound, as a layer is substituted anywhere else."""
    monkeypatch.setattr(verify, "fixtures_for_scope", lambda _: list(rows))
    return run_verify(scope)


EXPECTED_TYPO_IDS = (
    {f"xq.klist.{x}" for x in XQ_KLIST_DIVERGENT}
    | {f"jg.slist.{k}" for k in JG_SLIST_DIVERGENT}
    | {"xq.total", "jg.total"}
)


class TestFullRun:
    def test_no_mismatches_and_exit_zero(self, full_verify):
        assert full_verify.exit_code == 0
        assert full_verify.counts()[MISMATCH] == 0

    def test_geometry_section_passes(self, full_verify):
        assert full_verify.geometry_checks
        assert all(c.passed for c in full_verify.geometry_checks)

    def test_typo_confirmed_set_is_exactly_the_known_one(self, full_verify):
        flagged = {r.quantity_id for r in full_verify.rows if r.verdict == TYPO}
        assert flagged == EXPECTED_TYPO_IDS

    def test_match_iff_equal(self, full_verify):
        for row in full_verify.rows:
            assert (row.verdict == MATCH) == (row.paper_value == row.computed_value)

    def test_oracle_never_contradicts_computed(self, full_verify):
        for row in full_verify.rows:
            assert row.oracle_value == row.computed_value

    def test_every_fixture_appears_once(self, full_verify):
        ids = [r.quantity_id for r in full_verify.rows]
        assert sorted(ids) == sorted(quantity_id(fam, key) for fam in FAMILIES.values()
                                     for key in fam.values)


class TestDisputedEntries:
    def _row(self, result, quantity_id):
        return next(r for r in result.rows if r.quantity_id == quantity_id)

    def test_eight_pair_entry_4(self, full_verify):
        row = self._row(full_verify, "jg.slist.4")
        assert (row.paper_value, row.computed_value) == (2028, 3864)
        assert row.oracle_value == 3864
        assert row.verdict == TYPO

    def test_eight_pair_entry_6(self, full_verify):
        row = self._row(full_verify, "jg.slist.6")
        assert (row.paper_value, row.computed_value) == (44520, 201600)
        assert row.oracle_value == 201600
        assert row.verdict == TYPO

    def test_eight_pair_consistent_entries_match(self, full_verify):
        for k in (0, 1, 2, 3, 5):
            assert self._row(full_verify, f"jg.slist.{k}").verdict == MATCH

    def test_light_stage_enum_anchor(self, full_verify):
        row = self._row(full_verify, "xq.klist.86")
        assert row.oracle_value == row.computed_value == 681624
        assert row.paper_value == 655542
        assert row.verdict == TYPO

    def test_light_stage_tail_matches_with_oracle(self, full_verify):
        for x in (87, 88):
            row = self._row(full_verify, f"xq.klist.{x}")
            assert row.verdict == MATCH
            assert row.oracle_value == row.computed_value

    def test_totals_carry_notes(self, full_verify):
        assert "inherit" in self._row(full_verify, "xq.total").note
        assert "reconstruction" in self._row(full_verify, "jg.total").note

    @pytest.mark.parametrize("row_id", ["xq.total", "jg.total"])
    def test_total_note_does_not_depend_on_the_fixtures_run(self, full_verify,
                                                             row_id, monkeypatch):
        family, key = fixture(row_id)
        result = verify_only(monkeypatch, family.scope, (family, key))
        (row,) = result.rows
        assert row == self._row(full_verify, row_id)
        assert result.breakdowns == {row_id: full_verify.breakdowns[row_id]}


# sum K(n) * C(90 - n, y) * S(y) over the printed Janggi lists (46 digits,
# against the printed 45-digit total)
JG_PRINTED_FOLD = 1404897579419317395219617254586030564877191940


class TestTotalNotes:
    """A total's note is computed from its printed components, never from its
    family name: each proof below flips a note by changing printed data."""

    def test_a_total_equal_to_its_printed_fold_inherits(self, monkeypatch):
        printed_fold = fixture("jg.total", printed=JG_PRINTED_FOLD)
        (row,) = verify_only(monkeypatch, "janggi", printed_fold).rows
        assert row.verdict == TYPO
        assert "inherits that list's confirmed errors" in row.note

    def test_a_perturbed_printed_list_leaves_no_reconstruction(self, monkeypatch):
        klist = FAMILIES["xq.klist"].values
        monkeypatch.setitem(klist, (86,), klist[(86,)] + 1)
        (row,) = verify_only(monkeypatch, "xiangqi", fixture("xq.total")).rows
        assert row.verdict == TYPO
        assert row.note == ("printed total matches no reconstruction from the "
                            "source's own printed components")

    def test_each_fold_calls_its_rule_as_rebound(self, monkeypatch):
        """A total's fold looks its heavy-site rule up at call time, so that a
        rebinding, such as the bench tracer's counting wrapper, reaches it: one
        call per printed light-stage and pair-fill entry, 19 * 13 and 15 * 17."""
        calls = Counter()
        for module, rule in ((verify, "binom"), (janggi, "heavy_site_choices")):
            def counted(*args, rule=rule, original=getattr(module, rule)):
                calls[rule] += 1
                return original(*args)
            monkeypatch.setattr(module, rule, counted)
        for row_id, expected in (("xq.total", {"binom": 247}),
                                 ("jg.total", {"heavy_site_choices": 255})):
            calls.clear()
            family, key = fixture(row_id)
            # computed and oracle agree and differ from print: the fold decides
            computed = family.values[key] + 1
            assert verify._verdict(family, key, computed, computed)[0] == TYPO
            assert calls == expected, row_id


class TestBreakdowns:
    def test_divergent_totals_get_term_breakdowns(self, full_verify):
        assert set(full_verify.breakdowns) == {"xq.total", "jg.total"}

    def test_breakdown_sums_to_computed_total(self, full_verify):
        for quantity_id, terms in full_verify.breakdowns.items():
            row = next(r for r in full_verify.rows if r.quantity_id == quantity_id)
            assert sum(t for _, _, t in terms) == row.computed_value

    def test_janggi_breakdown_covers_the_term_grid(self, full_verify):
        keys = {(n, y) for n, y, _ in full_verify.breakdowns["jg.total"]}
        assert keys == {(n, y) for n in range(2, 17) for y in range(17)}


def _off_by_one_total(monkeypatch):
    """Break the Xiangqi closed-form total, as a build defect would."""
    real = xiangqi.xq_grand_total()
    monkeypatch.setattr(xiangqi, "xq_grand_total", lambda: real + 1)


class TestNegativeControls:
    def test_corrupted_total_fixture_is_a_mismatch(self, monkeypatch):
        # the site-scan oracle still counts the true total
        _off_by_one_total(monkeypatch)
        result = verify_only(monkeypatch, "xiangqi", fixture("xq.total"))
        (row,) = result.rows
        assert row.verdict == MISMATCH
        assert row.oracle_value == row.computed_value - 1
        assert result.exit_code == 1

    def test_corrupted_oracle_backed_fixture_is_confirmed_against_print(self, monkeypatch):
        # with a live oracle the engine sides with the enumeration
        corrupted = fixture("xq.table3.10,2", printed=99)
        result = verify_only(monkeypatch, "xiangqi", corrupted)
        (row,) = result.rows
        assert row.verdict == TYPO
        assert row.oracle_value == row.computed_value == 40

    def test_report_text_shows_the_mismatch(self, monkeypatch):
        _off_by_one_total(monkeypatch)
        result = verify_only(monkeypatch, "xiangqi", fixture("xq.total"))
        text = format_report(result)
        assert "[mismatch] xq.total" in text
        assert "exit 1" in text


@pytest.mark.parametrize("side", ["compute_quantity", "oracle_quantity"])
@pytest.mark.parametrize("name", FAMILIES)
def test_every_family_can_fail(name, side, monkeypatch):
    """One off-by-one on either side of a family's first row, carried by the
    family that the scope yields, fails exactly that row (the first
    pair-fill row is n = 0, the cheapest)."""
    family = FAMILIES[name]
    key = next(iter(family.values))
    other = next(row for row in fixtures_for_scope("all") if row[0] is not family)
    field = side.removesuffix("_quantity")
    real = getattr(family, field)
    broken = family._replace(**{field: lambda *key: real(*key) + 1})
    result = verify_only(monkeypatch, family.scope, (broken, key), other)
    assert [row.verdict == MISMATCH for row in result.rows] == [True, False]
    assert f"[mismatch] {quantity_id(family, key)} " in format_report(result)
    assert result.exit_code == 1


def test_rekeyed_fixture_is_judged_by_its_own_key(monkeypatch):
    family, _ = fixture("jg.palace.0")
    (row,) = verify_only(monkeypatch, "janggi", (family, (2,))).rows
    assert row.quantity_id == "jg.palace.2"
    assert row.computed_value == row.oracle_value == 252


@pytest.mark.parametrize("key", [(3,), (-1,)])
def test_unprinted_key_is_refused_before_any_count(key, monkeypatch):
    """A row holds no value of its own, so a key its family does not print
    has nothing to be judged against: it raises before either side runs."""
    def never(*_):
        raise AssertionError("counted an unprinted key")
    family = FAMILIES["jg.palace"]._replace(compute=never, oracle=never)
    with pytest.raises(KeyError):
        verify_only(monkeypatch, "janggi", (family, key))


def test_unknown_scope_is_refused_before_any_count(monkeypatch):
    """An unknown scope is refused before any geometry check runs; it
    yields no fixture, so no closed form or oracle runs either."""
    def never(*_):
        raise AssertionError("counted under an unknown scope")
    monkeypatch.setattr(verify, "validate_geometry", never)
    with pytest.raises(ValueError, match="unknown scope 'bogus'"):
        run_verify("bogus")


class TestScopesAndFormat:
    def test_scope_partition(self):
        all_ids = {quantity_id(*row) for row in fixtures_for_scope("all")}
        parts = [
            {quantity_id(*row) for row in fixtures_for_scope(s)}
            for s in ("xiangqi", "janggi", "combinatorics")
        ]
        union = set().union(*parts)
        assert union == all_ids
        assert sum(len(p) for p in parts) == len(all_ids)

    def test_unknown_scope(self):
        with pytest.raises(ValueError):
            fixtures_for_scope("everything")

    def test_scopes_are_the_family_scopes(self):
        """``SCOPES``, which the CLI offers, is "all" followed by exactly the
        scopes that own a family."""
        assert SCOPES[0] == "all"
        assert set(SCOPES[1:]) == {fam.scope for fam in FAMILIES.values()}
        assert len(set(SCOPES)) == len(SCOPES)

    def test_combinatorics_scope_runs_standalone(self, monkeypatch):
        monkeypatch.setattr(oracle, "enum_pair_fill", oracle.count_pair_fill)
        result = run_verify("combinatorics")
        assert result.exit_code == 0
        ids = {r.quantity_id for r in result.rows}
        assert all(i.startswith(("xq.dlist", "jg.slist")) for i in ids)
        assert not result.geometry_checks

    def test_pair_fill_brute_force_rows(self, monkeypatch):
        """The brute force runs on every pair-fill row within its budget:
        m = 6 up to n = 8 and m = 8 up to n = 7."""
        rows = []

        def recorder(m, n):
            rows.append((m, n))
            return oracle.count_pair_fill(m, n)
        monkeypatch.setattr(oracle, "enum_pair_fill", recorder)
        assert run_verify("combinatorics").exit_code == 0
        assert sorted(rows) == [(6, n) for n in range(9)] + [(8, n) for n in range(8)]

    def test_report_is_deterministic(self, full_verify):
        assert format_report(full_verify) == format_report(full_verify)
        assert format_report(full_verify).splitlines()[-1].startswith("summary:")


def test_fixture_ids_are_unique():
    """A row's id names one (family, key) row, so report rows are told apart by it."""
    ids = [quantity_id(*row) for row in fixtures_for_scope("all")]
    assert len(set(ids)) == len(ids) == 251
