"""Enumeration oracles vs. the closed-form pipeline, over full domains."""
import ast
import inspect
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from statecount import combinatorics, geometry, janggi, oracle, xiangqi
from statecount.combinatorics import pair_fill_count
from statecount.geometry import board_sites, mirror, zone
from statecount.janggi import jg_grand_total, jg_home_count, jg_positions
from statecount.oracle import (
    OracleBoundError,
    count_pair_fill,
    enum_camp_xq,
    enum_home_jg,
    enum_pair_fill,
    enum_positions_small,
    enum_side_exact_xq,
    enum_side_xq,
    enum_soldiers_xq,
    scan_positions,
    scan_total,
)
from statecount.xiangqi import (
    camp_classes,
    side_exact,
    side_reserve,
    soldier_own_side,
    xq_grand_total,
    xq_positions,
)

from frozen import ENUM_JG_SMALL, ENUM_XQ_SMALL, TRUE_JG_TOTAL, TRUE_XQ_TOTAL


class TestCampOracle:
    def test_reference_anchors(self):
        assert enum_camp_xq(2, 2)[0] == 1410
        assert enum_camp_xq(0, 2) == (183, 9, 88, 86)
        assert enum_camp_xq(0, 0) == (9, 0, 0, 9)

    def test_full_domain_equality(self):
        for a in range(3):
            for e in range(3):
                assert enum_camp_xq(a, e) == camp_classes(a, e)


class TestSoldierOracle:
    def test_reference_anchors(self):
        assert enum_soldiers_xq(0, 2) == 40
        assert enum_soldiers_xq(2, 5) == 8
        assert enum_soldiers_xq(1, 0) == 1

    def test_full_domain_equality(self):
        for blocked in range(3):
            for soldiers in range(-2, 9):
                assert enum_soldiers_xq(blocked, soldiers) == soldier_own_side(
                    10 - blocked, soldiers
                )


class TestSideOracle:
    def test_reference_anchors(self):
        assert enum_side_xq(44, 0) == 9
        assert enum_side_xq(35, 0) == 32560
        assert enum_side_xq(35, 1) == 0

    def test_full_domain_equality(self):
        # the joint placement enumeration checks the scan behind tables 4 and 5;
        # nine pieces besides the king (two advisors, two elephants, five
        # soldiers) leave it unbounded
        placements = Counter((45 - len(occupied), soldiers)
                             for occupied, soldiers in oracle._homes("xiangqi", "A", 9))
        assert placements == Counter({(blanks, soldiers): enum_side_exact_xq(blanks, soldiers)
                                      for blanks in range(35, 45) for soldiers in range(6)})
        for most in range(4):
            bounded = Counter((45 - len(occupied), soldiers)
                              for occupied, soldiers in oracle._homes("xiangqi", "A", most))
            assert bounded == Counter({(blanks, soldiers): ways
                                       for (blanks, soldiers), ways in placements.items()
                                       if 45 - blanks <= most + 1})
        # off the grid too: both sides give 0 there, or, for a negative
        # reserve, every arrangement
        for blanks in range(30, 50):
            for k in range(-2, 8):
                assert enum_side_xq(blanks, k) == side_reserve(blanks, k)
                assert enum_side_exact_xq(blanks, k) == side_exact(blanks, k)


class TestHomeOracle:
    def test_reference_anchors(self):
        assert enum_home_jg(3, 4) == 2052
        assert enum_home_jg(1, 5) == 9
        assert enum_home_jg(8, 1) == 0

    def test_full_domain_equality(self):
        for n in range(-1, 12):
            for k in range(-2, 8):
                assert enum_home_jg(n, k) == jg_home_count(n, k)


class TestPairFillOracle:
    def test_reference_anchors(self):
        assert enum_pair_fill(3, 3) == 24
        assert enum_pair_fill(4, 8) == 2520
        assert enum_pair_fill(2, 5) == 0

    def test_small_domain_equality(self):
        # every m <= 8 up to 300 000 sequences, so the code's base is tried at m = 5..8 too
        for m in range(-1, 9):
            for n in range(-2, 21):
                if m < 0 or n < 0 or m ** n <= 300_000:
                    assert enum_pair_fill(m, n) == pair_fill_count(m, n) == count_pair_fill(m, n)
        for m in range(9):
            for n in range(-2, 21):
                assert count_pair_fill(m, n) == pair_fill_count(m, n)

    def test_eight_pair_disputed_entries(self):
        assert enum_pair_fill(8, 4) == pair_fill_count(8, 4) == 3864
        assert enum_pair_fill(8, 6) == pair_fill_count(8, 6) == 201600

    def test_every_sequence_is_visited(self, monkeypatch):
        """No shortcut: the brute force draws all m^n sequences from
        ``product`` and judges each one, and a second call draws them all
        again, so nothing is memoized."""
        real_product, drawn = oracle.product, []

        def counting_product(*args, **kwargs):
            for seq in real_product(*args, **kwargs):
                drawn.append(seq)
                yield seq
        monkeypatch.setattr(oracle, "product", counting_product)
        assert enum_pair_fill(4, 6) == count_pair_fill(4, 6)
        assert len(drawn) == len(set(drawn)) == 4 ** 6
        drawn.clear()
        assert enum_pair_fill(4, 6) == count_pair_fill(4, 6)
        assert len(drawn) == len(set(drawn)) == 4 ** 6

    def test_counts_each_drawn_sequence_on_its_sorted_copy(self, monkeypatch):
        """A fixed draw of labels, turned into the pool's weights as
        ``product`` would: each valid sequence counts once per time it is
        drawn.  Summing raw labels, or counting a sorted copy once however
        many sequences share it, gives another total."""
        drawn = [
            (0, 1, 0, 2, 0),  # one symbol thrice, never adjacent: invalid
            (1, 0, 0, 1),     # two doubles: valid
            (0, 1, 1, 0),     # the same sorted copy: valid
            (1, 0, 0, 1),     # drawn again: valid
            (2, 0, 1, 3),     # all distinct: valid
            (0, 1, 0),        # a double two places apart: valid
            (2, 2, 2),        # one symbol thrice: invalid, though raw labels sum to a valid 6
        ]
        monkeypatch.setattr(oracle, "product", lambda pool, repeat: (
            tuple(pool[s] for s in seq) for seq in drawn))
        assert enum_pair_fill(4, 5) == 5

    def test_bound_error_states_the_bound(self, monkeypatch):
        """The bound is checked before the first sequence is drawn."""
        def no_draw(*args, **kwargs):
            raise AssertionError("sequences drawn past the bound")
        monkeypatch.setattr(oracle, "product", no_draw)
        with pytest.raises(OracleBoundError, match="68719476736 sequences.*20000000"):
            enum_pair_fill(8, 12)


@pytest.mark.parametrize("variant", ["xiangqi", "janggi"])
def test_positions_walk_keeps_its_piece_budget(variant, monkeypatch):
    """The piece budgets prune the full-board walk: a wider budget draws
    more subsets from ``_subsets`` though the counts come out the same.  The
    count stops the walk at the first draw past the total, so a widened
    walk fails at once."""
    budget = {"xiangqi": 22_028, "janggi": 19_450}[variant]
    subsets, drawn = oracle._subsets, [0]

    def counting_subsets(*args):
        for subset in subsets(*args):
            drawn[0] += 1
            if drawn[0] > budget:
                raise AssertionError(f"the walk draws more than {budget} subsets")
            yield subset
    monkeypatch.setattr(oracle, "_subsets", counting_subsets)
    enum_positions_small(variant, 3)
    assert drawn[0] == budget


def test_walk_reads_the_roster_file_rule(monkeypatch):
    """With the Xiangqi soldier's file rule off in the roster, the walk's
    home placements still equal the half scan's, with no opposing soldiers
    and the same piece bound, and any two own-side soldier sites count.
    ``__wrapped__`` scans afresh, so no cache keeps a count of the other
    rule."""
    xq = geometry.ROSTER["xiangqi"]
    monkeypatch.setitem(geometry.ROSTER, "xiangqi",
                        {**xq, "soldier": xq["soldier"]._replace(one_per_file=False)})
    half = oracle._region.__wrapped__("xiangqi", oracle._HALF)
    for most in range(4):
        walk = Counter((len(occupied), soldiers)
                       for occupied, soldiers in oracle._homes("xiangqi", "A", most))
        assert walk == Counter({(camp + own, own): ways
                                for (camp, own, opposing), ways in half.items()
                                if not opposing and camp + own <= most + 1})
    assert enum_soldiers_xq(0, 2) == 45


class TestPositionsOracle:
    def test_xiangqi_small(self):
        counts = enum_positions_small("xiangqi", 4)
        assert counts == ENUM_XQ_SMALL
        for pieces, count in counts.items():
            assert count == xq_positions(90 - pieces) == scan_positions("xiangqi")[pieces]
        assert scan_positions("xiangqi") == {90 - x: xq_positions(x) for x in range(70, 89)}

    def test_janggi_small(self):
        counts = enum_positions_small("janggi", 4)
        assert counts == ENUM_JG_SMALL
        for pieces, count in counts.items():
            assert count == jg_positions(pieces) == scan_positions("janggi")[pieces]
        assert scan_positions("janggi") == {n: jg_positions(n) for n in range(2, 17)}

    def test_scan_totals(self):
        assert scan_total("xiangqi") == xq_grand_total() == TRUE_XQ_TOTAL
        assert scan_total("janggi") == jg_grand_total() == TRUE_JG_TOTAL

    @pytest.mark.parametrize("variant,max_light_pieces", [
        (variant, most) for variant in ("xiangqi", "janggi") for most in (2, 3)])
    def test_lower_piece_bounds(self, variant, max_light_pieces):
        full = {"xiangqi": ENUM_XQ_SMALL, "janggi": ENUM_JG_SMALL}[variant]
        assert enum_positions_small(variant, max_light_pieces) == {
            pieces: count for pieces, count in full.items() if pieces <= max_light_pieces}

    def test_bound_error(self):
        with pytest.raises(OracleBoundError):
            enum_positions_small("xiangqi", 5)
        with pytest.raises(OracleBoundError):
            enum_positions_small("janggi", 1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            enum_positions_small("chess", 3)


_B_HALF = {s for s in board_sites() if s.rank > 5}
_B_HOME = {s for s in board_sites() if s.rank >= 8}


@pytest.mark.parametrize("variant,region,b_region", [
    pytest.param("xiangqi", oracle._HALF, _B_HALF, id="xiangqi"),
    pytest.param("janggi", oracle._HALF, _B_HALF, id="janggi"),
    pytest.param("janggi", zone("janggi", "A", "home_zone"), _B_HOME, id="janggi-home")])
def test_player_b_half_scans_as_player_a_half(variant, region, b_region, monkeypatch):
    """``scan_positions`` joins player A's half scan with itself, and
    ``jg_home_count`` serves both players' home zones.  Scanning B's real
    region, with every zone mirrored as B's, gives the same Counter,
    although the scan meets the mirrored sites of each file in reverse rank
    order."""
    a_region = oracle._region(variant, region)
    scan = oracle._scan

    def b_scan(sites, kinds):
        b_sites = [mirror(s) for s in sites]
        assert set(b_sites) == b_region
        return scan(b_sites, [(frozenset(map(mirror, zone_sites)), cap, one_per_file)
                              for zone_sites, cap, one_per_file in kinds])

    monkeypatch.setattr(oracle, "_scan", b_scan)
    assert oracle._region.__wrapped__(variant, region) == a_region


# Every cap combination of the roster's advisors, elephants and soldiers, each
# from 0 to its real cap, with the closed form reloaded at those caps.
_REDUCED_RULES = """
import importlib, itertools, json
from statecount import geometry, janggi, oracle, xiangqi

LIGHT = {"xiangqi": ("advisor", "elephant", "soldier"), "janggi": ("advisor", "soldier")}
real = dict(geometry.ROSTER)
combinations, walks, mismatches = 0, 0, []
for variant, names in LIGHT.items():
    for caps in itertools.product(*(range(real[variant][n].cap + 1) for n in names)):
        combinations += 1
        reduced = dict(zip(names, caps))
        geometry.ROSTER[variant] = {name: kind._replace(cap=reduced.get(name, kind.cap))
                                    for name, kind in real[variant].items()}
        for value in vars(oracle).values():
            getattr(value, "cache_clear", lambda: None)()
        if variant == "xiangqi":
            closed = importlib.reload(xiangqi)
            positions = {90 - x: closed.xq_positions(x) for x in closed.BLANKS_RANGE}
            total = closed.xq_grand_total()
        else:
            closed = importlib.reload(janggi)
            positions = {n: closed.jg_positions(n) for n in closed.PIECES_RANGE}
            total = closed.jg_grand_total()
        scan = oracle.scan_positions(variant)
        if (any(positions.get(p, 0) != scan[p] for p in {*positions, *scan})
                or total != oracle.scan_total(variant)):
            mismatches.append([variant, *caps])
        if max(caps) <= 1:  # the walk at three pieces sees caps 0 and 1
            walks += 1
            walk = oracle.enum_positions_small(variant, 3)
            if any(walk[p] != scan[p] for p in (2, 3)):
                mismatches.append([variant, *caps, "walk"])
print(json.dumps([combinations, walks, mismatches]))
"""


def test_reduced_rules_closed_form_equals_scan():
    """At every advisor, elephant and soldier cap up to the real ones, the
    closed form equals the scan at each index and in the grand total, and
    at caps 0 and 1 the full-board walk agrees at three pieces.  A fresh
    interpreter, because the closed-form modules are reloaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _REDUCED_RULES], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [3 * 3 * 6 + 3 * 6, 2 * 2 * 2 + 2 * 2, []]


def test_oracle_imports_only_geometry():
    """oracle.py takes nothing but the geometry, so a fresh interpreter that
    imports it runs no other ``statecount`` module."""
    taken = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("statecount")):
            module = (node.module or "").removeprefix("statecount").lstrip(".")
            taken |= {f"{module}.{a.name}".lstrip(".") for a in node.names}
        elif isinstance(node, ast.Import):
            taken |= {a.name.removeprefix("statecount.") for a in node.names
                      if a.name.startswith("statecount")}
    assert {name.split(".")[0] for name in taken} == {"geometry"}
    script = ("import json, sys, statecount.oracle; "
              "print(json.dumps(sorted(n for n in sys.modules if n.startswith('statecount'))))")
    env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == ["statecount", "statecount.geometry", "statecount.oracle"]


def test_closed_forms_import_no_itertools():
    """The closed forms multiply binomials; only the oracles enumerate."""
    for module in (combinatorics, xiangqi, janggi):
        tree = ast.parse(Path(module.__file__).read_text())
        taken = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        taken |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                  for a in node.names}
        assert "itertools" not in taken, module.__name__


def _reached(function) -> set[str]:
    """Names of the oracle-module functions that ``function`` reaches through
    its own calls, nested generators and the helpers it calls."""
    reached: set[str] = set()
    pending = [inspect.unwrap(function).__code__]
    while pending:
        code = pending.pop()
        pending += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        for name in code.co_names:
            value = inspect.unwrap(getattr(oracle, name, None))
            if (name not in reached and inspect.isfunction(value)
                    and value.__module__ == oracle.__name__):
                reached.add(name)
                pending.append(value.__code__)
    return reached


@pytest.mark.parametrize("name", ["enum_camp_xq", "enum_soldiers_xq", "enum_pair_fill",
                                  "enum_positions_small", "_homes"])
def test_brute_force_tier_never_reaches_the_scan(name):
    """The brute-force oracles and the test reference for the half scan stay
    independent of the site scan, so the two tiers check each other."""
    assert not {reached for reached in _reached(getattr(oracle, name))
                if reached in ("_scan", "_region") or reached.startswith("scan_")}


def test_scan_tier_walk_sees_the_scan():
    # the walk is not blind: the grid and total oracles do reach the scan
    assert {"_region", "_scan"} <= _reached(enum_side_xq)
    assert {"_region", "_scan"} <= _reached(enum_home_jg)
    assert {"scan_positions", "_region", "_scan", "count_pair_fill"} <= _reached(scan_total)
