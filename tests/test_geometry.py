"""Zone sets and their runtime validation."""
import pytest

from statecount import geometry
from statecount.geometry import (
    HEAVY_PAIRS,
    PLAYERS,
    ROSTER,
    VARIANTS,
    Site,
    board_sites,
    mirror,
    validate_geometry,
    zone,
    zone_names,
)


def test_board_has_90_sites():
    assert len(board_sites()) == 90


class TestXiangqiZones:
    def test_cardinalities(self):
        assert len(zone("xiangqi", "A", "king_sites")) == 9
        assert len(zone("xiangqi", "A", "advisor_sites")) == 5
        assert len(zone("xiangqi", "A", "elephant_sites")) == 7
        assert len(zone("xiangqi", "A", "soldier_own_side_sites")) == 10

    def test_advisor_elephant_disjoint(self):
        assert not zone("xiangqi", "A", "advisor_sites") & zone("xiangqi", "A", "elephant_sites")

    def test_one_elephant_site_in_palace(self):
        assert len(zone("xiangqi", "A", "elephant_sites") & zone("xiangqi", "A", "palace")) == 1

    def test_shared_elephant_soldier_sites(self):
        shared = zone("xiangqi", "A", "elephant_sites") & zone(
            "xiangqi", "A", "soldier_own_side_sites"
        )
        assert shared == {Site(3, 5), Site(7, 5)}

    def test_soldier_sites_layout(self):
        soldier = zone("xiangqi", "A", "soldier_own_side_sites")
        assert {s.file for s in soldier} == {1, 3, 5, 7, 9}
        assert {s.rank for s in soldier} == {4, 5}

    def test_advisors_are_palace_diagonal(self):
        advisor = zone("xiangqi", "A", "advisor_sites")
        assert advisor < zone("xiangqi", "A", "palace")
        assert Site(5, 2) in advisor  # palace center


class TestJanggiZones:
    def test_cardinalities(self):
        assert len(zone("janggi", "A", "palace")) == 9
        assert len(zone("janggi", "A", "home_zone")) == 27
        assert len(zone("janggi", "B", "middle_ranks")) == 36

    def test_middle_ranks_are_shared(self):
        assert zone("janggi", "A", "middle_ranks") == zone("janggi", "B", "middle_ranks")

    def test_palace_inside_home_zone(self):
        for player in ("A", "B"):
            assert zone("janggi", player, "palace") < zone("janggi", player, "home_zone")

    def test_advisors_roam_the_palace(self):
        assert zone("janggi", "A", "advisor_sites") == zone("janggi", "A", "palace")


class TestRoster:
    def test_every_kind_stands_on_a_zone(self):
        for variant in VARIANTS:
            assert {kind.zone for kind in ROSTER[variant].values()} <= set(zone_names(variant))

    def test_sixteen_pieces_a_player(self):
        # the heavy pairs are both players', two pieces to a pair
        heavy = {v: 2 * HEAVY_PAIRS[v] // len(PLAYERS) for v in VARIANTS}
        assert [k.cap for k in ROSTER["xiangqi"].values()] + [heavy["xiangqi"]] == [1, 2, 2, 5, 6]
        assert [k.cap for k in ROSTER["janggi"].values()] + [heavy["janggi"]] == [1, 2, 5, 8]
        assert all(sum(k.cap for k in ROSTER[v].values()) + heavy[v] == 16 for v in VARIANTS)

    def test_only_the_xiangqi_soldier_is_one_per_file(self):
        assert [(v, name) for v in VARIANTS for name, kind in ROSTER[v].items()
                if kind.one_per_file] == [("xiangqi", "soldier")]


def test_mirror_symmetry_every_zone():
    for variant in ("xiangqi", "janggi"):
        for name in zone_names(variant):
            reflected = frozenset(mirror(s) for s in zone(variant, "A", name))
            assert reflected == zone(variant, "B", name)


def test_zone_is_pure_data():
    first = zone("xiangqi", "A", "elephant_sites")
    second = zone("xiangqi", "A", "elephant_sites")
    assert first == second and isinstance(first, frozenset)


@pytest.mark.parametrize("variant,player,name", [
    ("xiangqi", "A", "home_zone"),
    ("janggi", "A", "elephant_sites"),
    ("xiangqi", "A", "nonsense"),
])
def test_unknown_zone_raises(variant, player, name):
    with pytest.raises(ValueError):
        zone(variant, player, name)


def test_unknown_variant_and_player_raise():
    with pytest.raises(ValueError):
        zone("chess", "A", "palace")
    with pytest.raises(ValueError):
        zone("xiangqi", "C", "palace")


class TestValidateGeometry:
    @pytest.mark.parametrize("variant", ["xiangqi", "janggi"])
    def test_all_checks_pass(self, variant):
        checks = validate_geometry(variant)
        assert checks and all(c.passed for c in checks)

    @pytest.mark.parametrize("variant,name,bad,check_ids", [
        ("xiangqi", "elephant_sites",
         {Site(3, 1), Site(7, 1), Site(1, 3), Site(5, 3), Site(9, 3), Site(3, 5), Site(7, 4)},
         {"elephant*soldier=2:rank5,files3+7"}),
        # right files, wrong ranks: only the rank half of the layout check fails
        ("xiangqi", "soldier_own_side_sites",
         {Site(f, r) for f in (1, 3, 5, 7, 9) for r in (5, 6)},
         {"soldier.files=odd,ranks4-5"}),
        ("janggi", "palace",
         {Site(f, r) for f in (4, 5, 6) for r in (2, 3, 4)},
         {"palace_inside_home"}),
        # a palace may fill its home zone: only the size check fails
        ("janggi", "palace", zone("janggi", "A", "home_zone"), {"palace.size=9"}),
        ("janggi", "middle_ranks",
         {Site(f, r) for f in range(1, 10) for r in (3, 4, 5, 6)},
         {"middle.ranks=4-7", "home*middle=0"}),
    ], ids=["elephant", "soldier", "janggi-palace", "janggi-palace-is-home",
            "janggi-middle_ranks"])
    def test_corrupted_set_fails_its_check(self, monkeypatch, variant, name, bad, check_ids):
        monkeypatch.setitem(geometry._ZONES[variant], name, frozenset(bad))
        checks = validate_geometry(variant)
        assert {c.check_id for c in checks if not c.passed} == check_ids

    def test_corruption_is_data_not_exception(self, monkeypatch):
        monkeypatch.setitem(geometry._ZONES["xiangqi"], "advisor_sites", frozenset())
        checks = validate_geometry("xiangqi")
        assert any(not c.passed for c in checks)
