"""Coordinate-level model of both boards' zones and permitted-site sets.

The board has 9 files and 10 ranks of intersections (90 sites).  Sites are
``(file, rank)`` pairs in player A's frame: rank 1 is A's back rank, rank 10
is B's back rank.  Zone definitions are written player-relative (rank 1 =
own back rank) so both players share one template; ``zone()`` materializes
absolute coordinates, mirroring through the board's midline for player B.

Every cardinality and overlap used by the counting formulas is computed from
these sets rather than hard-coded, and ``validate_geometry`` re-checks all
of them at runtime.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple


class Site(NamedTuple):
    file: int  # 1..9
    rank: int  # 1..10


VARIANTS = ("xiangqi", "janggi")
PLAYERS = ("A", "B")

FILES = range(1, 10)
RANKS = range(1, 11)


def board_sites() -> frozenset[Site]:
    """All 90 intersections."""
    return frozenset(Site(f, r) for f in FILES for r in RANKS)


def mirror(site: Site) -> Site:
    """Reflect a site through the board's horizontal midline (rank 5.5)."""
    return Site(site.file, 11 - site.rank)


# Player-relative zone templates (rank 1 = own back rank).
_PALACE = frozenset(Site(f, r) for f in (4, 5, 6) for r in (1, 2, 3))

# Xiangqi advisors stand on the palace diagonal points, the elephant orbit is
# the standard seven points, and a player's soldiers start on ranks 4-5 in
# the odd files.
_XQ_ADVISOR = frozenset({Site(4, 1), Site(6, 1), Site(5, 2), Site(4, 3), Site(6, 3)})
_XQ_ELEPHANT = frozenset(
    {Site(3, 1), Site(7, 1), Site(1, 3), Site(5, 3), Site(9, 3), Site(3, 5), Site(7, 5)}
)
_XQ_SOLDIER_OWN = frozenset(Site(f, r) for f in (1, 3, 5, 7, 9) for r in (4, 5))

_JG_HOME = frozenset(Site(f, r) for f in FILES for r in (1, 2, 3))
_JG_MIDDLE = frozenset(Site(f, r) for f in FILES for r in (4, 5, 6, 7))

_ZONES: dict[str, dict[str, frozenset[Site]]] = {
    "xiangqi": {
        "palace": _PALACE,
        "king_sites": _PALACE,
        "advisor_sites": _XQ_ADVISOR,
        "elephant_sites": _XQ_ELEPHANT,
        "soldier_own_side_sites": _XQ_SOLDIER_OWN,
    },
    "janggi": {
        "palace": _PALACE,
        "king_sites": _PALACE,
        "advisor_sites": _PALACE,
        "home_zone": _JG_HOME,
        "middle_ranks": _JG_MIDDLE,
    },
}


class Kind(NamedTuple):
    """A light piece kind of one player."""
    zone: str  # the name of the zone it stands on
    cap: int  # at most this many of it
    one_per_file: bool  # at most one of it on any file


# Each player's light pieces by kind, the king first.  A soldier's zone is its
# own side's; Xiangqi's also cross the river, Janggi's the opposing home zone.
ROSTER: dict[str, dict[str, Kind]] = {
    "xiangqi": {"king": Kind("palace", 1, False),
                "advisor": Kind("advisor_sites", 2, False),
                "elephant": Kind("elephant_sites", 2, False),
                "soldier": Kind("soldier_own_side_sites", 5, True)},
    "janggi": {"king": Kind("palace", 1, False),
               "advisor": Kind("advisor_sites", 2, False),
               "soldier": Kind("middle_ranks", 5, False)},
}
# both players' heavy pieces on any blank sites, as pairs of identical pieces
HEAVY_PAIRS = {"xiangqi": 6, "janggi": 8}


def zone_names(variant: str) -> tuple[str, ...]:
    if variant not in _ZONES:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return tuple(_ZONES[variant])


def zone(variant: str, player: str, name: str) -> frozenset[Site]:
    """The exact absolute site set of a named zone for one player.

    Raises ValueError for an unknown variant, player, or zone name; such a
    call is a caller bug, not data.
    """
    names = zone_names(variant)
    if player not in PLAYERS:
        raise ValueError(f"unknown player {player!r}; expected one of {PLAYERS}")
    if name not in names:
        raise ValueError(f"unknown zone {name!r} for {variant}; expected one of {names}")
    relative = _ZONES[variant][name]
    if player == "A":
        return relative
    return frozenset(mirror(s) for s in relative)


class GeometryCheck(NamedTuple):
    check_id: str
    passed: bool


def _middle_four_ranks(sites: Iterable[Site]) -> bool:
    return {s.rank for s in sites} == {4, 5, 6, 7}


def validate_geometry(variant: str) -> list[GeometryCheck]:
    """Materialize every geometry invariant as a pass/fail record.

    The ``mirror[...]`` checks hold by construction, because ``zone``
    computes each player-B set as the reflection of player A's; they pin
    report lines, and no test claims they can fail.
    """
    def z(name: str) -> frozenset[Site]:
        return zone(variant, "A", name)

    checks: list[GeometryCheck] = []

    def check(check_id: str, passed: bool) -> None:
        checks.append(GeometryCheck(check_id, passed))

    check("board.sites=90", len(board_sites()) == 90)
    check("palace.size=9", len(z("palace")) == 9)
    if variant == "xiangqi":
        advisor, elephant = z("advisor_sites"), z("elephant_sites")
        soldier = z("soldier_own_side_sites")
        check("king_sites.size=9", len(z("king_sites")) == 9)
        check("advisor.size=5", len(advisor) == 5)
        check("elephant.size=7", len(elephant) == 7)
        check("soldier_own.size=10", len(soldier) == 10)
        check("advisor*elephant=0", not advisor & elephant)
        check("elephant*palace=1", len(elephant & z("palace")) == 1)
        check(
            "elephant*soldier=2:rank5,files3+7",
            elephant & soldier == {Site(3, 5), Site(7, 5)},
        )
        check(
            "soldier.files=odd,ranks4-5",
            {s.file for s in soldier} == {1, 3, 5, 7, 9}
            and {s.rank for s in soldier} == {4, 5},
        )
        check(
            "soldier.two_sites_per_file",
            all(
                sum(1 for s in soldier if s.file == f) == 2
                for f in {s.file for s in soldier}
            ),
        )
    else:
        home, middle = z("home_zone"), z("middle_ranks")
        check("home_zone.size=27", len(home) == 27)
        check("middle_ranks.size=36", len(middle) == 36)
        check("middle.ranks=4-7", _middle_four_ranks(middle))
        check("palace_inside_home", z("palace") <= home)
        check("home*middle=0", not home & middle)
    for name in zone_names(variant):
        check(
            f"mirror[{name}]",
            frozenset(mirror(s) for s in z(name)) == zone(variant, "B", name),
        )
    return checks
