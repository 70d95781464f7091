"""Staged exact count of Janggi piece placements.

Janggi splits into each player's home zone (own first three ranks, 27
sites, containing the palace) and the four middle ranks (36 sites).  The
king and advisors roam the whole palace; soldiers may stand anywhere except
their owner's home zone, so a player's home zone holds only that player's
king/advisors plus the *opponent's* soldiers.

1. ``jg_palace_arrangements``: king + advisors inside one palace.
2. ``jg_home_count``: one home zone filled with its owner's palace pieces
   and opposing soldiers, reserving at least k opposing soldiers.
3. ``jg_positions``: ``light_stage`` convolves two home zones with both
   players' remaining soldiers on the middle ranks; indexed by pieces placed.
4. ``jg_grand_total``: ``heavy_stage`` fills chariots/horses/elephants/cannons
   (eight within-pair-identical pairs) onto the remaining blanks.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .combinatorics import binom, heavy_stage, light_stage, pair_fill_count
from .geometry import HEAVY_PAIRS as _HEAVY_PAIRS, ROSTER, board_sites, zone

PALACE = zone("janggi", "A", "palace")
HOME_ZONE = zone("janggi", "A", "home_zone")
MIDDLE_RANKS = zone("janggi", "A", "middle_ranks")

BOARD_SITES = len(board_sites())  # 90
MAX_SOLDIERS = ROSTER["janggi"]["soldier"].cap
MAX_PALACE_PIECES = ROSTER["janggi"]["king"].cap + ROSTER["janggi"]["advisor"].cap  # 3
HEAVY_PAIRS = _HEAVY_PAIRS["janggi"]
MAX_HOME_PIECES = MAX_PALACE_PIECES + MAX_SOLDIERS  # 8
# index ranges of the home-zone grid: pieces in one home zone, opposing
# soldiers held in reserve
HOME_PIECES = range(1, MAX_HOME_PIECES + 1)
SOLDIERS = range(MAX_SOLDIERS + 1)
# light stage: 2..16 kings/advisors/soldiers on the board
PIECES_RANGE = range(2, 2 * MAX_HOME_PIECES + 1)


def jg_palace_arrangements(advisors: int) -> int:
    """King + identical advisors anywhere in the nine-site palace: choose
    the occupied sites, then which of them holds the king."""
    occupied = advisors + 1
    return occupied * binom(len(PALACE), occupied)


@lru_cache(maxsize=None)
def jg_home_count(n: int, k: int) -> int:
    """One home zone holding n pieces with at least k opposing soldiers unused.

    Summing over i = own king + advisors in the palace (1..3): palace
    arrangements times opposing-soldier subsets of the remaining home-zone
    sites.  A term contributes only if the n - i soldiers it places leave at
    least k of the opponent's ``MAX_SOLDIERS`` unused.
    """
    total = 0
    for palace_pieces in range(1, MAX_PALACE_PIECES + 1):
        soldiers = n - palace_pieces
        if soldiers > MAX_SOLDIERS:  # binom would still count a sixth soldier
            continue
        if MAX_SOLDIERS - soldiers < k:
            continue
        total += jg_palace_arrangements(palace_pieces - 1) * binom(
            len(HOME_ZONE) - palace_pieces, soldiers
        )
    return total


def convolution_terms(n: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Nonzero ``light_stage`` terms (n1, k1, n2, k2, value) using n pieces.

    n1, n2 are home-zone piece counts; k1, k2 are the players' soldiers on
    the middle ranks, placed sequentially on the shared 36 sites.
    """
    return light_stage(HOME_PIECES, SOLDIERS, jg_home_count,
                       lambda n1, k1, n2, k2: binom(len(MIDDLE_RANKS), k1)
                       * binom(len(MIDDLE_RANKS) - k1, k2),
                       lambda n1, n2: n - n1 - n2)


@lru_cache(maxsize=None)
def jg_positions(n: int) -> int:
    """Full-board king/advisor/soldier placements using n pieces."""
    return sum(value for *_, value in convolution_terms(n))


def heavy_site_choices(n: int, y: int) -> int:
    """The sites of y heavy pieces among the 90 - n blanks of n light pieces."""
    return binom(BOARD_SITES - n, y)


def grand_total_terms() -> Iterator[tuple[int, int, int]]:
    """``heavy_stage`` triples (n, y, term): y heavy pieces on the 90 - n blanks."""
    fills = [pair_fill_count(HEAVY_PAIRS, y) for y in range(2 * HEAVY_PAIRS + 1)]
    return heavy_stage(((n, jg_positions(n)) for n in PIECES_RANGE),
                       heavy_site_choices, fills)


def jg_grand_total() -> int:
    """The state-space count: light-stage positions times heavy-piece fills."""
    return sum(term for _, _, term in grand_total_terms())


# the tables ``statecount table`` prints from this module, laid out as
# ``xiangqi.TABLES`` are
TABLES = {
    "t6": (("pieces",), [(n,) for n in HOME_PIECES], [f"reserve_{k}" for k in SOLDIERS],
           lambda n: [jg_home_count(n, k) for k in SOLDIERS]),
    "klist": (("pieces",), [(n,) for n in PIECES_RANGE], ("count",), lambda n: [jg_positions(n)]),
}
