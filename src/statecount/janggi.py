"""Staged exact count of Janggi piece placements.

Janggi splits into each player's home zone (own first three ranks, 27
sites, containing the palace) and the four middle ranks (36 sites).  The
king and advisors roam the whole palace; soldiers may stand anywhere except
their owner's home zone, so a player's home zone holds only that player's
king/advisors plus the *opponent's* soldiers.

1. ``jg_palace_arrangements``: king + advisors inside one palace.
2. ``jg_home_count``: one home zone filled with its owner's palace pieces
   and opposing soldiers, reserving at least k opposing soldiers.
3. ``jg_positions``: two home zones convolved with both players' remaining
   soldiers on the shared middle ranks; indexed by pieces placed.
4. ``jg_grand_total``: chariots/horses/elephants/cannons (eight
   within-pair-identical pairs) filled onto the remaining blanks.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .combinatorics import binom, pair_fill_count
from .geometry import board_sites, zone

PALACE = zone("janggi", "A", "palace")
HOME_ZONE = zone("janggi", "A", "home_zone")
MIDDLE_RANKS = zone("janggi", "A", "middle_ranks")

BOARD_SITES = len(board_sites())  # 90
MAX_SOLDIERS = 5
MAX_PALACE_PIECES = 3  # king + up to two advisors
HEAVY_PAIRS = 8  # two chariots, horses, elephants, cannons per player
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
    least k of the opponent's five soldiers unused.
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
    """Nonzero convolution terms (n1, k1, n2, k2, value) using n pieces.

    n1, n2 are home-zone piece counts; k1, k2 are the players' soldiers on
    the middle ranks, placed sequentially on the shared 36 sites.
    """
    for n1 in HOME_PIECES:
        for n2 in HOME_PIECES:
            for k1 in SOLDIERS:
                k2 = n - n1 - n2 - k1
                if not 0 <= k2 <= MAX_SOLDIERS:
                    continue
                value = (
                    jg_home_count(n1, k1)
                    * jg_home_count(n2, k2)
                    * binom(len(MIDDLE_RANKS), k1)
                    * binom(len(MIDDLE_RANKS) - k1, k2)
                )
                if value:
                    yield n1, k1, n2, k2, value


@lru_cache(maxsize=None)
def jg_positions(n: int) -> int:
    """Full-board king/advisor/soldier placements using n pieces."""
    return sum(value for *_, value in convolution_terms(n))


def grand_total_terms() -> Iterator[tuple[int, int, int]]:
    """(n, y, term) triples of the heavy-piece stage.

    n = light pieces placed, so 90 - n sites remain; y of them receive
    heavy pieces.
    """
    for n in PIECES_RANGE:
        pn = jg_positions(n)
        for y in range(2 * HEAVY_PAIRS + 1):
            yield n, y, pn * binom(BOARD_SITES - n, y) * pair_fill_count(HEAVY_PAIRS, y)


def jg_grand_total() -> int:
    """The state-space count: light-stage positions times heavy-piece fills."""
    return sum(term for _, _, term in grand_total_terms())
