"""Staged exact count of Xiangqi piece placements.

The pipeline, in order:

1. ``camp_classes``: one player's king/advisors/elephants inside the camp,
   classified by how many elephants stand on the two fifth-rank sites shared
   with soldiers (those sites shrink the soldier zone).
2. ``soldier_own_side``: one player's soldiers on their own half, at most
   one per file.
3. ``side_exact`` / ``side_reserve``: the half-board occupancy grid, keyed
   by blank sites and soldiers used (exact) or soldiers still available
   (cumulative reserve).
4. ``xq_positions``: ``light_stage`` convolves the two half-boards, adding
   river-crossed soldiers on the opponent's blanks; indexed by blanks.
5. ``xq_grand_total``: ``heavy_stage`` fills chariots/horses/cannons (six
   within-pair-identical pairs) onto the remaining blanks.

Everything is recomputed from the geometry sets in :mod:`statecount.geometry`;
no table values are hard-coded.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple

from .combinatorics import binom, heavy_stage, light_stage, pair_fill_count
from .geometry import zone

PALACE = zone("xiangqi", "A", "palace")
ADVISOR_SITES = zone("xiangqi", "A", "advisor_sites")
ELEPHANT_SITES = zone("xiangqi", "A", "elephant_sites")
SOLDIER_SITES = zone("xiangqi", "A", "soldier_own_side_sites")
SHARED_SITES = ELEPHANT_SITES & SOLDIER_SITES

HALF_SITES = 45
MAX_SOLDIERS = 5
MAX_CAMP_PIECES = 5  # king + up to two advisors + up to two elephants
MIN_SIDE_BLANKS = HALF_SITES - MAX_CAMP_PIECES - MAX_SOLDIERS  # 35
MAX_SIDE_BLANKS = HALF_SITES - 1  # 44: the king always occupies a site
HEAVY_PAIRS = 6  # two chariots, horses, cannons per player
BLANKS_RANGE = range(2 * MIN_SIDE_BLANKS, 2 * MAX_SIDE_BLANKS + 1)  # 70..88
# index ranges of the half-board grids: blanks on one half, soldiers used or
# held in reserve, and blank soldier sites with no, one or two elephants on
# the shared sites (10, 9, 8)
SIDE_BLANKS = range(MIN_SIDE_BLANKS, MAX_SIDE_BLANKS + 1)
SOLDIERS = range(MAX_SOLDIERS + 1)
BLANK_SOLDIER_SITES = range(len(SOLDIER_SITES), len(SOLDIER_SITES) - 3, -1)


class CampClassRow(NamedTuple):
    """Camp arrangement counts as tables 1 and 2 print them: all camps, then
    those with two, one and no elephants on the shared sites."""

    total: int
    two_shared: int
    one_shared: int
    no_shared: int


@lru_cache(maxsize=None)
def _elephant_subset_classes(elephants: int) -> dict[tuple[int, int], int]:
    """Count elephant-site subsets by (shared-site count, in-palace count)."""
    classes: dict[tuple[int, int], int] = {}
    for subset in combinations(sorted(ELEPHANT_SITES), elephants):
        key = (len(set(subset) & SHARED_SITES), len(set(subset) & PALACE))
        classes[key] = classes.get(key, 0) + 1
    return classes


@lru_cache(maxsize=None)
def camp_classes(advisors: int, elephants: int) -> CampClassRow:
    """Placements of king + identical advisors + identical elephants.

    Advisors occupy advisor sites (all inside the palace), elephants occupy
    the seven-point orbit, and the king takes any palace site not already
    occupied, so each advisor and each in-palace elephant removes one king
    choice.
    """
    advisor_ways = binom(len(ADVISOR_SITES), advisors)
    by_shared = [0, 0, 0]
    for (shared, in_palace), ways in _elephant_subset_classes(elephants).items():
        king_choices = len(PALACE) - advisors - in_palace
        by_shared[shared] += advisor_ways * ways * king_choices
    return CampClassRow(sum(by_shared), *reversed(by_shared))


@lru_cache(maxsize=None)
def camp_by_piece_count(pieces_used: int) -> CampClassRow:
    """Aggregate camp rows over advisors + elephants + king = pieces_used."""
    summed = [0, 0, 0, 0]
    for advisors in range(3):
        for elephants in range(3):
            if advisors + elephants + 1 == pieces_used:
                row = camp_classes(advisors, elephants)
                for column in range(4):
                    summed[column] += row[column]
    return CampClassRow(*summed)


def soldier_own_side(blank_soldier_sites: int, soldiers: int) -> int:
    """Own-half soldier placements, at most one soldier per file.

    Each of the five files offers two ranks, except files whose fifth-rank
    site is occupied by an own elephant (10 - blank_soldier_sites of them),
    which offer one.  Summed over the soldiers on two-rank files: a split
    that does not fit has a ``binom`` factor of 0, and a negative count
    gives an empty sum.
    """
    blocked = len(SOLDIER_SITES) - blank_soldier_sites
    free_files = len({s.file for s in SOLDIER_SITES}) - blocked
    return sum(binom(free_files, in_free) * 2 ** in_free * binom(blocked, soldiers - in_free)
               for in_free in range(soldiers + 1))


@lru_cache(maxsize=None)
def side_exact(blanks: int, soldiers_used: int) -> int:
    """One side's arrangements with exactly these blanks and soldiers.

    Camp piece count follows from blanks: pieces = 45 - blanks - soldiers.
    Infeasible input gives 0: no camp row holds pieces outside 1..5, and no
    own-side placement holds soldiers outside 0..5.
    """
    row = camp_by_piece_count(HALF_SITES - blanks - soldiers_used)
    return sum(
        ways * soldier_own_side(blank, soldiers_used)
        for ways, blank in zip((row.no_shared, row.one_shared, row.two_shared),
                               BLANK_SOLDIER_SITES)
    )


@lru_cache(maxsize=None)
def side_reserve(blanks: int, reserve: int) -> int:
    """Arrangements with the given blanks and at least ``reserve`` soldiers
    left unplaced on the own half (available to cross the river).

    Blanks outside 35..44 give 0 through ``side_exact`` and a reserve above
    five an empty sum; a negative reserve counts every arrangement, as
    ``enum_side_xq`` does.
    """
    return sum(side_exact(blanks, s) for s in range(MAX_SOLDIERS - reserve + 1))


def convolution_terms(x: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Nonzero ``light_stage`` terms (n1, k1, n2, k2, value) with blanks x.

    n1, n2 are blanks left by each player's own-half arrangement; k1, k2 are
    soldiers each player sends across the river onto the opponent's blanks.
    The feasibility bounds (n - k >= 35 etc.) hold automatically because
    ``side_reserve`` is 0 outside them.
    """
    return light_stage(SIDE_BLANKS, SOLDIERS, side_reserve,
                       lambda n1, k1, n2, k2: binom(n1, k2) * binom(n2, k1),
                       lambda n1, n2: n1 + n2 - x)


@lru_cache(maxsize=None)
def xq_positions(x: int) -> int:
    """Full-board king/advisor/elephant/soldier placements with x blanks."""
    return sum(value for *_, value in convolution_terms(x))


def grand_total_terms() -> Iterator[tuple[int, int, int]]:
    """``heavy_stage`` triples (x, y, term): y heavy pieces on the x blanks."""
    fills = [pair_fill_count(HEAVY_PAIRS, y) for y in range(2 * HEAVY_PAIRS + 1)]
    return heavy_stage(((x, xq_positions(x)) for x in BLANKS_RANGE), binom, fills)


def xq_grand_total() -> int:
    """The state-space count: light-stage positions times heavy-piece fills."""
    return sum(term for _, _, term in grand_total_terms())
