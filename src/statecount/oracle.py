"""Counting oracles, independent of the closed forms.

``enum_camp_xq``, ``enum_soldiers_xq``, ``enum_pair_fill`` and
``enum_positions_small`` enumerate concrete placements with no shortcuts
beyond zone membership, so they are auditable by eye.  The other oracles
scan the board site by site: the grid oracles ``enum_side_exact_xq``,
``enum_side_xq`` and ``enum_home_jg`` read one scan of a half or a home
zone, ``scan_positions``/``scan_total`` join two half scans, and
``count_pair_fill`` is a recurrence over the pairs.  Oracles import only
the geometry and the ``CampClassRow`` record, never the closed forms;
agreement between the two is the package's core correctness argument.
Parameter domains live in ``cli.ORACLES``; the functions keep only their
tractability bounds (``OracleBoundError``).
"""
from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations, product

from .geometry import FILES, Site, board_sites, mirror, zone
from .xiangqi import CampClassRow

_XQ_PALACE = sorted(zone("xiangqi", "A", "palace"))
_XQ_ADVISOR = sorted(zone("xiangqi", "A", "advisor_sites"))
_XQ_ELEPHANT = sorted(zone("xiangqi", "A", "elephant_sites"))
_XQ_SOLDIER = sorted(zone("xiangqi", "A", "soldier_own_side_sites"))
_XQ_SHARED = zone("xiangqi", "A", "elephant_sites") & zone(
    "xiangqi", "A", "soldier_own_side_sites"
)
_JG_PALACE = sorted(zone("janggi", "A", "palace"))
_JG_HOME = sorted(zone("janggi", "A", "home_zone"))

PAIR_FILL_MAX_SEQUENCES = 20_000_000
POSITIONS_MAX_LIGHT_PIECES = 4


class OracleBoundError(ValueError):
    """Arguments exceed an oracle's tractability bound (caller misuse)."""


def _tally(pairs) -> Counter:
    """Sum the ways of equal keys over (key, ways) pairs."""
    counts: Counter = Counter()
    for key, ways in pairs:
        counts[key] += ways
    return counts


def enum_camp_xq(advisors: int, elephants: int) -> CampClassRow:
    """Exhaust all king/advisor/elephant camp placements.

    Advisors and elephants are identical within their type, so subsets of
    sites (not sequences) are enumerated.  Domain <= C(5,2)*C(7,2)*9.
    """
    by_shared = [0, 0, 0]
    for adv in combinations(_XQ_ADVISOR, advisors):
        for ele in combinations(_XQ_ELEPHANT, elephants):
            occupied = set(adv) | set(ele)
            shared = len(set(ele) & _XQ_SHARED)
            for king in _XQ_PALACE:
                if king not in occupied:
                    by_shared[shared] += 1
    return CampClassRow(tuple(by_shared))


def enum_soldiers_xq(shared_sites_blocked: int, soldiers: int) -> int:
    """Exhaust own-half soldier subsets, at most one soldier per file.

    ``shared_sites_blocked`` of the two elephant/soldier shared sites are
    unavailable.  Domain <= 2^10.
    """
    blocked = sorted(_XQ_SHARED)[:shared_sites_blocked]
    available = [s for s in _XQ_SOLDIER if s not in blocked]
    count = 0
    for subset in combinations(available, soldiers):
        files = [s.file for s in subset]
        if len(set(files)) == len(files):
            count += 1
    return count


def _xq_side_placements(max_extra: int | None = None):
    """Yield (occupied frozenset, pieces, soldiers) for one player's own half.

    Joint enumeration of king, advisor subsets, elephant subsets, and
    soldier subsets (one per file, shared sites excluded when an elephant
    stands there).
    """
    for advisors in range(3):
        for adv in combinations(_XQ_ADVISOR, advisors):
            for elephants in range(3):
                if max_extra is not None and advisors + elephants > max_extra:
                    continue
                for ele in combinations(_XQ_ELEPHANT, elephants):
                    occ_ae = set(adv) | set(ele)
                    for king in _XQ_PALACE:
                        if king in occ_ae:
                            continue
                        occ = occ_ae | {king}
                        available = [s for s in _XQ_SOLDIER if s not in occ]
                        max_soldiers = 5
                        if max_extra is not None:
                            max_soldiers = min(5, max_extra - advisors - elephants)
                        for soldiers in range(max_soldiers + 1):
                            for subset in combinations(available, soldiers):
                                files = [s.file for s in subset]
                                if len(set(files)) != len(files):
                                    continue
                                yield occ | set(subset), 1 + advisors + elephants + soldiers, soldiers


def _xq_side_grid() -> Counter:
    """(blanks, soldiers used) -> placements on one player's own half: the
    half scan with no opposing soldiers."""
    return Counter({(45 - camp - soldiers, soldiers): ways
                    for (camp, soldiers, opposing), ways in _half("xiangqi", "A").items()
                    if not opposing})


def enum_side_exact_xq(blanks: int, soldiers: int) -> int:
    """Half-board site scan: placements with exactly these blanks and
    own-side soldiers."""
    return _xq_side_grid().get((blanks, soldiers), 0)


def enum_side_xq(blanks: int, reserve: int) -> int:
    """Half-board site scan bucketed by blanks and soldier reserve.

    Counts placements with the given blank count whose soldier usage leaves
    at least ``reserve`` of the five soldiers unplaced.
    """
    grid = _xq_side_grid()
    return sum(grid.get((blanks, s), 0) for s in range(0, 6 - reserve))


@lru_cache(maxsize=1)
def _jg_home_grid() -> Counter:
    """(palace pieces, opposing soldiers) -> placements in one home zone:
    a scan of king, advisors and opposing soldiers, with the king placed."""
    scan = _scan(_JG_HOME, [(_JG_PALACE, 1, False), (_JG_PALACE, 2, False),
                            (_JG_HOME, 5, False)])
    return _tally(((king + advisors, soldiers), ways)
                  for (king, advisors, soldiers), ways in scan.items() if king)


def enum_home_jg(n: int, k: int) -> int:
    """Palace + opposing-soldier site scan of one Janggi home zone.

    Counts placements of n pieces (own king/advisors plus opposing soldiers)
    leaving at least k of the five opposing soldiers unused.
    """
    grid = _jg_home_grid()
    return sum(
        count
        for (palace_pieces, soldiers), count in grid.items()
        if palace_pieces + soldiers == n and 5 - soldiers >= k
    )


def enum_pair_fill(m: int, n: int) -> int:
    """Count length-n site-label sequences over m symbols, none used thrice.

    Enumerates all m^n sequences, so the bound is m^n <= 20 million
    (covers m <= 4, n <= 8 and m = 8, n <= 8).
    """
    if n < 0 or m < 0:
        return 0
    if m ** max(n, 1) > PAIR_FILL_MAX_SEQUENCES:
        raise OracleBoundError(
            f"enum_pair_fill({m}, {n}) needs {m ** n} sequences; "
            f"bound is {PAIR_FILL_MAX_SEQUENCES}"
        )
    if n == 0:
        return 1
    count = 0
    for seq in product(range(m), repeat=n):
        if all(seq.count(symbol) <= 2 for symbol in set(seq)):
            count += 1
    return count


def _mirror_all(sites) -> list[Site]:
    return sorted(mirror(s) for s in sites)


def enum_positions_small(variant: str, max_light_pieces: int) -> dict[int, int]:
    """Directly enumerate full-board light-piece placements, by piece count.

    Both kings are always present; advisors/elephants/soldiers are added up
    to the total bound.  Every subset is enumerated over concrete sites,
    including river-crossed soldiers (Xiangqi) and middle-rank soldiers
    (Janggi), so this is the final arbiter for the small convolution values.
    """
    if max_light_pieces > POSITIONS_MAX_LIGHT_PIECES:
        raise OracleBoundError(
            f"enum_positions_small bound is {POSITIONS_MAX_LIGHT_PIECES} pieces, "
            f"got {max_light_pieces}"
        )
    if max_light_pieces < 2:
        raise OracleBoundError("both kings are always on the board; need >= 2")
    if variant == "xiangqi":
        return _enum_positions_xq(max_light_pieces)
    if variant == "janggi":
        return _enum_positions_jg(max_light_pieces)
    raise ValueError(f"unknown variant {variant!r}")


def _enum_positions_xq(max_total: int) -> dict[int, int]:
    a_half = frozenset(Site(f, r) for f in range(1, 10) for r in range(1, 6))
    b_half = frozenset(Site(f, r) for f in range(1, 10) for r in range(6, 11))
    a_sides = list(_xq_side_placements(max_extra=max_total - 2))
    b_sides = [
        (frozenset(mirror(s) for s in occ), pieces, soldiers)
        for occ, pieces, soldiers in a_sides
    ]
    counts: dict[int, int] = {}
    for occ_a, pieces_a, soldiers_a in a_sides:
        for occ_b, pieces_b, soldiers_b in b_sides:
            base = pieces_a + pieces_b
            if base > max_total:
                continue
            blanks_b = sorted(b_half - occ_b)
            blanks_a = sorted(a_half - occ_a)
            room = max_total - base
            for crossed_a in range(min(5 - soldiers_a, room) + 1):
                for sub_a in combinations(blanks_b, crossed_a):
                    for crossed_b in range(min(5 - soldiers_b, room - crossed_a) + 1):
                        for sub_b in combinations(blanks_a, crossed_b):
                            total = base + crossed_a + crossed_b
                            counts[total] = counts.get(total, 0) + 1
    return counts


def _enum_positions_jg(max_total: int) -> dict[int, int]:
    a_palace = _JG_PALACE
    b_palace = _mirror_all(_JG_PALACE)
    middle = [Site(f, r) for f in range(1, 10) for r in (4, 5, 6, 7)]
    a_soldier_zone = sorted(set(middle) | set(_mirror_all(_JG_HOME)))
    b_soldier_zone = sorted(set(middle) | set(_JG_HOME))
    counts: dict[int, int] = {}
    for king_a in a_palace:
        for king_b in b_palace:
            occ0 = {king_a, king_b}
            for adv_a_n in range(3):
                for adv_a in combinations([s for s in a_palace if s not in occ0], adv_a_n):
                    occ1 = occ0 | set(adv_a)
                    for adv_b_n in range(3):
                        if 2 + adv_a_n + adv_b_n > max_total:
                            continue
                        for adv_b in combinations(
                            [s for s in b_palace if s not in occ1], adv_b_n
                        ):
                            occ2 = occ1 | set(adv_b)
                            room = max_total - 2 - adv_a_n - adv_b_n
                            for sold_a_n in range(min(5, room) + 1):
                                for sold_a in combinations(
                                    [s for s in a_soldier_zone if s not in occ2], sold_a_n
                                ):
                                    occ3 = occ2 | set(sold_a)
                                    for sold_b_n in range(min(5, room - sold_a_n) + 1):
                                        for _sold_b in combinations(
                                            [s for s in b_soldier_zone if s not in occ3],
                                            sold_b_n,
                                        ):
                                            total = 2 + adv_a_n + adv_b_n + sold_a_n + sold_b_n
                                            counts[total] = counts.get(total, 0) + 1
    return counts


# --- site-scan oracle ---------------------------------------------------
# The transfer-matrix board scan of Tromp & Farnebäck, "Combinatorics of Go"
# (2007): visit sites one at a time, keeping only per-kind piece counts.  It
# shares no factorization with the closed forms: no camp classes, no
# half-board grids, no convolution over blanks.

# heavy pieces as within-pair-identical pairs: chariots, horses, cannons,
# plus Janggi elephants, two of each per player
_HEAVY_PAIRS = {"xiangqi": 6, "janggi": 8}


def _scan(sites, kinds) -> Counter:
    """Placements on ``sites``, counted by the number of pieces of each kind.

    Each kind is ``(zone, cap, one_per_file)``: identical pieces that stand
    only on ``zone``, at most ``cap`` of them, and with ``one_per_file`` at
    most one on any file.  A state holds each kind's count and whether the
    current file already holds one of it; that flag resets at each new file.
    """
    width = len(kinds)
    states = Counter({(0,) * 2 * width: 1})
    for file in FILES:
        states = _tally((state[:width] + (0,) * width, ways)
                        for state, ways in states.items())
        for site in sorted(s for s in sites if s.file == file):
            following = states.copy()  # the site stays empty
            for state, ways in states.items():
                for i, (zone_sites, cap, one_per_file) in enumerate(kinds):
                    if site in zone_sites and state[i] < cap and not state[width + i]:
                        placed = list(state)
                        placed[i] += 1
                        placed[width + i] = int(one_per_file)
                        following[tuple(placed)] += ways
            states = following
    return _tally((state[:width], ways) for state, ways in states.items())


@lru_cache(maxsize=None)
def _half(variant: str, player: str) -> Counter:
    """(camp pieces, own soldiers, opposing soldiers) -> placements on the
    player's half, ranks 1-5 for A and 6-10 for B, with the king placed."""
    half = frozenset(s for s in board_sites() if (s.rank <= 5) == (player == "A"))
    camp = [(zone(variant, player, "palace"), 1, False),
            (zone(variant, player, "advisor_sites"), 2, False)]
    if variant == "xiangqi":
        camp.append((zone(variant, player, "elephant_sites"), 2, False))
        own = (zone(variant, player, "soldier_own_side_sites"), 5, True)
    else:
        own = (zone(variant, player, "middle_ranks") & half, 5, False)
    scan = _scan(half, [*camp, own, (half, 5, False)])
    return _tally(((king + sum(others), soldiers, opposing), ways)
                  for (king, *others, soldiers, opposing), ways in scan.items() if king)


@lru_cache(maxsize=None)
def scan_positions(variant: str) -> Counter:
    """Full-board light-stage placements by piece count, joining the two
    halves so that each player has at most five soldiers in all."""
    return _tally((camp_a + home_a + away_b + camp_b + home_b + away_a, ways_a * ways_b)
                  for (camp_a, home_a, away_b), ways_a in _half(variant, "A").items()
                  for (camp_b, home_b, away_a), ways_b in _half(variant, "B").items()
                  if home_a + away_a <= 5 and home_b + away_b <= 5)


@lru_cache(maxsize=None)
def count_pair_fill(m: int, n: int) -> int:
    """Ways to fill n distinct sites from m pairs of identical pieces: the
    last pair takes none, one or two of the sites, the other pairs the rest."""
    if m <= 0 or n < 0:
        return int(m == n == 0)
    return (count_pair_fill(m - 1, n) + n * count_pair_fill(m - 1, n - 1)
            + math.comb(n, 2) * count_pair_fill(m - 1, n - 2))


@lru_cache(maxsize=None)
def scan_total(variant: str) -> int:
    """The grand total: scanned light-stage placements times the ways to
    fill y of the remaining sites with heavy pieces."""
    pairs = _HEAVY_PAIRS[variant]
    sites = len(board_sites())
    return sum(ways * math.comb(sites - pieces, y) * count_pair_fill(pairs, y)
               for pieces, ways in scan_positions(variant).items()
               for y in range(2 * pairs + 1))
