"""Counting oracles, independent of the closed forms.

Two tiers of oracles count every published value again.  The brute-force
tier, ``enum_camp_xq``, ``enum_soldiers_xq``, ``enum_pair_fill`` and
``enum_positions_small``, enumerates concrete placements with no shortcuts
beyond zone membership, so it is auditable by eye.  The pair fill draws
every sequence as the numeral of its symbol counts and judges each drawn
sequence by whether that numeral has no digit above 2.  The others walk
``_subsets``, the subsets of a zone's free sites up to a size bound:
``_camps`` walks a king with its advisors and elephants,
``_one_per_file`` keeps Xiangqi soldiers one per file on their own side,
and ``enum_positions_small`` is one walk for both variants, each
player's ``_homes`` and then its soldiers on the ``_away`` sites.  The
site-scan tier visits the board site by site: the grid oracles
``enum_side_exact_xq``, ``enum_side_xq`` and ``enum_home_jg`` read one cached
scan of a region, ``_region``, over a half or a home zone,
``scan_positions``/``scan_total`` join the half's scan with itself, and
``count_pair_fill`` is a recurrence on pairs.  The brute-force tier calls
nothing of the scan tier, so the two check each other.  Oracles import only the geometry, its zones and its piece roster
(read at call time), never the closed forms or their records, so ``import
statecount.oracle`` runs ``geometry`` alone; agreement between oracles and
closed forms is the package's core correctness argument.  Parameter domains
live in ``commands.ORACLES``, which takes the grid ranges from the
closed-form modules; the functions keep only their tractability bounds
(``OracleBoundError``).
"""
from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations, product

from .geometry import FILES, HEAVY_PAIRS, ROSTER, board_sites, zone

_XQ_SOLDIER = sorted(zone("xiangqi", "A", "soldier_own_side_sites"))
_XQ_SHARED = zone("xiangqi", "A", "elephant_sites") & zone(
    "xiangqi", "A", "soldier_own_side_sites"
)
_HALF = frozenset(s for s in board_sites() if s.rank <= 5)  # A's side of the river

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


def _subsets(sites, taken, most: int):
    """Subsets of the sites not in ``taken``, smallest first, of at most
    ``most`` sites."""
    if most >= 0:
        yield ()
    if most > 0:  # most calls ask for the empty subset alone
        free = [s for s in sites if s not in taken]
        for size in range(1, most + 1):
            yield from combinations(free, size)


def _camp_kinds(variant: str, player: str) -> list:
    """A player's camp, every roster kind but the soldier, as ``_scan`` kinds."""
    return [(zone(variant, player, kind.zone), kind.cap, kind.one_per_file)
            for name, kind in ROSTER[variant].items() if name != "soldier"]


def _camps(variant: str, player: str, most: int):
    """Yield (the sites of each camp kind after the king, occupied sites) for
    each camp: up to each kind's roster cap on its zone (the zones are
    disjoint), at most ``most`` pieces in all, and a king on a free palace site."""
    (palace, _, _), *others = _camp_kinds(variant, player)
    for pieces in product(*(_subsets(sites, (), min(cap, most)) for sites, cap, _ in others)):
        camp = sum(pieces, ())
        if len(camp) <= most:
            for king in palace:
                if king not in camp:
                    yield pieces, frozenset((king, *camp))


def _one_per_file(sites, taken, most: int):
    """Subsets of the sites not in ``taken``, at most ``most`` sites and at
    most one on any file."""
    return (subset for subset in _subsets(sites, taken, most)
            if len({s.file for s in subset}) == len(subset))


@lru_cache(maxsize=1)
def _xq_camp_classes() -> Counter:
    """(advisors, elephants, elephants on the two sites shared with soldiers)
    -> camps."""
    return Counter((len(adv), len(ele), len(_XQ_SHARED.intersection(ele)))  # caps bound it
                   for (adv, ele), _ in _camps("xiangqi", "A", len(board_sites())))


def enum_camp_xq(advisors: int, elephants: int) -> tuple[int, int, int, int]:
    """Exhaust all king/advisor/elephant camp placements, counted as tables 1
    and 2 print them: all camps, then those with two, one and no elephants
    on the shared sites.

    Advisors and elephants are identical within their type, so subsets of
    sites (not sequences) are enumerated.  Domain <= C(5,2)*C(7,2)*9.
    """
    classes = _xq_camp_classes()
    two, one, no = (classes[advisors, elephants, shared] for shared in (2, 1, 0))
    return two + one + no, two, one, no


def enum_soldiers_xq(shared_sites_blocked: int, soldiers: int) -> int:
    """Exhaust own-half soldier subsets, at most one soldier per file.

    ``shared_sites_blocked`` of the two elephant/soldier shared sites are
    unavailable.  Domain <= 2^10.
    """
    blocked = sorted(_XQ_SHARED)[:shared_sites_blocked]
    return sum(len(subset) == soldiers for subset in _one_per_file(_XQ_SOLDIER, blocked, soldiers))


def enum_side_exact_xq(blanks: int, soldiers: int) -> int:
    """Half-board site scan: placements with exactly these blanks and
    own-side soldiers."""
    return _region("xiangqi", _HALF).get((len(_HALF) - blanks - soldiers, soldiers, 0), 0)


def enum_side_xq(blanks: int, reserve: int) -> int:
    """Half-board site scan bucketed by blanks and soldier reserve.

    Counts placements with the given blank count whose soldier usage leaves
    at least ``reserve`` of the roster's soldiers unplaced.
    """
    half = _region("xiangqi", _HALF)
    cap = ROSTER["xiangqi"]["soldier"].cap
    return sum(half.get((len(_HALF) - blanks - s, s, 0), 0) for s in range(cap + 1 - reserve))


def enum_home_jg(n: int, k: int) -> int:
    """Palace + opposing-soldier site scan of one Janggi home zone.

    Counts placements of n pieces (own king/advisors plus opposing soldiers)
    leaving at least k of the opponent's roster soldiers unused.
    """
    home = _region("janggi", zone("janggi", "A", "home_zone"))
    return sum(count for (camp, own, opposing), count in home.items()
               if camp + own + opposing == n
               and ROSTER["janggi"]["soldier"].cap - opposing >= k)


def enum_pair_fill(m: int, n: int) -> int:
    """Count length-n site-label sequences over m symbols, none used thrice.

    Enumerates all m^n sequences, so the bound is m^n <= 20 million.  For
    the pair counts verify uses, that covers n <= 9 at m = 6 (Xiangqi) and
    n <= 8 at m = 8 (Janggi).  Symbol s weighs (n + 1) ** s, so a sequence
    sums to the base-(n + 1) numeral of its symbol counts (each at most n),
    which it shares exactly with the sequences of its sorted copy.  Each
    drawn sequence is judged on its own: it counts if its numeral is in
    ``valid``, the 3^m numerals with no digit above 2.  That is exact: for
    n >= 2 the base is at least 3, so each such numeral is written one way
    only; for n <= 1 no symbol can be used three times.
    """
    if n < 0 or m < 0:
        return 0
    if m ** n > PAIR_FILL_MAX_SEQUENCES:
        raise OracleBoundError(
            f"enum_pair_fill({m}, {n}) needs {m ** n} sequences; "
            f"bound is {PAIR_FILL_MAX_SEQUENCES}"
        )
    base = n + 1
    valid = {0}
    for s in range(m):
        valid = {code + d * base ** s for code in valid for d in (0, 1, 2)}
    return sum(map(valid.__contains__,
                   map(sum, product([base ** s for s in range(m)], repeat=n))))


def _homes(variant: str, player: str, most: int):
    """Yield (occupied sites, soldiers) for each of a player's home
    placements: a camp and, in Xiangqi, one-per-file soldiers on the roster's
    soldier zone up to its cap, at most ``most`` pieces besides the king.  Janggi's
    soldier zone, the middle ranks, is both players': ``_away`` holds it."""
    soldier = ROSTER[variant]["soldier"]
    own = zone(variant, player, soldier.zone) if variant == "xiangqi" else ()
    for _, camp in _camps(variant, player, most):
        for soldiers in _one_per_file(own, camp, min(soldier.cap, most + 1 - len(camp))):
            yield camp.union(soldiers), len(soldiers)


def _away(variant: str, player: str) -> frozenset:
    """The sites a player's other soldiers may take: the opposing half in
    Xiangqi, the middle ranks and the opposing home zone in Janggi."""
    if variant == "xiangqi":
        return board_sites() - _HALF if player == "A" else _HALF
    opponent = "B" if player == "A" else "A"
    return zone(variant, player, "middle_ranks") | zone(variant, opponent, "home_zone")


def enum_positions_small(variant: str, max_light_pieces: int) -> dict[int, int]:
    """Directly enumerate full-board light-piece placements, by piece count.

    Both kings are always present; advisors/elephants/soldiers are added up
    to the total bound.  One walk serves both variants: each player's home
    placements (``_homes``), then its other soldiers on its ``_away`` sites,
    up to the roster's soldier cap a player.  Every subset is enumerated over
    concrete sites, each player on its own zones, so this is the final
    arbiter for the small convolution values.
    """
    if max_light_pieces > POSITIONS_MAX_LIGHT_PIECES:
        raise OracleBoundError(
            f"enum_positions_small bound is {POSITIONS_MAX_LIGHT_PIECES} pieces, "
            f"got {max_light_pieces}"
        )
    if max_light_pieces < 2:
        raise OracleBoundError("both kings are always on the board; need >= 2")
    counts: Counter = Counter()
    away_a, away_b = _away(variant, "A"), _away(variant, "B")
    cap = ROSTER[variant]["soldier"].cap
    for occ_a, home_a in _homes(variant, "A", max_light_pieces - 2):
        for occ_b, home_b in _homes(variant, "B", max_light_pieces - 1 - len(occ_a)):
            occupied = occ_a | occ_b
            room = max_light_pieces - len(occupied)
            for sold_a in _subsets(away_a, occupied, min(cap - home_a, room)):
                for sold_b in _subsets(away_b, occupied.union(sold_a),
                                       min(cap - home_b, room - len(sold_a))):
                    counts[len(occupied) + len(sold_a) + len(sold_b)] += 1
    return counts


# --- site-scan oracle ---------------------------------------------------
# The transfer-matrix board scan of Tromp & Farnebäck, "Combinatorics of Go"
# (2007): visit sites one at a time, keeping only per-kind piece counts.  It
# shares no factorization with the closed forms: no camp classes, no
# half-board grids, no convolution over blanks.


def _scan(sites, kinds) -> Counter:
    """Placements on ``sites``, counted by the number of pieces of each kind.

    Each kind is ``(zone, cap, one_per_file)``: identical pieces that stand
    only on ``zone``, at most ``cap`` of them, and with ``one_per_file`` at
    most one on any file.  A state holds each kind's count and whether the
    current file already holds one of it; that flag resets at each new file.
    Each site takes at most one piece and every rule is per kind or per
    file, so the counts do not depend on the order of a file's sites.
    """
    width = len(kinds)
    states = Counter({(0,) * width: 1})
    for file in FILES:
        states = _tally((state[:width] + (0,) * width, ways)
                        for state, ways in states.items())
        for site in sorted(s for s in sites if s.file == file):
            here = [(i, cap, one_per_file) for i, (zone_sites, cap, one_per_file)
                    in enumerate(kinds) if site in zone_sites]
            following = states.copy()  # the site stays empty
            for state, ways in states.items():
                for i, cap, one_per_file in here:
                    if state[i] < cap and not state[width + i]:
                        placed = list(state)
                        placed[i] += 1
                        placed[width + i] = int(one_per_file)
                        following[tuple(placed)] += ways
            states = following
    return _tally((state[:width], ways) for state, ways in states.items())


@lru_cache(maxsize=None)
def _region(variant: str, sites: frozenset) -> Counter:
    """(camp pieces, own soldiers, opposing soldiers) -> placements on
    ``sites``, a region of player A's side, with the king placed: A's camp,
    A's soldiers on the roster's soldier zone within ``sites``, and the
    opponent's soldiers on any of ``sites``.  B's mirrored region counts the
    same: ``geometry.zone`` builds B's zones as the mirrors of A's, a mirror
    keeps each site's file, and ``_scan`` does not mind the order within a
    file."""
    soldier = ROSTER[variant]["soldier"]
    own = (zone(variant, "A", soldier.zone) & sites, soldier.cap, soldier.one_per_file)
    scan = _scan(sites, [*_camp_kinds(variant, "A"), own, (sites, soldier.cap, False)])
    return _tally(((king + sum(others), soldiers, opposing), ways)
                  for (king, *others, soldiers, opposing), ways in scan.items() if king)


@lru_cache(maxsize=None)
def scan_positions(variant: str) -> Counter:
    """Full-board light-stage placements by piece count, joining the half
    scan with itself, once per player, so that each player has at most the
    roster's soldier cap in all."""
    cap = ROSTER[variant]["soldier"].cap
    half = _region(variant, _HALF)
    return _tally((camp_a + home_a + away_b + camp_b + home_b + away_a, ways_a * ways_b)
                  for (camp_a, home_a, away_b), ways_a in half.items()
                  for (camp_b, home_b, away_a), ways_b in half.items()
                  if home_a + away_a <= cap and home_b + away_b <= cap)


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
    pairs = HEAVY_PAIRS[variant]
    sites = len(board_sites())
    return sum(ways * math.comb(sites - pieces, y) * count_pair_fill(pairs, y)
               for pieces, ways in scan_positions(variant).items()
               for y in range(2 * pairs + 1))
