"""Published reference values audited by the verify command.

Each published table or value list is one ``Family`` record.  A verify row
is a family and one key that it prints, so each printed value has one home.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

from . import combinatorics, janggi, oracle, xiangqi
from .geometry import board_sites

# --- Xiangqi camp arrangements (source table 1): (advisors, elephants) ->
#     (total, two shared-site elephants, one, none)
TABLE1 = {
    (2, 2): (1410, 70, 680, 660),
    (2, 1): (480, 0, 140, 340),
    (2, 0): (70, 0, 0, 70),
    (1, 2): (810, 40, 390, 380),
    (1, 1): (275, 0, 80, 195),
    (1, 0): (40, 0, 0, 40),
    (0, 2): (183, 9, 88, 86),
    (0, 1): (62, 0, 18, 44),
    (0, 0): (9, 0, 0, 9),
}

# --- Aggregated by pieces used (source table 2)
TABLE2 = {
    5: (1410, 70, 680, 660),
    4: (1290, 40, 530, 720),
    3: (528, 9, 168, 351),
    2: (102, 0, 18, 84),
    1: (9, 0, 0, 9),
}

# --- Own-side soldier placements (source table 3): (blank sites, soldiers)
TABLE3 = {
    (10, 0): 1, (9, 0): 1, (8, 0): 1,
    (10, 1): 10, (9, 1): 9, (8, 1): 8,
    (10, 2): 40, (9, 2): 32, (8, 2): 25,
    (10, 3): 80, (9, 3): 56, (8, 3): 38,
    (10, 4): 80, (9, 4): 48, (8, 4): 28,
    (10, 5): 32, (9, 5): 16, (8, 5): 8,
}

# --- Half-board exact grid (source table 4): (blanks, soldiers used).
# The printed table's column alignment is unreliable; cells are assigned by
# the cumulative structure of table 5 (row for s soldiers starts at 40 - s).
TABLE4 = {
    (40, 0): 1410, (41, 0): 1290, (42, 0): 528, (43, 0): 102, (44, 0): 9,
    (39, 1): 13280, (40, 1): 12290, (41, 1): 5094, (42, 1): 1002, (43, 1): 90,
    (38, 2): 49910, (39, 2): 46760, (40, 2): 19641, (41, 2): 3936, (42, 2): 360,
    (37, 3): 93540, (38, 3): 88800, (39, 3): 37830, (40, 3): 7728, (41, 3): 720,
    (36, 4): 87400, (37, 4): 84160, (38, 4): 36396, (39, 4): 7584, (40, 4): 720,
    (35, 5): 32560, (36, 5): 31840, (37, 5): 13992, (38, 5): 2976, (39, 5): 288,
}

# --- Half-board reserve grid (source table 5): (blanks, reserve)
TABLE5 = {
    (40, 5): 1410, (41, 5): 1290, (42, 5): 528, (43, 5): 102, (44, 5): 9,
    (39, 4): 13280, (40, 4): 13700, (41, 4): 6384, (42, 4): 1530, (43, 4): 192, (44, 4): 9,
    (38, 3): 49910, (39, 3): 60040, (40, 3): 33341, (41, 3): 10320, (42, 3): 1890,
    (43, 3): 192, (44, 3): 9,
    (37, 2): 93540, (38, 2): 138710, (39, 2): 97870, (40, 2): 41069, (41, 2): 11040,
    (42, 2): 1890, (43, 2): 192, (44, 2): 9,
    (36, 1): 87400, (37, 1): 177700, (38, 1): 175106, (39, 1): 105454, (40, 1): 41789,
    (41, 1): 11040, (42, 1): 1890, (43, 1): 192, (44, 1): 9,
    (35, 0): 32560, (36, 0): 119240, (37, 0): 191692, (38, 0): 178082, (39, 0): 105742,
    (40, 0): 41789, (41, 0): 11040, (42, 0): 1890, (43, 0): 192, (44, 0): 9,
}

# --- Xiangqi light-stage positions by blank sites (source list, n = 70..88)
XQ_KLIST = {
    70: 6072015837104228000,
    71: 13932273683634608000,
    72: 15302416298575447500,
    73: 10415675878701420000,
    74: 4850335101880323628,
    75: 1620169838558710348,
    76: 398556758971233856,
    77: 73409438301988732,
    78: 10306140239862692,
    79: 1131080570393880,
    80: 100447213926298,
    81: 7330142404440,
    82: 444595549080,
    83: 22199620332,
    84: 900695862,
    85: 28838016,
    86: 655542,
    87: 10584,
    88: 81,
}

# --- Six-pair fill counts for the Xiangqi heavy stage (source list, 0..12)
XQ_DLIST = [1, 6, 36, 210, 1170, 6120, 29520, 128520, 491400, 1587600,
            4082400, 7484400, 7484400]

# --- Xiangqi grand total (source value, 40 digits)
XQ_TOTAL = 7587909515978090371015538252511721150667

# --- Janggi palace arrangements by advisor count (source prose values)
JG_PALACE = {0: 9, 1: 72, 2: 252}

# --- Janggi home-zone grid (source table 6): (pieces, reserve)
TABLE6 = {
    (1, 0): 9, (1, 1): 9, (1, 2): 9, (1, 3): 9, (1, 4): 9, (1, 5): 9,
    (2, 0): 306, (2, 1): 306, (2, 2): 306, (2, 3): 306, (2, 4): 306, (2, 5): 72,
    (3, 0): 4977, (3, 1): 4977, (3, 2): 4977, (3, 3): 4977, (3, 4): 2052, (3, 5): 252,
    (4, 0): 51048, (4, 1): 51048, (4, 2): 51048, (4, 3): 27648, (4, 4): 6048,
    (5, 0): 369702, (5, 1): 369702, (5, 2): 235152, (5, 3): 69552,
    (6, 0): 2012868, (6, 1): 1420848, (6, 2): 510048,
    (7, 0): 6503112, (7, 1): 2677752,
    (8, 0): 10711008,
}

# --- Janggi light-stage positions by pieces used (source list, n = 16..2)
JG_KLIST = {
    16: 1457601002568716544,
    15: 1185971655381537024,
    14: 470042212117883328,
    13: 111504273140075328,
    12: 17627589996960672,
    11: 1967816967471936,
    10: 171617399962470,
    9: 12043618055460,
    8: 686813883426,
    7: 31907861496,
    6: 1200808557,
    5: 35663652,
    4: 783918,
    3: 11340,
    2: 81,
}

# --- Eight-pair fill counts for the Janggi heavy stage (source list, 0..16).
# Several entries are garbled in print; the closed form and the pair-fill
# oracle adjudicate.
JG_SLIST = [1, 8, 64, 504, 2028, 28560, 44520, 294000, 441840, 6773760,
            6827940, 209933640, 209766060, 5448713760, 5448660840,
            40864824000, 40864824000]

# --- Janggi grand total (source value, 45 digits)
JG_TOTAL = 235103954659801304018684123148785542989018468


# the verify scopes, in the order a usage error lists them; "all" takes every family
SCOPES = ("all", "xiangqi", "janggi", "combinatorics")
# id suffixes of the columns of tables 1 and 2, in ``CampClassRow`` field order
CAMP_COLUMNS = ("total", "two5", "one5", "no5")
# largest m**n a verify run enumerates for one pair-fill oracle call
_PAIR_FILL_ORACLE_BUDGET = 2_500_000


class Family(NamedTuple):
    """One published table or list: its id prefix, the verify scope that owns
    it, and its printed values keyed by index tuples (a camp-table key ends
    in its column name).

    ``compute(*key)`` recomputes a value through the closed form;
    ``oracle(*key)`` counts it without the closed forms.
    Both look the layer functions up when called, so a caller that rebinds
    a module attribute sees every call.
    """

    name: str
    scope: str
    values: dict[tuple, int]
    compute: Callable[..., int]
    oracle: Callable[..., int]


def quantity_id(family: Family, key: tuple) -> str:
    """A row's label: the family name, the key's integer indices joined by commas,
    and a camp-table column, each after a dot: ``xq.table1.2,1.total``,
    ``xq.table2.5.no5``, ``jg.table6.3,4``, ``xq.klist.70``, ``xq.total``."""
    indices = ",".join([str(part) for part in key if isinstance(part, int)])
    columns = [part for part in key if isinstance(part, str)]
    return ".".join(filter(None, (family.name, indices, *columns)))


def _keyed(printed) -> dict[tuple, int]:
    """Printed values keyed by index tuples; a list is indexed from 0."""
    items = printed.items() if isinstance(printed, dict) else enumerate(printed)
    return {key if isinstance(key, tuple) else (key,): value for key, value in items}


def _by_column(printed: dict) -> dict[tuple, int]:
    """Camp-table rows split into one value per printed column."""
    return {(*key, column): value
            for key, row in _keyed(printed).items()
            for column, value in zip(CAMP_COLUMNS, row)}


def _camp_column(row: tuple[int, ...], column: str) -> int:
    return row[CAMP_COLUMNS.index(column)]


def _pair_fill_oracle(m: int, n: int) -> int:
    if m ** n > _PAIR_FILL_ORACLE_BUDGET:
        return oracle.count_pair_fill(m, n)
    return oracle.enum_pair_fill(m, n)


FAMILIES: dict[str, Family] = {fam.name: fam for fam in (
    Family("xq.table1", "xiangqi", _by_column(TABLE1),
           lambda a, e, column: _camp_column(xiangqi.camp_classes(a, e), column),
           lambda a, e, column: _camp_column(oracle.enum_camp_xq(a, e), column)),
    Family("xq.table2", "xiangqi", _by_column(TABLE2),
           lambda pieces, column: _camp_column(xiangqi.camp_by_piece_count(pieces), column),
           lambda pieces, column: sum(
               _camp_column(oracle.enum_camp_xq(a, e), column)
               for a in xiangqi.ADVISORS for e in xiangqi.ELEPHANTS if a + e + 1 == pieces)),
    Family("xq.table3", "xiangqi", TABLE3,
           lambda blank, s: xiangqi.soldier_own_side(blank, s),
           lambda blank, s: oracle.enum_soldiers_xq(len(xiangqi.SOLDIER_SITES) - blank, s)),
    Family("xq.table4", "xiangqi", TABLE4,
           lambda n, s: xiangqi.side_exact(n, s),
           lambda n, s: oracle.enum_side_exact_xq(n, s)),
    Family("xq.table5", "xiangqi", TABLE5,
           lambda n, k: xiangqi.side_reserve(n, k),
           lambda n, k: oracle.enum_side_xq(n, k)),
    Family("xq.klist", "xiangqi", _keyed(XQ_KLIST),
           lambda x: xiangqi.xq_positions(x),
           lambda x: oracle.scan_positions("xiangqi")[len(board_sites()) - x]),
    Family("xq.dlist", "combinatorics", _keyed(XQ_DLIST),
           lambda y: combinatorics.pair_fill_count(xiangqi.HEAVY_PAIRS, y),
           lambda y: _pair_fill_oracle(xiangqi.HEAVY_PAIRS, y)),
    Family("xq.total", "xiangqi", {(): XQ_TOTAL},
           lambda: xiangqi.xq_grand_total(),
           lambda: oracle.scan_total("xiangqi")),
    Family("jg.palace", "janggi", _keyed(JG_PALACE),
           lambda advisors: janggi.jg_palace_arrangements(advisors),
           lambda advisors: oracle.enum_home_jg(advisors + 1, 5)),
    Family("jg.table6", "janggi", TABLE6,
           lambda n, k: janggi.jg_home_count(n, k),
           lambda n, k: oracle.enum_home_jg(n, k)),
    Family("jg.klist", "janggi", _keyed(JG_KLIST),
           lambda n: janggi.jg_positions(n),
           lambda n: oracle.scan_positions("janggi")[n]),
    Family("jg.slist", "combinatorics", _keyed(JG_SLIST),
           lambda k: combinatorics.pair_fill_count(janggi.HEAVY_PAIRS, k),
           lambda k: _pair_fill_oracle(janggi.HEAVY_PAIRS, k)),
    Family("jg.total", "janggi", {(): JG_TOTAL},
           lambda: janggi.jg_grand_total(),
           lambda: oracle.scan_total("janggi")),
)}


def fixtures_for_scope(scope: str) -> list[tuple[Family, tuple]]:
    """The verify rows of a scope: (family, key) for each key its families print.

    The rows keep ``FAMILIES`` order, which the report prints.  Pair-fill
    lists belong to the combinatorics scope; the per-variant scopes own their
    tables, light-stage lists, and grand totals.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    return [(fam, key) for fam in FAMILIES.values() if scope in ("all", fam.scope)
            for key in fam.values]
