#!/usr/bin/env python3
"""Pit every closed form against its independent oracle.

The oracles place concrete pieces on concrete sites and count, either one
placement at a time or site by site; the closed forms multiply binomials.
Exact agreement across full domains is the package's correctness argument.
"""
import time

from statecount.combinatorics import pair_fill_count
from statecount.janggi import jg_grand_total, jg_home_count, jg_positions
from statecount.oracle import (
    count_pair_fill,
    enum_camp_xq,
    enum_home_jg,
    enum_pair_fill,
    enum_positions_small,
    enum_side_xq,
    scan_positions,
    scan_total,
)
from statecount.xiangqi import camp_classes, side_reserve, xq_grand_total, xq_positions


def timed(label, fn):
    started = time.perf_counter()
    result = fn()
    print(f"  {label}: {'agree' if result else 'DISAGREE'}"
          f"  ({time.perf_counter() - started:.2f}s)")


print("== camp arrangements (9 parameter combinations) ==")
timed("enumeration vs closed form", lambda: all(
    enum_camp_xq(a, e) == camp_classes(a, e) for a in range(3) for e in range(3)
))

print("== half-board reserve grid (60 cells, site scan of the 45-site half) ==")
timed("scan vs closed form", lambda: all(
    enum_side_xq(n, k) == side_reserve(n, k)
    for n in range(35, 45) for k in range(6)
))

print("== home-zone grid (48 cells, site scan of the 27-site home zone) ==")
timed("scan vs closed form", lambda: all(
    enum_home_jg(n, k) == jg_home_count(n, k)
    for n in range(1, 9) for k in range(6)
))

print("== pair-fill counts (all m <= 4, n <= 8 sequences) ==")
timed("enumeration vs closed form", lambda: all(
    enum_pair_fill(m, n) == pair_fill_count(m, n)
    for m in range(5) for n in range(9)
))

print("== full-board positions with up to 4 pieces ==")
xq = enum_positions_small("xiangqi", 4)
jg = enum_positions_small("janggi", 4)
print(f"  xiangqi enumerated: {xq}")
print(f"  closed form agrees:",
      all(xq[t] == xq_positions(90 - t) for t in xq))
print(f"  janggi enumerated: {jg}")
print(f"  closed form agrees:", all(jg[t] == jg_positions(t) for t in jg))

print("== site-scan of the whole light stage and both grand totals ==")
timed("xiangqi scan vs closed form (70..88 blanks, total)", lambda: (
    scan_positions("xiangqi") == {90 - x: xq_positions(x) for x in range(70, 89)}
    and scan_total("xiangqi") == xq_grand_total()
))
timed("janggi scan vs closed form (2..16 pieces, total)", lambda: (
    scan_positions("janggi") == {n: jg_positions(n) for n in range(2, 17)}
    and scan_total("janggi") == jg_grand_total()
))
timed("pair-fill recurrence vs closed form (m <= 8, n <= 16)", lambda: all(
    count_pair_fill(m, n) == pair_fill_count(m, n)
    for m in range(9) for n in range(17)
))

print("== the two disputed eight-pair entries ==")
for sites, printed in ((4, 2028), (6, 44520)):
    enum = enum_pair_fill(8, sites)
    closed = pair_fill_count(8, sites)
    print(f"  {sites} sites: printed {printed}, closed form {closed}, "
          f"enumeration {enum} -> print is wrong")
