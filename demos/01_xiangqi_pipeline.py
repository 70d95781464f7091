#!/usr/bin/env python3
"""Walk the Xiangqi counting pipeline stage by stage.

Each stage is recomputed from the board geometry; nothing is looked up
from a stored table.
"""
from statecount.geometry import validate_geometry, zone
from statecount.xiangqi import (
    ADVISORS,
    BLANK_SOLDIER_SITES,
    ELEPHANTS,
    SIDE_BLANKS,
    SOLDIERS,
    camp_by_piece_count,
    camp_classes,
    side_reserve,
    soldier_own_side,
    xq_grand_total,
    xq_positions,
)

print("== stage 0: geometry ==")
for name in ("palace", "advisor_sites", "elephant_sites", "soldier_own_side_sites"):
    sites = zone("xiangqi", "A", name)
    print(f"  {name}: {len(sites)} sites")
print("  all geometry checks pass:",
      all(c.passed for c in validate_geometry("xiangqi")))

print("\n== stage 1: king + advisors + elephants in one camp ==")
print("  advisors elephants | total  (split by elephants on the two shared sites)")
for a in reversed(ADVISORS):
    for e in reversed(ELEPHANTS):
        total, two, one, none = camp_classes(a, e)
        print(f"       {a}        {e}    | {total:5d}  (two:{two:3d} one:{one:4d} none:{none:4d})")

print("\n== stage 2: soldiers on the own half (one per file) ==")
for blank in BLANK_SOLDIER_SITES:
    row = [soldier_own_side(blank, s) for s in SOLDIERS]
    print(f"  {blank} free soldier sites: {row}")

print("\n== stage 3: the half-board reserve grid d(blanks, reserve) ==")
print("  blanks:", list(SIDE_BLANKS))
for reserve in SOLDIERS:
    print(f"  reserve>={reserve}:", [side_reserve(n, reserve) for n in SIDE_BLANKS])

print("\n== stage 4: both halves convolved (soldiers may cross the river) ==")
for x in (88, 87, 86, 80, 70):
    print(f"  positions with {x} blank sites: {xq_positions(x)}")

print("\n== stage 5: chariots/horses/cannons on the blanks ==")
total = xq_grand_total()
print(f"  state-space count: {total}")
print(f"  digits: {len(str(total))}")
print("\nsanity: stage-4 aggregate equals camp^2 at the two-kings corner:",
      xq_positions(88) == camp_by_piece_count(1).total ** 2)
