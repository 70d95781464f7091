#!/usr/bin/env python3
"""Walk the Janggi counting pipeline stage by stage."""
from statecount.geometry import validate_geometry, zone
from statecount.janggi import (
    HOME_PIECES,
    SOLDIERS,
    jg_grand_total,
    jg_home_count,
    jg_palace_arrangements,
    jg_positions,
)

print("== stage 0: geometry ==")
for name in ("palace", "home_zone", "middle_ranks"):
    print(f"  {name}: {len(zone('janggi', 'A', name))} sites")
print("  all geometry checks pass:",
      all(c.passed for c in validate_geometry("janggi")))

print("\n== stage 1: king + advisors anywhere in the palace ==")
for advisors in range(3):
    print(f"  {advisors} advisors: {jg_palace_arrangements(advisors)} arrangements")

print("\n== stage 2: one home zone (own palace pieces + opposing soldiers) ==")
print("  pieces | count by minimum reserved opposing soldiers (0..5)")
for n in HOME_PIECES:
    print(f"     {n}   |", [jg_home_count(n, k) for k in SOLDIERS])

print("\n== stage 3: both home zones + soldiers on the middle ranks ==")
for n in (2, 3, 4, 9, 16):
    print(f"  positions using {n} light pieces: {jg_positions(n)}")

print("\n== stage 4: chariots/horses/elephants/cannons on the blanks ==")
total = jg_grand_total()
print(f"  state-space count: {total}")
print(f"  digits: {len(str(total))}")
