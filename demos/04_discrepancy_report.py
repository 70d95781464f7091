#!/usr/bin/env python3
"""Run the full discrepancy audit and summarize what it found.

Equivalent to ``statecount verify --scope all`` with a condensed rendering.
"""
from statecount.verify import MATCH, TYPO, run_verify

result = run_verify("all")
counts = result.counts()

print(f"fixtures audited: {len(result.rows)}")
print(f"  match:                {counts[MATCH]}")
print(f"  paper-typo-confirmed: {counts[TYPO]}")
print(f"  mismatch:             {counts['mismatch']}")
print(f"exit code: {result.exit_code}")

print("\nconfirmed print errors:")
for row in result.rows:
    if row.verdict == TYPO:
        print(f"  {row.quantity_id}: printed {row.paper_value}, "
              f"recomputed {row.computed_value}, oracle {row.oracle_value}")

print("\nterm breakdowns attached for:", ", ".join(sorted(result.breakdowns)))
xq_terms = result.breakdowns["xq.total"]
largest = max(xq_terms, key=lambda t: t[2])
print(f"largest single term of the 40-digit total: blanks={largest[0]} "
      f"heavy={largest[1]} contribution={largest[2]}")
