"""Exact state-space complexity counts for Xiangqi and Janggi.

A staged combinatorial pipeline computes both game's placement counts with
exact integer arithmetic; independent brute-force oracles verify every
stage at tractable scale; a discrepancy report adjudicates the recomputed
values against the published reference figures.
"""
