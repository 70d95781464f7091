"""Exact state-space complexity counts for Xiangqi and Janggi.

A staged combinatorial pipeline computes both games' placement counts with
exact integer arithmetic; independent oracles check every stage and every
published value; a discrepancy report adjudicates the recomputed values
against the published reference figures.
"""
