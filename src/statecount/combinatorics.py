"""Exact integer counting primitives.

Every count in this package is a plain Python ``int`` (arbitrary precision,
never floating point), so all arithmetic here is exact by construction and
round-trips losslessly through ``str``/``int``.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator


def binom(n: int, k: int) -> int:
    """C(n, k), returning 0 outside the domain instead of raising.

    ``math.comb`` already gives 0 for k > n; only the negative arguments it
    rejects need a guard.  The cross factors of ``light_stage`` can therefore
    take every index of its rectangular ranges without edge-case guards.
    """
    if n < 0 or k < 0:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=None)
def pair_fill_count(m: int, n: int) -> int:
    """Ways to occupy n distinct sites, one piece each, drawn from m pairs.

    The two pieces within a pair are identical; distinct pairs are
    distinguishable.  Summing over i, the number of pairs contributing both
    of their pieces:

        sum_i C(m, i) * C(m - i, n - 2i) * n! / 2^i

    The i-th summand picks which pairs are used twice, which of the remaining
    pairs supply a single piece, and arranges all n pieces on the n sites
    (dividing by 2 per doubled pair).  The sum is total: for n > 2m every
    term has a ``binom`` factor of 0, and for n < 0 it is empty.
    """
    return sum(binom(m, i) * binom(m - i, n - 2 * i) * math.factorial(n) // 2 ** i
               for i in range(n // 2 + 1))


def light_stage(sides: range, soldiers: range, cell: Callable[[int, int], int],
                cross: Callable[[int, int, int, int], int],
                spare: Callable[[int, int], int]) -> Iterator[tuple[int, int, int, int, int]]:
    """Nonzero (n1, k1, n2, k2, cell(n1, k1) * cell(n2, k2) * cross(n1, k1, n2, k2)):
    both players' grid cells over n1, n2 in ``sides``, with soldiers k1, k2 in
    ``soldiers`` outside them, k1 + k2 = spare(n1, n2)."""
    for n1 in sides:
        for n2 in sides:
            both = spare(n1, n2)
            for k1 in soldiers:
                k2 = both - k1
                if k2 in soldiers:
                    value = cell(n1, k1) * cell(n2, k2) * cross(n1, k1, n2, k2)
                    if value:
                        yield n1, k1, n2, k2, value


def heavy_stage(light: Iterable[tuple[int, int]], choose: Callable[[int, int], int],
                fills: list[int]) -> Iterator[tuple[int, int, int]]:
    """(i, y, K * choose(i, y) * fills[y]) for each (i, K) in ``light``: y heavy
    pieces on one of choose(i, y) site sets, filled in one of fills[y] ways."""
    for i, k in light:
        for y, fill in enumerate(fills):
            yield i, y, k * choose(i, y) * fill
