"""Exact integer counting primitives.

Every count in this package is a plain Python ``int`` (arbitrary precision,
never floating point), so all arithmetic here is exact by construction and
round-trips losslessly through ``str``/``int``.
"""
from __future__ import annotations

import math
from functools import lru_cache


def binom(n: int, k: int) -> int:
    """C(n, k), returning 0 outside the domain instead of raising.

    ``math.comb`` already gives 0 for k > n; only the negative arguments it
    rejects need a guard.  Convolution loops can therefore iterate
    rectangular index ranges without edge-case guards.
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
