"""Exact-arithmetic primitives against first-principles recomputation."""
from itertools import combinations, product
from math import factorial

import pytest

from statecount.combinatorics import binom, heavy_stage, light_stage, pair_fill_count

from frozen import TRUE_JG_SLIST


def brute_force_pair_fill(m: int, n: int) -> int:
    """Count length-n sequences over m symbols, no symbol used thrice."""
    return sum(
        1 for seq in product(range(m), repeat=n)
        if all(seq.count(sym) <= 2 for sym in set(seq))
    )


class TestBinom:
    def test_empty_choice(self):
        assert binom(9, 0) == 1

    def test_small(self):
        assert binom(9, 2) == 36

    def test_against_subset_enumeration(self):
        assert binom(36, 2) == sum(1 for _ in combinations(range(36), 2)) == 630

    @pytest.mark.parametrize("n,k", [(5, -1), (5, 6), (0, 1), (-3, 0), (-3, 2)])
    def test_out_of_domain_is_zero(self, n, k):
        assert binom(n, k) == 0

    def test_pascal_identity(self):
        for n in range(1, 65):
            for k in range(0, n + 1):
                assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)

    def test_symmetry(self):
        for n in range(0, 65):
            for k in range(0, n + 1):
                assert binom(n, k) == binom(n, n - k)


class TestPairFillCount:
    @pytest.mark.parametrize("n,expected", [
        (0, 1), (1, 6), (2, 36), (3, 210), (4, 1170), (5, 6120), (6, 29520),
        (7, 128520), (8, 491400), (9, 1587600), (10, 4082400),
        (11, 7484400), (12, 7484400),
    ])
    def test_six_pair_list(self, n, expected):
        assert pair_fill_count(6, n) == expected

    def test_eight_pair_list(self):
        assert [pair_fill_count(8, k) for k in range(17)] == TRUE_JG_SLIST

    def test_eight_pair_anchor(self):
        assert pair_fill_count(8, 5) == 28560

    def test_eight_pair_four_sites_brute_force(self):
        # the print shows 2028 here; enumeration settles it
        assert pair_fill_count(8, 4) == brute_force_pair_fill(8, 4) == 3864

    def test_more_sites_than_pieces(self):
        assert pair_fill_count(2, 5) == 0
        assert pair_fill_count(6, 13) == 0

    def test_all_sites_filled(self):
        for m in range(0, 9):
            assert pair_fill_count(m, 2 * m) == factorial(2 * m) // 2 ** m

    def test_degenerate_sites(self):
        for m in range(1, 9):
            assert pair_fill_count(m, 1) == m
            assert pair_fill_count(m, 0) == 1

    def test_matches_brute_force_small(self):
        for m in range(0, 5):
            for n in range(0, 9):
                assert pair_fill_count(m, n) == brute_force_pair_fill(m, n)

    def test_values_are_exact_ints_roundtrip(self):
        value = pair_fill_count(8, 16)
        assert isinstance(value, int)
        assert int(str(value)) == value


class TestLightStage:
    SIDES = range(1, 4)
    SOLDIERS = range(3)

    @staticmethod
    def cell(n, k):
        # zero at (2, 1) only; nonzero for every k outside SOLDIERS too
        return 0 if (n, k) == (2, 1) else n + k + 2

    @staticmethod
    def cross(n1, k1, n2, k2):
        return 1 + 10 * n1 + n2 + k1 * k2 ** 2

    @staticmethod
    def spare(n1, n2):
        return n1 + n2 - 1

    def terms(self, soldiers=SOLDIERS):
        return list(light_stage(self.SIDES, soldiers, self.cell, self.cross, self.spare))

    def test_matches_naive_four_level_loop(self):
        expected = []
        for n1, n2, k1, k2 in product(self.SIDES, self.SIDES, self.SOLDIERS, self.SOLDIERS):
            value = self.cell(n1, k1) * self.cell(n2, k2) * self.cross(n1, k1, n2, k2)
            if k1 + k2 == self.spare(n1, n2) and value:
                expected.append((n1, k1, n2, k2, value))
        assert self.terms() == expected

    def test_zero_cell_is_not_yielded(self):
        indices = [t[:4] for t in self.terms()]
        assert (1, 1, 2, 1) not in indices and (2, 1, 1, 1) not in indices
        # the same sides with nonzero cells are yielded
        assert (1, 0, 2, 2) in indices and (2, 0, 1, 2) in indices
        assert all(value for *_, value in self.terms())

    def test_k2_outside_soldiers_is_dropped(self):
        # spare(3, 3) = 5 needs k2 >= 3, and spare(1, 1) = 1 gives k2 = -1 at k1 = 2
        assert all(k2 in self.SOLDIERS for _, _, _, k2, _ in self.terms())
        assert not any(n1 == n2 == 3 for n1, _, n2, *_ in self.terms())
        assert (1, 2, 1, -1) not in [t[:4] for t in self.terms()]
        assert (3, 2, 3, 3) in [t[:4] for t in self.terms(range(4))]


class TestHeavyStage:
    def test_hand_checked_terms(self):
        # K = 2 at index 3: C(3, 0) * 1 * 2 = 2 and C(3, 1) * 4 * 2 = 24
        assert list(heavy_stage([(3, 2)], binom, [1, 4])) == [(3, 0, 2), (3, 1, 24)]

    def test_empty_inputs_yield_nothing(self):
        assert list(heavy_stage([], binom, [1, 4])) == []
        assert list(heavy_stage([(3, 2)], binom, [])) == []
