"""The Janggi pipeline against the reference tables and frozen values."""
import random

import pytest

from statecount import fixtures, janggi
from statecount.combinatorics import binom, pair_fill_count
from statecount.geometry import zone
from statecount.janggi import (
    convolution_terms,
    grand_total_terms,
    jg_grand_total,
    jg_home_count,
    jg_palace_arrangements,
    jg_positions,
)

from frozen import TRUE_JG_TOTAL


class TestPalace:
    @pytest.mark.parametrize("advisors,expected", [(0, 9), (1, 72), (2, 252)])
    def test_reference_values(self, advisors, expected):
        assert jg_palace_arrangements(advisors) == expected

    def test_structure(self):
        for advisors in range(3):
            assert jg_palace_arrangements(advisors) == (advisors + 1) * binom(9, advisors + 1)


class TestHomeCount:
    @pytest.mark.parametrize("cell,expected", sorted(fixtures.TABLE6.items()))
    def test_reference_cells(self, cell, expected):
        assert jg_home_count(*cell) == expected

    def test_king_alone_for_any_reserve(self):
        for k in range(6):
            assert jg_home_count(1, k) == 9

    def test_nonincreasing_in_reserve(self):
        for n in range(1, 9):
            for k in range(5):
                assert jg_home_count(n, k) >= jg_home_count(n, k + 1)

    def test_zero_exactly_when_no_palace_split_fits(self):
        for n in range(1, 9):
            for k in range(6):
                feasible = any(
                    0 <= n - i <= 5 and 5 - n + i >= k for i in (1, 2, 3)
                )
                assert (jg_home_count(n, k) > 0) == feasible

    def test_full_zone_needs_all_soldiers(self):
        assert jg_home_count(8, 0) == 10711008
        for k in range(1, 6):
            assert jg_home_count(8, k) == 0


class TestPositions:
    def test_two_kings_base_case(self):
        assert jg_positions(2) == len(zone("janggi", "A", "palace")) ** 2 == 81

    def test_reference_list_matches_in_full(self):
        for n, printed in fixtures.JG_KLIST.items():
            assert jg_positions(n) == printed

    def test_player_swap_symmetry(self):
        for n in (4, 9, 16):
            swapped = sum(
                jg_home_count(n2, k2) * jg_home_count(n1, k1)
                * binom(36, k2) * binom(36 - k2, k1)
                for n1, k1, n2, k2, _ in convolution_terms(n)
            )
            assert swapped == jg_positions(n)

    def test_terms_use_n_pieces(self):
        for n in (2, 9, 16):
            for n1, k1, n2, k2, _ in convolution_terms(n):
                assert n1 + n2 + k1 + k2 == n
                assert 1 <= n1 <= 8 and 1 <= n2 <= 8


class TestGrandTotal:
    def test_frozen_value_and_magnitude(self):
        total = jg_grand_total()
        assert total == TRUE_JG_TOTAL
        assert len(str(total)) == 46

    def test_restricted_to_no_heavy_pieces(self):
        only_light = sum(term for _, y, term in grand_total_terms() if y == 0)
        assert only_light == sum(jg_positions(n) for n in range(2, 17))

    def test_zero_positions_annihilates(self, monkeypatch):
        monkeypatch.setattr(janggi, "jg_positions", lambda n: 0)
        assert jg_grand_total() == 0

    def test_term_structure(self):
        terms = {(n, y): t for n, y, t in grand_total_terms()}
        assert terms[(2, 0)] == 81
        assert terms[(2, 16)] == 81 * binom(88, 16) * pair_fill_count(8, 16)
        assert sum(terms.values()) == TRUE_JG_TOTAL

    def test_summation_order_invariance(self):
        terms = [t for _, _, t in grand_total_terms()]
        shuffled = terms[:]
        random.Random(20240811).shuffle(shuffled)
        assert sum(shuffled) == sum(terms) == TRUE_JG_TOTAL
