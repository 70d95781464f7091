"""The Xiangqi pipeline against the reference tables and frozen values."""
import random

import pytest

from statecount import fixtures, xiangqi
from statecount.combinatorics import binom, pair_fill_count
from statecount.geometry import zone
from statecount.xiangqi import (
    camp_by_piece_count,
    camp_classes,
    convolution_terms,
    grand_total_terms,
    side_exact,
    side_reserve,
    soldier_own_side,
    xq_grand_total,
    xq_positions,
)

from frozen import TRUE_XQ_KLIST, TRUE_XQ_TOTAL, XQ_KLIST_DIVERGENT


class TestCampClasses:
    @pytest.mark.parametrize("cell,expected", sorted(fixtures.TABLE1.items()))
    def test_reference_rows(self, cell, expected):
        assert camp_classes(*cell) == expected

    def test_row_sum_invariant(self):
        for a in range(3):
            for e in range(3):
                row = camp_classes(a, e)
                assert row.total == row.two_shared + row.one_shared + row.no_shared

    def test_two_shared_requires_two_elephants(self):
        for a in range(3):
            for e in range(2):
                assert camp_classes(a, e).two_shared == 0

    @pytest.mark.parametrize("pieces,expected", sorted(fixtures.TABLE2.items()))
    def test_aggregates(self, pieces, expected):
        assert camp_by_piece_count(pieces) == expected

    def test_aggregate_is_sum_of_rows(self):
        for pieces in range(1, 6):
            agg = camp_by_piece_count(pieces)
            parts = [camp_classes(a, e) for a in range(3) for e in range(3)
                     if a + e + 1 == pieces]
            assert agg == tuple(map(sum, zip(*parts)))


class TestSoldierOwnSide:
    @pytest.mark.parametrize("cell,expected", sorted(fixtures.TABLE3.items()))
    def test_reference_cells(self, cell, expected):
        blank, soldiers = cell
        assert soldier_own_side(blank, soldiers) == expected

    def test_empty_placement(self):
        for blank in (8, 9, 10):
            assert soldier_own_side(blank, 0) == 1


class TestSideGrids:
    @pytest.mark.parametrize("cell,expected", sorted(fixtures.TABLE4.items()))
    def test_exact_cells(self, cell, expected):
        assert side_exact(*cell) == expected

    def test_exact_infeasible_cells_are_zero(self):
        assert side_exact(44, 1) == 0  # would need zero camp pieces
        assert side_exact(35, 0) == 0  # would need ten camp pieces
        assert side_exact(34, 5) == 0
        assert side_exact(40, 6) == 0

    @pytest.mark.parametrize("cell,expected", sorted(fixtures.TABLE5.items()))
    def test_reserve_cells(self, cell, expected):
        assert side_reserve(*cell) == expected

    def test_reserve_is_cumulative(self):
        for n in range(35, 45):
            for k in range(5):
                assert side_reserve(n, k) - side_reserve(n, k + 1) == side_exact(n, 5 - k)
            assert side_reserve(n, 5) == side_exact(n, 0)

    def test_reserve_nonincreasing_in_k(self):
        for n in range(35, 45):
            for k in range(5):
                assert side_reserve(n, k) >= side_reserve(n, k + 1)

    def test_out_of_range_is_zero(self):
        assert side_reserve(34, 0) == 0
        assert side_reserve(45, 0) == 0
        assert side_reserve(40, 6) == 0


class TestPositions:
    def test_two_kings_base_case(self):
        assert xq_positions(88) == len(zone("xiangqi", "A", "palace")) ** 2 == 81

    def test_frozen_values(self):
        for x, expected in TRUE_XQ_KLIST.items():
            assert xq_positions(x) == expected

    def test_reference_list_divergence_is_exactly_the_known_set(self):
        divergent = {
            x for x, printed in fixtures.XQ_KLIST.items() if xq_positions(x) != printed
        }
        assert divergent == XQ_KLIST_DIVERGENT

    def test_player_swap_symmetry(self):
        for x in (70, 77, 86):
            swapped = sum(
                side_reserve(n2, k2) * side_reserve(n1, k1) * binom(n2, k1) * binom(n1, k2)
                for n1, k1, n2, k2, _ in convolution_terms(x)
            )
            assert swapped == xq_positions(x)

    def test_terms_respect_boundary(self):
        for x in (70, 75, 88):
            for n1, k1, n2, k2, _ in convolution_terms(x):
                assert n1 - k1 >= 35 and n2 - k2 >= 35
                assert n1 + n2 - k1 - k2 == x


class TestGrandTotal:
    def test_frozen_value_and_magnitude(self):
        total = xq_grand_total()
        assert total == TRUE_XQ_TOTAL
        assert len(str(total)) == 40

    def test_restricted_to_no_heavy_pieces(self):
        only_light = sum(term for _, y, term in grand_total_terms() if y == 0)
        assert only_light == sum(xq_positions(x) for x in range(70, 89))

    def test_zero_positions_annihilates(self, monkeypatch):
        monkeypatch.setattr(xiangqi, "xq_positions", lambda x: 0)
        assert xq_grand_total() == 0

    def test_term_structure(self):
        terms = {(x, y): t for x, y, t in grand_total_terms()}
        assert terms[(88, 0)] == 81
        assert terms[(88, 12)] == 81 * binom(88, 12) * pair_fill_count(6, 12)
        assert sum(terms.values()) == TRUE_XQ_TOTAL

    def test_summation_order_invariance(self):
        terms = [t for _, _, t in grand_total_terms()]
        shuffled = terms[:]
        random.Random(20240811).shuffle(shuffled)
        assert sum(shuffled) == sum(terms) == TRUE_XQ_TOTAL

    def test_memoized_calls_are_pure(self):
        assert xq_grand_total() == xq_grand_total()
        assert xq_positions(80) == xq_positions(80)
