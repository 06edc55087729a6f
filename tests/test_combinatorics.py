"""Exactness and cross-route agreement of the psi / delta combinatorics."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdbound.bounds import triangular
from psdbound.combinatorics import (
    check_delta_exponent_bound,
    check_psi_interval_lower_bound,
    delta,
    psi,
    psi_interval_harris_tu,
    psi_interval_product,
    psi_minor_sum,
)


def laplace_det(mat):
    """Independent exact determinant: first-row Laplace expansion."""
    size = len(mat)
    if size == 0:
        return 1
    if size == 1:
        return mat[0][0]
    total = 0
    for col in range(size):
        if mat[0][col] == 0:
            continue
        minor = [[row[c] for c in range(size) if c != col] for row in mat[1:]]
        term = mat[0][col] * laplace_det(minor)
        total += -term if col % 2 else term
    return total


def brute_psi(elements):
    """Defining sum over ALL column subsets, no pruning, Laplace dets."""
    elements = tuple(sorted(elements))
    k = len(elements)
    if k == 0:
        return 1
    rows = [e - 1 for e in elements]
    ncols = rows[-1] + 1
    total = 0
    for cols in combinations(range(ncols), k):
        sub = [[math.comb(r, c) for c in cols] for r in rows]
        total += laplace_det(sub)
    return total


class TestPsi:
    def test_empty_set(self):
        assert psi([]) == 1
        assert psi_minor_sum([]) == 1

    @pytest.mark.parametrize("elements", [[0, 1], [2, 2]])
    def test_invalid_sets_rejected(self, elements):
        with pytest.raises(ValueError):
            psi(elements)
        with pytest.raises(ValueError):
            psi_minor_sum(elements)

    @pytest.mark.parametrize("i", range(1, 31))
    def test_singleton_law(self, i):
        assert psi([i]) == 2 ** (i - 1)

    def test_spec_examples(self):
        assert psi([1]) == 1
        assert psi([5]) == 16
        assert psi([2, 3, 4]) == 4

    def test_full_interval_is_one(self):
        for m in range(1, 10):
            assert psi(range(1, m + 1)) == 1

    def test_against_brute_force(self):
        # independent oracle: unpruned minor sum with Laplace determinants
        for m in range(1, 7):
            for k in range(0, m + 1):
                for sub in combinations(range(1, m + 1), k):
                    assert psi(sub) == brute_psi(sub), sub

    def test_minor_sum_matches_fast_route(self):
        for m in range(1, 9):
            for k in range(0, m + 1):
                for sub in combinations(range(1, m + 1), k):
                    assert psi(sub) == psi_minor_sum(sub), sub

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=11), min_size=0, max_size=6))
    def test_property_routes_agree(self, elements):
        elements = tuple(sorted(elements))
        assert psi(elements) == psi_minor_sum(elements)

    def test_nonnegative(self):
        for sub in [(1, 4), (2, 5, 7), (3, 6, 9, 10)]:
            assert psi(sub) >= 0


class TestIntervalFormulas:
    def test_empty_product(self):
        assert psi_interval_product(0, 5) == 1
        assert psi_interval_product(3, 3) == 1

    def test_spec_examples(self):
        assert psi_interval_product(1, 2) == 2
        assert psi_interval_product(1, 4) == 4
        assert psi_interval_harris_tu(2, 1) == 2
        assert psi_interval_harris_tu(7, 7) == 1
        assert psi_interval_harris_tu(4, 3) == 4

    def test_errors(self):
        with pytest.raises(ValueError):
            psi_interval_product(4, 2)
        with pytest.raises(ValueError):
            psi_interval_harris_tu(3, 0)
        with pytest.raises(ValueError):
            psi_interval_harris_tu(3, 4)

    def test_triple_agreement_grid(self):
        # minor sum = rising product = binomial product on every interval
        for p in range(0, 13):
            for q in range(p, 13):
                want = psi_interval_product(p, q)
                assert psi_minor_sum(range(p + 1, q + 1)) == want
                if q >= 1 and q - p >= 1:
                    assert psi_interval_harris_tu(q, q - p) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
    def test_property_interval_consistency(self, p, span):
        q = p + span
        assert psi(range(p + 1, q + 1)) == psi_interval_product(p, q)


class TestDelta:
    def test_spec_examples(self):
        assert delta(1, 2, 1) == 2
        assert delta(0, 3, 3) == 1
        assert delta(0, 5, 5) == 1

    def test_empty_sum_is_zero(self):
        assert delta(100, 3, 1) == 0
        assert delta(1, 4, 1) == 0  # size-3 subsets sum at least 6

    def test_harris_tu_consistency(self):
        for m in range(1, 9):
            for r in range(1, m + 1):
                assert delta(triangular(m - r), m, r) == psi_interval_harris_tu(m, r)

    def test_validation(self):
        with pytest.raises(ValueError):
            delta(3, 3, 0)
        with pytest.raises(ValueError):
            delta(3, 3, 4)
        with pytest.raises(ValueError):
            delta(-1, 3, 1)

    def test_brute_force_small(self):
        # independent enumeration of all subsets
        for m in range(1, 7):
            for r in range(1, m + 1):
                for n in range(0, triangular(m) + 1):
                    want = 0
                    for sub in combinations(range(1, m + 1), m - r):
                        if sum(sub) == n:
                            comp = tuple(i for i in range(1, m + 1) if i not in sub)
                            want += brute_psi(sub) * brute_psi(comp)
                    assert delta(n, m, r) == want, (n, m, r)


class TestIntervalLowerBound:
    def test_spec_examples(self):
        rep = check_psi_interval_lower_bound(1, 4)
        assert rep.lhs == 4 and rep.holds and abs(rep.rhs - 4.0) < 1e-9
        rep = check_psi_interval_lower_bound(5, 5)
        assert rep.lhs == 1 and rep.holds and abs(rep.rhs - 1.0) < 1e-12
        assert check_psi_interval_lower_bound(6, 12).holds

    def test_grid(self):
        for p in range(1, 13):
            for q in range(p, 13):
                assert check_psi_interval_lower_bound(p, q).holds, (p, q)

    def test_exactness_of_verdict(self):
        # the verdict is an integer comparison, independent of the float rhs
        rep = check_psi_interval_lower_bound(2, 9)
        lhs_scaled = rep.lhs * (2 * 2 - 1) ** triangular(2)
        rhs_scaled = (2 + 9 - 1) ** triangular(2)
        assert rep.holds == (lhs_scaled >= rhs_scaled)

    def test_errors(self):
        with pytest.raises(ValueError):
            check_psi_interval_lower_bound(0, 3)
        with pytest.raises(ValueError):
            check_psi_interval_lower_bound(4, 3)


class TestDeltaExponentBound:
    def test_errors(self):
        with pytest.raises(ValueError):
            check_delta_exponent_bound(5)
        with pytest.raises(ValueError):
            check_delta_exponent_bound(2)

    def test_m4_exact_value(self):
        # only subset of size 1 summing to 4 is {4}: psi({4}) * psi({1,2,3})
        rep = check_delta_exponent_bound(4)
        assert rep.delta == 8
        assert rep.n == 4 and rep.r == 3
        assert rep.log2_delta == pytest.approx(3.0)

    def test_m12_holds(self):
        assert check_delta_exponent_bound(12).holds

    def test_monotone_log2(self):
        values = [check_delta_exponent_bound(m).log2_delta for m in range(4, 17, 2)]
        assert all(b > a for a, b in zip(values, values[1:]))
