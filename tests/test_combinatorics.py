"""Exactness and cross-route agreement of the psi / delta combinatorics."""

import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdbound import combinatorics
from psdbound.bounds import triangular
from psdbound.combinatorics import (
    _bareiss_det,
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


def leibniz_det(mat):
    """Independent exact determinant: signed sum over all permutations."""
    size = len(mat)
    total = 0
    for perm in permutations(range(size)):
        sign = -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1
        total += sign * math.prod(mat[i][perm[i]] for i in range(size))
    return total


def random_matrix(rnd, size, kind):
    mat = [[rnd.randint(-4, 4) for _ in range(size)] for _ in range(size)]
    if kind == "skew":
        # zero diagonal: elimination has to swap rows to find its pivots
        for i in range(size):
            mat[i][i] = 0
            for j in range(i):
                mat[i][j] = -mat[j][i]
    elif kind == "singular" and size:
        # last row a combination of the others (or zero when size is 1)
        coef = [rnd.randint(-2, 2) for _ in range(size - 1)]
        mat[-1] = [sum(c * row[j] for c, row in zip(coef, mat)) for j in range(size)]
    return mat


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

    def test_pairs_match_minor_sum(self):
        # the closed-form pair entries of Q, past the {1..8} sweep above
        for i, j in combinations(range(1, 17), 2):
            assert psi((i, j)) == psi_minor_sum((i, j)), (i, j)

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=11), min_size=0, max_size=6))
    def test_property_routes_agree(self, elements):
        elements = tuple(sorted(elements))
        assert psi(elements) == psi_minor_sum(elements)

    def test_nonnegative(self):
        # a path count over a totally positive matrix: never below 1
        for sub in [(1, 4), (2, 5, 7), (3, 6, 9, 10)]:
            assert psi(sub) >= 1

    def test_pfaffian_squared_is_det_q(self):
        # the eliminated Pfaffian against Bareiss on the full skew Q, built
        # here from the pair values, past the {1..8} minor-sum sweep
        for k in range(13):
            for sub in combinations(range(1, 13), k):
                upper = {(a, b): combinatorics._pair(x - 1, y - 1)
                         for (a, x), (b, y) in combinations(enumerate(sub), 2)}
                if k % 2:  # the pad: a last index joined to each i by 2**(i-1)
                    upper.update({(a, k): 2 ** (x - 1) for a, x in enumerate(sub)})
                size = k + k % 2
                skew = [[upper.get((a, b), 0) - upper.get((b, a), 0) for b in range(size)]
                        for a in range(size)]
                assert psi(sub) ** 2 == _bareiss_det(skew), sub

    def test_rejects_non_positive_pivot(self, monkeypatch):
        # every pivot is psi of a leading subset, at least 1: a zero pair
        # value makes the first pivot 0, which the elimination refuses
        monkeypatch.setattr(combinatorics, "_pair", lambda x, y: 0)
        with pytest.raises(ArithmeticError, match=r"pivot 0 .* for \(2, 3, 4\)"):
            psi((2, 3, 4))


class TestBareissDet:
    @pytest.mark.parametrize("kind", ["general", "skew", "singular"])
    def test_matches_leibniz(self, kind):
        rnd = random.Random(f"bareiss-{kind}")
        for size in range(7):
            for _ in range(25):
                mat = random_matrix(rnd, size, kind)
                assert _bareiss_det(mat) == leibniz_det(mat), mat
                if kind == "singular" and size:
                    assert _bareiss_det(mat) == 0

    def test_skew_4x4_is_pfaffian_squared(self):
        rnd = random.Random("pfaffian-4x4")
        for _ in range(50):
            a12, a13, a14, a23, a24, a34 = (rnd.randint(-9, 9) for _ in range(6))
            mat = [
                [0, a12, a13, a14],
                [-a12, 0, a23, a24],
                [-a13, -a23, 0, a34],
                [-a14, -a24, -a34, 0],
            ]
            assert _bareiss_det(mat) == (a12 * a34 - a13 * a24 + a14 * a23) ** 2


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

    def test_every_interval_to_16(self):
        # the product is a closed form of its own, so it checks the Pfaffian
        for p in range(0, 17):
            for q in range(p, 17):
                assert psi(range(p + 1, q + 1)) == psi_interval_product(p, q), (p, q)

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
        assert delta(820, 40, 1) == 0  # 39 of {1..40} sum at most 819
        assert delta(3, 40, 2) == 0

    def test_full_rank_is_one(self):
        for m in range(1, 17):
            assert delta(0, m, m) == 1, m

    @pytest.fixture(scope="class")
    def minor_sums(self):
        # the defining sums of all 256 subsets of {1..8}, built once
        return {sub: psi_minor_sum(sub) for k in range(9) for sub in combinations(range(1, 9), k)}

    @pytest.mark.parametrize("m", [7, 8])
    def test_walk_against_minor_sums(self, m, minor_sums):
        # the Bareiss route shares no code with the walk
        full = set(range(1, m + 1))
        for r in range(1, m + 1):
            for n in range(0, triangular(m) + 1):
                want = sum(
                    minor_sums[sub] * minor_sums[tuple(sorted(full - set(sub)))]
                    for sub in combinations(range(1, m + 1), m - r)
                    if sum(sub) == n
                )
                assert delta(n, m, r) == want, (n, m, r)

    def test_mirror_at_13(self):
        # I and its complement swap sides: delta(n, m, r) = delta(t_m - n, m, m - r)
        for r in range(1, 13):
            for n in range(0, triangular(13) + 1):
                assert delta(n, 13, r) == delta(triangular(13) - n, 13, 13 - r), (n, r)

    def test_rejects_non_positive_pivot(self, monkeypatch):
        # {1, 4} and {2, 3} are the subsets: the complement of {1, 4} pairs
        # 2 with 3 first, on a zero pair value
        monkeypatch.setattr(combinatorics, "_pair", lambda x, y: 0)
        want = r"pivot 0 at the prefix \(2, 3\) of Q for \(1, 2, 3, 4\)"
        with pytest.raises(ArithmeticError, match=want):
            delta(5, 4, 2)

    def test_harris_tu_consistency(self):
        for m in range(1, 9):
            for r in range(1, m + 1):
                assert delta(triangular(m - r), m, r) == psi_interval_harris_tu(m, r)

    def test_harris_tu_consistency_to_16(self):
        for m in range(9, 17):
            for r in range(1, m + 1):
                assert delta(triangular(m - r), m, r) == psi_interval_harris_tu(m, r), (m, r)

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
