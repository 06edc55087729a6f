"""Bound arithmetic: triangular numbers, Pataki ranges, degree bounds."""

import math
from decimal import Context, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdbound.bounds import (
    bezout_kkt_count,
    log2_big,
    lp_extension_lower_bound,
    pataki_range,
    psd_rank_lower_bound,
    triangular,
)


class TestTriangular:
    @pytest.mark.parametrize("m,want", [(0, 0), (1, 1), (2, 3), (3, 6), (8, 36)])
    def test_values(self, m, want):
        assert triangular(m) == want

    def test_negative(self):
        with pytest.raises(ValueError):
            triangular(-1)


class TestPatakiRange:
    def test_spec_examples(self):
        assert pataki_range(3, 3).ranks == (1, 2)
        assert pataki_range(4, 6).ranks == (1, 2)

    def test_full_dimension(self):
        rng = pataki_range(5, triangular(5))
        assert rng.ranks == (0,)

    def test_strict_subset(self):
        rng = pataki_range(4, 6)
        assert set(rng.strict_ranks) <= set(rng.ranks)
        # n = t_{m-r} exactly at r = 1 (t_3 = 6): in the range, not strict
        assert 1 in rng.ranks and 1 not in rng.strict_ranks

    def test_round_trip_inequalities(self):
        for m in range(1, 8):
            for n in range(1, triangular(m) + 1):
                rng = pataki_range(m, n)
                for r in rng.ranks:
                    assert n >= triangular(m - r)
                    assert triangular(r) <= triangular(m) - n
                for r in set(range(m + 1)) - set(rng.ranks):
                    assert n < triangular(m - r) or triangular(r) > triangular(m) - n

    def test_validation(self):
        with pytest.raises(ValueError):
            pataki_range(3, 0)
        with pytest.raises(ValueError):
            pataki_range(3, 7)
        with pytest.raises(ValueError):
            pataki_range(0, 1)

    def test_contains(self):
        assert 1 in pataki_range(3, 3)
        assert 3 not in pataki_range(3, 3)


class TestCounts:
    @pytest.mark.parametrize("m,want", [(1, 2), (2, 16), (3, 512), (4, 65536)])
    def test_bezout(self, m, want):
        assert bezout_kkt_count(m) == want

    def test_vertex_bound_agrees(self):
        for m in range(1, 12):
            assert bezout_kkt_count(m) == 2 ** (m * m)

    def test_validation(self):
        with pytest.raises(ValueError):
            bezout_kkt_count(0)


def log2_reference(v: int) -> Decimal:
    """log2 v to 60 significant digits."""
    ctx = Context(prec=60)
    return ctx.divide(ctx.ln(Decimal(v)), ctx.ln(Decimal(2)))


class TestLog2Big:
    def test_powers_exact(self):
        for k in (0, 1, 7, 53, 400, 1000):
            assert log2_big(1 << k) == float(k)

    def test_large_non_power(self):
        v = 3**500
        assert log2_big(v) == pytest.approx(500 * math.log2(3), rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            log2_big(0)

    def test_check_growth_m16_correctly_rounded(self):
        v = 82348858632927688192  # delta(37, 16, 9), the degree of check-growth --m 16
        got = log2_big(v)
        assert got == 66.15838245698849
        assert abs(Decimal(got) - log2_reference(v)) <= Decimal(math.ulp(got)) / 2

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=1 << 3000))
    def test_within_half_an_ulp(self, v):
        got = log2_big(v)
        # plus the 2**-53 relative rounding of v's mantissa, which moves
        # log2 v by at most 2**-53 / ln 2 < 2**-52
        slack = Decimal(math.ulp(got)) / 2 + Decimal(2) ** -52
        assert abs(Decimal(got) - log2_reference(v)) <= slack


class TestRankBounds:
    def test_trivial(self):
        bound = psd_rank_lower_bound(1)
        assert bound.bound == 0.0 and bound.ceiling == 0

    def test_pentagon_value(self):
        bound = psd_rank_lower_bound(5)
        assert bound.bound == pytest.approx(math.sqrt(math.log2(5)), rel=1e-12)
        assert bound.ceiling == 2

    @pytest.mark.parametrize("m", range(1, 21))
    def test_inverts_bezout_exactly(self, m):
        bound = psd_rank_lower_bound(1 << (m * m))
        assert bound.bound == float(m)
        assert bound.ceiling == m

    def test_errors(self):
        with pytest.raises(ValueError):
            psd_rank_lower_bound(0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**40))
    def test_ceiling_property(self, d):
        bound = psd_rank_lower_bound(d)
        k = bound.ceiling
        assert (1 << (k * k)) >= d
        if k > 0:
            assert (1 << ((k - 1) * (k - 1))) < d


class TestLpBound:
    def test_values(self):
        assert lp_extension_lower_bound(1) == 0.0
        assert lp_extension_lower_bound(5) == pytest.approx(math.log2(5))
        for f in (1, 10, 64, 301):
            assert lp_extension_lower_bound(1 << f) == float(f)

    def test_errors(self):
        with pytest.raises(ValueError):
            lp_extension_lower_bound(0)
