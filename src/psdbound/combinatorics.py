"""Exact evaluation of Pascal-minor sums and the algebraic degree of SDP.

Two families of quantities, both exact big integers:

* ``psi(I)``: for a set I of indices in {1, ..., m}, the sum of all
  maximal minors of the submatrix of the binomial-coefficient matrix
  whose rows are indexed by I.  The indexing is shifted so that element
  i selects Pascal row i-1 (entries C(i-1, j), j = 0, 1, ...); with that
  convention a singleton gives psi({i}) = 2**(i-1), which is the identity
  that pins the convention.  See README for the shift discussion.

* ``delta(n, m, r)``: the algebraic degree of semidefinite programming,
  i.e. the degree of the rank-r locus cut out by the KKT equations of a
  generic m x m pencil in n variables.  It equals the sum of
  psi(I) * psi(complement of I) over subsets I of {1, ..., m} with
  |I| = m - r and element sum n.

Values overflow 64 bits near m = 10, so everything stays in Python ints
(Bareiss elimination for minors, exact rational products for intervals).

Two independent routes compute psi:

* :func:`psi_minor_sum` enumerates column subsets directly (the defining
  sum, kept as the audit oracle); column subsets violating the staircase
  condition c_b <= r_b are pruned since their minors vanish.
* :func:`psi` evaluates the same sum as a Pfaffian via the free-endpoint
  non-intersecting lattice-path identity (Stembridge), which makes the
  m = 16 degree computations take seconds instead of hours.

Their agreement, together with the interval product formulas, is enforced
by the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, exp, log
from typing import Iterable, Iterator, NamedTuple

from .bounds import log2_big, triangular


def _as_elements(I: Iterable[int]) -> tuple[int, ...]:
    elems = tuple(sorted(I))
    if elems and elems[0] < 1:
        raise ValueError(f"indices must be positive, got {elems}")
    if len(set(elems)) != len(elems):
        raise ValueError(f"indices must be distinct, got {elems}")
    return elems


def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pkk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - aik * row_k[j]) // prev
        prev = pkk
    return sign * a[n - 1][n - 1]


def psi_minor_sum(I: Iterable[int]) -> int:
    """The defining minor sum for psi, by direct enumeration.

    Sums det of the binomial submatrix with rows i-1 (i in I) over all
    strictly increasing column subsets; only subsets with c_b <= r_b for
    every position b contribute (any other choice has an upper-right zero
    block, hence zero determinant).  Exponential in |I|; intended for
    audits and cross-checks at moderate sizes.
    """
    elems = _as_elements(I)
    k = len(elems)
    if k == 0:
        return 1
    rows = [e - 1 for e in elems]
    total = 0
    cols: list[int] = []

    def rec(pos: int, start: int) -> None:
        nonlocal total
        if pos == k:
            sub = [[comb(rows[a], cols[b]) for b in range(k)] for a in range(k)]
            total += _bareiss_det(sub)
            return
        for c in range(start, rows[pos] + 1):
            cols.append(c)
            rec(pos + 1, c + 1)
            cols.pop()

    rec(0, 0)
    return total


def _pfaffian(q: list[list[Fraction]]) -> Fraction:
    """Pfaffian of an even-sized skew-symmetric matrix, by skew elimination."""
    n = len(q)
    if n == 0:
        return Fraction(1)
    a = [row[:] for row in q]
    sign = 1
    prod = Fraction(1)
    for i in range(0, n, 2):
        piv_col = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
        if piv_col is None:
            return Fraction(0)
        if piv_col != i + 1:
            a[i + 1], a[piv_col] = a[piv_col], a[i + 1]
            for row in a:
                row[i + 1], row[piv_col] = row[piv_col], row[i + 1]
            sign = -sign
        piv = a[i][i + 1]
        prod *= piv
        for j in range(i + 2, n):
            aij = a[i][j]
            a1j = a[i + 1][j]
            if aij == 0 and a1j == 0:
                continue
            for l in range(j + 1, n):
                upd = (aij * a[i + 1][l] - a[i][l] * a1j) / piv
                if upd:
                    a[j][l] -= upd
                    a[l][j] = -a[j][l]
    return sign * prod


@lru_cache(maxsize=None)
def _psi_cached(elems: tuple[int, ...]) -> int:
    k = len(elems)
    if k == 0:
        return 1
    rows = [e - 1 for e in elems]
    ncols = rows[-1] + 1
    m = [[comb(r, s) for s in range(ncols)] for r in rows]
    pref = [list(accumulate(row)) for row in m]
    size = k if k % 2 == 0 else k + 1
    q: list[list[Fraction]] = [[Fraction(0)] * size for _ in range(size)]
    for a in range(k):
        for b in range(a + 1, k):
            s = 0
            ma, mb = m[a], m[b]
            pa, pb = pref[a], pref[b]
            for t in range(1, ncols):
                s += mb[t] * pa[t - 1] - ma[t] * pb[t - 1]
            q[a][b] = Fraction(s)
            q[b][a] = Fraction(-s)
    if k % 2:
        for a in range(k):
            q[a][k] = Fraction(pref[a][ncols - 1])
            q[k][a] = -q[a][k]
    val = _pfaffian(q)
    if val.denominator != 1 or val < 0:
        raise ArithmeticError(f"pfaffian route gave non-integer psi for {elems}: {val}")
    return int(val)


def psi(I: Iterable[int]) -> int:
    """Sum of all maximal minors of the Pascal rows selected by I.

    Element i selects the row (C(i-1, 0), C(i-1, 1), ...), so
    psi({i}) = 2**(i-1) and psi of the full interval {1, ..., m} is 1.
    The empty set returns 1 (empty minor convention).

    Evaluated through the Pfaffian identity for free-endpoint
    non-intersecting path families; agrees with :func:`psi_minor_sum`
    everywhere (property-tested).
    """
    return _psi_cached(_as_elements(I))


def psi_interval_product(p: int, q: int) -> int:
    """psi of the interval {p+1, ..., q} via the exact rational product.

    Computes prod over 0 <= i <= j <= p-1 of (r + i + j + 1)/(i + j + 1)
    with r = q - p.  The product is assembled in exact rational arithmetic
    and must reduce to an integer; non-integrality raises.
    """
    if p < 0:
        raise ValueError(f"need p >= 0, got {p}")
    if p > q:
        raise ValueError(f"need p <= q, got p = {p}, q = {q}")
    r = q - p
    num = 1
    den = 1
    for i in range(p):
        for j in range(i, p):
            num *= r + i + j + 1
            den *= i + j + 1
    if num % den != 0:
        raise ArithmeticError(f"interval product for ({p}, {q}) is not an integer")
    return num // den


def psi_interval_harris_tu(m: int, r: int) -> int:
    """psi of {m-r+1, ..., m} via the Harris-Tu binomial product.

    Equals prod for i in [0, m-r-1] of C(m+i, m-r-i) / C(2i+1, i), which is
    also the algebraic degree delta(t_{m-r}, m, r).
    """
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r = {r}, m = {m}")
    num = 1
    den = 1
    for i in range(m - r):
        num *= comb(m + i, m - r - i)
        den *= comb(2 * i + 1, i)
    if num % den != 0:
        raise ArithmeticError(f"Harris-Tu product for ({m}, {r}) is not an integer")
    return num // den


def _subsets_with_sum(m: int, k: int, target: int) -> Iterator[tuple[int, ...]]:
    """Subsets of {1, ..., m} of size k with element sum target, ascending."""

    def rec(start: int, remaining: int, need: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            if need == 0:
                yield tuple(acc)
            return
        # reachable-sum window for the remaining choices
        lo = remaining * start + remaining * (remaining - 1) // 2
        hi = remaining * m - remaining * (remaining - 1) // 2
        if not lo <= need <= hi:
            return
        for v in range(start, m - remaining + 2):
            acc.append(v)
            yield from rec(v + 1, remaining - 1, need - v, acc)
            acc.pop()

    yield from rec(1, k, target, [])


def delta(n: int, m: int, r: int) -> int:
    """Algebraic degree of semidefinite programming, exactly.

    Sum of psi(I) * psi(I complement) over subsets I of {1, ..., m} with
    |I| = m - r and element sum n.  Returns 0 when no subset qualifies.
    """
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r = {r}, m = {m}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    k = m - r
    total = 0
    full = tuple(range(1, m + 1))
    for subset in _subsets_with_sum(m, k, n):
        inside = set(subset)
        comp = tuple(i for i in full if i not in inside)
        total += _psi_cached(subset) * _psi_cached(comp)
    return total


class IntervalBoundReport(NamedTuple):
    """Both sides of psi_{[p+1,q]} >= (1 + (q-p)/(2p-1))**t_p."""

    lhs: int
    rhs: float
    holds: bool


def check_psi_interval_lower_bound(p: int, q: int) -> IntervalBoundReport:
    """Check the interval growth inequality for psi, exactly.

    The verdict compares lhs * (2p-1)**t_p against (p+q-1)**t_p in integer
    arithmetic; the reported rhs float is evaluated in the log domain so
    large exponents do not overflow.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if p > q:
        raise ValueError(f"need p <= q, got p = {p}, q = {q}")
    lhs = psi_interval_product(p, q)
    tp = triangular(p)
    base_num = p + q - 1  # (2p-1) + (q-p)
    base_den = 2 * p - 1
    rhs = exp(tp * (log(base_num) - log(base_den)))
    holds = lhs * base_den**tp >= base_num**tp
    return IntervalBoundReport(lhs=lhs, rhs=rhs, holds=holds)


class DegreeGrowthReport(NamedTuple):
    """Exact delta in the half-rank regime versus the m*m/20 exponent."""

    m: int
    n: int
    r: int
    delta: int
    log2_delta: float
    threshold: float
    holds: bool


def check_delta_exponent_bound(m: int) -> DegreeGrowthReport:
    """Evaluate delta(t_{m/2}+1, m, m/2+1) against the 2**(m*m/20) floor.

    The comparison log2(delta) >= m*m/20 is decided exactly as
    delta**20 >= 2**(m*m); the float fields are for reporting.  The bound
    is asymptotic, so callers should expect ``holds`` to flip on from some
    even m onward rather than assume it everywhere.
    """
    if m % 2 != 0 or m < 4:
        raise ValueError(f"need even m >= 4, got {m}")
    n = triangular(m // 2) + 1
    r = m // 2 + 1
    d = delta(n, m, r)
    if d < 1:
        raise ArithmeticError(f"expected a positive degree at m = {m}, got {d}")
    return DegreeGrowthReport(
        m=m,
        n=n,
        r=r,
        delta=d,
        log2_delta=log2_big(d),
        threshold=m * m / 20.0,
        holds=d**20 >= 1 << (m * m),
    )


__all__ = [
    "IntervalBoundReport",
    "DegreeGrowthReport",
    "psi",
    "psi_minor_sum",
    "psi_interval_product",
    "psi_interval_harris_tu",
    "delta",
    "check_psi_interval_lower_bound",
    "check_delta_exponent_bound",
]
