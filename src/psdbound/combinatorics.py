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
(fraction-free elimination for Pfaffians and determinants, exact rational
products for intervals).

Two routes compute psi:

* :func:`psi_minor_sum` enumerates column subsets directly (the defining
  sum, kept as the audit oracle); column subsets violating the staircase
  condition c_b <= r_b are pruned since their minors vanish.
* :func:`psi` counts the same sum as free-endpoint non-intersecting
  lattice paths: the Pfaffian of a skew-symmetric matrix Q (Stembridge)
  of pair values psi({i, j}), padded by the singletons 2**(i-1) when |I|
  is odd (Nie-Ranestad-Sturmfels 2010).  Each pair value has a closed
  form by Vandermonde's identity, so the setup is O(k^2) with no Pascal
  matrix, and Pf(Q) itself comes out of a fraction-free skew elimination
  in O(k^3) exact steps, with no determinant and no square root.

:func:`psi` and :func:`delta` share that one elimination step: ``_walk``
runs it along I alone for psi, and along I and its complement at once
for delta, where subsets with a common prefix share its elimination.
The test suite enforces agreement with the routes that stay independent
of the walk: only :func:`psi_minor_sum` goes through :func:`_bareiss_det`,
the pair values have their own closed form (``_pair``), and the interval
routes (:func:`psi_interval_product`, :func:`psi_interval_harris_tu`) are
closed-form products.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb, exp, log, prod
from typing import Iterable, NamedTuple

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


@lru_cache(maxsize=None)
def _pair(x: int, y: int) -> int:
    """psi of the pair {x+1, y+1}, x < y: sum of C(x+y, j) over x <= j < y."""
    return sum(comb(x + y, j) for j in range(x, y))


def _walk(elems: tuple[int, ...], k: int, n: int) -> int:
    """Sum of psi(I) * psi(elems minus I) over k-subsets I of ``elems`` summing to n.

    One depth-first walk over ``elems``, pruned by the sum window: each
    element joins I or its complement.  Each side, a tuple (level, last
    pivot, unpaired element or None, elements still to take, prefix),
    carries its own fraction-free elimination of Pf(Q), where Q is the skew
    matrix of the pair values psi({i, j}) with a last pad index joined to
    each i by the singleton psi({i}) = 2**(i-1).

    A level is (rows, parent, a, b, p, prev), or (q,) at the root: a table
    over the elements still to come.  Row i holds T[i][j] for j > i from
    the far end in, the pad first, so T[i][j] is ``rows[i][i - j]`` and the
    rows of any a < b < i line up under ``zip``.  A side that completes a
    pair (a, b) pivots on p = T[a][b] and starts a level whose rows are
    ``T'[i][j] = (p*T[i][j] + T[b][i]*T[a][j] - T[a][i]*T[b][j]) // prev``.
    After a pair, T[i][j] is the Pfaffian of Q on the prefix plus {i, j}
    (the Pfaffian form of Sylvester's identity; Knuth, "Overlapping
    Pfaffians", 1996), whatever the rest of the set: every subset that
    extends the prefix shares the level, and each division is exact.

    A row is eliminated when the walk first reads it, so an element a side
    never takes costs that side nothing, and the last pair's pivot and an
    odd side's T[unpaired][pad] are single entries.  At a leaf an even side
    reads psi as its last pivot, an odd side as T[unpaired][pad].  Each
    pivot is psi of a prefix, a path count that is at least 1, so no
    pivoting is needed; a pivot <= 0 raises, naming the prefix.
    """
    size = len(elems)
    ends = list(accumulate(elems, initial=0))
    top = [ends[-1] - ends[size - c] for c in range(size + 1)]  # the sum of the c largest

    def row(level: tuple, i: int) -> list[int]:
        r = level[0][i]
        if r is None:
            rows, parent, a, b, p, prev = level
            ta, tb, ti = parent[0][a], parent[0][b], parent[0][i] or row(parent, i)
            ai, bi = ta[a - i], tb[b - i]
            r = rows[i] = [(p * x + bi * y - ai * z) // prev for x, y, z in zip(ti, ta, tb)]
        return r

    def entry(level: tuple, i: int, j: int) -> int:
        if level[0][i] is not None:
            return level[0][i][i - j]
        _, parent, a, b, p, prev = level
        ta, tb = parent[0][a], parent[0][b]
        return (p * entry(parent, i, j) + tb[b - i] * ta[a - j] - ta[a - i] * tb[b - j]) // prev

    def join(side: tuple, x: int) -> tuple:
        level, prev, u, left, prefix = side
        prefix += (elems[x],)
        if u is None:
            return level, prev, x, left - 1, prefix
        # a new level reads the rows of its pair; the last pair needs its pivot alone
        p = row(level, u)[u - x] if left > 1 else entry(level, u, x)
        if p <= 0:
            raise ArithmeticError(f"Pfaffian pivot {p} at the prefix {prefix} of Q for {elems}: "
                                  "psi is at least 1")
        if left > 1:
            row(level, x)
            level = ([None] * size, level, u, x, p, prev)
        return level, p, None, left - 1, prefix

    def walk(x: int, need: int, inner: tuple, outer: tuple) -> int:
        if x == size:  # psi of an even side is its last pivot, of an odd one T[unpaired][pad]
            return prod(s[1] if s[2] is None else entry(s[0], s[2], size) for s in (inner, outer))
        # I's picks from y on must sum to between the smallest and the largest they can
        left, e, y, total = inner[3], elems[x], x + 1, 0
        if left and ends[x + left] - ends[y] <= need - e <= top[left - 1]:
            total += walk(y, need - e, join(inner, x), outer)
        if left < size - x and ends[y + left] - ends[y] <= need <= top[left]:
            total += walk(y, need, inner, join(outer, x))
        return total

    if not ends[k] <= n <= top[k]:
        return 0
    q = [[1 << (x - 1)] + [_pair(x - 1, y - 1) for y in elems[:a:-1]] for a, x in enumerate(elems)]
    return walk(0, n, *(((q,), 1, None, c, ()) for c in (k, size - k)))


def psi(I: Iterable[int]) -> int:
    """Sum of all maximal minors of the Pascal rows selected by I.

    Element i selects the row (C(i-1, 0), C(i-1, 1), ...), so
    psi({i}) = 2**(i-1) and psi of the full interval {1, ..., m} is 1.
    The empty set returns 1 (empty minor convention).

    Evaluated as Pf(Q) by fraction-free skew elimination, where Q is the
    skew-symmetric matrix whose Pfaffian counts the free-endpoint
    non-intersecting path families: the walk of :func:`delta` along I
    alone.  Agrees with :func:`psi_minor_sum` everywhere (property-tested).
    A non-positive pivot raises ArithmeticError.
    """
    elems = _as_elements(I)
    return _walk(elems, len(elems), sum(elems))


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


def delta(n: int, m: int, r: int) -> int:
    """Algebraic degree of semidefinite programming, exactly.

    Sum of psi(I) * psi(I complement) over subsets I of {1, ..., m} with
    |I| = m - r and element sum n, in one walk over {1, ..., m} that
    shares each prefix's elimination (``_walk``).  Returns 0 when no
    subset qualifies.
    """
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r = {r}, m = {m}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _walk(tuple(range(1, m + 1)), m - r, n)


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
