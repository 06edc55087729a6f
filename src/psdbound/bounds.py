"""Bound arithmetic for semidefinite lifts.

Collects the small exact formulas that the rest of the package feeds into:
triangular numbers, the Pataki rank range of generic SDP optima and its
check, the Bezout count 2**(m*m) of the KKT equations, and the conversions
from a boundary degree d to lower bounds on representation size
(sqrt(log2 d) for semidefinite lifts, log2 d for polyhedral lifts).

All integer quantities are exact Python ints; degrees routinely exceed
64 bits.  Their logarithms come from :func:`log2_big`, and the ceiling of
sqrt(log2 d) from the bit length of d - 1, with no float in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


def triangular(m: int) -> int:
    """m-th triangular number m*(m+1)/2, the dimension of m x m symmetrics."""
    if m < 0:
        raise ValueError(f"triangular number needs m >= 0, got {m}")
    return m * (m + 1) // 2


@dataclass(frozen=True)
class PatakiRange:
    """Ranks r that occur at optima of generic SDPs of shape (m, n).

    ``ranks`` holds every r in [0, m] with n >= t_{m-r} and t_r <= t_m - n;
    ``strict_ranks`` is the sublist additionally satisfying n > t_{m-r}.
    """

    m: int
    n: int
    ranks: tuple[int, ...]
    strict_ranks: tuple[int, ...]

    def __contains__(self, r: int) -> bool:
        return r in self.ranks


def pataki_range(m: int, n: int) -> PatakiRange:
    """Enumerate the generic optimal ranks for an m x m pencil in dimension n."""
    if m < 1:
        raise ValueError(f"matrix size must be >= 1, got {m}")
    tm = triangular(m)
    if not 1 <= n <= tm:
        raise ValueError(f"need 1 <= n <= t_m = {tm}, got n = {n}")
    ranks = []
    strict = []
    for r in range(m + 1):
        if n >= triangular(m - r) and triangular(r) <= tm - n:
            ranks.append(r)
            if n > triangular(m - r):
                strict.append(r)
    return PatakiRange(m=m, n=n, ranks=tuple(ranks), strict_ranks=tuple(strict))


class PatakiViolationError(ValueError):
    """Requested rank lies outside the Pataki range for this shape."""


def check_pataki_rank(m: int, n: int, r: int) -> None:
    """Raise :class:`PatakiViolationError` unless r is in ``pataki_range(m, n)``,
    which raises ValueError for a shape outside m >= 1, 1 <= n <= t_m."""
    ranks = pataki_range(m, n).ranks
    if r not in ranks:
        raise PatakiViolationError(
            f"rank {r} outside the Pataki range {list(ranks)} for (m, n) = ({m}, {n})"
        )


def bezout_kkt_count(m: int) -> int:
    """Product of the equation degrees of the m x m KKT system: 2**(m*m).

    The linear groups contribute degree 1 and the m*m entries of the
    complementarity product contribute degree 2 each.
    """
    if m < 1:
        raise ValueError(f"matrix size must be >= 1, got {m}")
    return 1 << (m * m)


def log2_big(v: int) -> float:
    """log2 of a positive integer of arbitrary size.

    ``math.log2`` rounds v to a 53-bit mantissa and keeps its exponent
    exact, past the float range (2**1024) too, so the result is exact for
    powers of two and otherwise within half an ulp plus the 2**-53
    relative rounding of that mantissa.
    """
    if v < 1:
        raise ValueError(f"log2 needs a positive integer, got {v}")
    return math.log2(v)


class RankBound(NamedTuple):
    bound: float
    ceiling: int


def psd_rank_lower_bound(d: int) -> RankBound:
    """Lower bound sqrt(log2 d) on the psd rank implied by boundary degree d.

    Returns the real bound and its ceiling (valid since ranks are integers).
    The ceiling is exact integer arithmetic, so powers of two invert
    exactly: d = 2**(m*m) gives (m, m) for any m.
    """
    if d < 1:
        raise ValueError(f"degree must be a positive integer, got {d}")
    # the smallest k with 2**(k*k) >= d, i.e. with k*k >= the bit length of d - 1
    bits = (d - 1).bit_length()
    k = math.isqrt(bits - 1) + 1 if bits else 0
    return RankBound(bound=math.sqrt(log2_big(d)), ceiling=k)


def lp_extension_lower_bound(d: int) -> float:
    """Lower bound log2 d on polyhedral extension complexity, d = vertex count."""
    if d < 1:
        raise ValueError(f"vertex count must be a positive integer, got {d}")
    return log2_big(d)
