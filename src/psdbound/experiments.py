"""Random-spectrahedron experiments.

Draws Gaussian pencils and objectives, solves the resulting SDPs, and
tabulates the ranks of the optimal slack matrices.  Generic optima have
ranks confined to the Pataki range, and every rank in that range shows up
with positive probability; the tables here are the desk-scale empirical
counterpart of that statement.

The tightness driver targets the half-rank regime n = t_{m/2} + 1,
r = m/2 + 1, where the algebraic degree grows like 2**(m*m/20): it bundles
the exact degree, the resulting bound pair, and the observed frequency of
the target rank.

Reproducibility: per-trial generators are spawned as default_rng((seed,
trial)), so tables are independent of execution order.

The reports (:class:`RankFrequencyTable`, :class:`TightnessReport`) are
plain data: their fields are the printed keys, in the printed order, and
the CLI writes every JSON and CSV view of them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bounds import pataki_range, triangular
from .combinatorics import check_delta_exponent_bound
from .pencil import Pencil
from .sdp import STATUS_FAILURE, STATUS_INFEASIBLE, STATUS_OPTIMAL, STATUS_UNBOUNDED, solve_sdp


def random_symmetric(rng: np.random.Generator, m: int) -> np.ndarray:
    """Standard Gaussian on symmetric matrices w.r.t. the trace inner product.

    Equivalently (G + G^T)/2 for G with iid standard normal entries:
    diagonal variance 1, off-diagonal variance 1/2.
    """
    g = rng.standard_normal((m, m))
    return (g + g.T) / 2.0


def random_pencil(m: int, n: int, seed) -> Pencil:
    """Pencil with n+1 independent Gaussian symmetric matrices.

    The n + 1 Gaussian matrices G come from one standard_normal((n + 1, m,
    m)) draw, the same stream as n + 1 draws of :func:`random_symmetric`, so
    the matrices, and the generator's next draw, are bitwise the same."""
    if m < 1:
        raise ValueError(f"matrix size must be >= 1, got {m}")
    if not 1 <= n <= triangular(m):
        raise ValueError(f"need 1 <= n <= t_m = {triangular(m)}, got {n}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n + 1, m, m))
    sym = g + g.mT
    sym /= 2.0
    return Pencil(mats=sym)


def shift_to_interior(pencil: Pencil, margin: float = 0.1) -> tuple[Pencil, float]:
    """Shift A0 by a multiple of the identity until lambda_min >= margin.

    Returns the (possibly new) pencil and the applied shift, 0.0 when the
    original A0 already clears the margin.  Used where the boundary and
    support machinery needs 0 in the interior; rank-frequency runs keep the
    raw A0 and skip infeasible draws instead.
    """
    lam_min = float(np.linalg.eigvalsh(pencil.mats[0])[0])
    if lam_min >= margin:
        return pencil, 0.0
    shift = abs(lam_min) + margin
    a0 = pencil.mats[0] + shift * np.eye(pencil.m)
    return Pencil(mats=(a0,) + pencil.mats[1:], projection=pencil.projection), shift


@dataclass
class RankFrequencyTable:
    """Optimal-rank histogram over random instances of one shape.

    ``counts`` maps each optimal rank to its trials, in rank order;
    ``statuses`` counts the trials of each of the four solver statuses,
    in name order, zeros included.
    ``in_range_fraction`` is the share of optimal trials whose rank lies in
    the Pataki range, None when no trial ended optimal.
    """

    m: int
    n: int
    trials: int
    counts: dict[int, int]
    skipped: int
    seed: int
    pataki_ranks: tuple[int, ...]
    pataki_strict_ranks: tuple[int, ...]
    statuses: dict[str, int]
    in_range_fraction: float | None


def rank_frequency(m: int, n: int, trials: int, seed: int) -> RankFrequencyTable:
    """Empirical distribution of the optimal slack rank at shape (m, n).

    Each trial draws a fresh raw Gaussian pencil (A0 indefinite in general)
    and objective and solves it; non-optimal statuses (infeasible, unbounded,
    numerical failure) are skipped and counted.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    pataki = pataki_range(m, n)  # validates the shape
    counts: Counter[int] = Counter()
    names = (STATUS_FAILURE, STATUS_INFEASIBLE, STATUS_OPTIMAL, STATUS_UNBOUNDED)
    statuses = dict.fromkeys(sorted(names), 0)
    skipped = 0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        pencil = random_pencil(m, n, rng)
        c = rng.standard_normal(n)
        sol = solve_sdp(pencil, c)
        statuses[sol.status] += 1
        if sol.status != STATUS_OPTIMAL:
            skipped += 1
            continue
        counts[sol.rank_X] += 1
    solved = trials - skipped
    in_range = sum(cnt for rank, cnt in counts.items() if rank in pataki.ranks)
    return RankFrequencyTable(
        m=m,
        n=n,
        trials=trials,
        counts=dict(sorted(counts.items())),
        skipped=skipped,
        seed=seed,
        pataki_ranks=pataki.ranks,
        pataki_strict_ranks=pataki.strict_ranks,
        statuses=statuses,
        in_range_fraction=in_range / solved if solved else None,
    )


@dataclass
class TightnessReport:
    """Exact degree versus representation size in the half-rank regime.

    ``bound_holds`` is the exact comparison delta**20 >= 2**(m*m),
    equivalently m <= sqrt(20 log2 delta): the pencil size m (a trivial
    upper bound on the representation size of its own spectrahedron)
    is within a constant factor of the degree-based lower bound.  ``delta``
    is exact; the CLI prints it as a decimal string.
    """

    m: int
    n: int
    r: int
    delta: int
    log2_delta: float
    threshold: float  # m*m/20
    bound_holds: bool
    sqrt20_bound: float  # sqrt(20 log2 delta)
    rank_bound: float  # sqrt(log2 delta)
    trials: int
    seed: int
    frequency: RankFrequencyTable | None
    target_rank_count: int | None


def tightness_report(m: int, trials: int, seed: int) -> TightnessReport:
    """Exact degree and empirical rank frequency at n = t_{m/2}+1, r = m/2+1.

    The empirical part is skipped (frequency None) when trials is 0.  On
    2 cores with one BLAS thread a raw trial costs about 2.5 ms at m = 12,
    3 ms at m = 14 and 16, 4 ms at m = 20 and 7-8 ms at m = 24.  From m =
    10 on the raw trials end ``infeasible`` with a Farkas certificate (200
    of 200 at m = 10, 12, 14 and 20 with seed 0), so ``in_range_fraction``
    is None and ``target_rank_count`` 0 there; ROADMAP item 4 replaces the
    raw pencils with interior-shifted bodies.
    """
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")
    growth = check_delta_exponent_bound(m)
    freq = None
    target_count = None
    if trials > 0:
        freq = rank_frequency(m, growth.n, trials, seed)
        target_count = freq.counts.get(growth.r, 0)
    return TightnessReport(
        m=m,
        n=growth.n,
        r=growth.r,
        delta=growth.delta,
        log2_delta=growth.log2_delta,
        threshold=growth.threshold,
        bound_holds=growth.holds,
        sqrt20_bound=math.sqrt(20.0 * growth.log2_delta),
        rank_bound=math.sqrt(growth.log2_delta),
        trials=trials,
        seed=seed,
        frequency=freq,
        target_rank_count=target_count,
    )
