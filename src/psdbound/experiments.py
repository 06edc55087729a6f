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
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .bounds import PatakiRange, pataki_range, triangular
from .combinatorics import check_delta_exponent_bound
from .pencil import Pencil
from .sdp import STATUS_OPTIMAL, solve_sdp


def random_symmetric(rng: np.random.Generator, m: int) -> np.ndarray:
    """Standard Gaussian on symmetric matrices w.r.t. the trace inner product.

    Equivalently (G + G^T)/2 for G with iid standard normal entries:
    diagonal variance 1, off-diagonal variance 1/2.
    """
    g = rng.standard_normal((m, m))
    return (g + g.T) / 2.0


def random_pencil(m: int, n: int, seed) -> Pencil:
    """Pencil with n+1 independent Gaussian symmetric matrices."""
    if m < 1:
        raise ValueError(f"matrix size must be >= 1, got {m}")
    if not 1 <= n <= triangular(m):
        raise ValueError(f"need 1 <= n <= t_m = {triangular(m)}, got {n}")
    rng = np.random.default_rng(seed)
    mats = tuple(random_symmetric(rng, m) for _ in range(n + 1))
    return Pencil(mats=mats)


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
    """Optimal-rank histogram over random instances of one shape."""

    m: int
    n: int
    trials: int
    counts: dict[int, int]
    skipped: int
    seed: int
    pataki: PatakiRange
    statuses: dict[str, int] = field(default_factory=dict)

    @property
    def solved(self) -> int:
        return self.trials - self.skipped

    def in_range_fraction(self) -> float:
        """Fraction of solved trials whose rank lies in the Pataki range."""
        solved = self.solved
        if solved == 0:
            return float("nan")
        good = sum(cnt for rank, cnt in self.counts.items() if rank in self.pataki.ranks)
        return good / solved

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "trials": self.trials,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "skipped": self.skipped,
            "seed": self.seed,
            "pataki_ranks": list(self.pataki.ranks),
            "pataki_strict_ranks": list(self.pataki.strict_ranks),
            "statuses": dict(sorted(self.statuses.items())),
            "in_range_fraction": self.in_range_fraction(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["rank", "count"])
        for rank in sorted(self.counts):
            writer.writerow([rank, self.counts[rank]])
        writer.writerow(["skipped", self.skipped])
        return buf.getvalue()


def rank_frequency(m: int, n: int, trials: int, seed: int) -> RankFrequencyTable:
    """Empirical distribution of the optimal slack rank at shape (m, n).

    Each trial draws a fresh raw Gaussian pencil and objective and solves
    with an infeasible start; non-optimal statuses (infeasible, unbounded,
    numerical failure) are skipped and counted.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng_check = pataki_range(m, n)  # validates the shape
    counts: Counter[int] = Counter()
    statuses: Counter[str] = Counter()
    skipped = 0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        pencil = random_pencil(m, n, rng)
        c = rng.standard_normal(n)
        sol = solve_sdp(pencil, c, require_interior=False)
        statuses[sol.status] += 1
        if sol.status != STATUS_OPTIMAL:
            skipped += 1
            continue
        counts[sol.rank_X] += 1
    return RankFrequencyTable(
        m=m,
        n=n,
        trials=trials,
        counts=dict(counts),
        skipped=skipped,
        seed=seed,
        pataki=rng_check,
        statuses=dict(statuses),
    )


@dataclass
class TightnessReport:
    """Exact degree versus representation size in the half-rank regime.

    ``bound_holds`` is the exact comparison delta**20 >= 2**(m*m),
    equivalently m <= sqrt(20 log2 delta): the pencil size m (a trivial
    upper bound on the representation size of its own spectrahedron)
    is within a constant factor of the degree-based lower bound.
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

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "r": self.r,
            "delta": str(self.delta),
            "log2_delta": self.log2_delta,
            "threshold": self.threshold,
            "bound_holds": self.bound_holds,
            "sqrt20_bound": self.sqrt20_bound,
            "rank_bound": self.rank_bound,
            "trials": self.trials,
            "seed": self.seed,
            "frequency": None if self.frequency is None else self.frequency.to_dict(),
            "target_rank_count": self.target_rank_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


SDP_SIZE_LIMIT = 12  # above this only the exact-degree part runs


def tightness_report(m: int, trials: int, seed: int) -> TightnessReport:
    """Exact degree and empirical rank frequency at n = t_{m/2}+1, r = m/2+1.

    The empirical part is skipped (trials = 0 in the report) when m exceeds
    the desk-scale SDP limit; the exact degree is fine up to m = 16.
    """
    growth = check_delta_exponent_bound(m)
    freq = None
    target_count = None
    if trials > 0 and m <= SDP_SIZE_LIMIT:
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
        trials=freq.trials if freq is not None else 0,
        seed=seed,
        frequency=freq,
        target_rank_count=target_count,
    )
