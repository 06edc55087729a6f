"""Boundary sampling of polar bodies and minimal vanishing-degree fits.

The polar of a convex body C containing the origin is
C° = {c : <c, x> <= 1 for all x in C}.  When the support value
v(y) = max over C of <y, x> is positive, the scaled direction y / v(y)
lies on the boundary of C°, so seeded support solves produce a cloud of
boundary points.  Fitting then asks for the smallest total degree D such
that some polynomial of degree <= D vanishes on the whole cloud, detected
as a numerical kernel of the monomial evaluation matrix (a Veronese-style
interpolation).  That degree feeds the representation-size bound
sqrt(log2 d).

The fitted degree is an estimate with audit data (singular-value tails per
degree), not a certificate.  It also deliberately measures the boundary
itself: the critical-equation variety that vanishes on the boundary can
have extra components, and those must not inflate the answer.

The result dataclasses (:class:`BoundaryCloud`, :class:`DegreeFitReport`,
:class:`PipelineResult`) carry no serializer of their own: the CLI's JSON
encoder writes each report dataclass field by field, in field order, and
each array as a list; the CLI writes a cloud's CSV export too.  Every
float they hold is finite; a quantity with no finite value, such as the
gap of a kernel whose largest singular value is exactly 0, is None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .bounds import psd_rank_lower_bound
from .pencil import Pencil, json_fields
from .sdp import STATUS_OPTIMAL, solve_sdp_many

EPS_VALUE = 1e-9  # support values below this are treated as degenerate
EPS_KERNEL = 1e-7  # relative singular-value threshold declaring a kernel


class NotInteriorError(ValueError):
    """A0 is not positive definite, so the origin is not interior to the body."""


class AllSkippedError(RuntimeError):
    """No sampled direction produced a boundary point."""


class InsufficientSamplesError(ValueError):
    """Too few cloud points to test the requested degree."""


@dataclass
class BoundaryCloud:
    """Sampled points on the boundary of a polar body.

    ``points[i] = directions[i] / values[i]``; ``skipped`` records the
    directions that produced no point (solver status or near-zero value).
    A NaN or infinite entry in the points, directions or values is
    rejected, and so are points whose width is not ``ambient_dim``, arrays
    of different lengths and a point that is not its direction over its
    value (relative error above 1e-12), as a truncated or hand-edited cloud
    file would give.  A loaded cloud's ``skipped`` must be a list of objects
    with an integer ``index`` and a string ``reason``, and its ``seed`` a
    JSON integer or null.
    """

    ambient_dim: int
    points: np.ndarray
    directions: np.ndarray
    values: np.ndarray
    skipped: list[dict] = field(default_factory=list)
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("points", "directions", "values"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"cloud {name} have a non-finite entry")
        shape = (len(self.points), self.ambient_dim)
        if not self.points.shape == self.directions.shape == shape or self.values.shape != shape[:1]:
            raise ValueError(
                f"cloud of ambient_dim {self.ambient_dim}: points, directions and values have "
                f"shapes {self.points.shape}, {self.directions.shape} and {self.values.shape}"
            )
        # points[i] * values[i] = directions[i]: the relative error of
        # points[i] against directions[i] / values[i], without the division
        err = np.linalg.norm(self.points * self.values[:, None] - self.directions, axis=1)
        off = np.flatnonzero(~(err <= 1e-12 * np.linalg.norm(self.directions, axis=1)))
        if off.size:
            raise ValueError(f"cloud point {off[0]} is not its direction over its value")

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_dict(cls, data: dict) -> "BoundaryCloud":
        dim, *fields = json_fields(
            data, "cloud JSON", "ambient_dim", "points", "directions", "values", ints=("ambient_dim",)
        )
        if dim < 1:
            raise ValueError(f"cloud JSON 'ambient_dim' must be at least 1, got {dim}")
        try:
            points, directions = (np.asarray(v, dtype=float).reshape(-1, dim) for v in fields[:2])
            values = np.asarray(fields[2], dtype=float)
        except TypeError as exc:  # a number where a list belongs, or the reverse
            raise ValueError(f"cloud JSON has a value of the wrong type: {exc}") from None
        skipped, seed = data.get("skipped", []), data.get("seed")
        if not isinstance(skipped, list):
            raise ValueError(f"cloud JSON 'skipped' must be a list, got {skipped!r}")
        for entry in skipped:
            _, reason = json_fields(entry, "cloud skipped entry", "index", "reason", ints=("index",))
            if not isinstance(reason, str):
                raise ValueError(f"cloud skipped entry 'reason' must be a string, got {reason!r}")
        if seed is not None:
            json_fields(data, "cloud JSON", "seed", ints=("seed",))
        return cls(dim, points, directions, values, skipped, seed)


def sample_polar_boundary(pencil: Pencil, num_dirs: int, seed: int) -> BoundaryCloud:
    """Sample boundary points of the polar of the pencil's body.

    The polar needs the origin interior to the body: a pencil whose A0 is
    not positive definite raises :class:`NotInteriorError`.  Directions are
    unit Gaussians in the image space (seeded); each is lifted through the
    projection adjoint when one is present, the support SDPs of all
    directions are solved in one stacked run
    (:func:`~psdbound.sdp.solve_sdp_many`), and each direction divided by
    its support value is stored.  Unbounded or failed solves, and support
    values at or below ``EPS_VALUE``, land in ``skipped`` in index order.
    """
    if num_dirs < 1:
        raise ValueError(f"need at least one direction, got {num_dirs}")
    lam0 = float(np.linalg.eigvalsh(pencil.mats[0])[0])
    if lam0 <= 0.0:
        raise NotInteriorError(f"A0 is not positive definite (lambda_min = {lam0:.3e})")
    k = pencil.image_dim
    raw = np.random.default_rng(seed).standard_normal((num_dirs, k))
    # a row's vecdot is the BLAS dot that np.linalg.norm squares
    units = raw / np.sqrt(np.vecdot(raw, raw))[:, None]
    solutions = solve_sdp_many(pencil, [pencil.lift_direction(y) for y in units])
    optimal = np.array([sol.status == STATUS_OPTIMAL for sol in solutions])
    values = np.array([sol.value for sol in solutions])
    keep = optimal & (values > EPS_VALUE)
    if not keep.any():
        raise AllSkippedError("every sampled direction was skipped")
    skipped = [
        {"index": int(i), "reason": "near_zero_value" if optimal[i] else solutions[i].status}
        for i in np.flatnonzero(~keep)
    ]
    points = units[keep] / values[keep, None]
    return BoundaryCloud(k, points, units[keep], values[keep], skipped, seed)


def monomial_exponents(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of all monomials with total degree <= degree.

    Graded order: total degree first, lexicographic within a degree.
    Includes the constant monomial.
    """
    return [
        tuple(combo.count(v) for v in range(dim))
        for total in range(degree + 1)
        for combo in combinations_with_replacement(range(dim), total)
    ]


def _eval_monomials(points: np.ndarray, monos: Sequence[tuple[int, ...]]) -> np.ndarray:
    # column j is the product, in variable order, of the powers points[:, v] ** monos[j][v],
    # each taken once into a table; a power of exponent 0 is exactly 1 and changes no bit
    exps = np.array(monos)
    table = np.empty((len(points), exps.shape[1], exps.max() + 1))
    for v, e in np.ndindex(table.shape[1:]):
        table[:, v, e] = points[:, v] ** e
    # take keeps the product C-ordered, the layout the fit's matmul is summed in
    return reduce(np.multiply, (np.take(table[:, v], col, axis=1) for v, col in enumerate(exps.T)))


@dataclass
class DegreeFit:
    """Diagnostics of the kernel test at a single degree."""

    degree: int
    monomial_count: int
    sample_count: int
    sigma_max: float
    singular_tail: list[float]
    kernel_dim: int
    # smallest non-kernel sigma over largest kernel sigma; None without a
    # kernel, when every sigma is in it, or when the largest kernel sigma is 0
    gap: float | None


@dataclass
class DegreeFitReport:
    """Outcome of the minimal vanishing-degree search on a cloud."""

    ambient_dim: int
    degrees_tested: list[int]
    per_degree: list[DegreeFit]
    fitted_degree: int | None
    fitted_monomials: list[tuple[int, ...]] | None
    fitted_coefficients: np.ndarray | None
    max_abs_eval: float | None  # of the fitted polynomial over the whole cloud
    eps_kernel: float
    seed: int | None


def evaluate_fit(report: DegreeFitReport, points: np.ndarray) -> np.ndarray:
    """Evaluate the fitted polynomial at an (N, ambient_dim) array of points."""
    if report.fitted_degree is None:
        raise ValueError("report has no fitted polynomial")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != report.ambient_dim:
        raise ValueError(f"points must be (N, {report.ambient_dim}), got shape {points.shape}")
    return _eval_monomials(points, report.fitted_monomials) @ report.fitted_coefficients


def fit_min_vanishing_degree(cloud: BoundaryCloud, max_degree: int) -> DegreeFitReport:
    """Smallest degree D <= max_degree of a polynomial vanishing on the cloud.

    The monomial evaluation matrix is assembled once, on points rescaled to
    unit RMS radius (Vandermonde conditioning); each degree's kernel test
    takes the SVD of its leading columns and declares a kernel when the
    smallest singular value is at most ``EPS_KERNEL`` times the largest.
    Needs at least 2 monomial_count points per tested degree and fits on
    every point of the cloud: a row subsample could miss a whole boundary
    component and show a kernel the cloud does not have.
    Every degree up to ``max_degree`` that the cloud can test is tested, so
    the report carries the full kernel profile.
    """
    if max_degree < 1:
        raise ValueError(f"need max_degree >= 1, got {max_degree}")
    pts, dim = np.asarray(cloud.points, dtype=float), cloud.ambient_dim
    if pts.size == 0:
        raise InsufficientSamplesError("empty cloud")
    npts = len(pts)
    scale = float(np.sqrt(np.mean(np.sum(pts * pts, axis=1)))) or 1.0  # the RMS radius

    # monomials come in graded order, so degree D's matrix is the leading
    # comb(dim + D, D) columns of the matrix at the highest testable degree,
    # and the testable degrees are 1..top
    counts = [math.comb(dim + degree, degree) for degree in range(1, max_degree + 1)]
    top = sum(2 * k <= npts for k in counts)
    monos = monomial_exponents(dim, top)
    mat = _eval_monomials(pts / scale, monos)
    per_degree: list[DegreeFit] = []
    fitted_degree = fitted_monos = fitted_coeffs = max_abs_eval = None
    for degree, k in enumerate(counts[:top], 1):
        _, svals, vt = np.linalg.svd(mat[:, :k], full_matrices=False)
        sigma_max = float(svals[0]) + 0.0  # + 0.0 writes a -0.0 as 0.0
        kernel_dim = int(np.sum(svals <= EPS_KERNEL * sigma_max))
        has_gap = 1 <= kernel_dim < len(svals) and svals[-1] > 0
        gap = float(svals[-kernel_dim - 1]) / float(svals[-1]) if has_gap else None
        tail = [float(s) + 0.0 for s in svals[-min(6, len(svals)) :]]
        per_degree.append(DegreeFit(degree, k, npts, sigma_max, tail, kernel_dim, gap))
        if kernel_dim >= 1 and fitted_degree is None:
            fitted_degree, fitted_monos = degree, monos[:k]
            # map back to original coordinates and renormalize
            back = np.array([c / scale ** sum(e) for c, e in zip(vt[-1], fitted_monos)])
            fitted_coeffs = back / float(np.linalg.norm(back))
            evals = _eval_monomials(pts, fitted_monos) @ fitted_coeffs
            max_abs_eval = float(np.max(np.abs(evals)))
    if fitted_degree is None and top < max_degree:
        raise InsufficientSamplesError(
            f"degree {top + 1} needs {2 * counts[top]} points, cloud has {npts}"
        )

    return DegreeFitReport(
        ambient_dim=dim,
        degrees_tested=list(range(1, top + 1)),
        per_degree=per_degree,
        fitted_degree=fitted_degree,
        fitted_monomials=fitted_monos,
        fitted_coefficients=fitted_coeffs,
        max_abs_eval=max_abs_eval,
        eps_kernel=EPS_KERNEL,
        seed=cloud.seed,
    )


def pentagon_fixture() -> Pencil:
    """The 4 x 4 pencil whose shadow on (x, y) is the regular pentagon.

    A(x, y, s, t) =
        [[1+s,   t, x+s, y-t],
         [  t, 1-s, -y-t, x-s],
         [x+s, -y-t, 1+x,  -y],
         [y-t, x-s,  -y, 1-x]]

    with projection (x, y, s, t) -> (x, y).  The shadow is the convex hull
    of (cos(2k pi/5), sin(2k pi/5)), k = 0..4; its polar is another regular
    pentagon, so the polar boundary is a degree-5 curve (five lines).
    """
    a0 = np.eye(4)
    ax = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
        ]
    )
    ay = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, -1.0, 0.0, -1.0],
            [1.0, 0.0, -1.0, 0.0],
        ]
    )
    a_s = np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, -1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )
    a_t = np.array(
        [
            [0.0, 1.0, 0.0, -1.0],
            [1.0, 0.0, -1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
        ]
    )
    projection = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    return Pencil(mats=(a0, ax, ay, a_s, a_t), projection=projection)


def pentagon_vertices() -> np.ndarray:
    """Vertices (cos(2k pi/5), sin(2k pi/5)) of the pentagon shadow."""
    k = np.arange(5)
    ang = 2.0 * np.pi * k / 5.0
    return np.column_stack([np.cos(ang), np.sin(ang)])


def disk_fixture() -> Pencil:
    """2 x 2 pencil cutting out the closed unit disk in the plane."""
    return Pencil(
        mats=(
            np.eye(2),
            np.array([[1.0, 0.0], [0.0, -1.0]]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
    )


def segment_fixture() -> Pencil:
    """1-variable pencil cutting out the segment [-1, 1]."""
    return Pencil(mats=(np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]])))


@dataclass
class PipelineResult:
    """Composition sample -> fit -> representation-size bound."""

    d_est: int | None
    conclusive: bool
    d_used: int  # degree fed into the bound (largest tested when inconclusive)
    psd_bound: float
    psd_bound_ceil: int
    cloud_size: int
    skipped: int
    report: DegreeFitReport


def bound_pipeline(pencil: Pencil, num_dirs: int, max_degree: int, seed: int) -> PipelineResult:
    """Sample the polar boundary, fit the minimal degree, convert to a bound.

    When no vanishing polynomial of degree <= max_degree exists the result
    is inconclusive: the true degree exceeds max_degree, so the bound is
    still valid when computed from the largest tested degree, and is
    reported as such.
    """
    cloud = sample_polar_boundary(pencil, num_dirs, seed)
    report = fit_min_vanishing_degree(cloud, max_degree)
    conclusive = report.fitted_degree is not None
    d_used = report.fitted_degree or max_degree  # a fitted degree is at least 1
    bound = psd_rank_lower_bound(d_used)
    return PipelineResult(
        d_est=report.fitted_degree,
        conclusive=conclusive,
        d_used=d_used,
        psd_bound=bound.bound,
        psd_bound_ceil=bound.ceiling,
        cloud_size=len(cloud),
        skipped=len(cloud.skipped),
        report=report,
    )
