"""Dense primal-dual interior-point solver for small spectrahedra.

Solves  max c^T x  subject to  X := A0 + x1*A1 + ... + xn*An psd, and
returns the optimizer together with the dual multiplier Z satisfying

    X = A0 + A(x),   A*(Z) + c = 0,   X Z = 0,   X psd,  Z psd

at the reported tolerances.  The implementation is a Nesterov-Todd scaled
predictor/centering path-following method on the equivalent standard-form
pair

    min <A0, Z>  s.t.  <A_i, Z> = -c_i,  Z psd      (primal)
    max  c^T x   s.t.  A0 + A(x) psd                (dual)

with infeasible starts and fixed deterministic step rules: identical
inputs give identical outputs on a given platform.  The Schur complement is
the Gram matrix of the NT-scaled coefficient matrices F^T A_i F, where
F F^T = W^{-1}.  Everything is dense; intended scale is m <= 24, n <= 80.

One pencil, many objectives: :func:`solve_sdp_many` runs a single
iteration loop over a stack of problems.  Matrices are stacks with one
row per problem (``x`` is (B, n), ``X`` and ``Z`` are (B, m, m)) and go
through numpy's stacked linear algebra, which does the same arithmetic on
each slice as on a lone matrix; inner products are one BLAS dot per row
(``np.vecdot``), never a GEMM across rows.  Scalar decisions (statuses,
step lengths, centering) run row by row in Python with the same
expressions as a lone solve.  So each problem's result is bitwise
identical to solving it alone, whatever batch it sits in and in whatever
order; :func:`solve_sdp` is the one-objective case.

A problem whose solve has ended stops taking steps.  Its row leaves the
stack once half the stack's rows have ended, or at once if its iterate is
not finite, so the stack changes shape only a few times per run.  When a
stacked Cholesky fails on one slice, the stack is halved until the
failing slices stand alone and those fall back to their eigenpairs; a
singular Schur system ends only its own problem; both as in a lone solve.
The crossover polish and the result assembly after the loop are stacked
calls too, the polish over groups of problems that share a face rank; it
skips the face ranks at which its x refit is not determined.
Objectives run in chunks whose scaled coefficient stack (B, n, m, m)
stays under ``CHUNK_BYTES``.

The numerics are fixed module constants, not options: the path phase
targets relative feasibility and gap ``TOL``, a stalled solve is accepted
at ``ACCEPT``, a solve runs at most ``MAX_ITER`` iterations, and an x (or
Z) whose norm passes ``DIVERGE_NORM`` ends it as unbounded (or
infeasible).  Numerical ranks use ``RANK_EPS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import triangular
from .pencil import Pencil, adjoint

RANK_EPS = 1e-6
RANK_GAP_FLAG = 100.0  # flag leading/trailing eigenvalue ratios below this

TOL = 1e-10  # target relative feasibility and gap of the path phase
ACCEPT = 1e-7  # relative feasibility and gap a stalled solve may still accept
MAX_ITER = 100
DIVERGE_NORM = 1e8  # ||x|| (or ||Z|| / max(1, ||c||)) past this ends the solve
CHUNK_BYTES = 1 << 24  # bytes of one chunk's scaled coefficient stack (B, n, m, m)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_FAILURE = "numerical_failure"


class NotInteriorError(ValueError):
    """A0 is not positive definite, so 0 is not interior to the feasible set."""


def sym_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix."""
    a = np.asarray(mat, dtype=float)
    w, v = np.linalg.eigh((a + a.T) / 2.0)
    return w[::-1].copy(), v[:, ::-1].copy()


def rank_of(mat: np.ndarray) -> int:
    """Numerical rank: eigenvalues above RANK_EPS * max(0, lambda_max)."""
    return _rank(np.linalg.eigvalsh(np.asarray(mat, dtype=float)))


def _rank(w: np.ndarray) -> int:
    """:func:`rank_of` from the ascending eigenvalues w."""
    top = float(w[-1]) if w.size else 0.0
    return int(np.sum(w > RANK_EPS * max(0.0, top)))


@dataclass
class SdpSolution:
    """Primal/dual certificate pair for one solve.

    ``residuals`` is (primal feasibility ||A0 + A(x) - X||_F,
    dual feasibility ||A*(Z) + c||_2, complementarity trace(X Z)).
    ``ray`` is populated for unbounded problems: a unit direction with
    A(ray) psd (within tolerance) and c^T ray > 0.
    ``rank_uncertain`` flags a trailing eigenvalue ratio below 100 at the
    rank cut, i.e. a rank decision that deserves a look at the spectra.
    """

    x: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    value: float
    status: str
    rank_X: int
    rank_Z: int
    residuals: tuple[float, float, float]
    spectrum_X: np.ndarray
    spectrum_Z: np.ndarray
    iterations: int
    rank_uncertain: bool = False
    ray: np.ndarray | None = field(default=None)


def _uncertain(spec: np.ndarray, rank: int) -> bool:
    """Whether the descending spectrum's gap at the rank cut is below RANK_GAP_FLAG."""
    if rank == 0 or rank >= spec.size:
        return False
    lo = abs(float(spec[rank]))
    hi = abs(float(spec[rank - 1]))
    return lo > 0 and hi / lo < RANK_GAP_FLAG


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise <a_k, b_k> over two stacks: one BLAS dot per row, the same
    arithmetic as np.vdot(a_k, b_k) (and as np.linalg.norm's square)."""
    return np.vecdot(a.reshape(len(a), -1), b.reshape(len(b), -1))


def _sym(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.mT) / 2.0


def _factor(mats: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of matrices.  A slice that is not
    numerically positive definite makes the stacked call fail whole; the
    stack is then halved until the failing slices stand alone, and each of
    those falls back to V sqrt(W) from its clipped eigenpairs."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        if len(mats) > 1:
            half = len(mats) // 2
            return np.concatenate([_factor(mats[:half]), _factor(mats[half:])])
    w, v = np.linalg.eigh(mats)
    return v * np.sqrt(np.maximum(w, 1e-300))[:, None, :]


def _max_step(chol: np.ndarray, directions: np.ndarray) -> list[float]:
    """Per slice, the largest alpha <= 1 with mat + alpha*direction still
    positive definite, for mat = chol chol^T (see :func:`_factor`)."""
    y = np.linalg.solve(chol, directions)
    scaled = np.linalg.solve(chol, y.mT).mT
    lam_min = np.linalg.eigvalsh(_sym(scaled))[:, 0].tolist()
    return [1.0 if lam >= -1e-14 else min(1.0, -1.0 / lam) for lam in lam_min]


def _schur_gram(a_flat: np.ndarray, f_mat: np.ndarray) -> np.ndarray:
    """Schur complement S_ij = <A_i, W^-1 A_j W^-1> for F F^T = W^-1.

    ``a_flat`` holds A1..An as rows of length m*m; ``f_mat`` is one F or a
    stack of them.  S_ij = <F^T A_i F, F^T A_j F>, so S is the Gram matrix
    of the scaled stack: symmetric and positive semidefinite by
    construction.
    """
    n, m = a_flat.shape[0], f_mat.shape[-1]
    f = f_mat[..., None, :, :]
    b_flat = (f.mT @ a_flat.reshape(n, m, m) @ f).reshape(*f_mat.shape[:-2], n, m * m)
    return b_flat @ b_flat.mT


def _residuals(
    a0: np.ndarray, a_flat: np.ndarray, cv: np.ndarray, x: np.ndarray, X: np.ndarray, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Residuals rd = A0 + A(x) - X and rp = -(A*(Z) + c) over a stack, and
    per row the inner products the solver's errors and norms are made of:
    (<rd, rd>, <X, Z>, <XZ, XZ>, <X, X>, <Z, Z>, <rp, rp>, <c, x>, <x, x>),
    each one BLAS dot.  ``a_flat`` holds A1..An as rows of length m*m."""
    count, m = X.shape[:2]
    rd = a0 + (x[:, None, :] @ a_flat).reshape(count, m, m) - X
    rp = -(cv + (a_flat @ Z.reshape(count, m * m, 1))[..., 0])
    xz = X @ Z
    mats = np.vecdot(
        np.concatenate([rd, X, xz, X, Z]).reshape(5, count, m * m),
        np.concatenate([rd, Z, xz, X, Z]).reshape(5, count, m * m),
    )
    n = x.shape[1]
    vecs = np.vecdot(
        np.concatenate([rp, cv, x]).reshape(3, count, n),
        np.concatenate([rp, x, x]).reshape(3, count, n),
    )
    return rd, rp, np.concatenate([mats, vecs]).T.tolist()


def _errors(dots: list[float], norm_a0: float, norm_c: float) -> tuple[float, float, float, float]:
    """Relative errors (primal, dual, gap, complementarity) the solver
    steers and accepts by, from one row of :func:`_residuals`' products."""
    rd_rd, x_z, xz_xz, x_x, z_z, rp_rp, c_x, _ = dots
    return (
        math.sqrt(rd_rd) / (1.0 + norm_a0),
        math.sqrt(rp_rp) / (1.0 + norm_c),
        abs(x_z) / (1.0 + abs(c_x)),
        math.sqrt(xz_xz) / (1.0 + math.sqrt(x_x) * math.sqrt(z_z)),
    )


def _spectrum(mat: np.ndarray, ok: list[bool]) -> tuple[np.ndarray, np.ndarray]:
    """eigh over a stack, each spectrum floored at 1e-30 of its top.

    Clears ``ok[k]`` where slice k is not numerically positive definite and
    gives every slice not ok unit eigenvalues, so later calls see no NaN.
    """
    w, v = np.linalg.eigh(mat)
    for k, (lo, hi) in enumerate(zip(w[:, 0].tolist(), w[:, -1].tolist())):
        if lo <= 0 or not math.isfinite(hi):
            ok[k] = False
    w = np.maximum(w, 1e-30 * w[:, -1:])
    if not all(ok):
        w[np.logical_not(ok)] = 1.0
    return w, v


def _nt_scaling(X: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[bool]]:
    """Nesterov-Todd factors F (F F^T = W^-1 for W Z W = X) and Z^-1 over a
    stack, and per slice whether it has them.

    A slice has none when X, the middle matrix X^1/2 Z X^1/2 or Z is
    numerically singular: the float floor is reached.
    """
    count = len(X)
    ok_xz = [True] * (2 * count)
    w, v = _spectrum(np.concatenate([X, Z]), ok_xz)  # X and Z decompose together
    ok = [a and b for a, b in zip(ok_xz[:count], ok_xz[count:])]
    root = np.sqrt(w[:count])[:, None, :]
    vx, vz = v[:count], v[count:]
    xh = (vx * root) @ vx.mT
    xih = (vx / root) @ vx.mT
    wg, vg = _spectrum(_sym(xh @ Z @ xh), ok)
    f_mat = (xih @ vg) * np.sqrt(np.sqrt(wg))[:, None, :]
    return f_mat, (vz / w[count:, None, :]) @ vz.mT, ok


def _solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[bool]]:
    """np.linalg.solve over stacks, and per slice whether it was solved.

    A singular slice makes the stacked call fail whole; the stack is then
    halved until the singular slices stand alone, and those are left at zero.
    """
    try:
        return np.linalg.solve(a, b), [True] * len(a)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros_like(b), [False]
    half = len(a) // 2
    lo, solved_lo = _solve_each(a[:half], b[:half])
    hi, solved_hi = _solve_each(a[half:], b[half:])
    return np.concatenate([lo, hi]), solved_lo + solved_hi


def _newton(
    a_flat: np.ndarray,
    schur: np.ndarray,
    winv: np.ndarray,
    wrw: np.ndarray,
    rd: np.ndarray,
    rp: np.ndarray,
    target: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[bool]]:
    """Directions for  Delta_X + W Delta_Z W = target  plus the two linear
    groups, reduced to the Schur system in Delta_x (``wrw`` = W^-1 rd W^-1),
    over a stack, and per slice whether its Schur system was solved (a
    zero Delta_x where not, which keeps the other directions finite)."""
    count, m = winv.shape[:2]
    g_mat = _sym(winv @ target @ winv) - wrw
    rhs = (a_flat @ g_mat.reshape(count, m * m, 1))[..., 0] - rp
    dx, solved = _solve_each(schur, rhs[..., None])
    dx = dx[..., 0]
    adx = (dx[:, None, :] @ a_flat).reshape(count, m, m)
    return dx, adx + rd, g_mat - _sym(winv @ adx @ winv), solved


def _lstsq(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, list[bool]]:
    """Least-squares solution of lhs @ sol = rhs over a stack, or the
    minimum-norm one where lhs is wide, by QR (of lhs^T where wide); and per
    slice whether its triangular system was solved."""
    if lhs.shape[-2] >= lhs.shape[-1]:
        q, r = np.linalg.qr(lhs)
        return _solve_each(r, q.mT @ rhs)
    q, r = np.linalg.qr(lhs.mT)
    sol, solved = _solve_each(r.mT, rhs)
    return q @ sol, solved


def _polish_round(
    a0: np.ndarray, a_flat: np.ndarray, cs: np.ndarray, X: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One crossover round at optimal-face rank r over a stack: the refit
    (x, X, Z), and per slice whether it came out finite and solved.

    The split subspaces come from X alone: with exact primal feasibility
    the near-kernel of X locates the optimal face far more accurately than
    the dual iterate does.  Q1 holds the top r eigenvectors of X and Q2 the
    rest.  x is the least-squares fit of A0 + A(x) = Q1 M Q1^T with M
    eliminated: it fits P(A0 + A(x)) = 0 for P(S) = S - Q1 Q1^T S Q1 Q1^T.
    X is re-evaluated through the pencil (exact feasibility), and
    Z = Q2 N Q2^T is refit against A*(Z) + c = 0, its stray negative
    eigenvalues clipped.  ``a_flat`` holds A1..An as rows of length m*m.
    """
    count, m = X.shape[:2]
    a_mats = a_flat.reshape(-1, m, m)
    v = np.linalg.eigh(X)[1]
    q1, q2 = v[..., m - r :], v[..., : m - r]

    face = q1 @ q1.mT
    lhs = face[:, None] @ a_mats @ face[:, None]
    np.subtract(a_mats, lhs, out=lhs)
    rhs = (face @ a0 @ face - a0).reshape(count, m * m, 1)
    x, solved_x = _lstsq(lhs.reshape(count, -1, m * m).mT, rhs)
    x = x[..., 0]

    # <A_i, q_a q_b^T + q_b q_a^T> = 2 (Q2^T A_i Q2)_ab for a < b
    iu, ju = np.triu_indices(m - r)
    blocks = q2.mT[:, None] @ a_mats @ q2[:, None]
    lhs2 = blocks[..., iu, ju] * np.where(iu == ju, 1.0, 2.0)
    coef, solved_z = _lstsq(lhs2, -cs[..., None])
    ok = np.array(solved_x) & np.array(solved_z) & np.isfinite(coef).all(axis=(1, 2))
    n_mat = np.zeros((count, m - r, m - r))
    n_mat[:, iu, ju] = n_mat[:, ju, iu] = np.where(ok[:, None], coef[..., 0], 0.0)
    wn, vn = np.linalg.eigh(n_mat)
    vz = q2 @ vn
    z = _sym((vz * np.maximum(wn, 0.0)[:, None, :]) @ vz.mT)

    x_big = _sym(a0 + (x[:, None, :] @ a_flat).reshape(count, m, m))
    for a in (x, x_big, z):
        ok &= np.isfinite(a.reshape(count, -1)).all(axis=1)
    return x, x_big, z, ok


def _polish(
    a0: np.ndarray, a_flat: np.ndarray, cs: np.ndarray, X: np.ndarray, Z: np.ndarray,
    rows: list[int], score,
) -> dict[int, tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Crossover refinement assuming strict complementarity, for the given
    rows of a stack.

    Per problem, tries the face ranks suggested by the spectra of X and of
    Z, iterating each three rounds (the refit x sharpens the kernel of
    A0 + A(x), which sharpens the next split); the problems run in groups
    of one face rank.  ``score(rows, x, X, Z)`` maps the rows' triples to
    scalar merits.  Returns per problem with a finite refit the best one
    seen, with its score.  A face rank r with t(r) + n > t(m) is skipped,
    r = m among them: the x refit's n unknowns then outnumber the
    t(m) - t(r) dimensions off the face, so it is not determined.
    """
    m, n = X.shape[1], a_flat.shape[0]
    w = np.linalg.eigvalsh(np.concatenate([X[rows], Z[rows]]))
    top = w[:, -1:]
    above = (np.sum(w > 1e-7 * np.maximum(top, 0.0), axis=1) * (top[:, 0] > 0)).tolist()
    ranks = {k: {above[j], m - above[len(rows) + j]} for j, k in enumerate(rows)}
    best: dict[int, tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
    for r in sorted(set().union(*ranks.values())):
        if triangular(r) + n > triangular(m):
            continue
        group = [k for k in rows if r in ranks[k]]
        cur = X[group]
        for _ in range(3):
            x, x_big, z, ok = _polish_round(a0, a_flat, cs[group], cur, r)
            keep = ok.nonzero()[0]
            if not keep.size:
                break
            group = [group[j] for j in keep.tolist()]
            x, x_big, z = x[keep], x_big[keep], z[keep]
            for j, (k, val) in enumerate(zip(group, score(group, x, x_big, z))):
                if val < best.get(k, (math.inf,))[0]:  # a NaN score never wins
                    best[k] = val, (x[j], x_big[j], z[j])
            cur = x_big
    return best


@dataclass
class _Stack:
    """State of one stack of problems: matrices as stacks with one row per
    problem, scalars as lists.  A row keeps its place when its problem's
    solve ends, so the loop reads and writes the rows of active problems."""

    x: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    best_x: np.ndarray  # the best iterate: smallest max(path error, rel_comp)
    best_X: np.ndarray
    best_Z: np.ndarray
    path_x: np.ndarray  # the best path iterate: smallest path error
    path_X: np.ndarray
    path_Z: np.ndarray
    best_metric: list[float]
    best_path: list[float]
    stall: list[int]
    centering: list[bool]  # final phase: pure centering steps at frozen mu
    mu_fix: list[float]
    center_left: list[int]


def _pick(rows: list[int], *stacks: np.ndarray) -> tuple[np.ndarray, ...]:
    """The given rows of each stack; the stacks themselves, uncopied, when
    the rows are all of them (the common case)."""
    if len(rows) == len(stacks[0]):
        return stacks
    index = np.array(rows, dtype=int)
    return tuple(stack[index] for stack in stacks)


def _copy_rows(rows: list[int], src: tuple[np.ndarray, ...], dst: tuple[np.ndarray, ...]) -> None:
    """For each pair of stacks, dst[k] = src[k] in place for the given rows."""
    for a, b in zip(src, dst):
        if len(rows) == len(b):
            b[...] = a
        elif rows:
            b[rows] = a[rows]


def _solve_stack(
    pencil: Pencil, a_flat: np.ndarray, lam0: float, cs: np.ndarray
) -> list[SdpSolution]:
    """The interior-point loop over one stack of objectives, then each
    problem's polish and solution.  Matrix work runs as stacked calls over
    the rows in ``work``; the scalar decisions run row by row in Python for
    the live problems, the same arithmetic as a lone solve."""
    m, n = pencil.m, pencil.n
    mats = pencil.mats
    a0 = mats[0]
    count = len(cs)
    norm_a0 = float(np.linalg.norm(a0))
    scale0 = max(1.0, norm_a0, max(float(np.linalg.norm(a)) for a in mats))
    norm_c = np.sqrt(_dot(cs, cs)).tolist()
    # a primal-feasible start when A0 is interior: the residual stays zero
    start = a0 if lam0 > 0.0 else scale0 * np.eye(m)
    s = _Stack(
        x=np.zeros((count, n)),
        X=np.repeat(start[None], count, axis=0),
        Z=np.array([max(1.0, c) for c in norm_c])[:, None, None] * np.eye(m),
        best_x=np.zeros((count, n)),
        best_X=np.zeros((count, m, m)),
        best_Z=np.zeros((count, m, m)),
        path_x=np.zeros((count, n)),
        path_X=np.zeros((count, m, m)),
        path_Z=np.zeros((count, m, m)),
        best_metric=[math.inf] * count,
        best_path=[math.inf] * count,
        stall=[0] * count,
        centering=[False] * count,
        mu_fix=[0.0] * count,
        center_left=[0] * count,
    )
    live = list(range(count))  # problems still iterating
    # rows the stacked calls run on: the live ones, plus ended ones until
    # half the rows have ended, so that the stack keeps its shape across
    # passes (shapes that shrink by a row or two every pass fragment the heap)
    work = live
    final = [STATUS_FAILURE] * count  # a solve that runs out of iterations fails
    iterations = [MAX_ITER] * count

    for it in range(1, MAX_ITER + 1):
        rd, rp, dots = _residuals(a0, a_flat, *_pick(work, cs, s.x, s.X, s.Z))
        is_live = set(live)
        status: dict[int, str] = {}  # problems whose solve ends in this pass
        better, improved, go, stuck, broken, head = [], [], [], [], [], {}
        for k, row in zip(work, dots):
            if k not in is_live:
                continue
            feas_p, feas_d, rel_gap, rel_comp = _errors(row, norm_a0, norm_c[k])
            path_err = max(feas_p, feas_d, rel_gap)
            head[k] = (feas_p, feas_d, rel_gap, path_err, row[1])
            xnorm, znorm = math.sqrt(row[7]), math.sqrt(row[4])
            metric = max(path_err, rel_comp)
            if it == 1 or metric < s.best_metric[k] * 0.9999:
                s.best_metric[k] = metric
                better.append(k)
            if path_err < s.best_path[k] * 0.9999:
                s.best_path[k] = path_err
                improved.append(k)
                s.stall[k] = 0
            else:
                s.stall[k] += 1

            if s.centering[k]:
                s.center_left[k] -= 1
            on_target = feas_p <= TOL and feas_d <= TOL and rel_gap <= TOL
            if on_target and rel_comp <= 3e-8:
                status[k] = STATUS_OPTIMAL
            elif not s.centering[k] and (on_target or s.stall[k] > 12):
                # the path phase has converged or bottomed out: either way
                # the iterate may be off-centre (X and Z misaligned,
                # typically at a curved optimal face), so finish with pure
                # centering steps
                stuck.append(k)
            elif s.center_left[k] < 0:  # the centering steps are used up
                status[k] = STATUS_FAILURE
            elif not math.isfinite(xnorm) or not math.isfinite(znorm):
                status[k] = STATUS_FAILURE
                broken.append(k)
            elif xnorm > DIVERGE_NORM:
                status[k] = STATUS_UNBOUNDED if row[6] > 0 else STATUS_FAILURE
            elif znorm > DIVERGE_NORM * max(1.0, norm_c[k]):
                status[k] = STATUS_INFEASIBLE
            else:
                go.append(k)
        _copy_rows(better, (s.x, s.X, s.Z), (s.best_x, s.best_X, s.best_Z))
        _copy_rows(improved, (s.x, s.X, s.Z), (s.path_x, s.path_X, s.path_Z))
        if broken:  # a non-finite iterate leaves the stack before any LAPACK call
            keep = [j for j, k in enumerate(work) if k not in broken]
            work = [work[j] for j in keep]
            rd, rp = _pick(keep, rd, rp)

        step = []
        if go:
            f_mat, zinv, scaled = _nt_scaling(*_pick(work, s.X, s.Z))
            going = set(go)
            step = [j for j, (k, ok) in enumerate(zip(work, scaled)) if ok and k in going]
            stuck += [k for k, ok in zip(work, scaled) if not ok and k in going]

        # restart once from the best path iterate in pure-centering mode,
        # at the largest mu the acceptance gap allows: tiny mu would leave
        # the Newton system too ill-conditioned to centre
        back = []
        for k in stuck:
            if s.centering[k] or s.best_path[k] > 1e-6:
                status[k] = STATUS_FAILURE
            else:
                back.append(k)
        _copy_rows(back, (s.path_x, s.path_X, s.path_Z), (s.x, s.X, s.Z))
        for k in back:
            gap_floor = ACCEPT * (1.0 + abs(float(cs[k] @ s.x[k]))) / (3.0 * m)
            s.mu_fix[k] = max(float(np.vdot(s.X[k], s.Z[k])) / m, gap_floor, 1e-300)
            s.centering[k] = True
            s.center_left[k] = 16

        # the step runs on every row of the stack; only the rows in ``step``
        # (positions in ``work``) take theirs
        if step:
            x, X, Z = _pick(work, s.x, s.X, s.Z)
            winv = f_mat @ f_mat.mT
            schur = _schur_gram(a_flat, f_mat)
            # tiny ridge keeps borderline-dependent pencils solvable
            trace = np.trace(schur, axis1=1, axis2=2).tolist()
            ridge = np.array([1e-14 * max(1.0, t / max(n, 1)) for t in trace])
            schur.reshape(len(work), n * n)[:, :: n + 1] += ridge[:, None]
            wrw = winv @ rd @ winv
            # the step lengths of the predictor and of the step itself start
            # from the same X and Z, so they share one factorization
            chol = _factor(np.concatenate([X, Z]))

            target_mu = [s.mu_fix[k] for k in work]
            tau = [0.9] * len(work)
            solved = [True] * len(work)
            pred = [j for j in step if not s.centering[work[j]]]
            if pred:
                # predictor: sigma = 0 target in  Delta_X + W Delta_Z W = -X
                _, dX_a, dZ_a, solved_a = _newton(a_flat, schur, winv, wrw, rd, rp, -X)
                alpha = np.array(_max_step(chol, np.concatenate([dX_a, dZ_a])))
                ap_a, ad_a = alpha[: len(work), None, None], alpha[len(work) :, None, None]
                gaps_aff = _dot(X + ap_a * dX_a, Z + ad_a * dZ_a).tolist()
                for j in pred:
                    feas_p, feas_d, rel_gap, path_err, gap = head[work[j]]
                    mu = max(gap / m, 1e-300)
                    sigma = min(1.0, max((max(0.0, gaps_aff[j] / m) / mu) ** 3, 1e-12))
                    # keep the gap from outrunning infeasibility: residuals
                    # shrink by (1 - alpha) per step, so hold the path back
                    # while they lag
                    if max(feas_p, feas_d) > max(0.1 * rel_gap, TOL):
                        sigma = max(sigma, 0.5)
                    target_mu[j] = sigma * mu
                    tau[j] = 0.9 if path_err > 1e-4 else (0.98 if path_err > 1e-9 else 0.995)
                    solved[j] = solved_a[j]

            target = np.array(target_mu)[:, None, None] * zinv - X
            dx, dX, dZ, solved_c = _newton(a_flat, schur, winv, wrw, rd, rp, target)
            steps = _max_step(chol, np.concatenate([dX, dZ]))
            moving = [False] * len(work)
            alpha_p, alpha_d = [0.0] * len(work), [0.0] * len(work)
            for j in step:
                if not (solved[j] and solved_c[j]):
                    status[work[j]] = STATUS_FAILURE  # a singular Schur system ends the solve
                    continue
                ap = min(1.0, tau[j] * steps[j])
                ad = min(1.0, tau[j] * steps[len(work) + j])
                if s.centering[work[j]]:
                    ap = ad = min(ap, ad)
                moving[j], alpha_p[j], alpha_d[j] = True, ap, ad
            ap, ad = np.array(alpha_p), np.array(alpha_d)
            moved = (
                x + ap[:, None] * dx,
                _sym(X + ap[:, None, None] * dX),
                _sym(Z + ad[:, None, None] * dZ),
            )
            if not all(moving):  # the other rows keep their iterate
                mask = np.array(moving)
                moved = tuple(
                    np.where(mask.reshape(-1, *[1] * (new.ndim - 1)), new, old)
                    for new, old in zip(moved, (x, X, Z))
                )
            if len(work) == count:
                s.x, s.X, s.Z = moved
            else:
                s.x[work], s.X[work], s.Z[work] = moved

        for k, result in status.items():
            final[k], iterations[k] = result, it
        live = [k for k in live if k not in status]
        if not live:
            break
        if 2 * len(live) <= len(work):
            work = live

    return _assemble(pencil, a_flat, norm_a0, scale0, cs, norm_c, final, iterations, s)


def _assemble(
    pencil: Pencil, a_flat: np.ndarray, norm_a0: float, scale0: float, cs: np.ndarray,
    norm_c: list[float], final: list[str], iterations: list[int], s: _Stack,
) -> list[SdpSolution]:
    """Polish the stack's final iterates and assemble each solution."""
    m = pencil.m
    a0 = pencil.mats[0]
    count = len(cs)
    last, best = (s.x, s.X, s.Z), (s.best_x, s.best_X, s.best_Z)

    def errors(rows: list[int], x: np.ndarray, X: np.ndarray, Z: np.ndarray):
        rd, _, dots = _residuals(a0, a_flat, cs[rows], x, X, Z)
        return rd, [_errors(row, norm_a0, norm_c[k]) for row, k in zip(dots, rows)]

    def score(rows: list[int], x: np.ndarray, X: np.ndarray, Z: np.ndarray) -> list[float]:
        return [max(e) for e in errors(rows, x, X, Z)[1]]

    x, X, Z = last  # refit rows are written in place; solutions copy theirs
    # pick the better of the last and the best-seen iterate, then try the
    # strict-complementarity crossover to zero out the product error
    todo = [k for k in range(count) if final[k] not in (STATUS_UNBOUNDED, STATUS_INFEASIBLE)]
    both = score(todo + todo, *(np.concatenate([a[todo], b[todo]]) for a, b in zip(last, best)))
    top = dict(zip(todo, both))
    for k, val in zip(todo, both[len(todo) :]):
        if val < top[k]:
            top[k] = val
            x[k], X[k], Z[k] = best[0][k], best[1][k], best[2][k]
    for k, (val, triple) in _polish(a0, a_flat, cs, X, Z, todo, score).items():
        if val < top[k]:
            x[k], X[k], Z[k] = triple
    rd, err = errors(list(range(count)), x, X, Z)
    w = np.linalg.eigvalsh(np.concatenate([X, Z]))  # spectra and ranks

    solutions = []
    for k in range(count):
        status = final[k]
        if status not in (STATUS_UNBOUNDED, STATUS_INFEASIBLE):
            feas_p, feas_d, rel_gap, rel_comp = err[k]
            if feas_p <= ACCEPT and feas_d <= ACCEPT and rel_gap <= ACCEPT and rel_comp <= 1e-6:
                status = STATUS_OPTIMAL
            else:
                status = STATUS_FAILURE
        ray = None
        if status == STATUS_UNBOUNDED:  # ||x|| > DIVERGE_NORM
            cand = x[k] / float(np.linalg.norm(x[k]))
            lam = float(np.linalg.eigvalsh((cand @ a_flat).reshape(m, m))[0])
            if lam >= -1e-6 * scale0 and float(cs[k] @ cand) > 0:
                ray = cand
            else:
                status = STATUS_FAILURE
        # the reported residual goes through the pencil's own adjoint, a route
        # apart from the stacked copy the iteration used
        rp = -(cs[k] + adjoint(pencil, Z[k]))
        spec_x, spec_z = w[k, ::-1].copy(), w[count + k, ::-1].copy()
        rank_x, rank_z = _rank(w[k]), _rank(w[count + k])
        solutions.append(
            SdpSolution(
                x=x[k].copy(),
                X=X[k].copy(),
                Z=Z[k].copy(),
                value=float(cs[k] @ x[k]),
                status=status,
                rank_X=rank_x,
                rank_Z=rank_z,
                residuals=(
                    float(np.linalg.norm(rd[k])), float(np.linalg.norm(rp)), float(np.vdot(X[k], Z[k]))
                ),
                spectrum_X=spec_x,
                spectrum_Z=spec_z,
                iterations=iterations[k],
                rank_uncertain=_uncertain(spec_x, rank_x) or _uncertain(spec_z, rank_z),
                ray=ray,
            )
        )
    return solutions


def solve_sdp_many(
    pencil: Pencil, objectives: Sequence[Sequence[float]], *, require_interior: bool = True
) -> list[SdpSolution]:
    """Solve max c^T x over the pencil's spectrahedron for each c in
    ``objectives`` (shape (B, n)), in one stacked interior-point run.

    Each solution is bitwise identical to the one :func:`solve_sdp` returns
    for its objective alone, whatever the batch and its order.
    ``require_interior`` enforces A0 positive definite (rejecting other
    inputs with :class:`NotInteriorError`); pass False to attempt a fully
    infeasible start, as the random-instance experiments do.  A solve that
    stalls before the target tolerance ``TOL`` still returns ``optimal`` if
    it cleared ``ACCEPT`` on feasibility and relative gap and 1e-6 on the
    relative Frobenius norm of X Z.
    """
    m, n = pencil.m, pencil.n
    cs = np.asarray(objectives, dtype=float)
    if cs.shape == (0,):
        cs = cs.reshape(0, n)
    if cs.ndim != 2 or cs.shape[1] != n:
        raise ValueError(f"objectives must have shape (B, {n}), got shape {cs.shape}")
    lam0 = float(np.linalg.eigvalsh(pencil.mats[0])[0])
    if require_interior and lam0 <= 0.0:
        raise NotInteriorError(
            f"A0 must be positive definite for an interior start (lambda_min = {lam0:.3e})"
        )
    a_flat = np.array(pencil.mats[1:]).reshape(n, m * m)  # row i is A_{i+1}, raveled
    size = max(1, CHUNK_BYTES // max(1, 8 * n * m * m))
    return [
        sol
        for k in range(0, len(cs), size)
        for sol in _solve_stack(pencil, a_flat, lam0, cs[k : k + size])
    ]


def solve_sdp(pencil: Pencil, c: Sequence[float], *, require_interior: bool = True) -> SdpSolution:
    """Solve max c^T x over the pencil's spectrahedron: the one-objective
    case of :func:`solve_sdp_many`, which documents the statuses."""
    cv = np.asarray(c, dtype=float)
    if cv.shape != (pencil.n,):
        raise ValueError(f"objective must have length {pencil.n}, got shape {cv.shape}")
    return solve_sdp_many(pencil, cv[None], require_interior=require_interior)[0]


def support_value(pencil: Pencil, direction: np.ndarray) -> SdpSolution:
    """Support problem max <direction, pi(x)> over the spectrahedron.

    Directions live in the image space when the pencil carries a
    projection; they are pulled back through the adjoint before solving.
    """
    c = pencil.lift_direction(np.asarray(direction, dtype=float))
    return solve_sdp(pencil, c)
