"""Dense primal-dual interior-point solver for small spectrahedra.

Solves  max c^T x  subject to  X := A0 + x1*A1 + ... + xn*An psd, and
returns the optimizer together with the dual multiplier Z satisfying

    X = A0 + A(x),   A*(Z) + c = 0,   X Z = 0,   X psd,  Z psd

at the reported tolerances.  The implementation is a Nesterov-Todd scaled
predictor/centering path-following method on the equivalent standard-form
pair

    min <A0, Z>  s.t.  <A_i, Z> = -c_i,  Z psd      (primal)
    max  c^T x   s.t.  A0 + A(x) psd                (dual)

with fixed deterministic step rules: identical inputs give identical
outputs on a given platform.  Any pencil is taken: the solve starts at
X = A0 when A0 is positive definite and from an infeasible start
otherwise.  The Schur complement is the Gram matrix of the NT-scaled
coefficient matrices F^T A_i F, where F F^T = W^{-1}.  Everything is
dense; intended scale is m <= 24, n <= 80.

One pencil, many objectives: :func:`solve_sdp_many` runs a single
iteration loop over a stack of problems.  Matrices are stacks with one
row per problem (``x`` is (B, n), ``X`` and ``Z`` are (B, m, m)) and go
through numpy's stacked linear algebra, which does the same arithmetic on
each slice as on a lone matrix; inner products are one BLAS dot per row
(``np.vecdot``), never a GEMM across rows.  Scalar decisions (statuses,
centering) run row by row in Python, and the step-length and Schur-ridge
rules elementwise, with the same expressions as a lone solve.  So each
problem's result is bitwise identical to solving it alone, whatever batch
it sits in and in whatever order; :func:`solve_sdp` is the one-objective
case.

The stack is the set of live problems.  A problem whose solve ends leaves
it before the next stacked call, and its last iterate is kept for the
finish.  The step lengths come from the eigenpairs of X and Z that the NT
scaling already computes, so no slice needs a factorization of its own.
A singular Schur system halves the stack until the singular slices stand
alone, and ends only its own problem, as in a lone solve.  A step goes
0.9 of the way to the boundary, 0.98 once the path error is below 1e-4.
The path phase ends when its path error reaches ``TOL`` or stops falling.

The corrector depends on the start.  On a primal-feasible start (A0
positive definite, so the x-problem cannot be infeasible) it is Mehrotra's:
its target sigma*mu*Z^-1 - X also subtracts the predictor's second-order
term sym(dX_a dZ_a Z^-1) of XZ (Mehrotra, SIAM J. Optim. 2, 1992; Todd, Toh
and Tutuncu, SIAM J. Optim. 8, 1998), which takes about 30 % fewer passes.
From an infeasible start it keeps the first-order target: there the
second-order term stops Z from diverging on infeasible problems, so the
``infeasible`` verdict, which rests on that divergence, would be lost.

Every solve that does not end unbounded or infeasible is then finished by
up to three stacked Gauss-Newton steps on the symmetrized KKT system
F(x, Z) = (A*(Z) + c, (XZ + ZX)/2) with X = A0 + A(x), which is square in
x and the upper triangle of Z (Alizadeh-Haeberly-Overton, SIAM J. Optim.
8, 1998).  Near a strictly complementary optimum they converge
quadratically, so the path phase hands over at ``TOL`` = 1e-8, above the
float floor where it stalls (a path error of 3e-10 to 1e-9 at m = 24).
A step that lowers the KKT residual but leaves the cone is halved, since
a path phase that hands over off-centre can put the full step just
outside; the finished pair is judged by the acceptance rule.  Objectives
run in chunks whose largest per-row stack, the finish's Jacobian or the
scaled coefficients (B, n, m, m), stays under ``CHUNK_BYTES``.

The numerics are fixed module constants, not options: the path phase
hands over at relative feasibility and gap ``TOL``, a finished solve is
accepted at ``ACCEPT``, a solve runs at most ``MAX_ITER`` iterations, and
an x (or Z) whose norm passes ``DIVERGE_NORM`` ends it as unbounded (or
infeasible).  Numerical ranks use ``RANK_EPS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pencil import Pencil, adjoint

RANK_EPS = 1e-6

TOL = 1e-8  # path error handed to the finish: above the float floor, in Newton's quadratic reach
ACCEPT = 1e-7  # relative feasibility and gap a finished solve must reach
MAX_ITER = 100
DIVERGE_NORM = 1e8  # ||x|| (or ||Z|| / max(1, ||c||)) past this ends the solve
CHUNK_BYTES = 1 << 24  # bytes of one chunk's largest per-row stack

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_FAILURE = "numerical_failure"


def rank_of(mat: np.ndarray) -> int:
    """Numerical rank: eigenvalues above RANK_EPS * max(0, lambda_max)."""
    return _ranks(np.linalg.eigvalsh(np.asarray(mat, dtype=float))[None])[0]


def _ranks(w: np.ndarray) -> list[int]:
    """:func:`rank_of` of each row of a stack of ascending spectra w."""
    # fmax, like Python's max, keeps 0.0 against a NaN
    return (w > RANK_EPS * np.fmax(0.0, w[:, -1:])).sum(axis=1).tolist()


@dataclass
class SdpSolution:
    """Primal/dual certificate pair for one solve.

    ``residuals`` is (primal feasibility ||A0 + A(x) - X||_F,
    dual feasibility ||A*(Z) + c||_2, complementarity trace(X Z)).
    ``ray`` is populated for unbounded problems: a unit direction with
    A(ray) psd (within tolerance) and c^T ray > 0.  The descending spectra
    ride along for auditing the rank decisions.
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
    ray: np.ndarray | None = None


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise <a_k, b_k> over two stacks: one BLAS dot per row, the same
    arithmetic as np.vdot(a_k, b_k) (and as np.linalg.norm's square)."""
    return np.vecdot(a.reshape(len(a), -1), b.reshape(len(b), -1))


def _sym(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.mT) / 2.0


def _max_step(half: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Per slice, the largest alpha <= 1 with mat + alpha*direction still
    positive definite, for mat^-1 = half half^T (see :func:`_nt_scaling`):
    half^T direction half is similar to mat^-1/2 direction mat^-1/2."""
    lam = np.linalg.eigvalsh(_sym(half.mT @ directions @ half))[:, 0]
    # fmin, like Python's min, keeps 1.0 against a NaN
    return np.where(lam >= -1e-14, 1.0, np.fmin(1.0, -1.0 / np.minimum(lam, -1e-14)))


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


def _spectrum(mat: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """eigh over a stack, each spectrum floored at 1e-30 of its top, and
    ``ok`` cleared where a slice is not numerically positive definite.

    Every slice not ok gets unit eigenvalues, so later calls see no NaN.
    """
    w, v = np.linalg.eigh(mat)
    ok = ok & ~(w[:, 0] <= 0) & np.isfinite(w[:, -1])
    w = np.maximum(w, 1e-30 * w[:, -1:])
    w[~ok] = 1.0
    return w, v, ok


def _nt_scaling(
    X: np.ndarray, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[bool]]:
    """Nesterov-Todd factors F (F F^T = W^-1 for W Z W = X) and Z^-1 over a
    stack, the half-inverses H = V W^-1/2 (H H^T = X^-1, then Z^-1) of the
    stack's X and Z from their eigenpairs, and per slice whether it has them.

    A slice has none when X, the middle matrix X^1/2 Z X^1/2 or Z is
    numerically singular: the float floor is reached.
    """
    count = len(X)
    # X and Z decompose together
    w, v, ok_xz = _spectrum(np.concatenate([X, Z]), np.ones(2 * count, dtype=bool))
    root = np.sqrt(w)[:, None, :]
    half = v / root
    vx, vz = v[:count], v[count:]
    xh = (vx * root[:count]) @ vx.mT
    wg, vg, ok = _spectrum(_sym(xh @ Z @ xh), ok_xz[:count] & ok_xz[count:])
    f_mat = (half[:count] @ vx.mT @ vg) * np.sqrt(np.sqrt(wg))[:, None, :]
    return f_mat, (vz / w[count:, None, :]) @ vz.mT, half, ok.tolist()


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


def _finish(
    a0: np.ndarray, a_flat: np.ndarray, cs: np.ndarray, x: np.ndarray, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Up to three Gauss-Newton steps on the symmetrized KKT system over a
    stack: the finished (x, X, Z), and per row whether it took a step.

    The system is F(x, Z) = (A*(Z) + c, the upper triangle of (XZ + ZX)/2)
    with X = A0 + A(x) (Alizadeh-Haeberly-Overton, SIAM J. Optim. 8, 1998);
    its unknowns are x and the upper triangle of Z, so it is square.  A row
    takes a step only while the step is finite, ||F|| falls, and X and Z
    stay psd to ``-ACCEPT * max(1, lambda_max)``.  A step that lowers ||F||
    but leaves the cone is halved, up to three times: from a path phase that
    hands over off-centre the full step can end just outside.  A row whose
    step is refused stops.  ``a_flat`` holds A1..An as rows of length m*m.
    """
    count, m = Z.shape[:2]
    n = a_flat.shape[0]
    iu, ju = np.triu_indices(m)
    t = len(iu)
    pair = np.empty((m, m), dtype=int)  # column of Z_ab = Z_ba among the unknowns
    pair[iu, ju] = pair[ju, iu] = np.arange(t)
    o = np.arange(m)
    rows = n + np.arange(t)[:, None]
    col_oj, col_io = n + pair[o, ju[:, None]], n + pair[iu[:, None], o]
    a_mats = a_flat.reshape(n, m, m)
    jac = np.zeros((count, n + t, n + t))
    # d<A_k, Z>/dZ_ab: the dual block is constant
    jac[:, :n, n:] = a_flat[:, iu * m + ju] * np.where(iu == ju, 1.0, 2.0)

    def pencil_at(x: np.ndarray) -> np.ndarray:
        return _sym(a0 + (x[:, None, :] @ a_flat).reshape(len(x), m, m))

    def residual(cv: np.ndarray, X: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dual = (a_flat @ Z.reshape(len(Z), m * m, 1))[..., 0] + cv
        f = np.concatenate([dual, _sym(X @ Z)[:, iu, ju]], axis=1)
        return f, _dot(f, f)

    x, Z = x.copy(), Z.copy()
    X = pencil_at(x)
    f, norm2 = residual(cs, X, Z)
    moved = np.zeros(count, dtype=bool)
    live = np.isfinite(norm2).nonzero()[0]
    for _ in range(3):
        if not live.size:
            break
        jl = jac[: len(live)]
        # d((XZ + ZX)/2)_ij/dx_k = ((A_k Z + Z A_k)/2)_ij
        az = a_mats @ Z[live, None]
        jl[:, n:, :n] = ((az[..., iu, ju] + az[..., ju, iu]) / 2.0).mT
        del az  # before the LU solve, which copies the Jacobian
        # d((XZ + ZX)/2)_ij/dZ_ab: X_io/2 at {a, b} = {o, j}, X_oj/2 at {a, b} = {i, o}
        jl[:, n:, n:] = 0.0
        xl = X[live]
        jl[:, rows, col_oj] += xl[:, iu[:, None], o] / 2.0
        jl[:, rows, col_io] += xl[:, o, ju[:, None]] / 2.0
        d, solved = _solve_each(jl, -f[live, :, None])
        d = d[..., 0]
        ok = np.array(solved) & np.isfinite(d).all(axis=1)
        cand, d = live[ok], d[ok]
        if not cand.size:
            break
        stepped = []
        for length in (1.0, 0.5, 0.25, 0.125):
            x_new = x[cand] + length * d[:, :n]
            dz = np.zeros((len(cand), m, m))
            dz[:, iu, ju] = dz[:, ju, iu] = length * d[:, n:]
            Z_new = Z[cand] + dz
            X_new = pencil_at(x_new)
            f_new, norm2_new = residual(cs[cand], X_new, Z_new)
            w = np.linalg.eigvalsh(np.concatenate([X_new, Z_new]))
            psd = w[:, 0] >= -ACCEPT * np.maximum(1.0, w[:, -1])
            falls = norm2_new < norm2[cand]
            take = falls & psd[: len(cand)] & psd[len(cand) :]
            done = cand[take]
            x[done], X[done], Z[done] = x_new[take], X_new[take], Z_new[take]
            f[done], norm2[done] = f_new[take], norm2_new[take]
            stepped.append(done)
            cand, d = cand[falls & ~take], d[falls & ~take]
            if not cand.size:
                break
        live = np.sort(np.concatenate(stepped))
        moved[live] = True
    return x, X, Z, moved


def _solve_stack(
    pencil: Pencil, a_flat: np.ndarray, lam0: float, cs: np.ndarray
) -> list[SdpSolution]:
    """The interior-point loop over one stack of objectives, then each
    problem's finish and solution.

    The stack holds exactly the problems still iterating: row j of the
    stacked iterates ``xs``, ``Xs``, ``Zs`` is problem ``rows[j]``.  Matrix
    work runs as stacked calls over the whole stack; the scalar decisions
    run row by row in Python, the same arithmetic as a lone solve.  When a
    problem's solve ends, its last iterate goes to its row of x, X, Z,
    which the finish starts from, and it leaves the stack before the next
    stacked call."""
    m, n = pencil.m, pencil.n
    mats = pencil.mats
    a0 = mats[0]
    count = len(cs)
    norm_a0 = float(np.linalg.norm(a0))
    scale0 = max(1.0, norm_a0, max(float(np.linalg.norm(a)) for a in mats))
    norm_c = np.sqrt(_dot(cs, cs)).tolist()
    # a primal-feasible start when A0 is interior: the residual stays zero
    start = a0 if lam0 > 0.0 else scale0 * np.eye(m)
    xs = np.zeros((count, n))
    Xs = np.repeat(start[None], count, axis=0)
    Zs = np.array([max(1.0, c) for c in norm_c])[:, None, None] * np.eye(m)
    rows, cl = list(range(count)), cs  # the stack's problems and their objectives
    x, X, Z = np.empty_like(xs), np.empty_like(Xs), np.empty_like(Zs)  # each one's last iterate
    best_path = [math.inf] * count  # smallest path error seen
    stall = [0] * count  # passes since best_path last fell
    # a solve that ends short of unbounded or infeasible is judged after the finish
    final = [STATUS_FAILURE] * count
    iterations = [MAX_ITER] * count

    def end(ended: dict[int, str], it: int, *stacks: np.ndarray | list) -> list:
        """Record the status and last iterate of each problem whose stack row
        is in ``ended``; the stack, then ``stacks`` (more per-row state, one
        entry per stack row), without those rows."""
        stack = [rows, cl, xs, Xs, Zs, *stacks]
        if not ended:
            return stack
        for j, status in ended.items():
            k = rows[j]
            final[k], iterations[k] = status, it
            x[k], X[k], Z[k] = xs[j], Xs[j], Zs[j]
        keep = [j for j in range(len(rows)) if j not in ended]
        return [[s[j] for j in keep] if isinstance(s, list) else s[keep] for s in stack]

    for it in range(1, MAX_ITER + 1):
        rd, rp, dots = _residuals(a0, a_flat, cl, xs, Xs, Zs)
        ended: dict[int, str] = {}  # stack rows whose solve ends in this pass
        head = []
        for j, (k, row) in enumerate(zip(rows, dots)):
            feas_p, feas_d, rel_gap, _ = _errors(row, norm_a0, norm_c[k])
            path_err = max(feas_p, feas_d, rel_gap)
            head.append((feas_p, feas_d, rel_gap, path_err, row[1]))
            xnorm, znorm = math.sqrt(row[7]), math.sqrt(row[4])
            if path_err < best_path[k] * 0.9999:
                best_path[k] = path_err
                stall[k] = 0
            else:
                stall[k] += 1

            finite = math.isfinite(xnorm) and math.isfinite(znorm)
            if not finite or path_err <= TOL or stall[k] > 12:
                # a non-finite iterate (it leaves before any LAPACK call), or the
                # path phase has converged or bottomed out: the finish takes over
                ended[j] = STATUS_FAILURE
            elif xnorm > DIVERGE_NORM:
                ended[j] = STATUS_UNBOUNDED if row[6] > 0 else STATUS_FAILURE
            elif znorm > DIVERGE_NORM * max(1.0, norm_c[k]):
                ended[j] = STATUS_INFEASIBLE
        rows, cl, xs, Xs, Zs, rd, rp, head = end(ended, it, rd, rp, head)
        if not rows:
            break

        f_mat, zinv, half, scaled = _nt_scaling(Xs, Zs)
        if not all(scaled):
            # X or Z reached the float floor: the finish takes over, and the
            # rest scale again on their own stack (each row as before)
            ended = {j: STATUS_FAILURE for j, ok in enumerate(scaled) if not ok}
            rows, cl, xs, Xs, Zs, rd, rp, head = end(ended, it, rd, rp, head)
            if not rows:
                break
            f_mat, zinv, half, _ = _nt_scaling(Xs, Zs)

        b = len(rows)
        winv = f_mat @ f_mat.mT
        schur = _schur_gram(a_flat, f_mat)
        # tiny ridge keeps borderline-dependent pencils solvable
        trace = np.trace(schur, axis1=1, axis2=2)
        ridge = 1e-14 * np.fmax(1.0, trace / max(n, 1))
        schur.reshape(b, n * n)[:, :: n + 1] += ridge[:, None]
        wrw = winv @ rd @ winv

        # predictor: sigma = 0 target in  Delta_X + W Delta_Z W = -X
        _, dX_a, dZ_a, solved = _newton(a_flat, schur, winv, wrw, rd, rp, -Xs)
        alpha = _max_step(half, np.concatenate([dX_a, dZ_a]))
        ap_a, ad_a = alpha[:b, None, None], alpha[b:, None, None]
        gaps_aff = _dot(Xs + ap_a * dX_a, Zs + ad_a * dZ_a).tolist()
        target_mu = []
        for (feas_p, feas_d, rel_gap, _, gap), gap_aff in zip(head, gaps_aff):
            mu = max(gap / m, 1e-300)
            sigma = min(1.0, max((max(0.0, gap_aff / m) / mu) ** 3, 1e-12))
            # keep the gap from outrunning infeasibility: residuals
            # shrink by (1 - alpha) per step, so hold the path back
            # while they lag
            if max(feas_p, feas_d) > max(0.1 * rel_gap, TOL):
                sigma = max(sigma, 0.5)
            target_mu.append(sigma * mu)

        target = np.array(target_mu)[:, None, None] * zinv - Xs
        if lam0 > 0.0:
            # Mehrotra's corrector: also cancel the predictor's second-order term of XZ
            target = target - _sym(dX_a @ dZ_a @ zinv)
        dx, dX, dZ, solved_c = _newton(a_flat, schur, winv, wrw, rd, rp, target)
        steps = _max_step(half, np.concatenate([dX, dZ])).tolist()
        tau = [0.9 if h[3] > 1e-4 else 0.98 for h in head]  # of the way to the boundary
        alpha_p = [min(1.0, t * s) for t, s in zip(tau, steps[:b])]
        alpha_d = [min(1.0, t * s) for t, s in zip(tau, steps[b:])]
        # a singular Schur system ends the solve at its pre-step iterate
        ended = {j: STATUS_FAILURE for j in range(b) if not (solved[j] and solved_c[j])}
        rows, cl, xs, Xs, Zs, dx, dX, dZ, alpha_p, alpha_d = end(
            ended, it, dx, dX, dZ, alpha_p, alpha_d
        )
        ap, ad = np.array(alpha_p), np.array(alpha_d)
        xs = xs + ap[:, None] * dx
        Xs = _sym(Xs + ap[:, None, None] * dX)
        Zs = _sym(Zs + ad[:, None, None] * dZ)

    x[rows], X[rows], Z[rows] = xs, Xs, Zs  # the problems still iterating at MAX_ITER
    return _assemble(pencil, a_flat, norm_a0, scale0, cs, norm_c, final, iterations, x, X, Z)


def _assemble(
    pencil: Pencil, a_flat: np.ndarray, norm_a0: float, scale0: float, cs: np.ndarray,
    norm_c: list[float], final: list[str], iterations: list[int],
    x: np.ndarray, X: np.ndarray, Z: np.ndarray,
) -> list[SdpSolution]:
    """Finish the stack's final iterates, judge them and assemble each solution."""
    m = pencil.m
    a0 = pencil.mats[0]
    count = len(cs)
    todo = [k for k in range(count) if final[k] not in (STATUS_UNBOUNDED, STATUS_INFEASIBLE)]
    if todo:
        fx, fX, fZ, moved = _finish(a0, a_flat, cs[todo], x[todo], Z[todo])
        for j in moved.nonzero()[0].tolist():
            x[todo[j]], X[todo[j]], Z[todo[j]] = fx[j], fX[j], fZ[j]
    _, _, dots = _residuals(a0, a_flat, cs, x, X, Z)
    w = np.linalg.eigvalsh(np.concatenate([X, Z]))  # spectra and ranks
    ranks = _ranks(w)

    solutions = []
    for k in range(count):
        status = final[k]
        if status not in (STATUS_UNBOUNDED, STATUS_INFEASIBLE):
            feas_p, feas_d, rel_gap, rel_comp = _errors(dots[k], norm_a0, norm_c[k])
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
        solutions.append(
            SdpSolution(
                x=x[k].copy(),
                X=X[k].copy(),
                Z=Z[k].copy(),
                value=float(cs[k] @ x[k]),
                status=status,
                rank_X=ranks[k],
                rank_Z=ranks[count + k],
                residuals=(math.sqrt(dots[k][0]), float(np.linalg.norm(rp)), dots[k][1]),
                spectrum_X=w[k, ::-1].copy(),
                spectrum_Z=w[count + k, ::-1].copy(),
                iterations=iterations[k],
                ray=ray,
            )
        )
    return solutions


def solve_sdp_many(pencil: Pencil, objectives: Sequence[Sequence[float]]) -> list[SdpSolution]:
    """Solve max c^T x over the pencil's spectrahedron for each c in
    ``objectives`` (shape (B, n)), in one stacked interior-point run.

    Each solution is bitwise identical to the one :func:`solve_sdp` returns
    for its objective alone, whatever the batch and its order, and any
    pencil is taken.  A solve that does not end ``unbounded`` or
    ``infeasible`` is finished by Gauss-Newton steps on the KKT system, and
    returns ``optimal`` if the finished pair clears ``ACCEPT`` on
    feasibility and relative gap and 1e-6 on the relative Frobenius norm of
    X Z, ``numerical_failure`` otherwise.  An objective with a NaN or
    infinite entry raises ValueError.
    """
    m, n = pencil.m, pencil.n
    cs = np.asarray(objectives, dtype=float)
    if cs.shape == (0,):
        cs = cs.reshape(0, n)
    if cs.ndim != 2 or cs.shape[1] != n:
        raise ValueError(f"objectives must have shape (B, {n}), got shape {cs.shape}")
    bad = (~np.isfinite(cs)).any(axis=1).nonzero()[0]
    if bad.size:
        raise ValueError(f"objective {bad[0]} is not finite: {cs[bad[0]].tolist()}")
    lam0 = float(np.linalg.eigvalsh(pencil.mats[0])[0])
    a_flat = np.array(pencil.mats[1:]).reshape(n, m * m)  # row i is A_{i+1}, raveled
    # the larger per-row array: the finish's Jacobian or the scaled coefficients
    size = max(1, CHUNK_BYTES // (8 * max(n * m * m, (n + m * (m + 1) // 2) ** 2)))
    return [
        sol
        for k in range(0, len(cs), size)
        for sol in _solve_stack(pencil, a_flat, lam0, cs[k : k + size])
    ]


def solve_sdp(pencil: Pencil, c: Sequence[float]) -> SdpSolution:
    """Solve max c^T x over the pencil's spectrahedron: the one-objective
    case of :func:`solve_sdp_many`, which documents the statuses."""
    cv = np.asarray(c, dtype=float)
    if cv.shape != (pencil.n,):
        raise ValueError(f"objective must have length {pencil.n}, got shape {cv.shape}")
    return solve_sdp_many(pencil, cv[None])[0]

