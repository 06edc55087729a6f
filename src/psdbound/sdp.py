"""Dense primal-dual interior-point solver for small spectrahedra.

Solves  max c^T x  subject to  X := A0 + x1*A1 + ... + xn*An psd, and
returns the optimizer together with the dual multiplier Z satisfying

    X = A0 + A(x),   A*(Z) + c = 0,   X Z = 0,   X psd,  Z psd

at the reported tolerances, or a certificate that no such pair exists.
Every pencil, whatever A0, is solved through one homogeneous self-dual
embedding (Ye, Todd and Mizuno, Math. Oper. Res. 19, 1994; de Klerk, Roos
and Terlaky, 1997) of the pair  min <A0, Z> s.t. <A_i, Z> = -c_i, Z psd
and  max c^T x s.t. A0 + A(x) psd,  with two more scalars tau, kappa >= 0:

    A*(Z) + c tau = 0,   X = A0 tau + A(x),   c^T x - <A0, Z> = kappa.

Its solutions have <X, Z> + tau kappa = 0: tau > 0 gives the optimal pair
(x, X, Z) / tau, and kappa > 0 a ray x (c^T x > 0, A(x) psd) or a Farkas
Z (<A0, Z> < 0, A*(Z) = 0).  The Farkas matrix is read off as Z projected
onto the null space of A*, in one solve with the Gram matrix <A_i, A_j>
(Permenter, Friberg and Andersen, SIAM J. Optim. 27, 2017), and checked
against ``TOL``.  The iteration starts at x = 0, X = Z = I,
tau = kappa = 1.  Each pass takes a Nesterov-Todd scaled Mehrotra step:
the corrector scales every residual by 1 - sigma, aims at sigma*mu, mu =
(<X, Z> + tau kappa) / (m + 1), and subtracts the predictor's
second-order terms sym(dX_a dZ_a Z^-1) and dtau_a dkappa_a (Mehrotra,
SIAM J. Optim. 2, 1992; Todd, Toh and Tutuncu, SIAM J. Optim. 8, 1998),
so residuals and mu fall at one rate.  The Schur complement is the Gram
matrix of the NT-scaled coefficients F^T A_i F, F F^T = W^{-1}.  One step
length moves x, X, Z, tau and kappa: 0.9 of the way to the boundary,
0.98 once the path error of (x, X, Z) / tau is below 1e-4.  The boundary
is read off one stacked eigvalsh of the scaled dX and dZ, and off
dtau / tau and dkappa / kappa elementwise (:func:`_step`).  Everything is
dense and deterministic; intended scale is m <= 24, n <= 80.

:func:`solve_sdp_many` runs one iteration loop over a stack of problems
on one pencil; a problem whose solve ends leaves the stack before the
next stacked call.  numpy's stacked linear algebra does the same
arithmetic on each slice as on a lone matrix, inner products are one BLAS
dot per row (``np.vecdot``), statuses are decided row by row in Python,
and the centering, step and Schur-ridge rules run elementwise.  So each result is
bitwise identical to solving it alone, whatever the batch and its order;
:func:`solve_sdp` is the one-objective case.  A row that gets no Newton
step (its X or Z has no NT scaling, or its Schur system is singular, as
read off the LU pivots by :func:`_solve_each`) ends at its pre-step
iterate, and only its own problem ends.

A solve ends with a verdict or goes to the finish.  The verdict comes,
while tau is below kappa, from a certificate of its iterate that passes its
check (:func:`_certificate`), as ``infeasible`` or ``unbounded``.  Every
other solve, whose path error reaches ``TOL``, whose iterate reaches the
float floor or which runs ``MAX_ITER`` passes, takes (x, X, Z) / tau to the
finish.  The finish's Gauss-Newton steps (:func:`_finish`) converge
quadratically near a strictly complementary optimum, so the path phase
hands over at ``TOL`` = 1e-8, above the float floor (a path error of 3e-10
to 1e-9 at m = 24); ``ACCEPT`` then judges the finished pair ``optimal`` or
``numerical_failure``, the only place either is set.  Objectives run in
chunks whose largest per-row stack stays under ``CHUNK_BYTES``.  These
numerics and the rank threshold ``RANK_EPS`` are module constants, not
options.
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
    ``ray`` is set for unbounded problems: a unit direction with A(ray) psd
    (within tolerance) and c^T ray > 0; ``farkas`` for infeasible ones: the
    iterate's Z projected onto the null space of A*, scaled to unit trace,
    and checked to be positive definite with ||A*(Z)|| <= TOL and
    <A0, Z> < 0 (see :func:`_certificate`).  With a certificate, ``x``,
    ``X``, ``Z`` and ``value`` = c^T x are the last iterate over tau, not an
    optimum.  The descending spectra ride along for auditing the rank
    decisions.
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
    farkas: np.ndarray | None = None


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise <a_k, b_k> over two stacks (or against b's one row): one BLAS
    dot per row, the same arithmetic as np.vdot(a_k, b_k) (and as
    np.linalg.norm's square).  A product past the float range is inf, with no
    warning: a row that has one ends on the solver's non-finite rule."""
    with np.errstate(over="ignore"):
        return np.vecdot(a.reshape(len(a), -1), b.reshape(len(b), -1))


def _sym(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.mT) / 2.0


def _boundary(lam: np.ndarray) -> np.ndarray:
    """The largest alpha <= 1 keeping I + alpha*D positive definite, from lam_min(D)."""
    # fmin, like Python's min, keeps 1.0 against a NaN
    return np.where(lam >= -1e-14, 1.0, np.fmin(1.0, -1.0 / np.minimum(lam, -1e-14)))


def _max_step(half: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Per slice, the largest alpha <= 1 with mat + alpha*direction still
    positive definite, for mat^-1 = half half^T (see :func:`_nt_scaling`):
    half^T direction half is similar to mat^-1/2 direction mat^-1/2."""
    return _boundary(np.linalg.eigvalsh(_sym(half.mT @ directions @ half))[:, 0])


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
    (<rd, rd>, <X, Z>, <XZ, XZ>, <X, X>, <Z, Z>, <A0, Z>, <rp, rp>, <c, x>,
    <x, x>), each one BLAS dot (:func:`_dot`).  ``a0`` holds A0 once per
    row, and ``a_flat`` holds A1..An as rows of length m*m."""
    count, m = X.shape[:2]
    rd = a0 + (x[:, None, :] @ a_flat).reshape(count, m, m) - X
    rp = -(cv + (a_flat @ Z.reshape(count, m * m, 1))[..., 0])
    xz = X @ Z
    mats = _dot(np.concatenate([rd, X, xz, X, Z, a0]), np.concatenate([rd, Z, xz, X, Z, Z]))
    mats = mats.reshape(6, count)
    vecs = _dot(np.concatenate([rp, cv, x]), np.concatenate([rp, x, x])).reshape(3, count)
    return rd, rp, np.concatenate([mats, vecs]).T.tolist()


def _errors(dots: list[float], norm_a0: float, norm_c: float, tau: float) -> tuple[float, ...]:
    """Relative errors (primal, dual, gap, complementarity) of the point
    (x, X, Z) / tau that the solver steers and accepts by, from one row of
    :func:`_residuals`' products taken with A0 tau and c tau."""
    rd_rd, x_z, xz_xz, x_x, z_z, _, rp_rp, c_x, _ = dots
    return (
        math.sqrt(rd_rd) / (tau * (1.0 + norm_a0)),
        math.sqrt(rp_rp) / (tau * (1.0 + norm_c)),
        abs(x_z) / (tau * tau + abs(c_x)),
        math.sqrt(xz_xz) / (tau * tau + math.sqrt(x_x) * math.sqrt(z_z)),
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
    numerically singular: the float floor is reached.  Its factors are then
    finite stand-ins, built from unit eigenvalues (:func:`_spectrum`).
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

    A singular slice makes the stacked call fail whole.  The slices whose LU
    determinant sign is nonzero are then solved in one more stacked call and
    the rest left at zero: slogdet runs solve's LAPACK getrf, so it flags
    exactly the slices on which a lone solve raises.
    """
    try:
        return np.linalg.solve(a, b), [True] * len(a)
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(a)[0] != 0
    out = np.zeros_like(b)
    out[ok] = np.linalg.solve(a[ok], b[ok])
    return out, ok.tolist()


def _newton(
    a0: np.ndarray, a_flat: np.ndarray, schur: np.ndarray, winv: np.ndarray, rd: np.ndarray,
    rp: np.ndarray, cv: np.ndarray, gap_row: np.ndarray, tau: np.ndarray, kappa: np.ndarray,
    eta: np.ndarray, target: np.ndarray, t_tk: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Directions (dx, dX, dZ, dtau, dkappa) of the embedding's Newton
    system over a stack, and per slice whether its Schur system was solved.

    The system is the linear groups with residuals (rd, rp and the gap row)
    scaled by ``eta``, dX + W dZ W = ``target`` and kappa dtau + tau dkappa
    = ``t_tk``.  With g = sym(W^-1 target W^-1) - eta W^-1 rd W^-1 and
    h = A*(W^-1 A0 W^-1), it reduces to S dx = A*(g) - eta rp + dtau (c - h):
    dx = dx1 + dtau dx2 from one stacked solve with two right-hand sides,
    and dtau from the gap row, one scalar equation.
    """
    count, m = winv.shape[:2]
    wa0w = _sym(winv @ a0 @ winv)
    h = (a_flat @ wa0w.reshape(count, m * m, 1))[..., 0]
    g_mat = _sym(winv @ target @ winv) - eta[:, None, None] * (winv @ rd @ winv)
    rhs = (a_flat @ g_mat.reshape(count, m * m, 1))[..., 0] - eta[:, None] * rp
    d, solved = _solve_each(schur, np.stack([rhs, cv - h], axis=2))
    dx1, dx2 = d[..., 0], d[..., 1]
    ch = cv + h
    dtau = (t_tk / tau - eta * gap_row - _dot(ch, dx1) + _dot(g_mat, a0[None])) / (
        _dot(ch, dx2) + _dot(wa0w, a0[None]) + kappa / tau
    )
    dx = dx1 + dtau[:, None] * dx2
    adx = (dx[:, None, :] @ a_flat).reshape(count, m, m)
    dX = adx + dtau[:, None, None] * a0 + eta[:, None, None] * rd
    dZ = g_mat - _sym(winv @ adx @ winv) - dtau[:, None, None] * wa0w
    return dx, dX, dZ, dtau, (t_tk - kappa * dtau) / tau, solved


def _step(half: np.ndarray, dX: np.ndarray, dZ: np.ndarray, tau: np.ndarray, dtau: np.ndarray,
          kappa: np.ndarray, dkappa: np.ndarray) -> np.ndarray:
    """Per row, the largest alpha <= 1 that keeps X, Z, tau and kappa
    positive along a direction.  X and Z take one stacked eigvalsh; tau and
    kappa are 1 x 1 blocks of the cone, whose scaled direction h dv h, h =
    v^-1/2, is its own eigenvalue, so the same rule runs on it elementwise."""
    cone = _max_step(half, np.concatenate([dX, dZ]))
    h = 1.0 / np.sqrt(np.concatenate([tau, kappa]))
    scalar = _boundary(h * np.concatenate([dtau, dkappa]) * h)
    return np.concatenate([cone, scalar]).reshape(4, len(tau)).min(axis=0)


def _gram_inverse(a_flat: np.ndarray) -> np.ndarray:
    """G^-1 for the Gram matrix G_ij = <A_i, A_j> of the coefficient
    matrices, or its pseudo-inverse where the A_i are linearly dependent."""
    gram = a_flat @ a_flat.T
    try:
        return np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram, hermitian=True)


def _certificate(a0: np.ndarray, a_flat: np.ndarray, gram_inv: np.ndarray, h0: np.ndarray,
                 scale0: float, c: np.ndarray, x: np.ndarray,
                 Z: np.ndarray) -> tuple[str, np.ndarray] | None:
    """The verdict an iterate of the embedding certifies, and its certificate.

    ``infeasible``: the candidate is Z projected onto the null space of A*,
    Z' = Z - A(y) with G y = A*(Z) (``gram_inv`` from :func:`_gram_inverse`,
    ``h0`` = G^-1 A*(A0)); it must be positive definite and, with A*(Z')
    computed afresh, have ||A*(Z')|| <= TOL tr Z' and <A0, Z'> <=
    -||A*(Z')|| / TOL, so <A0 + A(x), Z'> < 0 for every x of norm below
    1 / TOL.  <A0, Z'> = <A0, Z> - A*(Z) . h0 rejects most candidates before
    Z' is formed.  The certificate is Z' / tr Z'.  ``unbounded``: the ray
    d = x / ||x|| has c^T d > 0 and A(d) psd to -1e-6 scale0.
    """
    az = a_flat @ Z.ravel()
    if float(np.vdot(a0, Z)) - float(az @ h0) < 0:
        zp = Z - ((gram_inv @ az) @ a_flat).reshape(Z.shape)
        tr, a0_z = float(np.trace(zp)), float(np.vdot(a0, zp))
        if (a0_z < 0 and np.linalg.eigvalsh(zp)[0] > 0
                and float(np.linalg.norm(a_flat @ zp.ravel())) <= TOL * min(tr, -a0_z)):
            return STATUS_INFEASIBLE, zp / tr
    if float(c @ x) > 0:
        ray = x / float(np.linalg.norm(x))
        if np.linalg.eigvalsh((ray @ a_flat).reshape(Z.shape))[0] >= -1e-6 * scale0:
            return STATUS_UNBOUNDED, ray
    return None


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


def _solve_stack(pencil: Pencil, a_flat: np.ndarray, cs: np.ndarray) -> list[SdpSolution]:
    """The embedding's interior-point loop over one stack of objectives,
    then each problem's finish, verdict and solution.

    Row j of the stacked iterates ``xs``, ``Xs``, ``Zs``, ``taus``,
    ``kappas`` is problem ``rows[j]``.  When a problem's solve ends, its
    last iterate over tau goes to its row of x, X, Z, and it leaves the
    stack.  Its entry of ``verdicts`` is its certificate's status and
    certificate, or None for a solve that goes to the finish."""
    m, n = pencil.m, pencil.n
    a0 = pencil.mats[0]
    count = len(cs)
    norm_a0 = float(np.linalg.norm(a0))
    scale0 = max(1.0, norm_a0, max(float(np.linalg.norm(a)) for a in pencil.mats))
    gram_inv = _gram_inverse(a_flat)  # the Farkas candidate's projection
    h0 = gram_inv @ (a_flat @ a0.ravel())
    norm_c = np.sqrt(_dot(cs, cs)).tolist()
    # the embedding's start: x = 0, X = Z = I and tau = kappa = 1
    xs = np.zeros((count, n))
    Xs = np.repeat(np.eye(m)[None], count, axis=0)
    Zs, taus, kappas = Xs.copy(), np.ones(count), np.ones(count)
    rows, cl = np.arange(count), cs  # the stack's problems and their objectives
    x, X, Z = np.empty_like(xs), np.empty_like(Xs), np.empty_like(Zs)  # last iterates / tau
    verdicts: list[tuple[str, np.ndarray] | None] = [None] * count
    iterations = np.full(count, MAX_ITER)

    def end(ended: list[int], it: int, *stacks: np.ndarray) -> list[np.ndarray]:
        """Record the pass count and last iterate over tau of the stack rows
        ``ended``; the stack, then ``stacks`` (more per-row state), without them."""
        stack = [rows, cl, xs, Xs, Zs, taus, kappas, *stacks]
        if not ended:
            return stack
        k, t = rows[ended], taus[ended, None]
        iterations[k] = it
        x[k], X[k], Z[k] = xs[ended] / t, Xs[ended] / t[..., None], Zs[ended] / t[..., None]
        keep = np.ones(len(rows), dtype=bool)
        keep[ended] = False
        return [s[keep] for s in stack]

    for it in range(1, MAX_ITER + 1):
        # the embedding's residuals rd = A0 tau + A(x) - X and rp = -(A*(Z) + c tau)
        rd, rp, dots = _residuals(a0 * taus[:, None, None], a_flat, cl * taus[:, None], xs, Xs, Zs)
        ended: list[int] = []  # stack rows whose solve ends in this pass
        head = []  # per row: path error, <X, Z> + tau kappa and the gap row
        for j, (k, row, tau, kappa) in enumerate(zip(rows, dots, taus.tolist(), kappas.tolist())):
            path_err = max(_errors(row, norm_a0, norm_c[k], tau)[:3])
            # c^T x - <A0, Z> - kappa, from the products tau c^T x and tau <A0, Z>
            head.append((path_err, row[1] + tau * kappa, (row[7] - row[5]) / tau - kappa))
            if not all(map(math.isfinite, (*row, tau, kappa))) or path_err <= TOL:
                # a non-finite iterate or product (the row leaves before any
                # LAPACK call), or (x, Z) / tau has converged: the finish takes over
                ended.append(j)
            elif tau < kappa:
                # tau falls against kappa: the row ends once its iterate certifies
                verdicts[k] = _certificate(a0, a_flat, gram_inv, h0, scale0, cl[j], xs[j], Zs[j])
                if verdicts[k]:
                    ended.append(j)
        rows, cl, xs, Xs, Zs, taus, kappas, rd, rp, head = end(ended, it, rd, rp, np.array(head))
        if not rows.size:
            break

        f_mat, zinv, half, scaled = _nt_scaling(Xs, Zs)
        b = len(rows)
        winv = f_mat @ f_mat.mT
        schur = _schur_gram(a_flat, f_mat)
        # tiny ridge keeps borderline-dependent pencils solvable
        trace = np.trace(schur, axis1=1, axis2=2)
        ridge = 1e-14 * np.fmax(1.0, trace / max(n, 1))
        schur.reshape(b, n * n)[:, :: n + 1] += ridge[:, None]
        path_err, gap, gap_row = head.T
        pass_system = (a0, a_flat, schur, winv, rd, rp, cl, gap_row, taus, kappas)

        # predictor: sigma = 0 and every residual in full
        dx_a, dX_a, dZ_a, dtau_a, dkappa_a, solved = _newton(
            *pass_system, np.ones(b), -Xs, -taus * kappas
        )
        a = _step(half, dX_a, dZ_a, taus, dtau_a, kappas, dkappa_a)
        gaps_aff = _dot(Xs + a[:, None, None] * dX_a, Zs + a[:, None, None] * dZ_a)
        gaps_aff = gaps_aff + (taus + a * dtau_a) * (kappas + a * dkappa_a)
        mus = np.maximum(gap / (m + 1), 1e-300)
        ratio = np.maximum(0.0, gaps_aff / (m + 1)) / mus
        sigma = np.clip(ratio * ratio * ratio, 1e-12, 1.0)

        # Mehrotra's corrector: residuals scaled by 1 - sigma, the target
        # sigma mu, less the predictor's second-order terms of XZ and tau kappa
        smu = sigma * mus
        target = smu[:, None, None] * zinv - Xs - _sym(dX_a @ dZ_a @ zinv)
        t_tk = smu - taus * kappas - dtau_a * dkappa_a
        dx, dX, dZ, dtau, dkappa, solved_c = _newton(*pass_system, 1.0 - sigma, target, t_tk)
        frac = np.where(path_err > 1e-4, 0.9, 0.98)  # of the way to the boundary
        alpha = frac * _step(half, dX, dZ, taus, dtau, kappas, dkappa)
        # no NT scaling or a singular Schur system: the solve ends at its pre-step iterate
        ended = [j for j in range(b) if not (scaled[j] and solved[j] and solved_c[j])]
        rows, cl, xs, Xs, Zs, taus, kappas, dx, dX, dZ, dtau, dkappa, alpha = end(
            ended, it, dx, dX, dZ, dtau, dkappa, alpha
        )
        if not rows.size:
            break
        xs = xs + alpha[:, None] * dx
        Xs = _sym(Xs + alpha[:, None, None] * dX)
        Zs = _sym(Zs + alpha[:, None, None] * dZ)
        taus, kappas = taus + alpha * dtau, kappas + alpha * dkappa

    end(list(range(len(rows))), MAX_ITER)  # still iterating at MAX_ITER
    todo = np.flatnonzero([v is None for v in verdicts])
    if todo.size:
        fx, fX, fZ, moved = _finish(a0, a_flat, cs[todo], x[todo], Z[todo])
        k = todo[moved]
        x[k], X[k], Z[k] = fx[moved], fX[moved], fZ[moved]
    _, _, dots = _residuals(np.broadcast_to(a0, Z.shape), a_flat, cs, x, X, Z)
    w = np.linalg.eigvalsh(np.concatenate([X, Z]))  # spectra and ranks
    ranks = _ranks(w)

    solutions = []
    for k, (verdict, its) in enumerate(zip(verdicts, iterations.tolist())):
        if verdict is None:
            feas_p, feas_d, rel_gap, rel_comp = _errors(dots[k], norm_a0, norm_c[k], 1.0)
            ok = feas_p <= ACCEPT and feas_d <= ACCEPT and rel_gap <= ACCEPT and rel_comp <= 1e-6
            verdict = (STATUS_OPTIMAL if ok else STATUS_FAILURE), None
        status, certificate = verdict
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
                iterations=its,
                ray=certificate if status == STATUS_UNBOUNDED else None,
                farkas=certificate if status == STATUS_INFEASIBLE else None,
            )
        )
    return solutions


def solve_sdp_many(pencil: Pencil, objectives: Sequence[Sequence[float]]) -> list[SdpSolution]:
    """Solve max c^T x over the pencil's spectrahedron for each c in
    ``objectives`` (shape (B, n)), in one stacked interior-point run.

    Each solution is bitwise identical to the one :func:`solve_sdp` returns
    for its objective alone, and any pencil is taken.  A solve ends
    ``infeasible`` or ``unbounded`` only with a checked certificate
    (``farkas`` or ``ray``).  Any other solve is finished by Gauss-Newton
    steps, and is ``optimal`` if the finished pair clears ``ACCEPT`` on
    feasibility and relative gap and 1e-6 on the relative norm of X Z,
    ``numerical_failure`` otherwise.  A NaN or infinite objective entry
    raises ValueError.
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
    a_flat = np.array(pencil.mats[1:]).reshape(n, m * m)  # row i is A_{i+1}, raveled
    # the larger per-row array: the finish's Jacobian or the scaled coefficients
    size = max(1, CHUNK_BYTES // (8 * max(n * m * m, (n + m * (m + 1) // 2) ** 2)))
    return [
        sol
        for k in range(0, len(cs), size)
        for sol in _solve_stack(pencil, a_flat, cs[k : k + size])
    ]


def solve_sdp(pencil: Pencil, c: Sequence[float]) -> SdpSolution:
    """Solve max c^T x over the pencil's spectrahedron: the one-objective
    case of :func:`solve_sdp_many`, which documents the statuses."""
    cv = np.asarray(c, dtype=float)
    if cv.shape != (pencil.n,):
        raise ValueError(f"objective must have length {pencil.n}, got shape {cv.shape}")
    return solve_sdp_many(pencil, cv[None])[0]

