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
against ``TOL``.  The iteration starts at x = 0, X = Z = I, tau = kappa = 1.
Each pass takes a Nesterov-Todd (NT) scaled Mehrotra step: the corrector
scales every residual by 1 - sigma, aims at sigma*mu, mu = (<X, Z> + tau
kappa) / (m + 1), and subtracts the predictor's second-order terms
sym(dX_a dZ_a Z^-1) and dtau_a dkappa_a (Mehrotra, SIAM J. Optim. 2, 1992;
Todd, Toh and Tutuncu, SIAM J. Optim. 8, 1998).  The NT point comes from one
Cholesky factor X = L L^T and one eigh of L^T Z L (:func:`_nt_scaling`); the
Schur complement is the Gram matrix of the scaled F^T A_i F, F F^T = W^-1.
One step length, off one eigvalsh of the scaled dX and dZ (:func:`_step`),
moves x, X, Z, tau and kappa 0.9 of the way to the boundary, 0.98 once the
path error of (x, X, Z) / tau is below 1e-4.  Intended scale: m <= 24, n <= 80.

:func:`solve_sdp_many` runs one iteration loop over a stack of problems
on one pencil; a problem whose solve ends leaves the stack before the
next stacked call.  numpy's stacked linear algebra does the same
arithmetic on each slice as on a lone matrix, inner products are one BLAS
dot per row (``np.vecdot``), statuses and the centering, step and
Schur-ridge rules are decided elementwise, and only a row with tau below
kappa checks its certificate alone (:func:`_certificate`).  So each result is
bitwise identical to solving it alone, whatever the batch and its order;
:func:`solve_sdp` is the one-objective case.  A row that gets no Newton
step (it has no NT scaling, or its Schur system is singular, as read off
the LU pivots by :func:`_solve_each`) ends at its pre-step iterate, and
only its own problem ends.

A solve ends with a verdict or goes to the finish.  The verdict comes,
while tau is below kappa, from a certificate of its iterate that passes its
check (:func:`_certificate`), as ``infeasible`` or ``unbounded``.  Every
other solve, whose path error reaches ``TOL``, whose iterate reaches the
float floor or which runs ``MAX_ITER`` passes, takes (x, X, Z) / tau to the
finish.  The finish's Gauss-Newton steps (:func:`_finish`) converge
quadratically near a strictly complementary optimum, so the path phase
hands over at ``TOL`` = 1e-8, above the float floor (a path error of 3e-10
to 1e-9 at m = 24).  Each step solves the KKT system in X's eigenbasis
(:func:`_finish_step`), eliminating the pairs of dZ outside X's kernel x
kernel block: one LU solve of n + t(m - rank_X) unknowns remains,
t(k) = k (k + 1) / 2, and rank_X is :func:`rank_of`'s.  The steps stop once
the KKT residual reaches the rounding level of X Z, eps ||X||_F ||Z||_F,
which two steps reach on nearly every row; ``ACCEPT`` then judges the
finished pair ``optimal`` or ``numerical_failure``, the only place either
is set.  Objectives run in chunks whose largest per-row stack stays under
``CHUNK_BYTES``.  These numerics are module constants, not options.
"""

from __future__ import annotations

import contextlib
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
    """Numerical rank, the solver's one rank rule: the eigenvalues above
    RANK_EPS max(1, lambda_max) - min(0, lambda_min).  Below lambda_max = 1
    the floor is the absolute RANK_EPS (rounding alone has rank 0), and on
    an indefinite matrix it is raised by |lambda_min|.
    ``rank_X``, ``rank_Z`` and the finish's kernel of X all apply it."""
    return int(_ranks(np.linalg.eigvalsh(np.asarray(mat, dtype=float))[None])[0])


def _ranks(w: np.ndarray) -> np.ndarray:
    """:func:`rank_of`'s rule on each row of a stack of ascending spectra w."""
    # fmax and fmin, like Python's max and min, keep 1.0 and 0.0 against a NaN
    return (w > RANK_EPS * np.fmax(1.0, w[:, -1:]) - np.fmin(0.0, w[:, :1])).sum(axis=1)


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
    optimum.  ``rank_X`` and ``rank_Z`` follow :func:`rank_of`, and the
    descending spectra ride along for auditing them.  ``iterations`` counts
    the path phase's passes and ``finish_steps`` the Gauss-Newton steps the
    finish took (0 with a certificate, or when the first step is refused).
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
    finish_steps: int
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
    positive definite, for mat^-1 = half half^T (H_X or H_Z of :func:`_nt_scaling`):
    half^T direction half is similar to mat^-1/2 direction mat^-1/2."""
    return _boundary(np.linalg.eigvalsh(_sym(half.mT @ directions @ half))[:, 0])


def _schur_gram(
    a_flat: np.ndarray, f_mat: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Schur complement S_ij = <A_i, W^-1 A_j W^-1> for F F^T = W^-1.

    ``a_flat`` holds A1..An as rows of length m*m; ``f_mat`` is one F or a
    stack of them.  S_ij = <F^T A_i F, F^T A_j F>, so S is the Gram matrix
    of the scaled stack: symmetric and positive semidefinite by
    construction.  The scaled stack goes to ``out`` if given: one buffer
    for a solve's passes, which would otherwise fault its pages in anew.
    """
    n, m = a_flat.shape[0], f_mat.shape[-1]
    f = f_mat[..., None, :, :]
    b = np.matmul(f.mT @ a_flat.reshape(n, m, m), f, out=out)
    b_flat = b.reshape(*f_mat.shape[:-2], n, m * m)
    return b_flat @ b_flat.mT


def _residuals(
    a0: np.ndarray, a_flat: np.ndarray, cv: np.ndarray, x: np.ndarray, X: np.ndarray, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals rd = A0 + A(x) - X and rp = -(A*(Z) + c) over a stack, and
    as row k of a (B, 9) array the inner products problem k's errors and
    norms are made of: (<rd, rd>, <X, Z>, <XZ, XZ>, <X, X>, <Z, Z>, <A0, Z>,
    <rp, rp>, <c, x>, <x, x>), each one BLAS dot (:func:`_dot`).  ``a0``
    holds A0 once per row, and ``a_flat`` holds A1..An as rows of length m*m."""
    count, m = X.shape[:2]
    rd = a0 + (x[:, None, :] @ a_flat).reshape(count, m, m) - X
    rp = -(cv + (a_flat @ Z.reshape(count, m * m, 1))[..., 0])
    xz = X @ Z
    mats = _dot(np.concatenate([rd, X, xz, X, Z, a0]), np.concatenate([rd, Z, xz, X, Z, Z]))
    mats = mats.reshape(6, count)
    vecs = _dot(np.concatenate([rp, cv, x]), np.concatenate([rp, x, x])).reshape(3, count)
    return rd, rp, np.concatenate([mats, vecs]).T


def _errors(dots: np.ndarray, norm_a0: float, norm_c: np.ndarray, tau: np.ndarray) -> tuple:
    """Relative errors (primal, dual, gap, complementarity) of the points
    (x, X, Z) / tau that the solver steers and accepts by, each an array
    over the stack, from :func:`_residuals`' products taken with A0 tau and
    c tau.  A row with non-finite products gets inf or NaN, with no warning."""
    rd_rd, x_z, xz_xz, x_x, z_z, _, rp_rp, c_x, _ = dots.T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return (
            np.sqrt(rd_rd) / (tau * (1.0 + norm_a0)),
            np.sqrt(rp_rp) / (tau * (1.0 + norm_c)),
            np.abs(x_z) / (tau * tau + np.abs(c_x)),
            np.sqrt(xz_xz) / (tau * tau + np.sqrt(x_x) * np.sqrt(z_z)),
        )


def _spectrum(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """eigh over a stack of middle matrices L^T Z L, each spectrum floored at
    1e-30 of its top, and per slice whether it is numerically positive
    definite; a slice that is not gets unit eigenvalues, so no NaN follows."""
    w, v = np.linalg.eigh(mat)
    ok = ~(w[:, 0] <= 0) & np.isfinite(w[:, -1])
    w = np.maximum(w, 1e-30 * w[:, -1:])
    w[~ok] = 1.0
    return w, v, ok


def _nt_scaling(
    X: np.ndarray, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[bool]]:
    """Nesterov-Todd factors F (F F^T = W^-1 for W Z W = X) and Z^-1 over a
    stack, the half-inverses H_X, then H_Z (H H^T = X^-1, Z^-1), and per
    slice whether it has them.  With X = L L^T and L^T Z L = V diag(w) V^T
    (one stacked cholesky and eigh), W = L V diag(w^-1/2) V^T L^T: F = L^-T V
    diag(w^1/4), H_X = L^-T V, H_Z = L V diag(w^-1/2) and Z^-1 = H_Z H_Z^T.
    A slice has none when the Cholesky refuses X or L^T Z L is numerically
    singular (:func:`_spectrum`): the float floor is reached.  The refused
    slices are found one by one, only when the stacked call raises, and
    stand in as L = I, so their Z^-1 and H_Z are still Z's own."""
    try:
        chol, ok = np.linalg.cholesky(X), np.ones(len(X), dtype=bool)
    except np.linalg.LinAlgError:
        chol, ok = np.zeros_like(X) + np.eye(X.shape[-1]), np.zeros(len(X), dtype=bool)
        for k, mat in enumerate(X):
            with contextlib.suppress(np.linalg.LinAlgError):
                chol[k], ok[k] = np.linalg.cholesky(mat), True
    w, v, ok_m = _spectrum(_sym(chol.mT @ Z @ chol))
    root = np.sqrt(w)[:, None, :]
    hx, hz = np.linalg.solve(chol.mT, v), chol @ v / root  # LU of triangular L^T is itself
    return hx * np.sqrt(root), hz @ hz.mT, np.concatenate([hx, hz]), (ok & ok_m).tolist()


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
    a0: np.ndarray, a_flat: np.ndarray, schur: np.ndarray, winv: np.ndarray, wa0w: np.ndarray,
    c_less_h: np.ndarray, c_plus_h: np.ndarray, wa0w_a0: np.ndarray, rd: np.ndarray,
    wrdw: np.ndarray, rp: np.ndarray, gap_row: np.ndarray, tau: np.ndarray, kappa: np.ndarray,
    eta: np.ndarray, target: np.ndarray, t_tk: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Directions (dx, dX, dZ, dtau, dkappa) of the embedding's Newton
    system over a stack, and per slice whether its Schur system was solved.

    The system is the linear groups with residuals (rd, rp and the gap row)
    scaled by ``eta``, dX + W dZ W = ``target`` and kappa dtau + tau dkappa
    = ``t_tk``.  With g = sym(W^-1 target W^-1) - eta W^-1 rd W^-1 and
    h = A*(W^-1 A0 W^-1), it reduces to S dx = A*(g) - eta rp + dtau (c - h):
    dx = dx1 + dtau dx2 from one stacked solve with two right-hand sides,
    and dtau from the gap row, one scalar equation.  The terms that do not
    depend on the target, ``wa0w`` = sym(W^-1 A0 W^-1), ``wrdw`` = W^-1 rd W^-1,
    c - h, c + h and <W^-1 A0 W^-1, A0>, are formed once per pass by the caller.
    """
    count, m = winv.shape[:2]
    g_mat = _sym(winv @ target @ winv) - eta[:, None, None] * wrdw
    rhs = (a_flat @ g_mat.reshape(count, m * m, 1))[..., 0] - eta[:, None] * rp
    d, solved = _solve_each(schur, np.stack([rhs, c_less_h], axis=2))
    dx1, dx2 = d[..., 0], d[..., 1]
    dtau = (t_tk / tau - eta * gap_row - _dot(c_plus_h, dx1) + _dot(g_mat, a0[None])) / (
        _dot(c_plus_h, dx2) + wa0w_a0 + kappa / tau
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


def _finish_step(
    a_mats: np.ndarray, X: np.ndarray, Z: np.ndarray, rd: np.ndarray, rc: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, list[bool]]:
    """The Gauss-Newton step (dx, dZ) = -J^-1 F of :func:`_finish` over a
    stack, and per row whether its linear system was solved.

    F is rd = A*(Z) + c and rc = sym(XZ); J (dx, dZ) = (A*(dZ), sym(A(dx) Z
    + X dZ)).  With X = Q L Q^T, the unknowns dZ~ = Q^T dZ Q meet the
    complementarity rows through sym(A~(dx) Z~) + P o dZ~ (A~_k = Q^T A_k Q,
    Z~ = Q^T Z Q, P_ij = (l_i + l_j) / 2), and <A_k, dZ> = <A~_k, dZ~>.  X's
    kernel is the m - rank_X eigenvalues :func:`rank_of` does not count, so
    every pair outside the kernel block has a pivot P_ij above RANK_EPS
    max(1, lambda_max) / 2, and an X of rounding only (a rank-0 face) stays
    whole.  Those pairs are eliminated; their Schur complement -<A~_k / P,
    A~_l Z~> joins the dense system in dx and the kernel block's upper
    triangle, n + t(k) unknowns, at most the n + t(m) of the whole system.
    Rows of one k are solved together on the leading rows of one system, as
    they would be alone.  ``a_mats`` holds A1..An as (n, m, m), and
    ``pairs`` is np.tril_indices(m), the pairs i <= j as (j, i) column by
    column, so that the first t(k) fill the leading k x k block.
    """
    count, m = X.shape[:2]
    n = len(a_mats)
    lam, q = np.linalg.eigh(X)
    kernel = m - _ranks(lam)  # X's kernel: its first `kernel` eigenvectors
    qt = q.mT
    a_rot = qt[:, None] @ a_mats @ q[:, None]
    z_rot, r_rot = qt @ np.stack([Z, rc]) @ q
    az = a_rot @ z_rot[:, None]  # A~_l Z~
    az_flat = az.reshape(count, n, m * m)
    pivot = (lam[:, :, None] + lam[:, None, :]) / 2.0
    # the dense system of the largest kernel block; a row of kernel dimension
    # k solves its leading n + t(k) rows and columns
    top = int(kernel.max())
    jj, ii = pairs[0][: top * (top + 1) // 2], pairs[1][: top * (top + 1) // 2]
    size = n + len(ii)
    jac = np.zeros((count, size, size))
    jac[:, :n, n:] = a_rot[..., ii, jj] * np.where(ii == jj, 1.0, 2.0)
    jac[:, n:, :n] = ((az[..., ii, jj] + az[..., jj, ii]) / 2.0).mT
    jac.reshape(count, -1)[:, (size + 1) * n :: size + 1] = pivot[:, ii, jj]
    # the eliminated pairs' weights 1 / P, and A~_k / P in place of A~_k
    out = np.arange(m) >= kernel[:, None]
    out = out[:, :, None] | out[:, None, :]
    weight = np.divide(1.0, pivot, out=np.zeros_like(pivot), where=out)
    a_rot *= weight[:, None]
    g_flat = a_rot.reshape(count, n, m * m)
    jac[:, :n, :n] = -(g_flat @ az_flat.mT)
    dual = (g_flat @ r_rot.reshape(count, m * m, 1))[..., 0] - rd
    rhs = np.concatenate([dual, -r_rot[:, ii, jj]], axis=1)
    d, solved = np.zeros((count, size)), np.empty(count, dtype=bool)
    for k in sorted(set(kernel.tolist())):
        rows, part = np.flatnonzero(kernel == k), n + k * (k + 1) // 2
        d_rows, solved[rows] = _solve_each(jac[rows, :part, :part], rhs[rows, :part, None])
        d[rows, :part] = d_rows[..., 0]
    dx = d[:, :n].copy()
    # back-substitution, dZ~ = -(R~ + sym(A~(dx) Z~)) / P outside the kernel
    # block: the sym is the one taken of Q dZ~ Q^T
    dz = np.zeros((count, m, m))
    dz[:, ii, jj] = dz[:, jj, ii] = d[:, n:]
    dz -= weight * (r_rot + (dx[:, None, :] @ az_flat).reshape(count, m, m))
    return dx, _sym(q @ dz @ qt), solved.tolist()


def _finish(
    a0: np.ndarray, a_flat: np.ndarray, cs: np.ndarray, x: np.ndarray, Z: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Up to three Gauss-Newton steps on the symmetrized KKT system over a
    stack: the finished (x, X, Z), per row the number of steps taken, and the
    ascending spectra of X and Z (shape (2, B, m)) that the line search of a
    row's last step read, for the rows that took one.

    The system is F(x, Z) = (A*(Z) + c, the upper triangle of (XZ + ZX)/2)
    with X = A0 + A(x) (Alizadeh-Haeberly-Overton, SIAM J. Optim. 8, 1998);
    its unknowns are x and the upper triangle of Z, so it is square, and its
    Jacobian is nonsingular at a strictly complementary optimum.  Each step
    solves it in X's eigenbasis (:func:`_finish_step`), where only the
    kernel x kernel block of dZ needs a dense solve.  A row goes on only
    while ||F|| > eps ||X||_F ||Z||_F, eps the float epsilon:
    each entry of XZ is computed with an error up to about eps times the
    product of a row of X and a column of Z, whose norms square and sum to
    ||X||_F^2 ||Z||_F^2, so below that level a step cannot lower ||F|| by
    more than rounding.  Two steps bring every pentagon direction and every
    (24, 80) benchmark pair there, saving the third step's solve; a row
    still above it after two takes the third.  A step is taken only if it
    is finite, ||F|| falls, and X and Z stay psd to ``-ACCEPT * max(1,
    lambda_max)``.  A step that lowers ||F|| but leaves the cone is halved,
    up to three times: from a path phase that hands over off-centre the full
    step can end just outside.  A row whose step is refused stops.
    ``a_flat`` holds A1..An as rows of length m*m.
    """
    count, m = Z.shape[:2]
    iu, ju = np.triu_indices(m)
    pairs = np.tril_indices(m)
    a_mats = a_flat.reshape(-1, m, m)
    eps = np.finfo(float).eps

    def pencil_at(x: np.ndarray) -> np.ndarray:
        return _sym(a0 + (x[:, None, :] @ a_flat).reshape(len(x), m, m))

    def residual(cv: np.ndarray, X: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, ...]:
        rd = (a_flat @ Z.reshape(len(Z), m * m, 1))[..., 0] + cv
        rc = _sym(X @ Z)
        f = np.concatenate([rd, rc[:, iu, ju]], axis=1)
        return rd, rc, _dot(f, f)

    x, Z = x.copy(), Z.copy()
    X = pencil_at(x)
    rd, rc, norm2 = residual(cs, X, Z)
    steps = np.zeros(count, dtype=int)
    spectra = np.empty((2, count, m))  # of X and Z after a row's last step
    live = np.arange(count)
    for _ in range(3):
        # on while ||F|| is finite and above the rounding level of XZ
        level = eps * np.sqrt(_dot(X, X)) * np.sqrt(_dot(Z, Z))
        live = live[(np.isfinite(norm2) & (np.sqrt(norm2) > level))[live]]
        if not live.size:
            break
        dx, dz, solved = _finish_step(a_mats, X[live], Z[live], rd[live], rc[live], pairs)
        ok = np.array(solved) & np.isfinite(dx).all(axis=1) & np.isfinite(dz).all(axis=(1, 2))
        cand, dx, dz = live[ok], dx[ok], dz[ok]
        if not cand.size:
            break
        stepped = []
        for length in (1.0, 0.5, 0.25, 0.125):
            x_new = x[cand] + length * dx
            Z_new = Z[cand] + length * dz
            X_new = pencil_at(x_new)
            rd_new, rc_new, norm2_new = residual(cs[cand], X_new, Z_new)
            w = np.linalg.eigvalsh(np.concatenate([X_new, Z_new])).reshape(2, len(cand), m)
            psd = (w[..., 0] >= -ACCEPT * np.maximum(1.0, w[..., -1])).all(axis=0)
            falls = norm2_new < norm2[cand]
            take = falls & psd
            done = cand[take]
            x[done], X[done], Z[done] = x_new[take], X_new[take], Z_new[take]
            rd[done], rc[done], norm2[done] = rd_new[take], rc_new[take], norm2_new[take]
            spectra[:, done] = w[:, take]
            stepped.append(done)
            cand, dx, dz = cand[falls & ~take], dx[falls & ~take], dz[falls & ~take]
            if not cand.size:
                break
        live = np.sort(np.concatenate(stepped))
        steps[live] += 1
    return x, X, Z, steps, spectra


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
    scale0 = max(1.0, *(float(np.linalg.norm(a)) for a in pencil.mats))
    gram_inv = _gram_inverse(a_flat)  # the Farkas candidate's projection
    h0 = gram_inv @ (a_flat @ a0.ravel())
    norm_c = np.sqrt(_dot(cs, cs))
    # the embedding's start: x = 0, X = Z = I and tau = kappa = 1
    xs = np.zeros((count, n))
    Xs = np.repeat(np.eye(m)[None], count, axis=0)
    Zs, taus, kappas = Xs.copy(), np.ones(count), np.ones(count)
    rows, cl = np.arange(count), cs  # the stack's problems and their objectives
    x, X, Z = np.empty_like(xs), np.empty_like(Xs), np.empty_like(Zs)  # last iterates / tau
    verdicts: list[tuple[str, np.ndarray] | None] = [None] * count
    iterations = np.full(count, MAX_ITER)
    scaled_a = np.empty((count, n, m, m))  # every pass's F^T A_i F (:func:`_schur_gram`)

    def end(ended: np.ndarray, it: int, *stacks: np.ndarray) -> list[np.ndarray]:
        """Record the pass count and last iterate over tau of the rows set in
        ``ended``; the stack, then ``stacks`` (more per-row state), without them."""
        stack = [rows, cl, xs, Xs, Zs, taus, kappas, *stacks]
        if not ended.any():
            return stack
        k, t = rows[ended], taus[ended, None]
        iterations[k] = it
        x[k], X[k], Z[k] = xs[ended] / t, Xs[ended] / t[..., None], Zs[ended] / t[..., None]
        return [s[~ended] for s in stack]

    for it in range(1, MAX_ITER + 1):
        # the embedding's residuals rd = A0 tau + A(x) - X and rp = -(A*(Z) + c tau)
        rd, rp, dots = _residuals(a0 * taus[:, None, None], a_flat, cl * taus[:, None], xs, Xs, Zs)
        path_err = np.max(_errors(dots, norm_a0, norm_c[rows], taus)[:3], axis=0)
        # a non-finite iterate or product (the row leaves before any LAPACK
        # call), or (x, Z) / tau has converged: the finish takes over
        ended = ~(np.isfinite(dots).all(axis=1) & np.isfinite(taus) & np.isfinite(kappas))
        ended |= path_err <= TOL
        for j in (~ended & (taus < kappas)).nonzero()[0]:
            # tau falls against kappa: the row ends once its iterate certifies
            verdicts[rows[j]] = _certificate(a0, a_flat, gram_inv, h0, scale0, cl[j], xs[j], Zs[j])
            ended[j] = verdicts[rows[j]] is not None
        rows, cl, xs, Xs, Zs, taus, kappas, rd, rp, dots, path_err = end(
            ended, it, rd, rp, dots, path_err
        )
        if not rows.size:
            break

        f_mat, zinv, half, scaled = _nt_scaling(Xs, Zs)
        b = len(rows)
        winv = f_mat @ f_mat.mT
        schur = _schur_gram(a_flat, f_mat, scaled_a[:b])
        # tiny ridge keeps borderline-dependent pencils solvable
        trace = np.trace(schur, axis1=1, axis2=2)
        ridge = 1e-14 * np.fmax(1.0, trace / max(n, 1))
        schur.reshape(b, n * n)[:, :: n + 1] += ridge[:, None]
        # the terms the predictor and the corrector share, h = A*(W^-1 A0 W^-1),
        # W^-1 rd W^-1 and the gap row c^T x - <A0, Z> - kappa, from tau c^T x
        # and tau <A0, Z>
        wa0w = _sym(winv @ a0 @ winv)
        h = (a_flat @ wa0w.reshape(b, m * m, 1))[..., 0]
        gap_row = (dots[:, 7] - dots[:, 5]) / taus - kappas
        pass_system = (a0, a_flat, schur, winv, wa0w, cl - h, cl + h, _dot(wa0w, a0[None]),
                       rd, winv @ rd @ winv, rp, gap_row, taus, kappas)

        # predictor: sigma = 0 and every residual in full
        dx_a, dX_a, dZ_a, dtau_a, dkappa_a, solved = _newton(
            *pass_system, np.ones(b), -Xs, -taus * kappas
        )
        a = _step(half, dX_a, dZ_a, taus, dtau_a, kappas, dkappa_a)
        gaps_aff = _dot(Xs + a[:, None, None] * dX_a, Zs + a[:, None, None] * dZ_a)
        gaps_aff = gaps_aff + (taus + a * dtau_a) * (kappas + a * dkappa_a)
        mus = np.maximum((dots[:, 1] + taus * kappas) / (m + 1), 1e-300)  # <X, Z> + tau kappa
        ratio = np.maximum(0.0, gaps_aff / (m + 1)) / mus
        sigma = np.clip(ratio * ratio * ratio, 1e-12, 1.0)

        # Mehrotra's corrector: residuals scaled by 1 - sigma, the target
        # sigma mu, less the predictor's second-order terms of XZ and tau kappa
        smu = sigma * mus
        target = smu[:, None, None] * zinv - Xs - _sym(dX_a @ dZ_a @ zinv)
        t_tk = smu - taus * kappas - dtau_a * dkappa_a
        # the same Schur stack as the predictor's, so the same rows solved
        dx, dX, dZ, dtau, dkappa, _ = _newton(*pass_system, 1.0 - sigma, target, t_tk)
        frac = np.where(path_err > 1e-4, 0.9, 0.98)  # of the way to the boundary
        alpha = frac * _step(half, dX, dZ, taus, dtau, kappas, dkappa)
        # no NT scaling or a singular Schur system: the solve ends at its pre-step iterate
        ended = ~np.logical_and(scaled, solved)
        rows, cl, xs, Xs, Zs, taus, kappas, dx, dX, dZ, dtau, dkappa, alpha = end(
            ended, it, dx, dX, dZ, dtau, dkappa, alpha
        )
        if not rows.size:
            break
        xs = xs + alpha[:, None] * dx
        Xs = _sym(Xs + alpha[:, None, None] * dX)
        Zs = _sym(Zs + alpha[:, None, None] * dZ)
        taus, kappas = taus + alpha * dtau, kappas + alpha * dkappa

    end(np.ones(len(rows), dtype=bool), MAX_ITER)  # still iterating at MAX_ITER
    todo = np.flatnonzero([v is None for v in verdicts])
    finish_steps = np.zeros(count, dtype=int)
    w = np.empty((2, count, m))  # ascending spectra of X and Z
    if todo.size:
        fx, fX, fZ, finish_steps[todo], fw = _finish(a0, a_flat, cs[todo], x[todo], Z[todo])
        moved = finish_steps[todo] > 0
        k = todo[moved]
        x[k], X[k], Z[k], w[:, k] = fx[moved], fX[moved], fZ[moved], fw[:, moved]
    rest = finish_steps == 0  # rows whose spectra the finish did not read
    w[:, rest] = np.linalg.eigvalsh(np.concatenate([X[rest], Z[rest]])).reshape(2, -1, m)
    _, _, dots = _residuals(np.broadcast_to(a0, Z.shape), a_flat, cs, x, X, Z)
    feas_p, feas_d, rel_gap, rel_comp = _errors(dots, norm_a0, norm_c, np.ones(count))
    ok = (feas_p <= ACCEPT) & (feas_d <= ACCEPT) & (rel_gap <= ACCEPT) & (rel_comp <= 1e-6)
    w = w.reshape(2 * count, m)
    ranks = _ranks(w).tolist()

    solutions = []
    for k, (verdict, its, steps) in enumerate(
        zip(verdicts, iterations.tolist(), finish_steps.tolist())
    ):
        status, certificate = verdict or ((STATUS_OPTIMAL if ok[k] else STATUS_FAILURE), None)
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
                residuals=(math.sqrt(dots[k, 0]), float(np.linalg.norm(rp)), float(dots[k, 1])),
                spectrum_X=w[k, ::-1].copy(),
                spectrum_Z=w[count + k, ::-1].copy(),
                iterations=its,
                finish_steps=steps,
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
    # the larger per-row array: the scaled coefficients, or the finish's dense
    # system, whose worst case, a rank-0 row's, has all n + t(m) unknowns
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

