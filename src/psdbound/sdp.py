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

The numerics are fixed module constants, not options: the path phase
targets relative feasibility and gap ``TOL``, a stalled solve is accepted
at ``ACCEPT``, a solve runs at most ``MAX_ITER`` iterations, and an x (or
Z) whose norm passes ``DIVERGE_NORM`` ends it as unbounded (or
infeasible).  Numerical ranks use ``RANK_EPS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .pencil import Pencil, adjoint

RANK_EPS = 1e-6
RANK_GAP_FLAG = 100.0  # flag leading/trailing eigenvalue ratios below this

TOL = 1e-10  # target relative feasibility and gap of the path phase
ACCEPT = 1e-7  # relative feasibility and gap a stalled solve may still accept
MAX_ITER = 100
DIVERGE_NORM = 1e8  # ||x|| (or ||Z|| / max(1, ||c||)) past this ends the solve

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


def rank_of(mat: np.ndarray, scale: float = 0.0) -> int:
    """Numerical rank: eigenvalues above RANK_EPS * max(scale, lambda_max).

    With the default scale 0 the threshold is relative to the matrix's own
    top eigenvalue; pass an external scale to make near-zero matrices rank 0.
    """
    w = np.linalg.eigvalsh(np.asarray(mat, dtype=float))
    top = float(w[-1]) if w.size else 0.0
    thr = RANK_EPS * max(scale, top)
    return int(np.sum(w > thr))


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


def _max_step(mat: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha <= 1 with mat + alpha*direction still positive definite."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(mat)
        w = np.maximum(w, 1e-300)
        chol = v * np.sqrt(w)
    y = np.linalg.solve(chol, direction)
    s = np.linalg.solve(chol, y.T).T
    lam_min = float(np.linalg.eigvalsh((s + s.T) / 2.0)[0])
    if lam_min >= -1e-14:
        return 1.0
    return min(1.0, -1.0 / lam_min)


def _sym(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.T) / 2.0


def _schur_gram(a_flat: np.ndarray, f_mat: np.ndarray) -> np.ndarray:
    """Schur complement S_ij = <A_i, W^-1 A_j W^-1> for F F^T = W^-1.

    ``a_flat`` holds A1..An as rows of length m*m.  S_ij = <F^T A_i F,
    F^T A_j F>, so S is the Gram matrix of the scaled stack: symmetric and
    positive semidefinite by construction.
    """
    n, m = a_flat.shape[0], f_mat.shape[0]
    b_flat = (f_mat.T @ a_flat.reshape(n, m, m) @ f_mat).reshape(n, m * m)
    return b_flat @ b_flat.T


def _residuals(
    a0: np.ndarray,
    a_flat: np.ndarray,
    cv: np.ndarray,
    norm_a0: float,
    norm_c: float,
    x: np.ndarray,
    X: np.ndarray,
    Z: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float, float]]:
    """Residuals rd = A0 + A(x) - X and rp = -(A*(Z) + c), and the relative
    errors (primal, dual, gap, complementarity) the solver steers and
    accepts by.  ``a_flat`` holds A1..An as rows of length m*m."""
    m = a0.shape[0]
    rd = a0 + (x @ a_flat).reshape(m, m) - X
    rp = -(cv + a_flat @ Z.ravel())
    errors = (
        float(np.linalg.norm(rd)) / (1.0 + norm_a0),
        float(np.linalg.norm(rp)) / (1.0 + norm_c),
        abs(float(np.vdot(X, Z))) / (1.0 + abs(float(cv @ x))),
        float(np.linalg.norm(X @ Z)) / (1.0 + float(np.linalg.norm(X)) * float(np.linalg.norm(Z))),
    )
    return rd, rp, errors


def _nt_scaling(X: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Nesterov-Todd factor F (F F^T = W^-1 for W Z W = X) and Z^-1.

    None when X, the middle matrix X^1/2 Z X^1/2 or Z is numerically
    singular: the float floor is reached.
    """
    wx, vx = np.linalg.eigh(X)
    if wx[0] <= 0 or not np.isfinite(wx[-1]):
        return None
    wx = np.maximum(wx, 1e-30 * wx[-1])
    xh = (vx * np.sqrt(wx)) @ vx.T
    xih = (vx / np.sqrt(wx)) @ vx.T
    wg, vg = np.linalg.eigh(_sym(xh @ Z @ xh))
    if wg[0] <= 0 or not np.isfinite(wg[-1]):
        return None
    wg = np.maximum(wg, 1e-30 * wg[-1])
    wz, vz = np.linalg.eigh(Z)
    if wz[0] <= 0 or not np.isfinite(wz[-1]):
        return None
    wz = np.maximum(wz, 1e-30 * wz[-1])
    return (xih @ vg) * np.sqrt(np.sqrt(wg)), (vz / wz) @ vz.T


def _newton(
    a_flat: np.ndarray,
    schur: np.ndarray,
    winv: np.ndarray,
    wrw: np.ndarray,
    rd: np.ndarray,
    rp: np.ndarray,
    target: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direction for  Delta_X + W Delta_Z W = target  plus the two linear
    groups, reduced to the Schur system in Delta_x (``wrw`` = W^-1 rd W^-1)."""
    m = winv.shape[0]
    g_mat = _sym(winv @ target @ winv) - wrw
    dx = np.linalg.solve(schur, a_flat @ g_mat.ravel() - rp)
    adx = (dx @ a_flat).reshape(m, m)
    return dx, adx + rd, g_mat - _sym(winv @ adx @ winv)


def _sym_block_basis(q: np.ndarray) -> list[np.ndarray]:
    """Symmetric rank-one/two basis of the block spanned by columns of q."""
    k = q.shape[1]
    basis = []
    for a in range(k):
        for b in range(a, k):
            e = np.outer(q[:, a], q[:, b])
            basis.append(e + e.T if a != b else np.outer(q[:, a], q[:, a]))
    return basis


def _polish_once(
    a0: np.ndarray, a_flat: np.ndarray, cv: np.ndarray, X: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One crossover round at fixed optimal-face rank r.

    The split subspaces come from X alone: with exact primal feasibility
    the near-kernel of X locates the optimal face far more accurately than
    the dual iterate does.  (x, M) is refit by least squares against
    A0 + A(x) = Q1 M Q1^T, X is re-evaluated through the pencil (exact
    feasibility), and Z is refit inside the kernel block against
    A*(Z) + c = 0.  ``a_flat`` holds A1..An as rows of length m*m.
    """
    m = a0.shape[0]
    n = a_flat.shape[0]
    w, v = np.linalg.eigh(X)
    v = v[:, ::-1]  # descending eigenvalues
    q1, q2 = v[:, :r], v[:, r:]

    bas1 = _sym_block_basis(q1)
    lhs = np.column_stack([a_flat.T] + [-e.ravel() for e in bas1])
    sol_vec, *_ = np.linalg.lstsq(lhs, -a0.ravel(), rcond=None)
    x_new = sol_vec[:n]

    z_new = np.zeros((m, m))
    bas2 = _sym_block_basis(q2)
    if bas2:
        lhs2 = a_flat @ np.array(bas2).reshape(len(bas2), m * m).T
        n_vec, *_ = np.linalg.lstsq(lhs2, -cv, rcond=None)
        for coef, e in zip(n_vec, bas2):
            z_new += coef * e
    wq, vq = np.linalg.eigh(z_new)
    z_new = _sym((vq * np.maximum(wq, 0.0)) @ vq.T)  # clip stray negatives

    x_big = _sym(a0 + (x_new @ a_flat).reshape(m, m))
    if not (
        np.all(np.isfinite(x_new))
        and np.all(np.isfinite(x_big))
        and np.all(np.isfinite(z_new))
    ):
        return None
    return x_new, x_big, z_new


def _polish(
    a0: np.ndarray, a_flat: np.ndarray, cv: np.ndarray, X: np.ndarray, Z: np.ndarray, score
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Crossover refinement assuming strict complementarity.

    Tries the face ranks suggested by the spectra of X and of Z, iterating
    each three rounds (the refit x sharpens the kernel of A0 + A(x), which
    sharpens the next split).  ``score`` maps a triple to a scalar merit;
    the best refit seen is returned, or None if nothing finite came out.
    """
    m = a0.shape[0]
    wx = np.linalg.eigvalsh(X)
    wz = np.linalg.eigvalsh(Z)
    r_from_x = int(np.sum(wx > 1e-7 * max(wx[-1], 0.0))) if wx[-1] > 0 else 0
    r_from_z = m - int(np.sum(wz > 1e-7 * max(wz[-1], 0.0))) if wz[-1] > 0 else m
    best_triple = None
    best_score = np.inf
    for r in sorted({r_from_x, r_from_z}):
        cur = X
        for _ in range(3):
            out = _polish_once(a0, a_flat, cv, cur, r)
            if out is None:
                break
            val = score(out)
            if val < best_score:
                best_score = val
                best_triple = out
            cur = out[1]
    return best_triple


def solve_sdp(pencil: Pencil, c: Sequence[float], *, require_interior: bool = True) -> SdpSolution:
    """Solve max c^T x over the pencil's spectrahedron.

    ``require_interior`` enforces A0 positive definite (rejecting other
    inputs with :class:`NotInteriorError`); pass False to attempt a fully
    infeasible start, as the random-instance experiments do.  A solve that
    stalls before the target tolerance ``TOL`` still returns ``optimal`` if
    it cleared ``ACCEPT`` on feasibility and relative gap and 1e-6 on the
    relative Frobenius norm of X Z.
    """
    m, n = pencil.m, pencil.n
    cv = np.asarray(c, dtype=float)
    if cv.shape != (n,):
        raise ValueError(f"objective must have length {n}, got shape {cv.shape}")
    mats = pencil.mats
    a0 = mats[0]
    a_flat = np.array(mats[1:]).reshape(n, m * m)  # row i is A_{i+1}, raveled

    lam0 = float(np.linalg.eigvalsh(a0)[0])
    if require_interior and lam0 <= 0.0:
        raise NotInteriorError(
            f"A0 must be positive definite for an interior start (lambda_min = {lam0:.3e})"
        )

    norm_a0 = float(np.linalg.norm(a0))
    norm_c = float(np.linalg.norm(cv))
    scale0 = max(1.0, norm_a0, max(float(np.linalg.norm(a)) for a in mats))

    x = np.zeros(n)
    if lam0 > 0.0:
        X = a0.copy()  # primal-feasible start: residual stays zero throughout
    else:
        X = scale0 * np.eye(m)
    Z = max(1.0, norm_c) * np.eye(m)

    residuals = partial(_residuals, a0, a_flat, cv, norm_a0, norm_c)
    status = STATUS_FAILURE
    best = None  # (metric, x, X, Z)
    best_path = np.inf
    best_path_iter = None  # (x, X, Z) at the smallest path error
    stall = 0
    centering = False  # final phase: pure centering steps at frozen mu
    mu_fix = 0.0
    center_left = 0

    for it in range(1, MAX_ITER + 1):
        rd, rp, (feas_p, feas_d, rel_gap, rel_comp) = residuals(x, X, Z)
        path_err = max(feas_p, feas_d, rel_gap)
        metric = max(path_err, rel_comp)
        if best is None or metric < best[0] * 0.9999:
            best = (metric, x.copy(), X.copy(), Z.copy())
        if path_err < best_path * 0.9999:
            best_path = path_err
            best_path_iter = (x.copy(), X.copy(), Z.copy())
            stall = 0
        else:
            stall += 1

        on_target = feas_p <= TOL and feas_d <= TOL and rel_gap <= TOL
        if on_target and rel_comp <= 3e-8:
            status = STATUS_OPTIMAL
            break
        if not centering and (on_target or stall > 12):
            # the path phase has converged or bottomed out: either way the
            # iterate may be off-centre (X and Z misaligned, typically at a
            # curved optimal face), so finish with pure centering steps
            nt = None
        else:
            if centering:
                center_left -= 1
                if center_left < 0:
                    break
            xnorm = float(np.linalg.norm(x))
            znorm = float(np.linalg.norm(Z))
            if not np.isfinite(xnorm) or not np.isfinite(znorm):
                break
            if xnorm > DIVERGE_NORM:
                status = STATUS_UNBOUNDED if float(cv @ x) > 0 else STATUS_FAILURE
                break
            if znorm > DIVERGE_NORM * max(1.0, norm_c):
                status = STATUS_INFEASIBLE
                break
            nt = _nt_scaling(X, Z)
        if nt is None:
            # restart once from the best path iterate in pure-centering
            # mode, at the largest mu the acceptance gap allows: tiny mu
            # would leave the Newton system too ill-conditioned to centre
            if centering or best_path > 1e-6:
                break
            x, X, Z = (arr.copy() for arr in best_path_iter)
            mu_fix = max(
                float(np.vdot(X, Z)) / m, ACCEPT * (1.0 + abs(float(cv @ x))) / (3.0 * m), 1e-300
            )
            centering = True
            center_left = 16
            continue
        f_mat, zinv = nt
        winv = f_mat @ f_mat.T
        schur = _schur_gram(a_flat, f_mat)
        # tiny ridge keeps borderline-dependent pencils solvable
        schur[np.diag_indices(n)] += 1e-14 * max(1.0, float(np.trace(schur)) / max(n, 1))
        wrw = winv @ rd @ winv

        if centering:
            target_mu = mu_fix
            tau = 0.9
        else:
            mu = max(float(np.vdot(X, Z)) / m, 1e-300)
            try:
                # predictor: sigma = 0 target in  Delta_X + W Delta_Z W = -X
                dx_a, dX_a, dZ_a = _newton(a_flat, schur, winv, wrw, rd, rp, -X)
            except np.linalg.LinAlgError:
                break
            ap_a = _max_step(X, dX_a)
            ad_a = _max_step(Z, dZ_a)
            mu_aff = max(0.0, float(np.vdot(X + ap_a * dX_a, Z + ad_a * dZ_a)) / m)
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-12))
            # keep the gap from outrunning infeasibility: residuals shrink by
            # (1 - alpha) per step, so hold the path back while they lag
            if max(feas_p, feas_d) > max(0.1 * rel_gap, TOL):
                sigma = max(sigma, 0.5)
            target_mu = sigma * mu
            tau = 0.9 if path_err > 1e-4 else (0.98 if path_err > 1e-9 else 0.995)

        try:
            dx, dX, dZ = _newton(a_flat, schur, winv, wrw, rd, rp, target_mu * zinv - X)
        except np.linalg.LinAlgError:
            break

        alpha_p = min(1.0, tau * _max_step(X, dX))
        alpha_d = min(1.0, tau * _max_step(Z, dZ))
        if centering:
            alpha_p = alpha_d = min(alpha_p, alpha_d)
        x = x + alpha_p * dx
        X = _sym(X + alpha_p * dX)
        Z = _sym(Z + alpha_d * dZ)

    def score(triple: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
        return max(residuals(*triple)[2])

    if status not in (STATUS_UNBOUNDED, STATUS_INFEASIBLE):
        # pick the better of the last and the best-seen iterate, then try the
        # strict-complementarity crossover to zero out the product error
        x, X, Z = min([(x, X, Z), best[1:]], key=score)
        polished = _polish(a0, a_flat, cv, X, Z, score)
        if polished is not None and score(polished) < score((x, X, Z)):
            x, X, Z = polished
        feas_p, feas_d, rel_gap, rel_comp = residuals(x, X, Z)[2]
        if feas_p <= ACCEPT and feas_d <= ACCEPT and rel_gap <= ACCEPT and rel_comp <= 1e-6:
            status = STATUS_OPTIMAL
        else:
            status = STATUS_FAILURE

    rd = residuals(x, X, Z)[0]
    # the reported residual goes through the pencil's own adjoint, a route
    # apart from the stacked copy the iteration used
    rp = -(cv + adjoint(pencil, Z))
    gap = float(np.vdot(X, Z))
    value = float(cv @ x)
    spec_x = np.linalg.eigvalsh(X)[::-1].copy()
    spec_z = np.linalg.eigvalsh(Z)[::-1].copy()
    rank_x = rank_of(X)
    rank_z = rank_of(Z)

    ray = None
    if status == STATUS_UNBOUNDED:  # ||x|| > DIVERGE_NORM
        cand = x / float(np.linalg.norm(x))
        lam = float(np.linalg.eigvalsh((cand @ a_flat).reshape(m, m))[0])
        if lam >= -1e-6 * scale0 and float(cv @ cand) > 0:
            ray = cand
        else:
            status = STATUS_FAILURE

    return SdpSolution(
        x=x,
        X=X,
        Z=Z,
        value=value,
        status=status,
        rank_X=rank_x,
        rank_Z=rank_z,
        residuals=(float(np.linalg.norm(rd)), float(np.linalg.norm(rp)), gap),
        spectrum_X=spec_x,
        spectrum_Z=spec_z,
        iterations=it,
        rank_uncertain=_uncertain(spec_x, rank_x) or _uncertain(spec_z, rank_z),
        ray=ray,
    )


def support_value(pencil: Pencil, direction: np.ndarray) -> SdpSolution:
    """Support problem max <direction, pi(x)> over the spectrahedron.

    Directions live in the image space when the pencil carries a
    projection; they are pulled back through the adjoint before solving.
    """
    c = pencil.lift_direction(np.asarray(direction, dtype=float))
    return solve_sdp(pencil, c)
