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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .pencil import Pencil, adjoint

RANK_EPS = 1e-6
RANK_GAP_FLAG = 100.0  # flag leading/trailing eigenvalue ratios below this

_TRACE = False  # per-iteration convergence printout, for debugging

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


def rank_of(mat: np.ndarray, scale: float = 0.0, eps: float = RANK_EPS) -> int:
    """Numerical rank: eigenvalues above eps * max(scale, lambda_max).

    With the default scale 0 the threshold is relative to the matrix's own
    top eigenvalue; pass an external scale to make near-zero matrices rank 0.
    """
    w = np.linalg.eigvalsh(np.asarray(mat, dtype=float))
    top = float(w[-1]) if w.size else 0.0
    thr = eps * max(scale, top)
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
    a0: np.ndarray,
    a_flat: np.ndarray,
    cv: np.ndarray,
    x: np.ndarray,
    X: np.ndarray,
    Z: np.ndarray,
    score,
    rounds: int = 3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Crossover refinement assuming strict complementarity.

    Tries the face ranks suggested by the spectra of X and of Z, iterating
    each a few rounds (the refit x sharpens the kernel of A0 + A(x), which
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
        for _ in range(rounds):
            out = _polish_once(a0, a_flat, cv, cur, r)
            if out is None:
                break
            val = score(out)
            if val < best_score:
                best_score = val
                best_triple = out
            cur = out[1]
    return best_triple


def solve_sdp(
    pencil: Pencil,
    c: Sequence[float],
    *,
    require_interior: bool = True,
    tol_gap: float = 1e-10,
    tol_feas: float = 1e-10,
    accept_gap: float = 1e-7,
    accept_feas: float = 1e-7,
    max_iter: int = 100,
    diverge_norm: float = 1e8,
) -> SdpSolution:
    """Solve max c^T x over the pencil's spectrahedron.

    ``require_interior`` enforces A0 positive definite (rejecting other
    inputs with :class:`NotInteriorError`); pass False to attempt a fully
    infeasible start, as the random-instance experiments do.  A solve that
    stalls before the target tolerances still returns ``optimal`` if it
    cleared the acceptance tolerances (1e-7 relative gap, 1e-6 on the
    Frobenius norm of X Z).
    """
    m, n = pencil.m, pencil.n
    cv = np.asarray(c, dtype=float)
    if cv.shape != (n,):
        raise ValueError(f"objective must have length {n}, got shape {cv.shape}")
    mats = pencil.mats
    a0 = mats[0]
    a_flat = np.array(mats[1:]).reshape(n, m * m)  # row i is A_{i+1}, raveled

    lam0 = float(np.linalg.eigvalsh(a0)[0]) if m else 0.0
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

    def apply_a(v: np.ndarray) -> np.ndarray:
        return (v @ a_flat).reshape(m, m)

    def comp_norm(xm: np.ndarray, zm: np.ndarray) -> float:
        return float(np.linalg.norm(xm @ zm)) / (
            1.0 + float(np.linalg.norm(xm)) * float(np.linalg.norm(zm))
        )

    status = STATUS_FAILURE
    best = None  # (metric, x, X, Z)
    best_path = np.inf
    best_path_iter = None  # (x, X, Z) at the smallest path error
    stall = 0
    it = 0
    centering = False  # final phase: pure centering steps at frozen mu
    mu_fix = 0.0
    center_left = 0

    def try_recentre() -> bool:
        """Restart from the best iterate in pure-centering mode.

        Invoked when the path phase bottoms out (stall or a numerically
        singular iterate).  Centering at the largest mu the acceptance gap
        allows re-aligns X and Z; tiny mu would leave the Newton system too
        ill-conditioned to centre at all.
        """
        nonlocal centering, mu_fix, center_left, x, X, Z
        if centering or best_path_iter is None or best_path > 1e-6:
            return False
        x, X, Z = (arr.copy() for arr in best_path_iter)
        gap_b = float(np.vdot(X, Z))
        val_b = float(cv @ x)
        mu_fix = max(gap_b / m, accept_gap * (1.0 + abs(val_b)) / (3.0 * m), 1e-300)
        centering = True
        center_left = 16
        return True

    for it in range(1, max_iter + 1):
        rd = a0 + apply_a(x) - X
        rp = -(cv + a_flat @ Z.ravel())
        gap = float(np.vdot(X, Z))
        value = float(cv @ x)
        feas_p = float(np.linalg.norm(rd)) / (1.0 + norm_a0)
        feas_d = float(np.linalg.norm(rp)) / (1.0 + norm_c)
        rel_gap = abs(gap) / (1.0 + abs(value))
        rel_comp = comp_norm(X, Z)

        path_err = max(feas_p, feas_d, rel_gap)
        metric = max(path_err, rel_comp)
        if _TRACE:  # pragma: no cover - debugging aid
            print(
                f"    it{it:3d} fp={feas_p:.1e} fd={feas_d:.1e} rg={rel_gap:.1e} "
                f"rc={rel_comp:.1e} stall={stall} centering={centering}"
            )
        if best is None or metric < best[0] * 0.9999:
            best = (metric, x.copy(), X.copy(), Z.copy())
        if path_err < best_path * 0.9999:
            best_path = path_err
            best_path_iter = (x.copy(), X.copy(), Z.copy())
            stall = 0
        else:
            stall += 1

        on_target = feas_p <= tol_feas and feas_d <= tol_feas and rel_gap <= tol_gap
        if on_target and rel_comp <= 3e-8:
            status = STATUS_OPTIMAL
            break
        if not centering and (on_target or stall > 12):
            # the path phase has converged or bottomed out: either way the
            # iterate may be off-centre (X and Z misaligned, typically at a
            # curved optimal face), so finish with pure centering steps
            if try_recentre():
                continue  # recompute residuals from the restored iterate
            break
        if centering:
            center_left -= 1
            if center_left < 0:
                break

        xnorm = float(np.linalg.norm(x))
        znorm = float(np.linalg.norm(Z))
        if not np.isfinite(xnorm) or not np.isfinite(znorm):
            break
        if xnorm > diverge_norm:
            status = STATUS_UNBOUNDED if value > 0 else STATUS_FAILURE
            break
        if znorm > diverge_norm * max(1.0, norm_c):
            status = STATUS_INFEASIBLE
            break

        mu = max(gap / m, 1e-300)

        # Nesterov-Todd scaling point: W Z W = X.  A numerically singular
        # iterate means the float floor is reached: recentre or stop.
        wx, vx = np.linalg.eigh(X)
        if wx[0] <= 0 or not np.isfinite(wx[-1]):
            if try_recentre():
                continue
            break
        wx = np.maximum(wx, 1e-30 * wx[-1])
        xh = (vx * np.sqrt(wx)) @ vx.T
        xih = (vx / np.sqrt(wx)) @ vx.T
        g_mid = _sym(xh @ Z @ xh)
        wg, vg = np.linalg.eigh(g_mid)
        if wg[0] <= 0 or not np.isfinite(wg[-1]):
            if try_recentre():
                continue
            break
        wg = np.maximum(wg, 1e-30 * wg[-1])
        f_mat = (xih @ vg) * np.sqrt(np.sqrt(wg))  # F F^T = W^{-1}
        winv = f_mat @ f_mat.T

        schur = _schur_gram(a_flat, f_mat)
        # tiny ridge keeps borderline-dependent pencils solvable
        schur[np.diag_indices(n)] += 1e-14 * max(1.0, float(np.trace(schur)) / max(n, 1))

        wrw = winv @ rd @ winv

        def solve_newton(target: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # direction for  Delta_X + W Delta_Z W = target,  plus the two
            # linear groups; reduces to the Schur system in Delta_x
            g_mat = _sym(winv @ target @ winv) - wrw
            rhs = a_flat @ g_mat.ravel() - rp
            dx = np.linalg.solve(schur, rhs)
            adx = apply_a(dx)
            d_big = adx + rd
            d_dual = g_mat - _sym(winv @ adx @ winv)
            return dx, d_big, d_dual

        wz, vz = np.linalg.eigh(Z)
        if wz[0] <= 0 or not np.isfinite(wz[-1]):
            if try_recentre():
                continue
            break
        wz = np.maximum(wz, 1e-30 * wz[-1])
        zinv = (vz / wz) @ vz.T

        if centering:
            target_mu = mu_fix
            tau = 0.9
        else:
            try:
                # predictor: sigma = 0 target in  Delta_X + W Delta_Z W = -X
                dx_a, dX_a, dZ_a = solve_newton(-X)
            except np.linalg.LinAlgError:
                break
            ap_a = _max_step(X, dX_a)
            ad_a = _max_step(Z, dZ_a)
            mu_aff = max(0.0, float(np.vdot(X + ap_a * dX_a, Z + ad_a * dZ_a)) / m)
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-12))
            # keep the gap from outrunning infeasibility: residuals shrink by
            # (1 - alpha) per step, so hold the path back while they lag
            if max(feas_p, feas_d) > max(0.1 * rel_gap, tol_feas):
                sigma = max(sigma, 0.5)
            target_mu = sigma * mu
            rel_err = max(feas_p, feas_d, rel_gap)
            tau = 0.9 if rel_err > 1e-4 else (0.98 if rel_err > 1e-9 else 0.995)

        try:
            dx, dX, dZ = solve_newton(target_mu * zinv - X)
        except np.linalg.LinAlgError:
            break

        alpha_p = min(1.0, tau * _max_step(X, dX))
        alpha_d = min(1.0, tau * _max_step(Z, dZ))
        if centering:
            alpha_p = alpha_d = min(alpha_p, alpha_d)
        x = x + alpha_p * dx
        X = _sym(X + alpha_p * dX)
        Z = _sym(Z + alpha_d * dZ)

    def metrics(px: np.ndarray, pX: np.ndarray, pZ: np.ndarray) -> tuple[float, float, float, float]:
        frd = float(np.linalg.norm(a0 + apply_a(px) - pX)) / (1.0 + norm_a0)
        frp = float(np.linalg.norm(cv + a_flat @ pZ.ravel())) / (1.0 + norm_c)
        g = float(np.vdot(pX, pZ))
        rg = abs(g) / (1.0 + abs(float(cv @ px)))
        return frd, frp, rg, comp_norm(pX, pZ)

    if status not in (STATUS_UNBOUNDED, STATUS_INFEASIBLE):
        # pick the better of the last and the best-seen iterate, then try the
        # strict-complementarity crossover to zero out the product error
        candidates = [(x, X, Z)]
        if best is not None:
            candidates.append((best[1], best[2], best[3]))
        scored = [(max(metrics(*cand)), cand) for cand in candidates]
        scored.sort(key=lambda pair: pair[0])
        cur_score, (x, X, Z) = scored[0]
        polished = _polish(a0, a_flat, cv, x, X, Z, score=lambda t: max(metrics(*t)))
        if polished is not None and max(metrics(*polished)) < cur_score:
            x, X, Z = polished
        feas_p, feas_d, rel_gap, rel_comp = metrics(x, X, Z)
        if (
            feas_p <= accept_feas
            and feas_d <= accept_feas
            and rel_gap <= accept_gap
            and rel_comp <= 1e-6
        ):
            status = STATUS_OPTIMAL
        else:
            status = STATUS_FAILURE

    rd = a0 + apply_a(x) - X
    # the reported residual goes through the pencil's own adjoint, a route
    # apart from the stacked copy the iteration used
    rp = -(cv + adjoint(pencil, Z))
    gap = float(np.vdot(X, Z))
    value = float(cv @ x)
    spec_x = np.linalg.eigvalsh(X)[::-1].copy()
    spec_z = np.linalg.eigvalsh(Z)[::-1].copy()
    rank_x = rank_of(X)
    rank_z = rank_of(Z)

    def uncertain(spec: np.ndarray, rank: int) -> bool:
        if rank == 0 or rank >= spec.size:
            return False
        lo = abs(float(spec[rank]))
        hi = abs(float(spec[rank - 1]))
        return lo > 0 and hi / lo < RANK_GAP_FLAG

    ray = None
    if status == STATUS_UNBOUNDED:
        xnorm = float(np.linalg.norm(x))
        if xnorm > 0:
            cand = x / xnorm
            lam = float(np.linalg.eigvalsh(apply_a(cand))[0])
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
        rank_uncertain=uncertain(spec_x, rank_x) or uncertain(spec_z, rank_z),
        ray=ray,
    )


def support_value(pencil: Pencil, direction: np.ndarray, **kwargs) -> SdpSolution:
    """Support problem max <direction, pi(x)> over the spectrahedron.

    Directions live in the image space when the pencil carries a
    projection; they are pulled back through the adjoint before solving.
    """
    c = pencil.lift_direction(np.asarray(direction, dtype=float))
    return solve_sdp(pencil, c, **kwargs)
