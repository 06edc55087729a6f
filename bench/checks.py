"""Checks of psdbound outputs that do not trust psdbound.

Every function here recomputes what it needs with its own numpy or exact
integer code and returns a list of problems; an empty list means the output
passed.  Nothing in this file imports psdbound, so a fault in the program
cannot hide a fault in its own checker.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

# -- shapes --------------------------------------------------------------


def tri(m: int) -> int:
    return m * (m + 1) // 2


def pataki_ranks(m: int, n: int) -> list[int]:
    """Ranks r in [0, m] with n >= t_{m-r} and t_r <= t_m - n."""
    return [r for r in range(m + 1) if n >= tri(m - r) and tri(r) <= tri(m) - n]


# -- exact degrees -------------------------------------------------------


def _det(rows: list[list[Fraction]]) -> Fraction:
    a = [row[:] for row in rows]
    k = len(a)
    det = Fraction(1)
    for col in range(k):
        piv = next((i for i in range(col, k) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, k):
            f = a[i][col] / a[col][col]
            if f:
                for j in range(col, k):
                    a[i][j] -= f * a[col][j]
    return det


def psi_minor_sum(elems: tuple[int, ...]) -> int:
    """Sum of the maximal minors of the Pascal rows e-1, e in elems."""
    if not elems:
        return 1
    rows = [e - 1 for e in elems]
    total = Fraction(0)
    for cols in combinations(range(rows[-1] + 1), len(rows)):
        total += _det([[Fraction(math.comb(r, c)) for c in cols] for r in rows])
    return int(total)


def delta_minor_sum(n: int, m: int, r: int) -> int:
    """delta(n, m, r) from its definition: sum of psi(I) psi(I^c) over
    subsets I of {1..m} with |I| = m - r and element sum n."""
    full = range(1, m + 1)
    total = 0
    for sub in combinations(full, m - r):
        if sum(sub) == n:
            comp = tuple(i for i in full if i not in sub)
            total += psi_minor_sum(sub) * psi_minor_sum(comp)
    return total


def harris_tu(m: int, r: int) -> int:
    """Degree of the m x m symmetric matrices of rank <= r (Harris-Tu):
    prod over a < m - r of C(m + a, m - r - a) / C(2a + 1, a)."""
    val = Fraction(1)
    for a in range(m - r):
        val *= Fraction(math.comb(m + a, m - r - a), math.comb(2 * a + 1, a))
    if val.denominator != 1:
        raise ArithmeticError(f"Harris-Tu product for ({m}, {r}) is not an integer")
    return int(val)


def check_degree_table(m: int, table: dict[int, dict[int, int]]) -> list[str]:
    """``table[n][r] = delta(n, m, r)`` for every n in 1..t_m.

    Checks the rank set of every row, the duality
    delta(n, m, r) = delta(t_m - n, m, m - r), and the Harris-Tu value at
    the bottom of every rank's range, n = t_{m-r}.
    """
    problems = []
    tm = tri(m)
    for n in range(1, tm + 1):
        want = [r for r in pataki_ranks(m, n) if 1 <= r <= m]
        if sorted(table.get(n, {})) != want:
            problems.append(f"row n={n}: ranks {sorted(table.get(n, {}))}, expected {want}")
    for n, row in table.items():
        for r, d in row.items():
            if tm - n >= 1:
                partner = table.get(tm - n, {}).get(m - r)
                if partner != d:
                    problems.append(f"delta({n},{m},{r}) = {d} but delta({tm - n},{m},{m - r}) = {partner}")
    for r in range(1, m):
        got = table.get(tri(m - r), {}).get(r)
        want = harris_tu(m, r)
        if got != want:
            problems.append(f"delta({tri(m - r)},{m},{r}) = {got}, Harris-Tu gives {want}")
    return problems


# -- pentagon fit --------------------------------------------------------


def pentagon_edge_points(per_edge: int = 5) -> np.ndarray:
    """Points on the lines <p, v_k> = 1, v_k = (cos 2 pi k/5, sin 2 pi k/5),
    spread over each edge of the polar pentagon."""
    half = math.tan(math.pi / 5)
    pts = []
    for k in range(5):
        ang = 2 * math.pi * k / 5
        v = np.array([math.cos(ang), math.sin(ang)])
        w = np.array([-v[1], v[0]])
        for t in np.linspace(-0.9, 0.9, per_edge):
            pts.append(v + t * half * w)
    return np.array(pts)


def eval_poly(monomials: list[list[int]], coeffs: list[float], pts: np.ndarray) -> np.ndarray:
    exps = np.asarray(monomials, dtype=float)
    vals = np.prod(np.asarray(pts, dtype=float)[:, None, :] ** exps[None, :, :], axis=2)
    return vals @ np.asarray(coeffs, dtype=float)


PENTAGON_TOL = 1e-6  # |f| on the edges, relative to |f(0)|


def check_pentagon(pipeline: dict) -> list[str]:
    """A ``pipeline`` document from ``psdbound pentagon``."""
    problems = []
    if pipeline.get("d_est") != 5:
        problems.append(f"fitted degree {pipeline.get('d_est')}, expected 5")
    if not pipeline.get("conclusive"):
        problems.append("fit is not conclusive")
    if pipeline.get("psd_bound_ceil") != 2:
        problems.append(f"bound ceiling {pipeline.get('psd_bound_ceil')}, expected 2")
    report = pipeline.get("report", {})
    monos, coeffs = report.get("fitted_monomials"), report.get("fitted_coefficients")
    if not monos or not coeffs:
        return problems + ["no fitted polynomial"]
    at_origin = abs(float(eval_poly(monos, coeffs, np.zeros((1, 2)))[0]))
    if not at_origin > 1e-3 * float(np.sum(np.abs(coeffs))):
        problems.append(f"fitted polynomial nearly vanishes at the origin ({at_origin:.3e})")
        return problems
    on_edges = float(np.max(np.abs(eval_poly(monos, coeffs, pentagon_edge_points()))))
    if on_edges > PENTAGON_TOL * at_origin:
        problems.append(f"fitted polynomial is {on_edges:.3e} on the polar edges, |f(0)| = {at_origin:.3e}")
    return problems


# -- SDP certificates ----------------------------------------------------

ACCEPT = 1e-7  # the solver's documented acceptance tolerance


def check_sdp_optimal(mats, c, x, X, Z) -> list[str]:
    """An ``optimal`` solve of max c^T x s.t. A0 + sum x_i A_i psd.

    Recomputes the slack and the dual residual, checks X and Z are positive
    semidefinite, and that c^T x matches <A0, Z> within the acceptance gap
    plus what the accepted residuals can contribute.
    """
    a = np.asarray(mats, dtype=float)
    c, x = np.asarray(c, dtype=float), np.asarray(x, dtype=float)
    X, Z = np.asarray(X, dtype=float), np.asarray(Z, dtype=float)
    problems = []
    a0, rest = a[0], a[1:]
    slack = a0 + np.tensordot(x, rest, axes=1)
    norm_a0, norm_c = float(np.linalg.norm(a0)), float(np.linalg.norm(c))
    feas_p = float(np.linalg.norm(slack - X)) / (1 + norm_a0)
    feas_d = float(np.linalg.norm(np.tensordot(rest, Z, axes=([1, 2], [0, 1])) + c)) / (1 + norm_c)
    if feas_p > ACCEPT:
        problems.append(f"X differs from A0 + A(x) by {feas_p:.2e} (relative)")
    if feas_d > ACCEPT:
        problems.append(f"A*(Z) + c = {feas_d:.2e} (relative)")
    for name, mat in (("X", slack), ("Z", Z)):
        w = np.linalg.eigvalsh((mat + mat.T) / 2)
        if w[0] < -ACCEPT * max(1.0, float(w[-1])):
            problems.append(f"{name} has eigenvalue {w[0]:.3e}")
    primal, dual = float(c @ x), float(np.vdot(a0, Z))
    allowed = ACCEPT * (
        (1 + abs(primal))
        + float(np.linalg.norm(x)) * (1 + norm_c)
        + float(np.linalg.norm(Z)) * (1 + norm_a0)
    )
    if abs(primal - dual) > allowed:
        problems.append(f"c^T x = {primal!r} but <A0, Z> = {dual!r}")
    return problems


def check_ray(mats, c, ray) -> list[str]:
    """An ``unbounded`` certificate: A(ray) psd and c^T ray > 0."""
    a = np.asarray(mats, dtype=float)
    ray = np.asarray(ray, dtype=float)
    direction = np.tensordot(ray, a[1:], axes=1)
    scale = max(1.0, max(float(np.linalg.norm(m)) for m in a))
    problems = []
    lam = float(np.linalg.eigvalsh((direction + direction.T) / 2)[0])
    if lam < -1e-6 * scale:
        problems.append(f"A(ray) has eigenvalue {lam:.3e}")
    if not float(np.asarray(c, dtype=float) @ ray) > 0:
        problems.append("c^T ray <= 0")
    return problems


# -- KKT systems ---------------------------------------------------------


def integer_kkt_point(rng: np.random.Generator, m: int, n: int, r: int):
    """An integer pencil with an integer KKT point of rank r.

    X = K D K^T and Z = B B^T with B = [C; I], K = [I; -C^T], so K^T B = 0,
    X Z = 0, rank X = r and rank Z = m - r.  The last diagonal entry of Z is
    1, which lets A1 be adjusted so that c^T x = 1 exactly.  Returns the
    pencil matrices A0..An (integer lists) and the assignment of every
    variable x_i, X_i_j, Z_i_j, c_i as Python ints.
    """
    cmat = rng.integers(-2, 3, size=(r, m - r))
    b = np.vstack([cmat, np.eye(m - r, dtype=np.int64)])
    k = np.vstack([np.eye(r, dtype=np.int64), -cmat.T])
    X = k @ np.diag(rng.integers(1, 4, size=r)) @ k.T
    Z = b @ b.T
    mats = []
    for _ in range(n):
        g = rng.integers(-3, 4, size=(m, m))
        mats.append(np.triu(g) + np.triu(g, 1).T)
    x = np.concatenate([[1], rng.integers(-2, 3, size=n - 1)])
    c = np.array([-int(np.sum(a * Z)) for a in mats])
    c[0] = 1 - int(c[1:] @ x[1:])
    mats[0][m - 1, m - 1] += -c[0] - int(np.sum(mats[0] * Z))
    a0 = X - sum(int(xi) * a for xi, a in zip(x, mats))
    point = {f"x{i + 1}": int(v) for i, v in enumerate(x)}
    point.update({f"c{i + 1}": int(v) for i, v in enumerate(c)})
    for i in range(m):
        for j in range(i, m):
            point[f"X_{i + 1}_{j + 1}"] = int(X[i, j])
            point[f"Z_{i + 1}_{j + 1}"] = int(Z[i, j])
    return [a0.tolist()] + [a.tolist() for a in mats], point


def eval_system(variables, equations, point: dict) -> list[Fraction]:
    """Exact value of every equation (a {monomial: coeff} map) at the point."""
    vals = [point[name] for name in variables]
    out = []
    for eq in equations:
        acc = Fraction(0)
        for mono, coeff in eq.items():
            term = Fraction(coeff)
            for var, exp in mono:
                term *= vals[var] ** exp
            acc += term
        out.append(acc)
    return out


def kkt_equation_counts(m: int, n: int, r: int) -> set[int]:
    """t_m + n + m^2 + 1 plus the rank-(r+1) X minors and rank-(m-r+1) Z
    minors, counted either over all row/column pairs or once per unordered
    pair (X and Z are symmetric, so minor(R, C) = minor(C, R))."""
    base = tri(m) + n + m * m + 1
    nx, nz = math.comb(m, r + 1), math.comb(m, m - r + 1)
    return {base + nx * nx + nz * nz, base + tri(nx) + tri(nz)}


def check_kkt_system(system, m: int, n: int, r: int, point: dict) -> list[str]:
    """A parsed rank-variant system: its size, an exact zero at the KKT
    point and a nonzero value once X_1_1 moves by one."""
    problems = []
    if len(system.equations) not in kkt_equation_counts(m, n, r):
        problems.append(f"{len(system.equations)} equations, expected one of {sorted(kkt_equation_counts(m, n, r))}")
    missing = [v for v in system.variables if v not in point]
    if missing:
        return problems + [f"unknown variables {missing[:3]}"]
    if any(eval_system(system.variables, system.equations, point)):
        problems.append("system does not vanish at the constructed KKT point")
    moved = dict(point, X_1_1=point["X_1_1"] + 1)
    if not any(eval_system(system.variables, system.equations, moved)):
        problems.append("system still vanishes after moving X_1_1")
    return problems
