"""Construction, evaluation, and export of KKT polynomial systems.

For the problem  max c^T x  over  {x : A0 + x1*A1 + ... + xn*An psd},
first-order optimality after dropping the sign constraints is the
polynomial system in (x, X, Z)

    X = A0 + A(x)          (t_m linear equations)
    A*(Z) + c = 0          (n linear equations)
    X Z = 0                (m*m bilinear equations, not symmetric)

with X and Z parameterized by their t_m = m(m+1)/2 upper-triangular
entries, so the system has n + 2 t_m unknowns and n + t_m + m^2 equations
and Bezout product 2**(m*m).  Variants:

* ``normalized``: c becomes symbolic (n extra unknowns) and the bilinear
  normalization c^T x = 1 is appended; solutions project onto the
  boundary-of-polar variety in the c coordinates.
* ``rank``: additionally forces rank(X) <= r and rank(Z) <= m - r by
  appending the (r+1) and (m-r+1)-sized minors of X and Z, each once per
  unordered pair of row and column sets (minor(R, C) = minor(C, R) for
  symmetric matrices).

The variable order x1..xn, X_i_j, Z_i_j (i <= j, row by row), c1..cn is
decided in one place, :func:`_layout`; the builders, the rank minors,
:func:`assignment_from_solution` and both parsers read it from there.  The
parsers work out n, m and the Bezout product from the variables and
equations and reject a file that states other values.

Coefficients are exact rationals (floats enter via their shortest decimal
representation), so residual evaluation at rational points is exact and
exports round-trip losslessly.  Solving the systems is out of scope here;
they are exported for external algebraic solvers.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations
from typing import Mapping, Sequence

import numpy as np

from .bounds import pataki_range
from .pencil import Pencil
from .sdp import SdpSolution

# a polynomial is a map {monomial: coefficient}; a monomial is a sorted
# tuple of (variable_index, positive_exponent) pairs; () is the constant
Monomial = tuple[tuple[int, int], ...]
Polynomial = dict[Monomial, Fraction]

VARIANT_PLAIN = "plain"
VARIANT_NORMALIZED = "normalized"
VARIANT_RANK = "rank"


class PatakiViolationError(ValueError):
    """Requested rank lies outside the Pataki range for this shape."""


def to_fraction(value) -> Fraction:
    """Exact rational from ints, Fractions, or floats (shortest decimal)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        return Fraction(Decimal(repr(float(value))))
    raise TypeError(f"cannot convert {type(value).__name__} to an exact rational")


@dataclass(frozen=True)
class SystemInfo:
    """Shape metadata and the Bezout degree product of a system."""

    n: int
    m: int
    variant: str
    bezout_product: int
    rank: int | None = None
    minor_counts: tuple[int, int] | None = None  # (#X minors, #Z minors)


@dataclass(frozen=True)
class PolySystem:
    variables: tuple[str, ...]
    equations: tuple[Polynomial, ...]
    metadata: SystemInfo

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_equations(self) -> int:
        return len(self.equations)

    def degrees(self) -> list[int]:
        return [poly_degree(eq) for eq in self.equations]


def poly_degree(poly: Polynomial) -> int:
    if not poly:
        return 0
    return max(sum(e for _, e in mono) for mono in poly)


def _bezout(equations: Sequence[Polynomial]) -> int:
    """Bezout degree product, constant equations counting as degree 1."""
    return math.prod(max(poly_degree(eq), 1) for eq in equations)


def _poly_add_term(poly: Polynomial, mono: Monomial, coeff: Fraction) -> None:
    if not coeff:
        return
    acc = poly.get(mono)
    if acc is None:
        poly[mono] = coeff
    else:
        acc = acc + coeff
        if acc:
            poly[mono] = acc
        else:
            del poly[mono]


def _layout(
    m: int, n: int, symbolic_c: bool
) -> tuple[tuple[str, ...], list[list[int]], list[list[int]]]:
    """The variable order of every system: x1..xn, the upper triangle of X
    row by row (X_i_j, i <= j), the same for Z, then c1..cn, the last n
    names, when c is symbolic.  Returns the names and the symmetric m x m
    tables of 0-based variable indices of X and Z."""
    t = m * (m + 1) // 2
    iu, ju = np.triu_indices(m)
    big_x = np.empty((m, m), dtype=int)
    big_x[iu, ju] = big_x[ju, iu] = n + np.arange(t)
    names = [f"x{k + 1}" for k in range(n)]
    names += [f"{sym}_{i + 1}_{j + 1}" for sym in "XZ" for i, j in zip(iu.tolist(), ju.tolist())]
    if symbolic_c:
        names += [f"c{k + 1}" for k in range(n)]
    return tuple(names), big_x.tolist(), (big_x + t).tolist()


def build_kkt(pencil: Pencil, c: Sequence[float] | None) -> PolySystem:
    """The first-order optimality system for the pencil and objective c.

    Pass ``c=None`` for a symbolic objective (adds n unknowns c1..cn but no
    normalization; see :func:`build_kkt_normalized` for the bounded-polar
    variant).  The complementarity block X Z = 0 is expanded to all m*m
    entries; with the upper-triangular X, Z parameterization the counts are
    n + 2 t_m unknowns (plus n if symbolic) and n + t_m + m^2 equations.
    """
    m, n = pencil.m, pencil.n
    symbolic = c is None
    if not symbolic:
        cv = list(c)
        if len(cv) != n:
            raise ValueError(f"objective must have length {n}, got {len(cv)}")
    names, big_x, big_z = _layout(m, n, symbolic)
    mats = [[[to_fraction(a[i, j]) for j in range(m)] for i in range(m)] for a in pencil.mats]

    equations: list[Polynomial] = []

    # pencil block: X_ij - sum_k x_k (A_k)_ij = (A0)_ij
    for i in range(m):
        for j in range(i, m):
            poly: Polynomial = {}
            _poly_add_term(poly, ((big_x[i][j], 1),), Fraction(1))
            for k in range(n):
                _poly_add_term(poly, ((k, 1),), -mats[k + 1][i][j])
            _poly_add_term(poly, (), -mats[0][i][j])
            equations.append(poly)

    # adjoint block: trace(A_k Z) + c_k = 0
    for k in range(n):
        poly = {}
        for i in range(m):
            for j in range(i, m):
                w = Fraction(1) if i == j else Fraction(2)
                _poly_add_term(poly, ((big_z[i][j], 1),), w * mats[k + 1][i][j])
        if symbolic:
            _poly_add_term(poly, ((len(names) - n + k, 1),), Fraction(1))
        else:
            _poly_add_term(poly, (), to_fraction(cv[k]))
        equations.append(poly)

    # complementarity block: all m*m entries of X Z; every X index is below
    # every Z index, so each product is already an ordered monomial
    for i in range(m):
        for j in range(m):
            poly = {}
            for l in range(m):
                _poly_add_term(poly, ((big_x[i][l], 1), (big_z[l][j], 1)), Fraction(1))
            equations.append(poly)

    info = SystemInfo(n=n, m=m, variant=VARIANT_PLAIN, bezout_product=_bezout(equations))
    return PolySystem(variables=names, equations=tuple(equations), metadata=info)


def build_kkt_normalized(pencil: Pencil) -> PolySystem:
    """Symbolic-c system plus the normalization c^T x = 1.

    Its solutions, projected on c, cover the boundary of the polar of the
    pencil's spectrahedron.
    """
    base = build_kkt(pencil, None)
    n = pencil.n
    first_c = base.num_variables - n  # c1..cn are the last n names of the layout
    norm_poly: Polynomial = {}
    for k in range(n):
        _poly_add_term(norm_poly, ((k, 1), (first_c + k, 1)), Fraction(1))
    _poly_add_term(norm_poly, (), Fraction(-1))
    equations = base.equations + (norm_poly,)
    info = replace(base.metadata, variant=VARIANT_NORMALIZED, bezout_product=_bezout(equations))
    return PolySystem(variables=base.variables, equations=equations, metadata=info)


def build_kkt_rank(pencil: Pencil, r: int, *, force: bool = False) -> PolySystem:
    """Rank-constrained variant: rank(X) <= r and rank(Z) <= m - r.

    Appends the (r+1) x (r+1) minors of X and the (m-r+1) x (m-r+1) minors
    of Z to the normalized system.  X and Z are symmetric, so minor(R, C)
    equals minor(C, R) and each minor appears once per unordered pair of
    row and column sets: ``minor_counts`` is (t(C(m, r+1)), t(C(m, m-r+1)))
    with t the triangular number.  Ranks outside [0, m] raise ValueError;
    ranks outside the Pataki range raise :class:`PatakiViolationError`
    unless ``force`` is set (the system is still well defined, it just cuts
    out an atypical locus).
    """
    m, n = pencil.m, pencil.n
    if not 0 <= r <= m:
        raise ValueError(f"rank {r} outside [0, {m}]")
    rng = pataki_range(m, n)
    if r not in rng.ranks and not force:
        raise PatakiViolationError(
            f"rank {r} outside the Pataki range {list(rng.ranks)} for (m, n) = ({m}, {n})"
        )
    base = build_kkt_normalized(pencil)
    _, big_x, big_z = _layout(m, n, True)

    def minors(table: list[list[int]], size: int) -> list[Polynomial]:
        # Leibniz sum, one signed monomial per permutation; lexicographic order
        # gives the term order of a first-row cofactor expansion
        perms = [
            (p, Fraction(-1) if sum(a > b for a, b in combinations(p, 2)) % 2 else Fraction(1))
            for p in permutations(range(size))
        ]
        sets = list(combinations(range(m), size))
        out = []
        for k, rows in enumerate(sets):
            for cols in sets[k:]:
                var = [[table[i][j] for j in cols] for i in rows]
                poly: Polynomial = {}
                for p, sign in perms:
                    exps: dict[int, int] = {}
                    for i, j in enumerate(p):
                        exps[var[i][j]] = exps.get(var[i][j], 0) + 1
                    _poly_add_term(poly, tuple(sorted(exps.items())), sign)
                out.append(poly)
        return out

    x_minors = minors(big_x, r + 1)
    z_minors = minors(big_z, m - r + 1)
    equations = base.equations + tuple(x_minors) + tuple(z_minors)
    info = replace(
        base.metadata,
        variant=VARIANT_RANK,
        bezout_product=_bezout(equations),
        rank=r,
        minor_counts=(len(x_minors), len(z_minors)),
    )
    return PolySystem(variables=base.variables, equations=equations, metadata=info)


def residual(system: PolySystem, assignment: Mapping[str, object]) -> tuple[object, list]:
    """Evaluate every equation at the assignment.

    Returns (max absolute residual, list of per-equation residuals).  The
    arithmetic follows the value types: exact inputs (int, Fraction) give
    exact residuals, floats give floats.  Raises on missing variables.
    """
    missing = [name for name in system.variables if name not in assignment]
    if missing:
        raise ValueError(f"assignment is missing variables: {missing[:5]}")
    values = [assignment[name] for name in system.variables]
    per_eq = []
    for eq in system.equations:
        acc = 0
        for mono, coeff in eq.items():
            term = coeff
            for var, exp in mono:
                term = term * values[var] ** exp
            acc = acc + term
        per_eq.append(acc)
    max_abs = max((abs(v) for v in per_eq), default=0)
    return max_abs, per_eq


def assignment_from_solution(
    system: PolySystem,
    solution: SdpSolution,
    c: Sequence[float] | None = None,
) -> dict[str, float]:
    """Assignment dict for a solver output, keyed by variable name."""
    m, n = system.metadata.m, system.metadata.n
    symbolic = system.num_variables > n + m * (m + 1)
    names, _, _ = _layout(m, n, symbolic)
    iu = np.triu_indices(m)
    values = [*solution.x[:n], *solution.X[iu], *solution.Z[iu]]
    if symbolic:
        if c is None:
            raise ValueError("system has symbolic c; pass the c vector")
        values += [c[k] for k in range(n)]
    return {name: float(v) for name, v in zip(names, values)}


# ---------------------------------------------------------------------------
# export / parse


def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _format_term(system: PolySystem, mono: Monomial, coeff: Fraction) -> str:
    parts = [_format_fraction(abs(coeff))]
    for var, exp in mono:
        name = system.variables[var]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def _mono_sort_key(mono: Monomial):
    total = sum(e for _, e in mono)
    return (-total, mono)


def export_plain(system: PolySystem) -> str:
    """Plain-text export: a vars header, a metadata comment, one equation
    per line as signed rational-coefficient terms ending in ``= 0``."""
    lines = ["vars: " + " ".join(system.variables)]
    if system.equations:
        info = system.metadata
        meta = f"# n={info.n} m={info.m} variant={info.variant}"
        if info.rank is not None:
            meta += f" rank={info.rank}"
        if info.minor_counts is not None:
            meta += f" minors_x={info.minor_counts[0]} minors_z={info.minor_counts[1]}"
        lines.append(meta)
    for eq in system.equations:
        monos = sorted(eq, key=_mono_sort_key)
        if not monos:
            lines.append("0 = 0")
            continue
        pieces = []
        for pos, mono in enumerate(monos):
            coeff = eq[mono]
            term = _format_term(system, mono, coeff)
            if pos == 0:
                pieces.append(term if coeff > 0 else f"-{term}")
            else:
                pieces.append(f"+ {term}" if coeff > 0 else f"- {term}")
        lines.append(" ".join(pieces) + " = 0")
    return "\n".join(lines) + "\n"


def _parsed(variables: tuple[str, ...], equations: list[Polynomial], meta: Mapping) -> PolySystem:
    """A parsed system with n and m read off its variables and the Bezout
    product off its equations.  ``meta`` is the file's metadata in the JSON
    export's keys; a stated n, m or Bezout product that disagrees with the
    system raises ValueError, the variant, rank and minor counts are taken
    as stated."""
    t = sum(name.startswith("X_") for name in variables)
    m = (math.isqrt(8 * t + 1) - 1) // 2
    for symbolic in (False, True):
        n = (len(variables) - 2 * t) // (1 + symbolic)
        if _layout(m, n, symbolic)[0] == variables:
            break
    else:
        raise ValueError("variables do not follow the layout x, X, Z (, c)")
    derived = {"n": n, "m": m, "bezout_product": _bezout(equations)}
    for key, value in derived.items():
        if meta.get(key) is not None and int(meta[key]) != value:
            raise ValueError(f"file states {key}={meta[key]}, the system has {key}={value}")
    info = SystemInfo(
        n=n,
        m=m,
        variant=meta.get("variant", VARIANT_PLAIN),
        bezout_product=derived["bezout_product"],
        rank=None if meta.get("rank") is None else int(meta["rank"]),
        minor_counts=tuple(map(int, meta["minor_counts"])) if meta.get("minor_counts") else None,
    )
    return PolySystem(variables=variables, equations=tuple(equations), metadata=info)


_TERM_RE = re.compile(r"^(?P<coeff>-?\d+(?:/\d+)?)(?P<rest>(?:\*[A-Za-z]\w*(?:\^\d+)?)*)$")


def parse_plain(text: str) -> PolySystem:
    """Inverse of :func:`export_plain` (metadata recovered from the comment)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("vars:"):
        raise ValueError("expected a 'vars:' header line")
    variables = tuple(lines[0][len("vars:") :].split())
    var_index = {name: i for i, name in enumerate(variables)}
    meta_kv: dict[str, object] = {}
    body = []
    for line in lines[1:]:
        if not line.startswith("#"):
            body.append(line)
            continue
        # metadata comment; other comment lines (manifests etc.) are ignored
        if "=" in line and ":" not in line:
            for part in line[1:].split():
                key, _, val = part.partition("=")
                if val:
                    meta_kv[key] = val

    equations: list[Polynomial] = []
    for line in body:
        expr, _, zero = line.rpartition("=")
        if zero.strip() != "0":
            raise ValueError(f"equation line must end in '= 0': {line!r}")
        expr = expr.strip()
        poly: Polynomial = {}
        if expr == "0":
            equations.append(poly)
            continue
        tokens = expr.replace("- ", "+ -").split("+")
        for tok in tokens:
            tok = tok.strip().replace(" ", "")
            if not tok:
                continue
            match = _TERM_RE.match(tok)
            if match is None:
                raise ValueError(f"cannot parse term {tok!r}")
            coeff = Fraction(match.group("coeff"))
            mono_parts: dict[int, int] = {}
            rest = match.group("rest")
            for piece in filter(None, rest.split("*")):
                name, _, exp = piece.partition("^")
                if name not in var_index:
                    raise ValueError(f"unknown variable {name!r}")
                mono_parts[var_index[name]] = mono_parts.get(var_index[name], 0) + (
                    int(exp) if exp else 1
                )
            _poly_add_term(poly, tuple(sorted(mono_parts.items())), coeff)
        equations.append(poly)

    if "minors_x" in meta_kv:
        meta_kv["minor_counts"] = (meta_kv["minors_x"], meta_kv["minors_z"])
    return _parsed(variables, equations, meta_kv)


def export_json(system: PolySystem) -> str:
    info = system.metadata
    data = {
        "variables": list(system.variables),
        "metadata": {
            "n": info.n,
            "m": info.m,
            "variant": info.variant,
            "bezout_product": str(info.bezout_product),
            "rank": info.rank,
            "minor_counts": list(info.minor_counts) if info.minor_counts else None,
        },
        "equations": [
            [[[list(pair) for pair in mono], _format_fraction(coeff)] for mono, coeff in eq.items()]
            for eq in system.equations
        ],
    }
    return json.dumps(data)


def parse_json(text: str) -> PolySystem:
    data = json.loads(text)
    variables = tuple(data["variables"])
    equations = []
    for eq_terms in data["equations"]:
        poly: Polynomial = {}
        for mono_pairs, coeff in eq_terms:
            mono = tuple(sorted((int(v), int(e)) for v, e in mono_pairs))
            _poly_add_term(poly, mono, Fraction(coeff))
        equations.append(poly)
    return _parsed(variables, equations, data.get("metadata") or {})


def export_system(system: PolySystem, fmt: str) -> str:
    """Serialize to ``plain_text`` or ``json``; both round-trip exactly."""
    if fmt == "plain_text":
        return export_plain(system)
    if fmt == "json":
        return export_json(system)
    raise ValueError(f"unknown export format {fmt!r} (use 'plain_text' or 'json')")


def parse_system(text: str, fmt: str) -> PolySystem:
    if fmt == "plain_text":
        return parse_plain(text)
    if fmt == "json":
        return parse_json(text)
    raise ValueError(f"unknown export format {fmt!r} (use 'plain_text' or 'json')")
