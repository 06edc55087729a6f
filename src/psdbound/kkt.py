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
decided in one place, :func:`_layout`.  A :class:`PolySystem` is its
variables and equations: :attr:`PolySystem.metadata` (n, m, variant, rank,
minor counts, Bezout product) is worked out from them on first access, and
the parsers check a file's stated metadata against it.

Coefficients are exact rationals (floats enter via their shortest decimal
representation), so residuals at rational points are exact and exports
round-trip losslessly.  Builders, exporters and parsers visit each term
once; what repeats across terms (a pencil entry, a coefficient or its text,
a factor and its text) is worked out once per call in a memo table freed
when the call returns.  Both parsers raise ValueError on a term outside the
grammar, an exponent below 1, a variable named twice in one term, an unknown
variable, a missing header or key, a JSON value of the wrong type, and stated
metadata that disagrees.  The systems are for external algebraic solvers.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, replace
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, combinations, permutations, repeat
from operator import itemgetter, neg
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bounds import PatakiViolationError, check_pataki_rank  # noqa: F401 (build_kkt_rank's error)
from .pencil import Pencil, json_fields
from .sdp import SdpSolution

# a polynomial is a map {monomial: coefficient}; a monomial is a sorted
# tuple of (variable_index, positive_exponent) pairs; () is the constant
Monomial = tuple[tuple[int, int], ...]
Polynomial = dict[Monomial, Fraction]

VARIANT_PLAIN = "plain"
VARIANT_NORMALIZED = "normalized"
VARIANT_RANK = "rank"


def to_fraction(value) -> Fraction:
    """Exact rational from ints, Fractions, or finite floats (shortest decimal)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"{float(value)} has no exact rational value")
        return Fraction(Decimal(repr(float(value))))
    raise TypeError(f"cannot convert {type(value).__name__} to an exact rational")


class _Memo(dict):
    """A memo table for one call: ``memo[key]`` is ``func(key)``, computed once."""

    def __init__(self, func):
        self.func = func

    def __missing__(self, key):
        value = self[key] = self.func(key)
        return value


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
    """A polynomial system: variable names and {monomial: coefficient} equations."""

    variables: tuple[str, ...]
    equations: tuple[Polynomial, ...]

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_equations(self) -> int:
        return len(self.equations)

    def degrees(self) -> list[int]:
        return [poly_degree(eq) for eq in self.equations]

    @cached_property
    def metadata(self) -> SystemInfo:
        """Every metadata field, worked out from the system on first access.

        n and m come from the variables, strings that must follow :func:`_layout`
        (else ValueError); the variant from the equations past the n + t_m + m^2
        of the plain system (none: plain, one: normalized, more: rank); the
        minor counts from which rank equations are in X alone; r is the X
        minors' degree minus 1, or m when there are none; the Bezout product
        from the degrees, taken once."""
        variables, equations = self.variables, self.equations
        t = sum(str(name).startswith("X_") for name in variables)
        m = (math.isqrt(8 * t + 1) - 1) // 2
        for symbolic in (False, True):
            n = (len(variables) - 2 * t) // (1 + symbolic)
            if _layout(m, n, symbolic)[0] == variables:
                break
        else:
            raise ValueError("variables do not follow the layout x, X, Z (, c)")
        degrees = self.degrees()
        info = SystemInfo(n, m, VARIANT_PLAIN, math.prod(max(d, 1) for d in degrees))
        first = n + t + m * m  # index of the first equation past the plain system
        if len(equations) == first + 1:
            return replace(info, variant=VARIANT_NORMALIZED)
        if len(equations) > first + 1:
            # a sorted monomial is in X alone when its first and last variables are
            in_x = lambda eq: all(not mo or n <= mo[0][0] and mo[-1][0] < n + t for mo in eq)
            x_minors = [k for k in range(first + 1, len(equations)) if in_x(equations[k])]
            rank = degrees[x_minors[0]] - 1 if x_minors else m
            counts = (len(x_minors), len(equations) - first - 1 - len(x_minors))
            return replace(info, variant=VARIANT_RANK, rank=rank, minor_counts=counts)
        return info


def _degrees(monos: Iterable[Monomial]) -> Iterator[int]:
    """The degree of each monomial, summed by maps that run in C."""
    return map(sum, map(map, repeat(itemgetter(1)), monos))


def poly_degree(poly: Polynomial) -> int:
    return max(_degrees(poly), default=0)


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


def _polynomial(terms: Iterable[tuple[Monomial, Fraction]]) -> Polynomial:
    """The terms summed by :func:`_poly_add_term`."""
    poly: Polynomial = {}
    for mono, coeff in terms:
        _poly_add_term(poly, mono, coeff)
    return poly


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
    mats = [a.tolist() for a in pencil.mats]
    exact = _Memo(to_fraction)  # each distinct entry converted once
    upper = [(i, j) for i in range(m) for j in range(i, m)]
    one = Fraction(1)
    # pencil block: X_ij - sum_k x_k (A_k)_ij = (A0)_ij
    equations = [
        _polynomial(
            [(((big_x[i][j], 1),), one)]
            + [(((k, 1),), exact[-mats[k + 1][i][j]]) for k in range(n)]
            + [((), exact[-mats[0][i][j]])]
        )
        for i, j in upper
    ]
    # adjoint block: trace(A_k Z) + c_k = 0
    for k, a in enumerate(mats[1:]):
        terms = [(((big_z[i][j], 1),), exact[a[i][j]] * (1 if i == j else 2)) for i, j in upper]
        terms.append((((len(names) - n + k, 1),), one) if symbolic else ((), to_fraction(cv[k])))
        equations.append(_polynomial(terms))
    # complementarity block: all m*m entries of X Z; every X index is below
    # every Z index, so each product is already an ordered monomial
    equations += [
        {((big_x[i][l], 1), (big_z[l][j], 1)): one for l in range(m)}
        for i in range(m)
        for j in range(m)
    ]
    return PolySystem(names, tuple(equations))


def build_kkt_normalized(pencil: Pencil) -> PolySystem:
    """Symbolic-c system plus the normalization c^T x = 1.

    Its solutions, projected on c, cover the boundary of the polar of the
    pencil's spectrahedron.
    """
    base = build_kkt(pencil, None)
    n = pencil.n
    first_c = base.num_variables - n  # c1..cn are the last n names of the layout
    norm = [(((k, 1), (first_c + k, 1)), Fraction(1)) for k in range(n)] + [((), Fraction(-1))]
    return PolySystem(base.variables, base.equations + (_polynomial(norm),))


def build_kkt_rank(pencil: Pencil, r: int, *, force: bool = False) -> PolySystem:
    """Rank-constrained variant: rank(X) <= r and rank(Z) <= m - r.

    Appends the (r+1) x (r+1) minors of X and the (m-r+1) x (m-r+1) minors
    of Z to the normalized system.  X and Z are symmetric, so minor(R, C)
    equals minor(C, R) and each minor appears once per unordered pair of
    row and column sets: ``minor_counts`` is (t(C(m, r+1)), t(C(m, m-r+1)))
    with t the triangular number.  Ranks outside [0, m] raise ValueError;
    unless ``force`` is set, so does a rank outside the Pataki range
    (:class:`PatakiViolationError`, from :func:`~psdbound.bounds.check_pataki_rank`),
    though the system is well defined, it just cuts out an atypical locus.
    """
    m, n = pencil.m, pencil.n
    if not 0 <= r <= m:
        raise ValueError(f"rank {r} outside [0, {m}]")
    if not force:
        check_pataki_rank(m, n, r)
    base = build_kkt_normalized(pencil)
    _, big_x, big_z = _layout(m, n, True)
    exact = _Memo(Fraction)  # one Fraction per distinct minor coefficient

    def minors(table: list[list[int]], size: int) -> list[dict[Monomial, int]]:
        # Leibniz sum, one signed monomial per permutation, the signs added as
        # ints; lexicographic order gives the term order of a first-row
        # cofactor expansion, and a cancelled term re-enters last, as in
        # _poly_add_term
        perms = [
            (p, -1 if sum(a > b for a, b in combinations(p, 2)) % 2 else 1)
            for p in permutations(range(size))
        ]
        sets = list(combinations(range(m), size))
        out = []
        for rows, cols in ((rows, cols) for k, rows in enumerate(sets) for cols in sets[k:]):
            var = [[table[i][j] for j in cols] for i in rows]
            poly: dict[Monomial, int] = {}
            for p, sign in perms:
                exps: dict[int, int] = {}
                for row, j in zip(var, p):
                    exps[row[j]] = exps.get(row[j], 0) + 1
                mono = tuple(sorted(exps.items()))
                if total := poly.get(mono, 0) + sign:
                    poly[mono] = total
                else:
                    del poly[mono]
            out.append(dict(zip(poly, map(exact.__getitem__, poly.values()))))
        return out

    equations = base.equations + tuple(minors(big_x, r + 1) + minors(big_z, m - r + 1))
    return PolySystem(base.variables, equations)


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
    iu = np.triu_indices(m)
    values = [*solution.x[:n], *solution.X[iu], *solution.Z[iu]]
    if system.num_variables > len(values):  # c1..cn are symbolic
        if c is None:
            raise ValueError("system has symbolic c; pass the c vector")
        values += [c[k] for k in range(n)]
    return {name: float(v) for name, v in zip(system.variables, values)}


# ---------------------------------------------------------------------------
# export / parse


def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _by_coefficient(system: PolySystem, fmt) -> dict[int, str]:
    """``fmt(c)`` per distinct coefficient object, keyed by ``id(c)``, which hashes
    in C; the system holds every c while the table is in use, so no id recurs."""
    coeffs = list(chain.from_iterable(eq.values() for eq in system.equations))
    return {key: fmt(c) for key, c in dict(zip(map(id, coeffs), coeffs)).items()}


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
    # a coefficient's text after another term: '+ 3/2', '- 1'
    sign = lambda c: f"+ {_format_fraction(c)}" if c > 0 else f"- {_format_fraction(abs(c))}"
    signed = _by_coefficient(system, sign)
    names = system.variables
    factor_text = _Memo(lambda p: f"*{names[p[0]]}" + (f"^{p[1]}" if p[1] != 1 else "")).__getitem__
    for eq in system.equations:
        # by descending degree, then monomial; the first term drops '+ ' or keeps a bare '-'
        terms = sorted(zip(map(neg, _degrees(eq)), eq, eq.values()))
        body = " ".join([signed[id(c)] + "".join(map(factor_text, mono)) for _, mono, c in terms])
        lines.append(("0" if not body else body[2:] if body[0] == "+" else "-" + body[2:]) + " = 0")
    return "\n".join(lines) + "\n"


def export_json(system: PolySystem) -> str:
    info, text = system.metadata, _by_coefficient(system, _format_fraction).__getitem__
    # json writes tuples as lists: minor counts, (monomial, coefficient) terms, pairs
    return json.dumps({
        "variables": list(system.variables),
        "metadata": {**asdict(info), "bezout_product": str(info.bezout_product)},
        "equations": [list(zip(eq, map(text, map(id, eq.values())))) for eq in system.equations],
    })


def _parsed(variables: tuple[str, ...], equations: list[Polynomial], meta: Mapping) -> PolySystem:
    """The parsed system, refused (ValueError) if ``meta``, the file's metadata
    in the JSON export's keys, states a field that differs from its metadata."""
    system = PolySystem(variables, tuple(equations))
    for key, value in asdict(system.metadata).items():
        stated = meta.get(key)
        if stated is None:
            continue
        if isinstance(value, tuple):
            stated = tuple(map(int, stated))
        elif isinstance(value, int):
            stated = int(stated)
        if stated != value:
            raise ValueError(f"file states {key}={meta[key]}, the system has {key}={value}")
    return system


def _canonical(pairs: Iterable[tuple[int, int]]) -> Monomial:
    """The sorted monomial of (variable, exponent) pairs, each variable once."""
    mono = tuple(sorted(pairs))
    if len(dict(mono)) < len(mono):
        raise ValueError(f"cannot parse term {list(map(list, mono))}: a variable repeats")
    return mono


# a plain-text term is a coefficient, then optionally '*' and its factors,
# each a name with an optional exponent of at least 1
_COEFF_RE = re.compile(r"-?\d+(?:/\d+)?")
_FACTOR = r"[A-Za-z]\w*(?:\^0*[1-9]\d*)?"
_FACTORS_RE = re.compile(rf"{_FACTOR}(?:\*{_FACTOR})*")


def _plain_pair(index: Mapping[str, int], factor: str) -> tuple[int, int]:
    """The (index, exponent) pair of a factor, 'Z_2_3^2'."""
    name, _, exp = factor.partition("^")
    if name not in index:
        raise ValueError(f"unknown variable {name!r}")
    return index[name], int(exp) if exp else 1


def parse_plain(text: str) -> PolySystem:
    """Inverse of :func:`export_plain` (metadata recovered from the comment)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("vars:"):
        raise ValueError("expected a 'vars:' header line")
    variables = tuple(lines[0][len("vars:") :].split())
    meta_kv: dict[str, object] = {}
    body = []
    for line in lines[1:]:
        if not line.startswith("#"):
            body.append(line)
        elif "=" in line and ":" not in line:  # the metadata comment; others are ignored
            for key, _, val in (part.partition("=") for part in line[1:].split()):
                if val:
                    meta_kv[key] = val

    coefficients = _Memo(lambda text: Fraction(text) if _COEFF_RE.fullmatch(text) else None)
    pair = _Memo(partial(_plain_pair, {name: i for i, name in enumerate(variables)})).__getitem__
    equations: list[Polynomial] = []
    for line in body:
        expr, _, zero = line.rpartition("=")
        if zero.strip() != "0":
            raise ValueError(f"equation line must end in '= 0': {line!r}")
        terms = []
        for tok in expr.replace("- ", "+ -").replace(" ", "").split("+"):
            tok = tok.strip()
            if not tok:
                continue
            head, star, factors = tok.partition("*")
            coeff = coefficients[head]
            if coeff is None or star and not _FACTORS_RE.fullmatch(factors):
                raise ValueError(f"cannot parse term {tok!r}")
            terms.append((_canonical(map(pair, factors.split("*"))) if star else (), coeff))
        equations.append(_polynomial(terms))

    counts = (meta_kv.get("minors_x"), meta_kv.get("minors_z"))
    if counts.count(None) == 1:
        missing = ("minors_x", "minors_z")[counts.index(None)]
        raise ValueError(f"metadata comment states one minor count but not {missing}")
    if None not in counts:
        meta_kv["minor_counts"] = counts
    return _parsed(variables, equations, meta_kv)


def _json_coefficient(text) -> Fraction:
    """A coefficient as the exporters write it: a string in the plain-text grammar."""
    if not (isinstance(text, str) and _COEFF_RE.fullmatch(text)):
        raise ValueError(
            f"cannot parse term coefficient {json.dumps(text)}: not a string like '-3' or '3/2'"
        )
    return Fraction(text)


def _json_pair(num_variables: int, pair: tuple) -> tuple[int, int]:
    v, e = pair
    if not all(type(x) in (int, float) and x % 1 == 0 for x in pair) or e < 1:
        raise ValueError(f"cannot parse term: {list(pair)} is not [index, exponent >= 1]")
    if not 0 <= v < num_variables:
        raise ValueError(f"unknown variable index {v}")
    return int(v), int(e)


def parse_json(text: str) -> PolySystem:
    data = json.loads(text)
    variables, raw_equations = json_fields(data, "JSON system", "variables", "equations")
    meta = data.get("metadata") or {}
    json_fields(meta, "JSON system 'metadata'")  # an object, if given
    try:
        variables = tuple(variables)
        # a coefficient that is not a string raises on its miss, so never enters the memo
        coefficients = _Memo(_json_coefficient)
        pair = _Memo(partial(_json_pair, len(variables))).__getitem__
        equations = [
            _polynomial([(_canonical(map(pair, map(tuple, raw))), coefficients[c]) for raw, c in eq])
            for eq in raw_equations
        ]
        if "true" in text or "false" in text:
            # True == 1 and False == 0 share their keys in the pair memo, so a
            # bool pair after its int twin would skip _json_pair: check each pair
            for raw, _ in chain.from_iterable(raw_equations):
                for entry in raw:
                    _json_pair(len(variables), tuple(entry))
        return _parsed(variables, equations, meta)
    except TypeError as exc:  # a number where a list belongs, or a list where a string
        raise ValueError(f"JSON system has a value of the wrong type: {exc}") from None


# each format's exporter and parser, by the name export_system and parse_system take
FORMATS = {"plain_text": (export_plain, parse_plain), "json": (export_json, parse_json)}


def _format(fmt: str):
    if fmt not in FORMATS:
        raise ValueError(f"unknown export format {fmt!r} (use 'plain_text' or 'json')")
    return FORMATS[fmt]


def export_system(system: PolySystem, fmt: str) -> str:
    """Serialize to ``plain_text`` or ``json``; both round-trip exactly."""
    return _format(fmt)[0](system)


def parse_system(text: str, fmt: str) -> PolySystem:
    return _format(fmt)[1](text)
