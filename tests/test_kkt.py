"""KKT system construction, counts, residuals, and export round-trips."""

import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdbound.bounds import pataki_range, triangular
from psdbound.kkt import (
    PatakiViolationError,
    PolySystem,
    Polynomial,
    SystemInfo,
    _poly_add_term,
    assignment_from_solution,
    build_kkt,
    build_kkt_normalized,
    build_kkt_rank,
    export_plain,
    export_system,
    parse_system,
    poly_degree,
    residual,
    to_fraction,
)
from psdbound.pencil import Pencil
from psdbound.polar import disk_fixture, pentagon_fixture, segment_fixture
from psdbound.sdp import solve_sdp


def small_pencil(m, n, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, m))
    a0 = (g + g.T) / 2
    lam = np.linalg.eigvalsh(a0)[0]
    mats = [a0 + (abs(lam) + 0.5) * np.eye(m)]
    for _ in range(n):
        g = rng.standard_normal((m, m))
        a = (g + g.T) / 2
        a -= np.trace(a) / m * np.eye(m)
        mats.append(a)
    return Pencil(mats=tuple(mats))


def mono_mul(a, b):
    """Product of two monomials (sorted (variable, exponent) tuples)."""
    exps = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def cofactor_det(mat: list[list[Polynomial]]) -> Polynomial:
    """Determinant of a matrix of polynomials by first-row cofactor expansion."""
    if not mat:
        return {(): Fraction(1)}
    out: Polynomial = {}
    for col, entry in enumerate(mat[0]):
        minor = cofactor_det([[row[c] for c in range(len(mat)) if c != col] for row in mat[1:]])
        for ma, ca in entry.items():
            for mb, cb in minor.items():
                _poly_add_term(out, mono_mul(ma, mb), (-1) ** col * ca * cb)
    return out


def reference_minors(variables, name: str, m: int, size: int) -> list[Polynomial]:
    """Every size x size minor of the symmetric matrix ``name`` over all
    (rows, cols) pairs, expanded by cofactors, duplicates dropped after
    their first appearance."""

    def var(i, j):
        return {((variables.index(f"{name}_{min(i, j)}_{max(i, j)}"), 1),): Fraction(1)}

    seen, out = set(), []
    idx = range(1, m + 1)
    for rows in itertools.combinations(idx, size):
        for cols in itertools.combinations(idx, size):
            poly = cofactor_det([[var(i, j) for j in cols] for i in rows])
            key = frozenset(poly.items())
            if key not in seen:
                seen.add(key)
                out.append(poly)
    return out


def rank_shapes() -> list[tuple[int, int, int]]:
    """(m, n, r) for every rank r that is Pataki at some n for m = 2..5 (the
    smallest such n), and for every Pataki rank of (m, n) = (6, 10)."""
    shapes: dict[tuple[int, int], int] = {}
    for m in range(2, 6):
        for n in range(1, triangular(m) + 1):
            for r in pataki_range(m, n).ranks:
                shapes.setdefault((m, r), n)
    shapes.update(((6, r), 10) for r in pataki_range(6, 10).ranks)
    return [(m, n, r) for (m, r), n in sorted(shapes.items())]


RANK_SHAPES = rank_shapes()


class TestToFraction:
    def test_exact_decimal(self):
        assert to_fraction(0.1) == Fraction(1, 10)
        assert to_fraction(-2.5) == Fraction(-5, 2)
        assert to_fraction(3) == Fraction(3)
        assert to_fraction(np.float64(0.2)) == Fraction(1, 5)

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            to_fraction("0.5")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, float("1e400")])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="no exact rational"):
            to_fraction(value)


class TestCounts:
    def test_plain_m2_n1(self):
        system = build_kkt(segment_fixture(), [1.0])
        assert system.num_variables == 1 + 2 * triangular(2) == 7
        assert system.num_equations == 1 + triangular(2) + 4 == 8
        assert system.metadata.bezout_product == 2**4

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (3, 5), (4, 3), (5, 6)])
    def test_closed_form_counts(self, m, n):
        pencil = small_pencil(m, n)
        system = build_kkt(pencil, list(range(1, n + 1)))
        assert system.num_variables == n + 2 * triangular(m)
        assert system.num_equations == n + triangular(m) + m * m
        assert system.metadata.bezout_product == 2 ** (m * m)
        degrees = system.degrees()
        assert degrees.count(1) == n + triangular(m)
        assert degrees.count(2) == m * m

    def test_normalized_counts(self):
        pencil = small_pencil(3, 2)
        system = build_kkt_normalized(pencil)
        assert system.num_variables == 2 + 2 * triangular(3) + 2
        assert system.num_equations == 2 + triangular(3) + 9 + 1
        assert system.metadata.variant == "normalized"
        assert system.metadata.bezout_product == 2 ** (9 + 1)

    def test_objective_length_checked(self):
        with pytest.raises(ValueError):
            build_kkt(segment_fixture(), [1.0, 2.0])


class TestRankVariant:
    def test_m2_r1_minor_counts(self):
        system = build_kkt_rank(segment_fixture(), 1)
        assert system.metadata.minor_counts == (1, 1)
        base = build_kkt_normalized(segment_fixture())
        assert system.num_equations == base.num_equations + 2

    def test_m3_r1_minor_counts(self):
        pencil = small_pencil(3, 3)
        system = build_kkt_rank(pencil, 1)
        assert system.metadata.minor_counts == (6, 1)
        degrees = system.degrees()[-7:]
        assert degrees.count(2) == 6 and degrees.count(3) == 1

    @pytest.mark.parametrize("m,n,r", RANK_SHAPES)
    def test_minor_counts(self, m, n, r):
        pencil = small_pencil(m, n)
        system = build_kkt_rank(pencil, r)
        nx, nz = triangular(math.comb(m, r + 1)), triangular(math.comb(m, m - r + 1))
        assert system.metadata.minor_counts == (nx, nz)
        base = build_kkt_normalized(pencil)
        assert system.equations[: base.num_equations] == base.equations
        degrees = system.degrees()[base.num_equations :]
        assert degrees == [r + 1] * nx + [m - r + 1] * nz

    @pytest.mark.parametrize("m,n,r", RANK_SHAPES)
    def test_minors_match_cofactor_expansion(self, m, n, r):
        # the distinct minors of the all-pairs cofactor expansion, in the
        # same order and with the same term order (which fixes the JSON export)
        system = build_kkt_rank(small_pencil(m, n), r)
        nx, nz = system.metadata.minor_counts
        want = reference_minors(system.variables, "X", m, r + 1)
        want += reference_minors(system.variables, "Z", m, m - r + 1)
        got = system.equations[system.num_equations - nx - nz :]
        assert [list(p.items()) for p in got] == [list(p.items()) for p in want]

    @pytest.mark.parametrize("r", [-1, 3, 4])
    def test_rank_outside_matrix_size_rejected(self, r):
        with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
            build_kkt_rank(segment_fixture(), r, force=True)

    def test_r_equals_m_vacuous_x_block(self):
        pencil = small_pencil(3, 3)
        system = build_kkt_rank(pencil, 3, force=True)
        assert system.metadata.minor_counts[0] == 0

    def test_pataki_gate(self):
        pencil = small_pencil(3, 3)  # range is {1, 2}
        with pytest.raises(PatakiViolationError):
            build_kkt_rank(pencil, 3)
        system = build_kkt_rank(pencil, 3, force=True)
        assert system.metadata.rank == 3


class TestMetadata:
    """A system is its variables and equations; its metadata is derived from them."""

    def test_derived_once_on_first_access(self, monkeypatch):
        calls = []
        derive = PolySystem.metadata.func

        def spy(system):
            calls.append(system)
            return derive(system)

        monkeypatch.setattr(PolySystem.metadata, "func", spy)
        system = build_kkt_rank(small_pencil(3, 3), 1)
        assert calls == []
        assert system.metadata.minor_counts == (6, 1)
        assert system.metadata.rank == 1
        assert calls == [system]

    @pytest.mark.parametrize(
        "build",
        [
            lambda p: build_kkt(p, [1.0, -2.0, 0.5]),
            build_kkt_normalized,
            lambda p: build_kkt_rank(p, 2),
        ],
        ids=["plain", "normalized", "rank"],
    )
    def test_same_fields_same_metadata(self, build):
        built = build(small_pencil(3, 3))
        again = PolySystem(built.variables, built.equations)
        assert again == built
        assert again.metadata == built.metadata

    @pytest.mark.parametrize(
        "variables",
        [("x1", "X_1_1"), ("X_1_1", "x1", "Z_1_1"), ("x1", "X_1_1", "Z_1_1", "c2"),
         (1, 2, 3), ("a", "b")],
        ids=["no-Z", "order", "c-name", "not-strings", "names"],
    )
    def test_off_layout_refused(self, variables):
        with pytest.raises(ValueError, match="layout"):
            PolySystem(variables, ()).metadata


class TestResidual:
    def test_zero_system(self):
        empty = PolySystem(variables=("x1",), equations=())
        max_abs, per_eq = residual(empty, {"x1": 5})
        assert max_abs == 0 and per_eq == []

    def test_hand_triple_exact_zero(self):
        system = build_kkt(segment_fixture(), [1])
        assignment = {
            "x1": 1,
            "X_1_1": 2,
            "X_1_2": 0,
            "X_2_2": 0,
            "Z_1_1": 0,
            "Z_1_2": 0,
            "Z_2_2": 1,
        }
        max_abs, per_eq = residual(system, assignment)
        assert max_abs == 0
        assert all(v == 0 for v in per_eq)

    def test_perturbation_sensitivity(self):
        system = build_kkt(segment_fixture(), [1])
        assignment = {
            "x1": 1 + 1e-3,
            "X_1_1": 2,
            "X_1_2": 0,
            "X_2_2": 0,
            "Z_1_1": 0,
            "Z_1_2": 0,
            "Z_2_2": 1,
        }
        max_abs, _ = residual(system, assignment)
        assert max_abs >= 1e-4

    def test_missing_variable(self):
        system = build_kkt(segment_fixture(), [1.0])
        with pytest.raises(ValueError, match="missing"):
            residual(system, {"x1": 1.0})

    def test_lifted_solver_solutions(self):
        lifted = 0
        for t in range(12):
            pencil = small_pencil(3, 3, seed=(7, t))
            c = np.random.default_rng((8, t)).standard_normal(3)
            sol = solve_sdp(pencil, c)
            if sol.status != "optimal":
                continue
            lifted += 1
            system = build_kkt(pencil, c)
            assignment = assignment_from_solution(system, sol)
            max_abs, _ = residual(system, assignment)
            scale = 1 + max(
                np.linalg.norm(sol.X), np.linalg.norm(sol.Z), np.linalg.norm(sol.x)
            )
            assert max_abs <= 1e-6 * scale
        assert lifted >= 8

    def test_rescaling_into_plain_system(self):
        # a solution of the lambda-scaled objective, with Z scaled back by
        # the original objective value, solves the original system
        for t in range(6):
            pencil = small_pencil(3, 2, seed=(17, t))
            c0 = np.random.default_rng((18, t)).standard_normal(2)
            sol = solve_sdp(pencil, c0)
            if sol.status != "optimal" or abs(sol.value) < 1e-6:
                continue
            lam = 1.0 / sol.value
            sol_scaled = solve_sdp(pencil, lam * c0)
            if sol_scaled.status != "optimal":
                continue
            # (x, X, Z_scaled) solves KKT(lam c0) with lam c0^T x = 1;
            # multiplying Z by c0^T x must land in the KKT(c0) solution set
            s = float(c0 @ sol_scaled.x)
            assert lam * s == pytest.approx(1.0, abs=1e-6)
            system = build_kkt(pencil, c0)
            assignment = assignment_from_solution(system, sol_scaled)
            for i in range(1, 4):
                for j in range(i, 4):
                    key = f"Z_{i}_{j}"
                    if key in assignment:
                        assignment[key] *= s
            max_abs, _ = residual(system, assignment)
            scale = 1 + max(np.linalg.norm(sol_scaled.X), abs(s) * np.linalg.norm(sol_scaled.Z))
            assert max_abs <= 1e-5 * scale

    def test_normalized_lift_of_boundary_point(self):
        # scale the objective so the optimal value is 1, lift with symbolic c
        pencil = small_pencil(3, 3, seed=99)
        c0 = np.array([1.0, -0.5, 0.25])
        sol = solve_sdp(pencil, c0)
        assert sol.status == "optimal" and sol.value > 0
        c_star = c0 / sol.value
        sol2 = solve_sdp(pencil, c_star)
        assert sol2.status == "optimal"
        assert sol2.value == pytest.approx(1.0, abs=1e-7)
        system = build_kkt_normalized(pencil)
        assignment = assignment_from_solution(system, sol2, c=c_star)
        max_abs, _ = residual(system, assignment)
        assert max_abs <= 1e-6 * (1 + np.linalg.norm(sol2.X) + np.linalg.norm(sol2.Z))


class TestExport:
    def test_empty_system_header_only(self):
        empty = PolySystem(variables=("x1", "X_1_1"), equations=())
        assert export_plain(empty) == "vars: x1 X_1_1\n"

    def test_plain_m2_line_count(self):
        system = build_kkt(segment_fixture(), [1.0])
        text = export_system(system, "plain_text")
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith(("vars:", "#"))]
        assert len(lines) == 8
        assert all(ln.endswith("= 0") for ln in lines)

    @pytest.mark.parametrize("fmt", ["plain_text", "json"])
    def test_round_trips(self, fmt):
        for system in (
            build_kkt(segment_fixture(), [1.0]),
            build_kkt(small_pencil(3, 2, seed=5), [0.5, -0.25]),
            build_kkt_normalized(small_pencil(3, 2, seed=5)),
            build_kkt_rank(segment_fixture(), 1),
        ):
            text = export_system(system, fmt)
            assert parse_system(text, fmt) == system

    def test_pentagon_json_round_trip(self):
        system = build_kkt_normalized(pentagon_fixture())
        text = export_system(system, "json")
        assert parse_system(text, "json") == system

    def test_rational_coefficients_survive(self):
        pencil = Pencil(mats=(np.eye(2), np.array([[0.1, 0.2], [0.2, -0.3]])))
        system = build_kkt(pencil, [0.7])
        text = export_system(system, "plain_text")
        assert "1/10" in text or "-1/10" in text
        back = parse_system(text, "plain_text")
        assert back == system

    def test_unknown_format(self):
        system = build_kkt(segment_fixture(), [1.0])
        message = re.escape("unknown export format 'yaml' (use 'plain_text' or 'json')")
        with pytest.raises(ValueError, match=message):
            export_system(system, "yaml")
        with pytest.raises(ValueError, match=message):
            parse_system(export_system(system, "json"), "yaml")


class TestParse:
    SEGMENT = "vars: x1 X_1_1 X_1_2 X_2_2 Z_1_1 Z_1_2 Z_2_2\n# n=1 m=2 variant=plain\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            (SEGMENT + "1*x2 = 0\n", "unknown variable"),
            (SEGMENT + "1.5*x1 = 0\n", "cannot parse term"),
            (SEGMENT + "1*x1 + 2\n", "must end in '= 0'"),
            ("# n=1 m=2\n1*x1 = 0\n", "'vars:' header"),
            ("vars: a b\n1*a = 0\n", "layout"),
            (SEGMENT.replace("m=2", "m=9") + "1*x1 = 0\n", "m=9"),
        ],
        ids=["unknown-var", "bad-term", "no-zero-side", "no-header", "off-layout", "stated-m"],
    )
    def test_plain_rejects(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_system(text, "plain_text")

    @pytest.mark.parametrize("key,value", [("m", 9), ("n", 2), ("bezout_product", "7")])
    def test_json_rejects_stated_contradiction(self, key, value):
        data = json.loads(export_system(build_kkt_normalized(segment_fixture()), "json"))
        data["metadata"][key] = value
        with pytest.raises(ValueError, match=f"{key}={value}"):
            parse_system(json.dumps(data), "json")

    def test_shape_and_bezout_derived(self):
        system = build_kkt_rank(small_pencil(3, 3), 1)
        data = json.loads(export_system(system, "json"))
        for key in ("n", "m", "bezout_product"):
            del data["metadata"][key]
        assert parse_system(json.dumps(data), "json") == system
        lines = export_plain(system).splitlines()
        text = "\n".join(ln for ln in lines if not ln.startswith("#")) + "\n"
        assert parse_system(text, "plain_text").metadata == system.metadata

    @pytest.mark.parametrize("fixture", [segment_fixture, disk_fixture, pentagon_fixture])
    def test_every_rank_derived(self, fixture):
        # variant, rank and minor counts come from the equations alone, at
        # every rank 0..m, with the metadata stripped from the file
        pencil = fixture()
        m = pencil.m
        for r in range(m + 1):
            system = build_kkt_rank(pencil, r, force=True)
            nx, nz = triangular(math.comb(m, r + 1)), triangular(math.comb(m, m - r + 1))
            assert system.metadata == SystemInfo(
                pencil.n, m, "rank", system.metadata.bezout_product, r, (nx, nz)
            )
            data = json.loads(export_system(system, "json"))
            del data["metadata"]
            assert parse_system(json.dumps(data), "json") == system

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("variant=rank rank=1", "variant=plain rank=0", "variant=plain"),
            ("rank=1 ", "rank=0 ", "rank=0"),
            ("minors_z=1", "minors_z=2", "minor_counts=('1', '2')"),
        ],
        ids=["plain-rank-0", "rank", "minor-counts"],
    )
    def test_plain_rejects_stated_rank_metadata(self, old, new, message):
        # the first case is the segment's rank-1 system passed off as plain
        text = export_plain(build_kkt_rank(segment_fixture(), 1))
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_system(text.replace(old, new), "plain_text")

    @pytest.mark.parametrize(
        "key,value", [("variant", "plain"), ("rank", 0), ("minor_counts", [1, 2])]
    )
    def test_json_rejects_stated_rank_metadata(self, key, value):
        data = json.loads(export_system(build_kkt_rank(segment_fixture(), 1), "json"))
        data["metadata"][key] = value
        with pytest.raises(ValueError, match=re.escape(f"{key}={value}")):
            parse_system(json.dumps(data), "json")


# the segment's rank-1 system in plain text, pinned byte for byte
SEGMENT_RANK_1 = """\
vars: x1 X_1_1 X_1_2 X_2_2 Z_1_1 Z_1_2 Z_2_2 c1
# n=1 m=2 variant=rank rank=1 minors_x=1 minors_z=1
-1*x1 + 1*X_1_1 - 1 = 0
1*X_1_2 = 0
1*x1 + 1*X_2_2 - 1 = 0
1*Z_1_1 - 1*Z_2_2 + 1*c1 = 0
1*X_1_1*Z_1_1 + 1*X_1_2*Z_1_2 = 0
1*X_1_1*Z_1_2 + 1*X_1_2*Z_2_2 = 0
1*X_1_2*Z_1_1 + 1*X_2_2*Z_1_2 = 0
1*X_1_2*Z_1_2 + 1*X_2_2*Z_2_2 = 0
1*x1*c1 - 1 = 0
1*X_1_1*X_2_2 - 1*X_1_2^2 = 0
1*Z_1_1*Z_2_2 - 1*Z_1_2^2 = 0
"""


class TestPinnedExport:
    """Export bytes that a change to the exporters must leave as they are."""

    def test_segment_rank_1_plain(self):
        assert export_plain(build_kkt_rank(segment_fixture(), 1)) == SEGMENT_RANK_1

    # a 3 x 3, n = 2 pencil with integer entries, so no floating-point
    # routine takes part in the pinned bytes
    INTEGER_PENCIL = Pencil(mats=tuple(np.array(a, dtype=float).reshape(3, 3) for a in (
        [4, 1, 0, 1, 4, -1, 0, -1, 4],
        [1, 2, 0, 2, -1, 1, 0, 1, 3],
        [0, -1, 2, -1, 1, 0, 2, 0, -2],
    )))
    DIGESTS = {
        "rank plain_text": "204c4849b0d17ff54f7e4bf85e09eb4b0ddd71161fce5bab797652ab6fac5108",
        "rank json": "0c49a20a1c367a0ec6f12c6fd549c0eba324d957f752b764a160a428e9940b39",
        "pentagon plain_text": "764122de28979bac6139bd85e05f5ebc7523493b3ea144fd5387d1a23dd6e251",
        "pentagon json": "133268989d231f121fe3bd776f9aea46060fd083e28f085b0a542a42b94b9309",
    }

    @pytest.mark.parametrize("case", DIGESTS)
    def test_sha256(self, case):
        build, fmt = case.split()
        if build == "rank":
            system = build_kkt_rank(self.INTEGER_PENCIL, 1, force=True)
        else:
            system = build_kkt_normalized(pentagon_fixture())
        text = export_system(system, fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[case]


@st.composite
def rational_pencils(draw):
    """A pencil with m <= 3, n <= min(3, t_m) and small decimal-rational
    entries (every rank system needs n <= t_m)."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, min(3, triangular(m))))
    entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 4, 5, 8, 10]))
    mats = []
    for _ in range(n + 1):
        a = np.zeros((m, m))
        for i in range(m):
            for j in range(i, m):
                a[i, j] = a[j, i] = float(draw(entry))
        mats.append(a)
    return Pencil(mats=tuple(mats)), [float(draw(entry)) for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(rational_pencils())
def test_round_trip_every_variant(drawn):
    pencil, c = drawn
    systems = [build_kkt(pencil, c), build_kkt_normalized(pencil)]
    systems += [build_kkt_rank(pencil, r, force=True) for r in range(pencil.m + 1)]
    for system in systems:
        for fmt in ("plain_text", "json"):
            text = export_system(system, fmt)
            back = parse_system(text, fmt)
            assert back == system
            assert export_system(back, fmt) == text


class TestParseRejects:
    """Each malformed input raises ValueError naming what is wrong."""

    @pytest.mark.parametrize(
        "old,missing", [(" minors_z=1", "minors_z"), (" minors_x=1", "minors_x")]
    )
    def test_plain_one_minor_count(self, old, missing):
        with pytest.raises(ValueError, match=missing):
            parse_system(SEGMENT_RANK_1.replace(old, ""), "plain_text")

    @pytest.mark.parametrize(
        "new,message",
        [("-1*x1^0 +", "cannot parse term"), ("-1*x1*x1 +", "cannot parse term")],
        ids=["exponent-0", "repeated-variable"],
    )
    def test_plain_bad_factors(self, new, message):
        with pytest.raises(ValueError, match=message):
            parse_system(SEGMENT_RANK_1.replace("-1*x1 +", new), "plain_text")

    @pytest.mark.parametrize(
        "mono,message",
        [([[99, 1]], "unknown variable"), ([[-1, 1]], "unknown variable"),
         ([[0, 0]], "cannot parse term"), ([[0, 1], [0, 1]], "cannot parse term"),
         ([[0, 1.5]], "cannot parse term"), ([["0", 1]], "cannot parse term"),
         ([[True, 1]], "cannot parse term"), ([[0, True]], "cannot parse term")],
        ids=["index-99", "index-negative", "exponent-0", "repeated-variable", "float", "string",
             "bool-index", "bool-exponent"],
    )
    def test_json_bad_monomial(self, mono, message):
        # the first term of the first equation takes the monomial; the system
        # has 8 variables, x1 is index 0
        data = json.loads(export_system(build_kkt_rank(segment_fixture(), 1), "json"))
        data["equations"][0][0][0] = mono
        with pytest.raises(ValueError, match=message):
            parse_system(json.dumps(data), "json")

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("field", [0, 1], ids=["index", "exponent"])
    @pytest.mark.parametrize("equation", [0, -1], ids=["first", "last"])
    def test_json_bool_refused_in_either_order(self, equation, field, flag):
        # True == 1 and False == 0: in the last equation the bool pair comes
        # after its int twin ([1, 1], [0, 1] or [2, 1]) was accepted
        system = build_kkt(Pencil((np.eye(2), np.diag([1.0, -1.0]))), [1.0])
        data = json.loads(export_system(system, "json"))
        data["equations"][equation][0][0][0][field] = flag
        with pytest.raises(ValueError, match=r"not \[index, exponent >= 1\]"):
            parse_system(json.dumps(data), "json")

    @pytest.mark.parametrize("coeff", [True, False, 1, 0.1, None, "1e5"],
                             ids=["true", "false", "int", "float", "null", "exponent-string"])
    @pytest.mark.parametrize("equation", [0, -1], ids=["first", "last"])
    def test_json_coefficient_outside_the_grammar(self, equation, coeff):
        # the exporters write each coefficient as a string: true and 1 once
        # parsed as 1, 0.1 as an inexact binary fraction, null as a TypeError
        system = build_kkt(Pencil((np.eye(2), np.diag([1.0, -1.0]))), [1.0])
        data = json.loads(export_system(system, "json"))
        data["equations"][equation][0][1] = coeff
        with pytest.raises(ValueError, match="cannot parse term coefficient"):
            parse_system(json.dumps(data), "json")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["equations"][0][0].__setitem__(1, [1]),
            lambda d: d["equations"][0][0].__setitem__(1, {"1": 1}),
            lambda d: d.__setitem__("equations", 5),
            lambda d: d.__setitem__("variables", 5),
            lambda d: d["metadata"].__setitem__("m", [2]),
        ],
        ids=["list-coefficient", "object-coefficient", "equations-number", "variables-number",
             "list-metadata-field"],
    )
    def test_json_value_of_the_wrong_type(self, edit):
        data = json.loads(export_system(build_kkt_rank(segment_fixture(), 1), "json"))
        edit(data)
        with pytest.raises(ValueError, match="JSON system has a value of the wrong type"):
            parse_system(json.dumps(data), "json")

    @pytest.mark.parametrize("metadata", [5, [1, 2], "plain"], ids=["number", "list", "string"])
    def test_json_metadata_not_an_object(self, metadata):
        data = json.loads(export_system(build_kkt_rank(segment_fixture(), 1), "json"))
        data["metadata"] = metadata
        with pytest.raises(ValueError, match="'metadata' must be an object"):
            parse_system(json.dumps(data), "json")

    @pytest.mark.parametrize("key", ["variables", "equations"])
    def test_json_missing_key(self, key):
        data = json.loads(export_system(build_kkt_rank(segment_fixture(), 1), "json"))
        del data[key]
        with pytest.raises(ValueError, match=key):
            parse_system(json.dumps(data), "json")


class TestPolyDegree:
    def test_degrees(self):
        assert poly_degree({}) == 0
        assert poly_degree({(): Fraction(3)}) == 0
        assert poly_degree({((0, 2), (3, 1)): Fraction(1)}) == 3
