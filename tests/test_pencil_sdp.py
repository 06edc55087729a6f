"""Pencil algebra, JSON format, eigen utilities, and the SDP solver."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdbound.bounds import pataki_range
from psdbound.pencil import Pencil, adjoint, eval_pencil, load_pencil, save_pencil, symmetrize
from psdbound.polar import disk_fixture, pentagon_fixture, pentagon_vertices, segment_fixture
from psdbound.experiments import random_pencil, rank_frequency, shift_to_interior
from psdbound import sdp
from psdbound.sdp import (
    SdpSolution,
    _dot,
    _errors,
    _finish,
    _max_step,
    _nt_scaling,
    _residuals,
    _schur_gram,
    _solve_each,
    rank_of,
    solve_sdp,
    solve_sdp_many,
)


def bounded_random_pencil(seed, m, n):
    """Compact spectrahedron: traceless Gaussian A_i kill the recession cone."""
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
    return Pencil(mats=tuple(mats)), rng.standard_normal(n)


class TestPencil:
    def test_symmetrize(self):
        m = symmetrize(np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]]))
        assert np.array_equal(m, m.T)
        with pytest.raises(ValueError):
            symmetrize(np.array([[1.0, 2.0], [1.0, 3.0]]))
        with pytest.raises(ValueError):
            symmetrize(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Pencil((np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            Pencil((np.diag([np.inf, 1.0]),))
        with pytest.raises(ValueError):
            Pencil((np.eye(2), np.eye(2)), projection=[[np.nan]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least the constant matrix"):
            Pencil(mats=())
        with pytest.raises(ValueError, match="matrix is empty"):
            Pencil((np.zeros((0, 0)),))
        with pytest.raises(ValueError, match="matrix is empty"):
            Pencil.from_dict({"m": 0, "n": 0, "mats": [[]]})

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Pencil(mats=(np.eye(2), np.eye(3)))
        with pytest.raises(ValueError):
            Pencil(mats=(np.eye(2), np.eye(2)), projection=np.zeros((1, 2)))

    def test_mats_read_only(self):
        p = segment_fixture()
        with pytest.raises(ValueError):
            p.mats[0][0, 0] = 7.0

    def test_eval(self):
        p = segment_fixture()
        assert np.allclose(eval_pencil(p, [0.0]), np.eye(2))
        assert np.allclose(eval_pencil(p, [1.0]), np.diag([2.0, 0.0]))
        with pytest.raises(ValueError):
            eval_pencil(p, [1.0, 2.0])

    @pytest.mark.parametrize(
        "fixture,length,wrong",
        [(segment_fixture, 1, 2), (pentagon_fixture, 2, 4)],
        ids=["no-projection", "projection"],
    )
    def test_lift_direction_length(self, fixture, length, wrong):
        # with a projection the direction lives in the image, so n = 4 entries are refused
        p = fixture()
        assert p.lift_direction(np.ones(length)).shape == (p.n,)
        with pytest.raises(ValueError, match=rf"direction must have length {length}, got \({wrong},\)"):
            p.lift_direction(np.ones(wrong))

    def test_pentagon_at_zero_is_identity(self):
        assert np.allclose(eval_pencil(pentagon_fixture(), [0, 0, 0, 0]), np.eye(4))

    def test_adjoint(self):
        p = segment_fixture()
        assert np.allclose(adjoint(p, np.zeros((2, 2))), [0.0])
        assert np.allclose(adjoint(p, np.diag([0.0, 1.0])), [-1.0])
        traceless = np.array([[0.0, 1.0], [1.0, 0.0]])
        q = Pencil(mats=(np.eye(2), np.eye(2)))
        assert np.allclose(adjoint(q, traceless + np.eye(2)), [2.0])
        with pytest.raises(ValueError):
            adjoint(p, np.zeros((3, 3)))

    def test_json_round_trip(self, tmp_path):
        p = pentagon_fixture()
        path = tmp_path / "pentagon.json"
        save_pencil(p, path)
        back = load_pencil(path)
        assert back.m == 4 and back.n == 4
        assert all(np.array_equal(a, b) for a, b in zip(p.mats, back.mats))
        assert np.array_equal(p.projection, back.projection)
        data = json.loads(path.read_text())
        assert set(data) == {"m", "n", "mats", "projection"}

    def test_json_validates_symmetry(self):
        data = {"m": 2, "n": 1, "mats": [[1, 0, 0, 1], [0, 1, 0, 0]]}
        with pytest.raises(ValueError):
            Pencil.from_dict(data)


class TestRankOf:
    def test_zero(self):
        assert rank_of(np.zeros((3, 3))) == 0

    def test_diag(self):
        assert rank_of(np.diag([2.0, 0.0])) == 1
        assert rank_of(np.diag([1.0, 1e-12])) == 1
        assert rank_of(np.diag([1.0, 1e-3])) == 2
        # below lambda_max = 1 the floor is the absolute RANK_EPS: rounding
        # alone has rank 0, and 1e-8 does not count beside 1e-3
        assert rank_of(1e-47 * np.eye(3)) == 0
        assert rank_of(np.diag([1e-3, 1e-8])) == 1


class TestSolveSdp:
    def test_segment_hand_solution(self):
        p = segment_fixture()
        sol = solve_sdp(p, [1.0])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(sol.X, np.diag([2.0, 0.0]), atol=1e-7)
        assert np.allclose(sol.Z, np.diag([0.0, 1.0]), atol=1e-7)
        assert sol.rank_X == 1 and sol.rank_Z == 1

    def test_zero_objective(self):
        sol = solve_sdp(segment_fixture(), [0.0])
        assert sol.status == "optimal"
        assert abs(sol.value) <= 1e-9

    def test_not_interior(self):
        # A0 is indefinite, so the origin is outside the body {x >= 1}: the
        # embedding needs no feasible start and finds max -x = -1
        p = Pencil(mats=(np.diag([1.0, -1.0]), np.eye(2)))
        sol = solve_sdp(p, [-1.0])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-1.0, abs=1e-7)
        assert sol.x == pytest.approx([1.0], abs=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_sdp(segment_fixture(), [1.0, 2.0])

    def test_unbounded_ray(self):
        p = Pencil(mats=(np.eye(2), np.eye(2)))
        sol = solve_sdp(p, [1.0])
        assert sol.status == "unbounded"
        assert sol.ray is not None
        assert sol.ray @ [1.0] > 0
        assert np.linalg.eigvalsh(sol.ray[0] * np.eye(2))[0] >= -1e-6

    def test_infeasible(self):
        # -1 + x >= 0 and -1 - x >= 0 have no common solution
        p = Pencil(mats=(-np.eye(2), np.diag([1.0, -1.0])))
        sol = solve_sdp(p, [1.0])
        assert_farkas(p, sol)
        assert sol.finish_steps == 0  # a certificate goes to no finish
        # the same body with A2 = 2 A1: the Gram matrix of A1, A2 is exactly
        # singular, and the Farkas candidate's projection must not raise
        p = Pencil(mats=(-np.eye(2), np.diag([1.0, -1.0]), np.diag([2.0, -2.0])))
        sol = solve_sdp(p, [1.0, 1.0])
        assert_farkas(p, sol)

    def test_disk_support_is_norm(self):
        p = disk_fixture()
        rng = np.random.default_rng(0)
        for _ in range(25):
            c = rng.standard_normal(2)
            sol = solve_sdp(p, c)
            assert sol.status == "optimal"
            assert sol.value == pytest.approx(np.linalg.norm(c), abs=1e-7)
            assert sol.rank_X == 1

    def test_pentagon_vertex_supports(self):
        p = pentagon_fixture()
        for vert in pentagon_vertices():
            sol = solve_sdp(p, p.lift_direction(vert))
            assert sol.status == "optimal"
            assert sol.value == pytest.approx(1.0, abs=1e-6)

    def test_pentagon_direction_e2(self):
        p = pentagon_fixture()
        sol = solve_sdp(p, p.lift_direction(np.array([0.0, 1.0])))
        assert sol.value == pytest.approx(np.sin(2 * np.pi / 5), abs=1e-6)

    def test_determinism(self):
        p, c = bounded_random_pencil(11, 4, 5)
        s1 = solve_sdp(p, c)
        s2 = solve_sdp(p, c)
        assert s1.value == s2.value
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.X, s2.X)
        assert np.array_equal(s1.Z, s2.Z)

    def test_duality_and_complementarity_invariants(self):
        checked = 0
        for t in range(40):
            p, c = bounded_random_pencil((21, t), 4, 5)
            sol = solve_sdp(p, c)
            if sol.status != "optimal":
                continue
            checked += 1
            dual_value = float(np.vdot(p.mats[0], sol.Z))
            assert abs(sol.value - dual_value) <= 1e-6 * (1 + abs(sol.value))
            assert np.linalg.norm(sol.X @ sol.Z) <= 1e-6 * (
                1 + np.linalg.norm(sol.X) * np.linalg.norm(sol.Z)
            )
            assert abs(sol.residuals[2]) <= 1e-7 * (1 + abs(sol.value))
            assert np.linalg.eigvalsh(sol.X)[0] >= -1e-7 * max(1, sol.spectrum_X[0])
            assert np.linalg.eigvalsh(sol.Z)[0] >= -1e-7 * max(1, sol.spectrum_Z[0])
        assert checked >= 30

    def test_large_strictly_feasible_instance(self):
        p, c = strictly_feasible_pair(24, 80, (2024, 11))
        sol = solve_sdp(p, c)
        assert sol.status == "optimal"
        assert_certified(p, c, sol)
        # handed over at TOL, above the path phase's float floor, and with
        # Mehrotra's corrector
        assert sol.iterations <= 16

    @pytest.mark.parametrize("i", [0, 16, 53, 83, 178, 189, 192])
    def test_strictly_feasible_pairs_end_optimal(self, i):
        # (6, 10) pairs on which the path phase alone has ended short of
        # ACCEPT, on one step rule or another
        p, c = strictly_feasible_pair(6, 10, (2024, i))
        sol = solve_sdp(p, c)
        assert sol.status == "optimal"
        assert_certified(p, c, sol)
        # handed over at TOL, above the path phase's float floor, and with
        # Mehrotra's corrector
        assert sol.iterations <= 16

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_raw_tightness_trials_end_certified(self, seed):
        # the raw (6, 7) draws of rank_frequency(6, 7, 10, seed), which once
        # ended numerical_failure 9, 8 and 10 times: each ends with a verdict,
        # and each infeasible one with a Farkas certificate
        sols = []
        for trial in range(10):
            rng = np.random.default_rng((seed, trial))
            p = random_pencil(6, 7, rng)
            c = rng.standard_normal(7)
            sols.append(solve_sdp(p, c))
            if sols[-1].status == "infeasible":
                assert_farkas(p, sols[-1])
                # Z projected onto the null space of A* certifies early (10
                # to 15 passes when the raw iterate Z had to)
                assert sols[-1].iterations <= 8
            elif sols[-1].status == "unbounded":
                assert_ray(p, c, sols[-1])
            else:
                assert sols[-1].status == "optimal"
                assert_certified(p, c, sols[-1])
        statuses = rank_frequency(6, 7, 10, seed).statuses
        assert statuses == {s: sum(sol.status == s for sol in sols) for s in statuses}

    def test_schur_gram_matches_pairwise_products(self):
        rng = np.random.default_rng(5)
        m, n = 5, 7
        a_stack = np.array([(g + g.T) / 2 for g in rng.standard_normal((n, m, m))])
        f_mat = rng.standard_normal((m, m))
        winv = f_mat @ f_mat.T
        want = np.array(
            [[np.vdot(ai, winv @ aj @ winv) for aj in a_stack] for ai in a_stack]
        )
        got = _schur_gram(a_stack.reshape(n, m * m), f_mat)
        assert np.array_equal(got, got.T)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        assert np.linalg.eigvalsh(got)[0] >= -1e-12 * np.abs(want).max()

    def test_pataki_containment_200_trials(self):
        rng_ranks = pataki_range(3, 3).ranks
        inside = 0
        solved = 0
        for t in range(200):
            p, c = bounded_random_pencil((31, t), 3, 3)
            sol = solve_sdp(p, c)
            if sol.status != "optimal":
                continue
            solved += 1
            inside += sol.rank_X in rng_ranks
        assert solved >= 180
        assert inside / solved >= 0.99


def strictly_feasible_pair(m, n, key):
    """A0 shifted to lambda_min >= 1 and c = -A*(Z0) with Z0 positive
    definite: both sides strictly feasible."""
    rng = np.random.default_rng(key)
    p, _ = shift_to_interior(random_pencil(m, n, rng), 1.0)
    g = rng.standard_normal((m, m))
    return p, -adjoint(p, g @ g.T / m + 0.1 * np.eye(m))


def assert_certified(p, c, sol):
    """X, Z and x of an optimal solve checked through the pencil itself:
    X = A0 + A(x), A*(Z) + c = 0, X and Z psd, and a zero duality gap."""
    scale = max(1.0, sol.spectrum_X[0], sol.spectrum_Z[0])
    x_big = eval_pencil(p, sol.x)
    assert np.linalg.norm(x_big - sol.X) <= 1e-7 * (1 + np.linalg.norm(p.mats[0]))
    assert np.linalg.norm(adjoint(p, sol.Z) + c) <= 1e-7 * (1 + np.linalg.norm(c))
    assert np.linalg.eigvalsh(x_big)[0] >= -1e-7 * scale
    assert np.linalg.eigvalsh(sol.Z)[0] >= -1e-7 * scale
    dual_value = float(np.vdot(p.mats[0], sol.Z))
    assert abs(sol.value - dual_value) <= 1e-6 * (1 + abs(sol.value))


def assert_farkas(p, sol):
    """An infeasible solve's certificate checked through the pencil's own
    adjoint: Z psd, ||A*(Z)|| <= 1e-12 tr Z and <A0, Z> < 0."""
    z = sol.farkas
    assert sol.status == "infeasible" and sol.ray is None and z is not None
    assert np.linalg.eigvalsh(z)[0] >= -1e-12 * np.trace(z)
    assert np.linalg.norm(adjoint(p, z)) <= 1e-12 * np.trace(z)
    assert float(np.vdot(p.mats[0], z)) < 0


def assert_ray(p, c, sol):
    """An unbounded solve's ray checked through the pencil itself: A(ray)
    psd to 1e-6 and c^T ray > 0."""
    assert sol.status == "unbounded" and sol.farkas is None
    assert np.linalg.eigvalsh(eval_pencil(p, sol.ray) - p.mats[0])[0] >= -1e-6
    assert float(c @ sol.ray) > 0


def duality_gap_pencil():
    """X = [[0, x1, 0], [x1, x2, 0], [0, 0, x1 + 1]] (Vandenberghe and Boyd,
    SIAM Rev. 38, 1996): the body is the half-line x1 = 0, x2 >= 0.  Along
    c = (a, 0), a != 0, the support value is 0 and no certificate exists,
    but the dual is infeasible (a > 0) or has optimum -a (a < 0)."""
    a1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return Pencil(mats=(np.diag([0.0, 0.0, 1.0]), a1, np.diag([0.0, 1.0, 0.0])))


def assert_same_solution(got, want):
    """Every SdpSolution field equal: arrays by np.array_equal, the rest by ==."""
    for f in dataclasses.fields(SdpSolution):
        u, v = getattr(got, f.name), getattr(want, f.name)
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            assert u is not None and v is not None and np.array_equal(u, v), f.name
        else:
            assert u == v, f.name


def assert_batch_equals_solo(p, cs):
    """Each solution of a stacked run, in forward, reversed and shuffled
    order, equals its solo solve bitwise; returns the solo solutions."""
    solo = [solve_sdp(p, c) for c in cs]
    shuffled = np.random.default_rng(3).permutation(len(cs)).tolist()
    for order in (list(range(len(cs))), list(reversed(range(len(cs)))), shuffled):
        batch = solve_sdp_many(p, [cs[i] for i in order])
        assert len(batch) == len(cs)
        for i, sol in zip(order, batch):
            assert_same_solution(sol, solo[i])
    return solo


def assert_unbounded_rows_end_with_rays(p, cs):
    """On an unbounded body with 0 interior, every row ends optimal or
    unbounded with a checked ray, batch equal to solo; returns the solo
    solutions."""
    solo = assert_batch_equals_solo(p, cs)
    assert {s.status for s in solo} == {"optimal", "unbounded"}
    for c, sol in zip(cs, solo):
        if sol.status == "unbounded":
            assert_ray(p, c, sol)
    return solo


def pentagon_objectives(count, seed):
    p = pentagon_fixture()
    raw = np.random.default_rng(seed).standard_normal((count, 2))
    return p, [p.lift_direction(y / np.linalg.norm(y)) for y in raw]


# Faults planted in one row of the stack on the solver's first pass, each
# through the helper that pass calls.  On that pass every row is in the
# stack, so x is the solver's own array and row FAULTY is problem FAULTY.
FAULTY = 2


def nan_iterate(real, a0, a_flat, cv, x, X, Z):
    x[FAULTY] = np.nan  # leaves the stack before any LAPACK call
    return real(a0, a_flat, cv, x, X, Z)


def singular_schur(real, a_flat, f_mat, out):
    schur = real(a_flat, f_mat, out)
    schur[FAULTY] = -1e-14 * np.eye(len(a_flat))  # the ridge of 1e-14 I makes it 0
    return schur


def no_scaling(real, X, Z):
    f_mat, zinv, half, scaled = real(X, Z)
    scaled[FAULTY] = False  # as when X or Z of the row reaches the float floor
    return f_mat, zinv, half, scaled


def every_singular_schur(real, a_flat, f_mat, out):
    schur = real(a_flat, f_mat, out)
    schur[:] = -1e-14 * np.eye(len(a_flat))
    return schur


def every_no_scaling(real, X, Z):
    f_mat, zinv, half, scaled = real(X, Z)
    return f_mat, zinv, half, [False] * len(scaled)


def fault_first_pass(monkeypatch, helper, fault):
    """Plant ``fault`` in the solver's first call of ``helper``."""
    real, calls = getattr(sdp, helper), []

    def first_pass(*args):
        calls.append(None)
        return fault(real, *args) if len(calls) == 1 else real(*args)

    monkeypatch.setattr(sdp, helper, first_pass)


def far_iterate(real, a0, a_flat, cv, x, X, Z):
    # x pushed to 1e154 along c: <x, x> is finite, but <rd, rd> overflows;
    # the row ends on the non-finite rule, with no overflow warning
    x[FAULTY] = 1e154 * cv[FAULTY] / np.linalg.norm(cv[FAULTY])
    return real(a0, a_flat, cv, x, X, Z)


def false_ray(real, a0, a_flat, cv, x, X, Z):
    # the products of the row report an iterate run off along c (c^T x and
    # <x, x> infinite), which a divergence rule would read as unbounded; with
    # no checked ray the row leaves for the finish and reports none
    rd, rp, dots = real(a0, a_flat, cv, x, X, Z)
    dots[FAULTY][7] = dots[FAULTY][8] = np.inf
    return rd, rp, dots


class TestSolveSdpMany:
    def test_batch_equals_solo_solves(self):
        assert_batch_equals_solo(*pentagon_objectives(40, 7000))

    def test_infeasible_rows_batch_equals_solo(self):
        # a raw (6, 7) pencil with no feasible point: every row ends
        # infeasible, with the same certificate in a batch as alone
        rng = np.random.default_rng((7, 0))
        p = random_pencil(6, 7, rng)
        cs = list(rng.standard_normal((20, 7)))
        for sol in assert_batch_equals_solo(p, cs):
            assert_farkas(p, sol)

    def test_rows_leaving_on_different_passes(self):
        # objectives of norms 1e-3 to 1e3 on the duality-gap pencil: rows end
        # optimal (c2 < 0), unbounded (c2 > 0) and numerical_failure (c2 = 0)
        # on many different passes, so they leave the stack one by one
        rng = np.random.default_rng(0)
        cs = rng.standard_normal((40, 2)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
        cs[::3, 1] = 0.0
        solo = assert_batch_equals_solo(duality_gap_pencil(), list(cs))
        assert {s.status for s in solo} == {"optimal", "unbounded", "numerical_failure"}
        assert len({s.iterations for s in solo}) >= 10

    def test_unbounded_planar_rows_end_with_rays(self, monkeypatch):
        # the planar body's rows end optimal or unbounded with checked rays,
        # and a ray that fails the check ends only its own row
        p = shift_to_interior(random_pencil(3, 2, 3), 0.5)[0]
        raw = np.random.default_rng(0).standard_normal((40, 2))
        cs = [y / np.linalg.norm(y) for y in raw]
        solo = assert_unbounded_rows_end_with_rays(p, cs)
        # a false ray: every candidate of row FAULTY is flipped, so c^T d > 0
        # but A(d) is not psd; no check passes, and only that row's solve fails
        assert solo[FAULTY].status == "unbounded"
        real = sdp._certificate

        def false_ray(a0, a_flat, gram_inv, h0, scale0, c, x, Z):
            flip = -1.0 if np.array_equal(c, cs[FAULTY]) else 1.0
            return real(a0, a_flat, gram_inv, h0, scale0, flip * c, flip * x, Z)

        monkeypatch.setattr(sdp, "_certificate", false_ray)
        batch = solve_sdp_many(p, cs)
        broken = batch.pop(FAULTY)
        assert (broken.status, broken.ray, broken.farkas) == ("numerical_failure", None, None)
        for got, want in zip(batch, solo[:FAULTY] + solo[FAULTY + 1 :]):
            assert_same_solution(got, want)

    def test_unbounded_body_in_four_dimensions_rows_end_with_rays(self):
        # directions 46, 68, 126 and 184 of this (4, 4, 2) body once stalled
        # and ended numerical_failure
        p = shift_to_interior(random_pencil(4, 4, 2), 0.5)[0]
        raw = np.random.default_rng(2).standard_normal((200, 4))
        assert_unbounded_rows_end_with_rays(p, [y / np.linalg.norm(y) for y in raw])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bounded_planar_cloud_all_optimal(self, seed):
        # a bounded body with 0 interior: every support SDP ends optimal, also
        # where the path phase hands over off-centre and the finish's full
        # Gauss-Newton step leaves the cone (one direction at each seed)
        p = shift_to_interior(random_pencil(4, 2, 0), 0.5)[0]
        raw = np.random.default_rng(seed).standard_normal((600, 2))
        sols = solve_sdp_many(p, [y / np.linalg.norm(y) for y in raw])
        assert {s.status for s in sols} == {"optimal"}
        assert {s.rank_X + s.rank_Z for s in sols} == {p.m}

    def test_reported_fields_match_their_definitions(self):
        # residuals and ranks come from the stack's own products and spectra
        p, cs = pentagon_objectives(30, 8)
        for c, sol in zip(cs, solve_sdp_many(p, cs)):
            assert sol.residuals[0] == pytest.approx(
                np.linalg.norm(eval_pencil(p, sol.x) - sol.X), abs=1e-13
            )
            assert sol.residuals[1] == np.linalg.norm(adjoint(p, sol.Z) + c)
            assert sol.residuals[2] == pytest.approx(np.vdot(sol.X, sol.Z), rel=1e-12, abs=1e-15)
            assert (sol.rank_X, sol.rank_Z) == (rank_of(sol.X), rank_of(sol.Z))

    def test_chunks_do_not_change_results(self, monkeypatch):
        p, cs = pentagon_objectives(12, 11)
        whole = solve_sdp_many(p, cs)
        # chunks of 5: the finish's dense system of a rank-0 row, (n + t(m))^2
        # floats, is the larger per-row stack the chunk size allows for
        monkeypatch.setattr(sdp, "CHUNK_BYTES", 8 * (p.n + p.m * (p.m + 1) // 2) ** 2 * 5)
        for got, want in zip(solve_sdp_many(p, cs), whole):
            assert_same_solution(got, want)

    @pytest.mark.parametrize(
        "helper, fault",
        [
            ("_residuals", nan_iterate),
            ("_residuals", far_iterate),
            ("_nt_scaling", no_scaling),
            ("_schur_gram", singular_schur),
            ("_residuals", false_ray),
        ],
    )
    def test_fault_in_one_row_ends_only_its_solve(self, monkeypatch, helper, fault):
        p, cs = pentagon_objectives(6, 12)
        solo = [solve_sdp(p, c) for c in cs]
        fault_first_pass(monkeypatch, helper, fault)
        batch = solve_sdp_many(p, cs)
        broken = batch.pop(FAULTY)
        assert (broken.status, broken.iterations, broken.ray) == ("numerical_failure", 1, None)
        for got, want in zip(batch, solo[:FAULTY] + solo[FAULTY + 1 :]):
            assert_same_solution(got, want)

    def test_faults_in_two_rows_end_both_in_one_pass(self, monkeypatch):
        # nan_iterate in row FAULTY and false_ray's products in row OTHER,
        # planted through one _residuals call: both rows end on the first
        # pass's masks together, and every other row is its solo solve
        p, cs = pentagon_objectives(6, 12)
        solo = [solve_sdp(p, c) for c in cs]
        other = FAULTY + 2

        def two_faults(real, a0, a_flat, cv, x, X, Z):
            rd, rp, dots = nan_iterate(real, a0, a_flat, cv, x, X, Z)
            dots[other, 7] = dots[other, 8] = np.inf
            return rd, rp, dots

        fault_first_pass(monkeypatch, "_residuals", two_faults)
        batch = solve_sdp_many(p, cs)
        for k, (got, want) in enumerate(zip(batch, solo)):
            if k in (FAULTY, other):
                assert (got.status, got.iterations, got.ray) == ("numerical_failure", 1, None), k
            else:
                assert_same_solution(got, want)

    def test_stacked_errors_match_the_scalar_formula(self):
        # row k of the (B, 9) products is problem k's inner products, and
        # entry k of each stacked error is, bitwise, the scalar expression on
        # its Python floats; rows with infinite products give inf or NaN and
        # no RuntimeWarning
        p, cs = pentagon_objectives(8, 13)
        rng = np.random.default_rng(13)
        count, m, n = len(cs), p.m, p.n
        cs = np.array(cs)
        a0, a_flat = p.mats[0], np.array(p.mats[1:]).reshape(n, m * m)
        g = rng.standard_normal((2, count, m, m))
        X, Z = g @ g.mT + np.eye(m)
        x, tau = rng.standard_normal((count, n)), rng.uniform(0.1, 2.0, count)
        rd, rp, dots = _residuals(a0 * tau[:, None, None], a_flat, cs * tau[:, None], x, X, Z)
        assert dots.shape == (count, 9)
        for k in range(count):
            pairs = [(rd[k], rd[k]), (X[k], Z[k]), (X[k] @ Z[k],) * 2, (X[k], X[k]), (Z[k], Z[k]),
                     (a0 * tau[k], Z[k]), (rp[k], rp[k]), (cs[k] * tau[k], x[k]), (x[k], x[k])]
            assert dots[k].tolist() == [float(np.vdot(u, v)) for u, v in pairs], k
        dots[0, 0] = np.inf  # primal error inf
        dots[1, 3:5] = np.inf  # complementarity's denominator inf
        dots[2, 2:4] = np.inf  # complementarity inf / inf
        dots[3, 1] = dots[3, 7] = np.inf  # gap inf / inf
        norm_a0, norm_c = float(np.linalg.norm(a0)), np.sqrt(_dot(cs, cs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = np.column_stack(_errors(dots, norm_a0, norm_c, tau))
        assert errors.shape == (count, 4)
        for k in range(count):
            rd_rd, x_z, xz_xz, x_x, z_z, _, rp_rp, c_x, _ = dots[k].tolist()
            t, nc = float(tau[k]), float(norm_c[k])
            want = [
                math.sqrt(rd_rd) / (t * (1.0 + norm_a0)),
                math.sqrt(rp_rp) / (t * (1.0 + nc)),
                abs(x_z) / (t * t + abs(c_x)),
                math.sqrt(xz_xz) / (t * t + math.sqrt(x_x) * math.sqrt(z_z)),
            ]
            np.testing.assert_array_equal(errors[k], want, strict=True, err_msg=str(k))
        assert np.isnan(errors[2:4]).sum() == 2 and np.isinf(errors[0, 0])

    @pytest.mark.parametrize("count", [1, 2, 6])
    @pytest.mark.parametrize(
        "helper, fault",
        [("_nt_scaling", every_no_scaling), ("_schur_gram", every_singular_schur)],
    )
    def test_fault_in_every_row_ends_every_solve(self, monkeypatch, helper, fault, count):
        # every row of the stack gets no Newton step on the first pass: the
        # stack empties there, and each solve ends, none with a certificate
        p, cs = pentagon_objectives(count, 12)
        fault_first_pass(monkeypatch, helper, fault)
        batch = solve_sdp_many(p, cs)
        got = [(s.status, s.iterations, s.ray, s.farkas) for s in batch]
        assert got == [("numerical_failure", 1, None, None)] * count

    def test_mixed_statuses_on_half_line(self):
        half = Pencil(mats=(np.eye(1), np.eye(1)))  # 1 + x >= 0
        cs = [[1.0], [-1.0], [0.5], [-2.0], [0.0]]
        batch = solve_sdp_many(half, cs)
        statuses = ["unbounded", "optimal", "unbounded", "optimal", "optimal"]
        assert [s.status for s in batch] == statuses
        assert [s.value for s in batch[1::2]] == pytest.approx([1.0, 2.0], abs=1e-8)
        for c, sol in zip(cs, batch):
            assert_same_solution(sol, solve_sdp(half, c))

    def test_all_unbounded_on_whole_line(self):
        whole = Pencil(mats=(np.eye(1), np.zeros((1, 1))))  # every x is feasible
        cs = [[1.0], [-1.0], [3.0]]
        batch = solve_sdp_many(whole, cs)
        assert [s.status for s in batch] == ["unbounded"] * 3
        assert [float(s.ray[0]) for s in batch] == [1.0, -1.0, 1.0]
        for c, sol in zip(cs, batch):
            assert_same_solution(sol, solve_sdp(whole, c))

    def test_objective_validation(self):
        p = segment_fixture()
        with pytest.raises(ValueError, match="shape"):
            solve_sdp_many(p, [1.0])
        with pytest.raises(ValueError, match="shape"):
            solve_sdp_many(p, [[1.0, 2.0]])
        assert solve_sdp_many(p, []) == []

    def test_max_step_indefinite_slice(self):
        rng = np.random.default_rng(2)
        mats = np.array([g @ g.T + np.eye(3) for g in rng.standard_normal((8, 3, 3))])
        mats[2] = np.diag([1.0, -1.0, 2.0])  # an X that has no NT scaling
        dirs = np.array([(g + g.T) for g in rng.standard_normal((8, 3, 3))])
        half = _nt_scaling(mats[:4], mats[4:])[2]  # of X, then of Z
        steps = _max_step(half, dirs)
        each = [_max_step(half[k : k + 1], dirs[k : k + 1])[0] for k in range(8)]
        assert np.array_equal(steps, each)
        assert all(0.0 < step <= 1.0 for step in steps)
        # the step from the Cholesky factor L of mat: lambda_min of L^-1 D L^-T
        for k in (0, 1, 3, 4, 5, 6, 7):
            chol = np.linalg.cholesky(mats[k])
            scaled = np.linalg.solve(chol, np.linalg.solve(chol, dirs[k]).T)
            lam = np.linalg.eigvalsh((scaled + scaled.T) / 2)[0]
            want = 1.0 if lam >= -1e-14 else min(1.0, -1.0 / lam)
            assert steps[k] == pytest.approx(want, rel=1e-10, abs=0), k
        assert np.sum(steps < 1.0) >= 4  # the formula is exercised, not only the cap

    # dtau and dkappa as multiples of tau and kappa, as Newton's directions
    # scale: past |dv / v| = 2**1023 the 1 x 1 route's (a + a) / 2 overflows
    # to inf, where the elementwise rule stays finite
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(-300, 300), st.floats(-1e8, 1e8) | st.floats(-1e-13, 1e-13)),
        min_size=2, max_size=12,
    ))
    def test_step_tau_kappa_match_one_by_one_eigvalsh(self, draws):
        v = np.array([10.0**e for e, _ in draws])  # tau, then kappa
        dv = v * np.array([ratio for _, ratio in draws])
        count = len(v) // 2
        v, dv = v[: 2 * count], dv[: 2 * count]
        half = np.repeat(np.eye(2)[None], 2 * count, axis=0)
        still = np.zeros((count, 2, 2))  # X and Z do not move: their step is 1
        want = _max_step(1.0 / np.sqrt(v)[:, None, None], dv[:, None, None])
        got = sdp._step(half, still, still, v[:count], dv[:count], v[count:], dv[count:])
        assert got.tobytes() == want.reshape(2, count).min(axis=0).tobytes()
        # each block alone, while the other does not move
        zero = np.zeros(count)
        tau_only = sdp._step(half, still, still, v[:count], dv[:count], v[count:], zero)
        kappa_only = sdp._step(half, still, still, v[:count], zero, v[count:], dv[count:])
        assert tau_only.tobytes() == want[:count].tobytes()
        assert kappa_only.tobytes() == want[count:].tobytes()

    def test_step_makes_one_eigvalsh_call(self, monkeypatch):
        rng = np.random.default_rng(5)
        X, Z, dX, dZ = (np.array([g @ g.T for g in rng.standard_normal((3, 3, 3))]) for _ in range(4))
        half = _nt_scaling(X, Z)[2]
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        sdp._step(half, -dX, -dZ, np.ones(3), -np.ones(3), np.ones(3), np.zeros(3))
        assert calls == [(6, 3, 3)]  # X and Z stacked; tau and kappa elementwise

    @pytest.mark.parametrize("m", [3, 4, 8])
    def test_nt_identities(self, m):
        # random pd pairs, and a last pair whose X spans 1 to 1e-10 (as at the
        # path's hand-over at TOL) against a Z of the reverse spread, X Z ~ 1e-10
        rng = np.random.default_rng(m)
        g = rng.standard_normal((2, 5, m, m))
        X, Z = g @ g.mT + np.eye(m) / m
        q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        lam = np.logspace(0, -10, m)
        g = rng.standard_normal((m, m))
        X = np.concatenate([X, [(q * lam) @ q.T]])
        Z = np.concatenate([Z, [(q * (1e-10 / lam)) @ q.T + 1e-12 * g @ g.T]])
        X, Z = (X + X.mT) / 2, (Z + Z.mT) / 2
        f_mat, zinv, half, scaled = _nt_scaling(X, Z)
        assert scaled == [True] * 6
        eye = np.eye(m)
        for k in range(6):
            # relative error up to 20 eps cond: rounding of the worse-conditioned
            # of X and Z (measured at most 2 eps cond, 1e-6 on the last pair)
            cond = max(np.linalg.cond(X[k]), np.linalg.cond(Z[k]))
            tol = 20 * np.finfo(float).eps * cond
            f_inv = np.linalg.inv(f_mat[k])
            fxf, fzf = f_mat[k].T @ X[k] @ f_mat[k], f_inv @ Z[k] @ f_inv.T
            top = np.abs(fxf).max()
            assert np.abs(fxf - fzf).max() <= tol * top, k
            for both in (fxf, fzf):  # the scaled point, diagonal
                assert np.abs(both - np.diag(np.diag(both))).max() <= tol * top, k
            hx, hz = half[k], half[6 + k]
            for prod in (hx @ hx.T @ X[k], hz @ hz.T @ Z[k], zinv[k] @ Z[k]):
                assert np.abs(prod - eye).max() <= tol, k

    def test_nt_scaling_makes_one_cholesky_and_one_eigh_call(self, monkeypatch):
        rng = np.random.default_rng(6)
        X, Z = (np.array([g @ g.T + np.eye(4) for g in rng.standard_normal((5, 4, 4))]) for _ in range(2))
        calls = []

        def record(name):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a: calls.append((name, a)) or real(a))

        for name in ("cholesky", "eigh", "eigvalsh"):
            record(name)
        _nt_scaling(X, Z)
        assert [(name, a.shape) for name, a in calls] == [("cholesky", (5, 4, 4)), ("eigh", (5, 4, 4))]
        assert calls[0][1] is X
        # the eigh is of the middle matrix L^T Z L, not of X or Z
        chol = np.linalg.cholesky(X)
        assert np.array_equal(calls[1][1], sdp._sym(chol.mT @ Z @ chol))

    @pytest.mark.parametrize("bad", [[1.0, -1.0, 2.0], [1.0, 0.0, 2.0]], ids=["indefinite", "singular"])
    def test_refused_cholesky_unscales_only_its_row(self, bad):
        rng = np.random.default_rng(7)
        X, Z = (np.array([g @ g.T + np.eye(3) for g in rng.standard_normal((5, 3, 3))]) for _ in range(2))
        X[2] = np.diag(bad)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(X)  # the stacked call refuses the stack
        f_mat, zinv, half, scaled = _nt_scaling(X, Z)
        assert scaled == [True, True, False, True, True]
        for k in (0, 1, 3, 4):
            f1, zinv1, half1, scaled1 = _nt_scaling(X[k : k + 1], Z[k : k + 1])
            assert scaled1 == [True]
            assert f_mat[k].tobytes() == f1[0].tobytes(), k
            assert zinv[k].tobytes() == zinv1[0].tobytes(), k
            assert half[k].tobytes() == half1[0].tobytes(), k
            assert half[5 + k].tobytes() == half1[1].tobytes(), k
        # the refused X stands in as L = I: its row's Z^-1 and Z half are Z's own
        assert np.allclose(zinv[2] @ Z[2], np.eye(3), atol=1e-12)
        assert np.allclose(half[7] @ half[7].T @ Z[2], np.eye(3), atol=1e-12)
        assert np.isfinite(f_mat[2]).all() and np.isfinite(half[2]).all()

    def test_singular_schur_slice_fails_alone(self):
        rng = np.random.default_rng(4)
        a = np.array([g @ g.T + np.eye(3) for g in rng.standard_normal((3, 3, 3))])
        a[1] = 0.0
        b = rng.standard_normal((3, 3, 1))
        out, solved = _solve_each(a, b)
        assert solved == [True, False, True]
        for k in (0, 2):
            assert np.array_equal(out[k], np.linalg.solve(a[k], b[k]))
        assert not out[1].any()

    @pytest.mark.parametrize("bad", [(0,), (5,), (2, 3), (0, 5), (0, 1, 2, 3, 4, 5)])
    def test_solve_each_bisects_to_singular_slices(self, bad):
        rng = np.random.default_rng(8)
        a = np.array([g @ g.T + np.eye(3) for g in rng.standard_normal((6, 3, 3))])
        a[list(bad)] = 0.0
        b = rng.standard_normal((6, 3, 1))
        out, solved = _solve_each(a, b)
        assert solved == [k not in bad for k in range(6)]
        for k in range(6):
            want = np.zeros((3, 1)) if k in bad else np.linalg.solve(a[k], b[k])
            assert np.array_equal(out[k], want), k

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 2),
        st.lists(st.sampled_from(["regular", "zero", "rank_one", "repeated_column"]),
                 min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    def test_solve_each_flags_what_a_lone_solve_refuses(self, n, r, kinds, seed):
        # planted zero, rank-one and repeated-column slices, with small
        # integer entries or Gaussian ones: the flags are "a lone solve
        # raises", every solved slice is the lone solve's bits, the rest are
        # zero, and the stack costs at most two stacked solves
        rng = np.random.default_rng(seed)

        def draw(*shape):
            if seed % 2:
                return rng.integers(-3, 4, shape).astype(float)
            return rng.standard_normal(shape)

        a = np.array([draw(n, n) for _ in kinds])
        for k, kind in enumerate(kinds):
            if kind == "zero":
                a[k] = 0.0
            elif kind == "rank_one":
                a[k] = np.outer(draw(n), draw(n))
            elif kind == "repeated_column" and n > 1:
                i, j = rng.choice(n, 2, replace=False)
                a[k, :, j] = a[k, :, i]
        b = draw(len(kinds), n, r)
        lone = []
        for k in range(len(kinds)):
            try:
                lone.append(np.linalg.solve(a[k], b[k]))
            except np.linalg.LinAlgError:
                lone.append(None)
        real, calls = np.linalg.solve, []

        def spy(*args):
            calls.append(None)
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "solve", spy)
            out, solved = _solve_each(a, b)
        assert len(calls) <= 2
        assert solved == [want is not None for want in lone]
        for k, want in enumerate(lone):
            assert np.array_equal(out[k], np.zeros((n, r)) if want is None else want), k

    def test_different_face_ranks_finish_in_one_stack(self):
        # vertices, the zero objective and edge directions: rows whose
        # optimal faces have different ranks, finished in one stack
        p = pentagon_fixture()
        cs = [p.lift_direction(v) for v in pentagon_vertices()] + [np.zeros(p.n)]
        cs += pentagon_objectives(20, 1)[1]
        batch = solve_sdp_many(p, cs)
        for c, sol in zip(cs, batch):
            assert_same_solution(sol, solve_sdp(p, c))

    def test_mixed_kernel_stack_equals_solo_solves(self):
        # ranks 10 to 12 at m = 16: the finish groups kernel dimensions 4 to
        # 6, each group with its own dense system
        p = shift_to_interior(random_pencil(16, 37, 1), 0.5)[0]
        cs = np.random.default_rng(0).standard_normal((40, 37))
        batch = solve_sdp_many(p, cs)
        assert {16 - sol.rank_X for sol in batch} == {4, 5, 6}
        for c, sol in zip(cs, batch):
            assert_same_solution(sol, solve_sdp(p, c))

    def test_non_finite_objectives_rejected(self):
        p = segment_fixture()
        with pytest.raises(ValueError, match="objective 1 is not finite"):
            solve_sdp_many(p, [[1.0], [np.nan], [np.inf]])
        with pytest.raises(ValueError, match="objective 0 is not finite"):
            solve_sdp(p, [-np.inf])


def kkt_map(a0, a_flat, c, v):
    """F(x, Z) = (A*(Z) + c, upper triangle of (XZ + ZX)/2) at v = (x, upper
    triangle of Z), X = A0 + A(x), entry by entry."""
    m, n = a0.shape[0], len(c)
    iu, ju = np.triu_indices(m)
    mats = a_flat.reshape(n, m, m)
    z = np.zeros((m, m))
    z[iu, ju] = z[ju, iu] = v[n:]
    x_big = a0 + np.tensordot(v[:n], mats, axes=1)
    dual = [np.sum(a * z) + ci for a, ci in zip(mats, c)]
    prod = x_big @ z + z @ x_big
    return np.array(dual + [prod[i, j] / 2 for i, j in zip(iu, ju)])


def kkt_jacobian(a0, a_flat, c, v):
    """The Jacobian of :func:`kkt_map` at v, column by column by central
    differences: F is bilinear in (x, Z), so unit differences are exact up
    to rounding."""
    return np.array(
        [(kkt_map(a0, a_flat, c, v + e) - kkt_map(a0, a_flat, c, v - e)) / 2 for e in np.eye(len(v))]
    ).T


def record_finish_steps(monkeypatch):
    """A list that gains (X, Z, rd, rc, dx, dZ) for each row of each
    Gauss-Newton step the finish takes: the iterate, its residual F = (rd,
    sym(XZ) = rc) and the step :func:`sdp._finish_step` returns."""
    rows, real = [], sdp._finish_step

    def spy(a_mats, X, Z, rd, rc, pairs):
        dx, dz, solved = real(a_mats, X, Z, rd, rc, pairs)
        rows.extend(zip(X, Z, rd, rc, dx, dz))
        return dx, dz, solved

    monkeypatch.setattr(sdp, "_finish_step", spy)
    return rows


def assert_newton_steps(p, rows, forward):
    """Each recorded step d = (dx, dZ) solves J d = -F, J the dense
    central-difference Jacobian of kkt_map at its iterate: with a normwise
    backward error below 1e-14, and, when ``forward``, equal to -J^-1 F to
    1e-8 relative (cond(J) is then at most 1e6, so -J^-1 F is itself known
    to about 1e-10).  Returns the kernel dimensions of the rows."""
    m, n = p.m, p.n
    a_flat = np.array(p.mats[1:]).reshape(n, m * m)
    iu = np.triu_indices(m)
    kernels = []
    for X, Z, rd, rc, dx, dz in rows:
        # kkt_map with X in place of A0 at x = 0 has this iterate's X, and
        # its sym(XZ) to the rounding level of XZ
        v = np.concatenate([np.zeros(n), Z[iu]])
        c = rd - a_flat @ Z.ravel()
        level = 1e-14 * np.linalg.norm(X) * np.linalg.norm(Z)
        assert np.allclose(rc[iu], kkt_map(X, a_flat, c, v)[n:], rtol=0, atol=level)
        f = np.concatenate([rd, rc[iu]])
        jac = kkt_jacobian(X, a_flat, c, v)
        assert np.array_equal(dz, dz.T)
        d = np.concatenate([dx, dz[iu]])
        residual = np.linalg.norm(jac @ d + f)
        assert residual <= 1e-14 * (np.linalg.norm(jac, 2) * np.linalg.norm(d) + np.linalg.norm(f))
        if forward:
            assert np.linalg.cond(jac) <= 1e6
            want = -np.linalg.solve(jac, f)
            assert np.linalg.norm(d - want) <= 1e-8 * np.linalg.norm(want)
        kernels.append(m - rank_of(X))  # the kernel the step eliminates around
    return kernels


def basis_pencil(m):
    """A0 = I and A1..A_t the symmetric unit matrices: with c = -A*(Z0), Z0
    positive definite, the optimum is X = 0 with the dual Z0, a rank-0 face
    whose KKT Jacobian is nonsingular."""
    iu, ju = np.triu_indices(m)
    mats = []
    for i, j in zip(iu, ju):
        e = np.zeros((m, m))
        e[i, j] = e[j, i] = 1.0
        mats.append(e)
    return Pencil(mats=(np.eye(m), *mats))


class TestFinishStep:
    """The finish's step, a block elimination in X's eigenbasis, is the
    Newton step -J^-1 F of the whole symmetrized KKT system."""

    def test_step_from_a_given_iterate(self, monkeypatch):
        # X = A0 positive definite and a random positive definite Z: kernel 0;
        # F at the start is kkt_map of the given (x, Z) and c
        rng = np.random.default_rng(12)
        m, n = 4, 3
        p, c = bounded_random_pencil(12, m, n)
        a0, a_flat = p.mats[0], np.array(p.mats[1:]).reshape(n, m * m)
        g = rng.standard_normal((m, m))
        z = g @ g.T
        rows = record_finish_steps(monkeypatch)
        _finish(a0, a_flat, c[None], np.zeros((1, n)), z[None])
        X, Z, rd, rc = rows[0][:4]
        v = np.concatenate([np.zeros(n), z[np.triu_indices(m)]])
        f = np.concatenate([rd, rc[np.triu_indices(m)]])
        assert np.array_equal(X, a0) and np.array_equal(Z, z)
        assert np.allclose(f, kkt_map(a0, a_flat, c, v), rtol=1e-12, atol=1e-12)
        assert set(assert_newton_steps(p, rows, forward=True)) == {0}

    @pytest.mark.parametrize(
        "m, n, kernels", [(4, 2, {1}), (4, 4, {1, 2})]
    )
    def test_steps_on_random_bodies(self, monkeypatch, m, n, kernels):
        p = shift_to_interior(random_pencil(m, n, 1), 0.5)[0]
        rows = record_finish_steps(monkeypatch)
        sols = solve_sdp_many(p, np.random.default_rng(0).standard_normal((12, n)))
        assert {s.status for s in sols} == {"optimal"}
        assert set(assert_newton_steps(p, rows, forward=True)) == kernels

    def test_steps_at_a_rank_0_optimum(self, monkeypatch):
        # X ends at 0: every pair is in the kernel block, the whole system
        m = 3
        p = basis_pencil(m)
        g = np.random.default_rng(0).standard_normal((m, m))
        rows = record_finish_steps(monkeypatch)
        sol = solve_sdp(p, -adjoint(p, g @ g.T / m + 0.5 * np.eye(m)))
        assert sol.status == "optimal"
        assert (sol.rank_X, sol.rank_Z) == (0, m)
        assert set(assert_newton_steps(p, rows, forward=True)) == {m}

    def test_steps_on_a_large_pool_pair(self, monkeypatch):
        p, c = strictly_feasible_pair(24, 80, (2024, 0))
        rows = record_finish_steps(monkeypatch)
        assert solve_sdp(p, c).status == "optimal"
        assert set(assert_newton_steps(p, rows, forward=True)) == {7}

    def test_steps_on_pentagon_faces(self, monkeypatch):
        # vertex, zero-objective and edge rows: the vertices' duals are not
        # unique, so J nears singularity (cond 4e8 to 1e16) and only the
        # backward error is held
        p = pentagon_fixture()
        edges = [np.cos(np.pi * (2 * k + 1) / 5 + np.array([0, -np.pi / 2])) for k in range(5)]
        cs = [p.lift_direction(v) for v in [*pentagon_vertices(), *edges]] + [np.zeros(p.n)]
        rows = record_finish_steps(monkeypatch)
        assert {s.status for s in solve_sdp_many(p, cs)} == {"optimal"}
        assert set(assert_newton_steps(p, rows, forward=False)) == {0, 2, 3}


def count_finish_solves(monkeypatch):
    """A list that gains the shape of each stacked LU solve made inside the
    finish, whatever its size; the Schur solves of the path phase are not
    counted."""
    calls, inside = [], []
    real_finish, real_solve = sdp._finish, sdp._solve_each

    def finish(*args):
        inside.append(True)
        try:
            return real_finish(*args)
        finally:
            inside.pop()

    def solve_each(a, b):
        if inside:
            calls.append(a.shape)
        return real_solve(a, b)

    monkeypatch.setattr(sdp, "_finish", finish)
    monkeypatch.setattr(sdp, "_solve_each", solve_each)
    return calls


class TestFinishStopsAtRoundingLevel:
    """The finish takes another Gauss-Newton round only while ||F|| is above
    eps ||X||_F ||Z||_F, the resolution of sym(XZ)."""

    def test_sdp_large_pool_takes_two_steps(self, monkeypatch):
        # the benchmark's sdp-large pool: two steps reach the level, so a
        # third step is not taken; each step's LU solve has n + t(m - rank X)
        # unknowns (rank X is 15 to 17 here), never the n + t(m) = 380 of the
        # whole system
        m, n = 24, 80
        calls = count_finish_solves(monkeypatch)
        for i in range(12):
            p, c = strictly_feasible_pair(m, n, (2024, i))
            del calls[:]
            sol = solve_sdp(p, c)
            assert sol.status == "optimal", i
            assert sol.finish_steps == 2, i
            assert [shape[0] for shape in calls] == [1, 1], i
            assert all(shape[1] == shape[2] <= n + 45 for shape in calls), (i, calls)

    def test_row_above_level_after_two_rounds_takes_a_third(self):
        # directions 24 and 377 sit 1.7e4 and 1.8e4 times above the level
        # after two rounds (265 and 597, the cloud's other two such rows,
        # 1.07 and 1.06 times)
        p = shift_to_interior(random_pencil(4, 2, 0), 0.5)[0]
        raw = np.random.default_rng(0).standard_normal((600, 2))
        sols = solve_sdp_many(p, [y / np.linalg.norm(y) for y in raw])
        third = {k for k, sol in enumerate(sols) if sol.finish_steps == 3}
        assert {24, 377} <= third
        assert all(sols[k].status == "optimal" for k in third)

    def test_iterate_at_level_is_returned_unchanged(self, monkeypatch):
        # finished pentagon pairs, which sit at the level; the test is exact
        # under power-of-two scalings of Z and c, or of the pencil and c,
        # which scale F and eps ||X|| ||Z|| alike
        p, cs = pentagon_objectives(30, 5)
        sols = solve_sdp_many(p, cs)
        assert {sol.finish_steps for sol in sols} == {2}
        m, n = p.m, p.n
        a0, a_flat = p.mats[0], np.array(p.mats[1:]).reshape(n, m * m)
        cs = np.array(cs)
        xs, Xs, Zs = (np.array([getattr(sol, f) for sol in sols]) for f in ("x", "X", "Z"))
        calls = count_finish_solves(monkeypatch)
        for s in (1.0, 2.0**20, 2.0**-20):
            for z_scale, pencil_scale in ((s, 1.0), (1.0, s)):
                x, X, Z, steps, _ = sdp._finish(
                    pencil_scale * a0, pencil_scale * a_flat, s * cs, xs, z_scale * Zs
                )
                assert calls == [] and steps.tolist() == [0] * len(sols), (z_scale, pencil_scale)
                assert np.array_equal(x, xs)
                assert np.array_equal(X, pencil_scale * Xs) and np.array_equal(Z, z_scale * Zs)
