"""Pencil algebra, JSON format, eigen utilities, and the SDP solver."""

import dataclasses
import json

import numpy as np
import pytest

from psdbound.bounds import pataki_range
from psdbound.pencil import Pencil, adjoint, eval_pencil, load_pencil, save_pencil, symmetrize
from psdbound.polar import disk_fixture, pentagon_fixture, pentagon_vertices, segment_fixture
from psdbound.experiments import random_pencil, shift_to_interior
from psdbound import sdp
from psdbound.sdp import (
    NotInteriorError,
    SdpSolution,
    _factor,
    _max_step,
    _polish_round,
    _schur_gram,
    _solve_each,
    rank_of,
    solve_sdp,
    solve_sdp_many,
    support_value,
    sym_eig,
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


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        assert np.allclose(w, np.ones(3))
        assert np.allclose(v @ v.T, np.eye(3))

    def test_sorted_descending(self):
        w, _ = sym_eig(np.diag([2.0, 0.0]))
        assert np.allclose(w, [2.0, 0.0])

    def test_reconstruction(self):
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        mat = rot @ np.diag([3.0, -1.0]) @ rot.T
        w, v = sym_eig(mat)
        assert np.allclose(w, [3.0, -1.0], atol=1e-10)
        assert np.linalg.norm(mat - (v * w) @ v.T) <= 1e-10 * max(1.0, np.linalg.norm(mat))
        assert np.linalg.norm(v @ v.T - np.eye(2)) <= 1e-10


class TestRankOf:
    def test_zero(self):
        assert rank_of(np.zeros((3, 3))) == 0

    def test_diag(self):
        assert rank_of(np.diag([2.0, 0.0])) == 1
        assert rank_of(np.diag([1.0, 1e-12])) == 1
        assert rank_of(np.diag([1.0, 1e-3])) == 2


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
        p = Pencil(mats=(np.diag([1.0, -1.0]), np.eye(2)))
        with pytest.raises(NotInteriorError):
            solve_sdp(p, [1.0])

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
        sol = solve_sdp(p, [1.0], require_interior=False)
        assert sol.status == "infeasible"
        assert sol.ray is None

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
            sol = support_value(p, vert)
            assert sol.status == "optimal"
            assert sol.value == pytest.approx(1.0, abs=1e-6)

    def test_pentagon_direction_e2(self):
        sol = support_value(pentagon_fixture(), np.array([0.0, 1.0]))
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
        # (m, n) = (24, 80), both sides strictly feasible: A0 shifted to
        # lambda_min >= 1 and c = -A*(Z0) with Z0 positive definite
        rng = np.random.default_rng((2024, 11))
        p, _ = shift_to_interior(random_pencil(24, 80, rng), 1.0)
        g = rng.standard_normal((24, 24))
        c = -adjoint(p, g @ g.T / 24 + 0.1 * np.eye(24))
        sol = solve_sdp(p, c)
        assert sol.status == "optimal"
        scale = max(1.0, sol.spectrum_X[0], sol.spectrum_Z[0])
        x_big = eval_pencil(p, sol.x)
        assert np.linalg.norm(x_big - sol.X) <= 1e-7 * (1 + np.linalg.norm(p.mats[0]))
        assert np.linalg.norm(adjoint(p, sol.Z) + c) <= 1e-7 * (1 + np.linalg.norm(c))
        assert np.linalg.eigvalsh(sol.X)[0] >= -1e-7 * scale
        assert np.linalg.eigvalsh(sol.Z)[0] >= -1e-7 * scale
        dual_value = float(np.vdot(p.mats[0], sol.Z))
        assert abs(sol.value - dual_value) <= 1e-6 * (1 + abs(sol.value))

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


def assert_same_solution(got, want):
    """Every SdpSolution field equal: arrays by np.array_equal, the rest by ==."""
    for f in dataclasses.fields(SdpSolution):
        u, v = getattr(got, f.name), getattr(want, f.name)
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            assert u is not None and v is not None and np.array_equal(u, v), f.name
        else:
            assert u == v, f.name


def pentagon_objectives(count, seed):
    p = pentagon_fixture()
    raw = np.random.default_rng(seed).standard_normal((count, 2))
    return p, [p.lift_direction(y / np.linalg.norm(y)) for y in raw]


class TestSolveSdpMany:
    def test_batch_equals_solo_solves(self):
        p, cs = pentagon_objectives(40, 7000)
        solo = [solve_sdp(p, c) for c in cs]
        shuffled = np.random.default_rng(3).permutation(len(cs)).tolist()
        for order in (list(range(len(cs))), list(reversed(range(len(cs)))), shuffled):
            batch = solve_sdp_many(p, [cs[i] for i in order])
            assert len(batch) == len(cs)
            for i, sol in zip(order, batch):
                assert_same_solution(sol, solo[i])

    def test_chunks_do_not_change_results(self, monkeypatch):
        p, cs = pentagon_objectives(12, 11)
        whole = solve_sdp_many(p, cs)
        monkeypatch.setattr(sdp, "CHUNK_BYTES", 8 * p.n * p.m**2 * 5)  # chunks of 5
        for got, want in zip(solve_sdp_many(p, cs), whole):
            assert_same_solution(got, want)

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
        with pytest.raises(NotInteriorError):
            solve_sdp_many(Pencil(mats=(np.diag([1.0, -1.0]), np.eye(2))), [[1.0], [-1.0]])

    def test_max_step_indefinite_slice(self):
        rng = np.random.default_rng(2)
        mats = np.array([g @ g.T + np.eye(3) for g in rng.standard_normal((4, 3, 3))])
        mats[2] = np.diag([1.0, -1.0, 2.0])
        dirs = np.array([(g + g.T) / 2 for g in rng.standard_normal((4, 3, 3))])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mats)  # the stacked factorization fails whole
        steps = _max_step(_factor(mats), dirs)
        assert steps == [_max_step(_factor(mats[k : k + 1]), dirs[k : k + 1])[0] for k in range(4)]
        assert all(0.0 < step <= 1.0 for step in steps)

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
    def test_factor_bisects_to_bad_slices(self, bad):
        rng = np.random.default_rng(6)
        mats = np.array([g @ g.T + np.eye(3) for g in rng.standard_normal((6, 3, 3))])
        for k in bad:
            mats[k] = np.diag([1.0, -1.0, 2.0]) + 0.1 * k
        got = _factor(mats)
        for k in range(6):
            if k in bad:
                w, v = np.linalg.eigh(mats[k])
                want = v * np.sqrt(np.maximum(w, 1e-300))
            else:
                want = np.linalg.cholesky(mats[k])
            assert np.array_equal(got[k], want), k

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

    def test_face_rank_groups_equal_solo(self, monkeypatch):
        p = pentagon_fixture()
        cs = [p.lift_direction(v) for v in pentagon_vertices()] + [np.zeros(p.n)]
        cs += pentagon_objectives(5, 1)[1]
        groups = set()

        def spy(a0, a_flat, cs, X, r):
            groups.add(r)
            return _polish_round(a0, a_flat, cs, X, r)

        monkeypatch.setattr(sdp, "_polish_round", spy)
        batch = solve_sdp_many(p, cs)
        assert len(groups) >= 3  # rows of one batch fall into several face-rank groups
        for c, sol in zip(cs, batch):
            assert_same_solution(sol, solve_sdp(p, c))

    def test_polish_skips_undetermined_face_ranks(self, monkeypatch):
        # trial (13, 9) of rank_frequency's (6, 7) draw: the spectra suggest
        # r = 2 and r = 6, and at r = 6 the x refit has 7 unknowns and no
        # dimension off the face
        rng = np.random.default_rng((13, 9))
        p = random_pencil(6, 7, rng)
        c = rng.standard_normal(7)
        ranks = []

        def spy(a0, a_flat, cs, X, r):
            ranks.append(r)
            return _polish_round(a0, a_flat, cs, X, r)

        monkeypatch.setattr(sdp, "_polish_round", spy)
        solve_sdp(p, c, require_interior=False)
        assert ranks and all(r * (r + 1) // 2 + 7 <= 21 for r in ranks), ranks


def full_basis_round(a0, a_flat, cv, X, r):
    """The crossover round as one least-squares solve over the full
    symmetric block basis: lstsq([A^T | -basis(Q1)], -vec A0) for x, and
    lstsq over basis(Q2) for Z."""
    m, n = a0.shape[0], a_flat.shape[0]

    def basis(q):
        out = []
        for a in range(q.shape[1]):
            for b in range(a, q.shape[1]):
                e = np.outer(q[:, a], q[:, b])
                out.append(e + e.T if a != b else np.outer(q[:, a], q[:, a]))
        return out

    v = np.linalg.eigh(X)[1][:, ::-1]
    q1, q2 = v[:, :r], v[:, r:]
    lhs = np.column_stack([a_flat.T] + [-e.ravel() for e in basis(q1)])
    x = np.linalg.lstsq(lhs, -a0.ravel(), rcond=None)[0][:n]
    z = np.zeros((m, m))
    bas2 = basis(q2)
    if bas2:
        lhs2 = a_flat @ np.array(bas2).reshape(len(bas2), m * m).T
        for coef, e in zip(np.linalg.lstsq(lhs2, -cv, rcond=None)[0], bas2):
            z += coef * e
    w, u = np.linalg.eigh(z)
    z = (u * np.maximum(w, 0.0)) @ u.T
    x_big = a0 + (x @ a_flat).reshape(m, m)
    return x, (x_big + x_big.T) / 2, (z + z.T) / 2


def test_polish_round_matches_full_basis_lstsq():
    rng = np.random.default_rng((2024, 0))
    large, _ = shift_to_interior(random_pencil(24, 80, rng), 1.0)
    g = rng.standard_normal((24, 24))
    large_c = -adjoint(large, g @ g.T / 24 + 0.1 * np.eye(24))
    cases = [(large, [large_c])] + [pentagon_objectives(30, 7000)]
    for p, cs in cases:
        m = p.m
        a0, a_flat = p.mats[0], np.array(p.mats[1:]).reshape(p.n, m * m)
        for c, sol in zip(cs, solve_sdp_many(p, cs)):
            assert sol.status == "optimal"
            for r in {sol.rank_X, m - sol.rank_Z}:
                got = _polish_round(a0, a_flat, c[None], sol.X[None], r)
                assert got[3].tolist() == [True]
                for new, old in zip(got[:3], full_basis_round(a0, a_flat, c, sol.X, r)):
                    assert np.linalg.norm(new[0] - old) <= 1e-10 * np.linalg.norm(old)
