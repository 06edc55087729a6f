"""Polar boundary sampling, vanishing-degree fits, and the pipeline."""

from dataclasses import asdict

import numpy as np
import pytest

from psdbound.experiments import random_pencil, shift_to_interior
from psdbound.pencil import Pencil
from psdbound.polar import (
    AllSkippedError,
    BoundaryCloud,
    InsufficientSamplesError,
    NotInteriorError,
    _eval_monomials,
    bound_pipeline,
    disk_fixture,
    evaluate_fit,
    fit_min_vanishing_degree,
    monomial_exponents,
    pentagon_fixture,
    pentagon_vertices,
    sample_polar_boundary,
    segment_fixture,
)
from psdbound.sdp import solve_sdp


# {x >= 1}: A0 is indefinite, so the origin is not interior to the body
NOT_INTERIOR = Pencil(mats=(np.diag([1.0, -1.0]), np.eye(2)))


def unit_circle(count):
    ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return np.column_stack([np.cos(ang), np.sin(ang)])


@pytest.fixture(scope="module")
def pentagon_cloud():
    return sample_polar_boundary(pentagon_fixture(), 600, seed=7)


class TestSampling:
    def test_disk_polar_is_disk(self):
        cloud = sample_polar_boundary(disk_fixture(), 60, seed=11)
        norms = np.linalg.norm(cloud.points, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6

    def test_segment_polar_points(self):
        cloud = sample_polar_boundary(segment_fixture(), 30, seed=13)
        assert set(np.round(cloud.points.ravel(), 6)) <= {-1.0, 1.0}
        assert {-1.0, 1.0} <= set(np.round(cloud.points.ravel(), 6))

    def test_not_interior(self):
        with pytest.raises(NotInteriorError, match="positive definite"):
            sample_polar_boundary(NOT_INTERIOR, 10, seed=0)

    def test_values_match_single_solves(self):
        # one stacked run gives each direction the value of its own solve
        pencil = pentagon_fixture()
        cloud = sample_polar_boundary(pencil, 30, seed=5)
        assert len(cloud) == 30
        values = [solve_sdp(pencil, pencil.lift_direction(y)).value for y in cloud.directions]
        assert cloud.values.tolist() == values

    def test_pentagon_points_on_polar_pentagon(self, pentagon_cloud):
        # polar support oracle: max over the 5 vertices of <p, v_k> equals 1
        verts = pentagon_vertices()
        support = np.max(pentagon_cloud.points @ verts.T, axis=1)
        assert np.abs(support - 1.0).max() <= 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_pentagon_points_exactly_on_polar_lines(self, seed):
        # the finished solves put each point on its polar edge to rounding
        cloud = sample_polar_boundary(pentagon_fixture(), 150, seed)
        support = np.max(cloud.points @ pentagon_vertices().T, axis=1)
        assert np.abs(support - 1.0).max() <= 1e-12

    def test_planar_cubic_directions_all_solved(self):
        # strictly feasible and bounded: no support solve may fail
        pencil = shift_to_interior(random_pencil(3, 2, 1), 0.5)[0]
        cloud = sample_polar_boundary(pencil, 600, 1)
        assert [s for s in cloud.skipped if s["reason"] == "numerical_failure"] == []

    def test_boundary_membership_resolve(self, pentagon_cloud):
        pencil = pentagon_fixture()
        idx = np.linspace(0, len(pentagon_cloud) - 1, 12).astype(int)
        for i in idx:
            sol = solve_sdp(pencil, pencil.lift_direction(pentagon_cloud.points[i]))
            assert sol.status == "optimal"
            assert abs(sol.value - 1.0) <= 1e-6

    def test_projection_duality_matches_vertex_oracle(self, pentagon_cloud):
        # support through the lifted SDP equals the polytope support of the
        # shadow, so fitting in image space sees the polar of the shadow
        verts = pentagon_vertices()
        oracle = np.max(pentagon_cloud.directions @ verts.T, axis=1)
        assert np.abs(pentagon_cloud.values - oracle).max() <= 1e-6

    def test_seeded_determinism(self):
        a = sample_polar_boundary(disk_fixture(), 25, seed=3)
        b = sample_polar_boundary(disk_fixture(), 25, seed=3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.values, b.values)

    def test_unbounded_directions_skipped(self):
        # S = {x : 1 + x >= 0} in one variable: unbounded for positive c
        half_line = Pencil(mats=(np.eye(1), np.eye(1)))
        cloud = sample_polar_boundary(half_line, 40, seed=5)
        assert len(cloud.skipped) > 0
        assert all(rec["reason"] == "unbounded" for rec in cloud.skipped)
        assert np.allclose(cloud.points, -1.0, atol=1e-6)

    def test_near_zero_values_skipped(self):
        # S = [-1, 1e-10]: the support value at +1 is 1e-10, below EPS_VALUE
        short = Pencil(mats=(np.diag([1e-10, 1.0]), np.diag([-1.0, 1.0])))
        cloud = sample_polar_boundary(short, 20, seed=5)
        assert len(cloud.skipped) > 0
        assert all(rec["reason"] == "near_zero_value" for rec in cloud.skipped)
        assert np.allclose(cloud.points, -1.0)

    def test_skipped_reasons_mix_in_index_order(self):
        # S = {x >= -1e-10, y >= -1e-10, x <= 1}: unbounded where c_y > 0, a
        # support value of at most 1e-10 |c| where c_x, c_y <= 0, else c_x - 1e-10 c_y
        mats = (np.diag([1e-10, 1e-10, 1.0]), np.diag([1.0, 0.0, -1.0]), np.diag([0.0, 1.0, 0.0]))
        cloud = sample_polar_boundary(Pencil(mats=mats), 24, seed=3)
        near, unb = "near_zero_value", "unbounded"
        assert [(rec["index"], rec["reason"]) for rec in cloud.skipped] == [
            (2, near), (3, near), (4, unb), (6, near), (7, near), (10, unb), (12, unb), (14, unb),
            (15, near), (16, unb), (17, unb), (18, unb), (19, near), (20, unb), (21, near), (23, unb),
        ]
        assert len(cloud) == 8
        assert np.all(cloud.directions[:, 0] > 0) and np.all(cloud.directions[:, 1] < 0)
        assert np.array_equal(cloud.points, cloud.directions / cloud.values[:, None])

    def test_all_skipped(self):
        # S = R (whole line): every support value is +infinity
        whole_line = Pencil(mats=(np.eye(1), np.zeros((1, 1))))
        with pytest.raises(AllSkippedError):
            sample_polar_boundary(whole_line, 10, seed=1)

    def test_json_round_trip(self, pentagon_cloud):
        back = BoundaryCloud.from_dict(asdict(pentagon_cloud))
        assert np.array_equal(back.points, pentagon_cloud.points)
        assert back.seed == pentagon_cloud.seed

    @pytest.mark.parametrize("name", ["points", "directions", "values"])
    def test_non_finite_rejected(self, name):
        data = {"ambient_dim": 2, "points": [[1.0, 0.0], [0.0, 1.0]],
                "directions": [[1.0, 0.0], [0.0, 1.0]], "values": [1.0, 1.0]}
        bad = np.array(data[name])
        bad.flat[0] = np.inf
        data[name] = bad.tolist()
        with pytest.raises(ValueError, match=f"cloud {name}"):
            BoundaryCloud.from_dict(data)

    def test_truncated_cloud_rejected(self):
        circle = unit_circle(60)
        data = {"ambient_dim": 2, "points": circle.tolist(), "directions": circle[:5].tolist(),
                "values": [2.0]}
        with pytest.raises(ValueError, match="shapes"):
            BoundaryCloud.from_dict(data)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_points_not_ambient_dim_wide_rejected(self, dim):
        circle = unit_circle(40)
        with pytest.raises(ValueError, match=f"cloud of ambient_dim {dim}"):
            BoundaryCloud(ambient_dim=dim, points=circle, directions=circle, values=np.ones(40))

    def test_point_off_its_direction_rejected(self):
        circle = unit_circle(60)
        points = circle.copy()
        points[17] *= 1.0 + 1e-9
        data = {"ambient_dim": 2, "points": points.tolist(), "directions": circle.tolist(),
                "values": [1.0] * 60}
        with pytest.raises(ValueError, match="cloud point 17"):
            BoundaryCloud.from_dict(data)
        data["points"] = (circle / 2.0).tolist()
        data["values"] = [2.0] * 60
        assert len(BoundaryCloud.from_dict(data)) == 60


class TestMonomials:
    def test_counts(self):
        import math

        for dim in (1, 2, 3):
            for deg in (1, 2, 4):
                assert len(monomial_exponents(dim, deg)) == math.comb(dim + deg, deg)

    def test_order_graded(self):
        monos = monomial_exponents(2, 2)
        totals = [sum(e) for e in monos]
        assert totals == sorted(totals)
        assert monos[0] == (0, 0)


    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_eval_matches_column_loop_bitwise(self, dim):
        # columns of exponents 0, 1, 2 and >= 3 each take their own numpy power path
        points = 3.0 * np.random.default_rng(dim).standard_normal((50, dim))
        monos = monomial_exponents(dim, 6)
        cols = []
        for e in monos:  # the column-by-column loop the power table replaced
            col = np.ones(len(points))
            for var, exp in enumerate(e):
                if exp:
                    col = col * points[:, var] ** exp
            cols.append(col)
        want = np.column_stack(cols)
        got = _eval_monomials(points, monos)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous  # the layout a matmul with it is summed in


class TestFit:
    def test_circle_degree_two(self):
        cloud = sample_polar_boundary(disk_fixture(), 80, seed=11)
        report = fit_min_vanishing_degree(cloud, 4)
        assert report.fitted_degree == 2
        fit2 = report.per_degree[1]
        assert fit2.kernel_dim == 1
        assert fit2.gap >= 1e3
        # coefficients proportional to 1 - x^2 - y^2
        coeffs = dict(zip(report.fitted_monomials, report.fitted_coefficients))
        lead = coeffs[(0, 0)]
        assert coeffs[(2, 0)] == pytest.approx(-lead, abs=1e-6)
        assert coeffs[(0, 2)] == pytest.approx(-lead, abs=1e-6)
        assert abs(coeffs[(1, 0)]) <= 1e-6

    def test_segment_two_points_degree_two(self):
        cloud = sample_polar_boundary(segment_fixture(), 40, seed=13)
        report = fit_min_vanishing_degree(cloud, 3)
        assert report.fitted_degree == 2
        coeffs = dict(zip(report.fitted_monomials, report.fitted_coefficients))
        assert coeffs[(2,)] == pytest.approx(-coeffs[(0,)], abs=1e-8)

    def test_line_segment_in_plane_degree_one(self):
        t = np.linspace(-1.0, 1.0, 60)
        pts = np.column_stack([t, 0.5 + 0.25 * t])
        cloud = BoundaryCloud(
            ambient_dim=2, points=pts, directions=pts, values=np.ones_like(t)
        )
        report = fit_min_vanishing_degree(cloud, 3)
        assert report.fitted_degree == 1

    def test_pentagon_degree_five(self, pentagon_cloud):
        report = fit_min_vanishing_degree(pentagon_cloud, 6)
        assert report.fitted_degree == 5
        fit5 = report.per_degree[4]
        assert fit5.kernel_dim == 1
        assert fit5.gap >= 1e3
        assert report.max_abs_eval <= 1e-6

    def test_kernel_monotone_in_degree(self, pentagon_cloud):
        report = fit_min_vanishing_degree(pentagon_cloud, 6)
        dims = {f.degree: f.kernel_dim for f in report.per_degree}
        assert dims[6] >= dims[5] >= 1
        assert all(dims[d] == 0 for d in (1, 2, 3, 4))

    def test_sample_count_invariant(self, pentagon_cloud):
        report = fit_min_vanishing_degree(pentagon_cloud, 6)
        for fit in report.per_degree:
            assert fit.sample_count == len(pentagon_cloud) >= 2 * fit.monomial_count

    def test_fitted_polynomial_unit_norm_and_small_on_cloud(self, pentagon_cloud):
        report = fit_min_vanishing_degree(pentagon_cloud, 5)
        assert np.linalg.norm(report.fitted_coefficients) == pytest.approx(1.0)
        evals = evaluate_fit(report, pentagon_cloud.points)
        assert np.abs(evals).max() <= 1e-6

    @pytest.mark.parametrize("shape", [(3, 3), (3, 1), (3,)])
    def test_evaluate_fit_refuses_points_not_ambient_dim_wide(self, shape):
        circle = unit_circle(40)
        cloud = BoundaryCloud(ambient_dim=2, points=circle, directions=circle, values=np.ones(40))
        report = fit_min_vanishing_degree(cloud, 2)
        assert report.fitted_degree == 2
        with pytest.raises(ValueError, match=r"points must be \(N, 2\)"):
            evaluate_fit(report, np.ones(shape))

    def test_insufficient_samples(self):
        cloud = BoundaryCloud(
            ambient_dim=2,
            points=np.ones((4, 2)),
            directions=np.ones((4, 2)),
            values=np.ones(4),
        )
        with pytest.raises(InsufficientSamplesError):
            fit_min_vanishing_degree(cloud, 2)

    def test_no_degree_found_reports_none(self):
        # generic surface points admit no low-degree vanishing polynomial
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((200, 2))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= 1.0 + 0.3 * np.tanh(pts[:, :1]) + 0.2 * np.sin(3 * pts[:, 1:])
        cloud = BoundaryCloud(
            ambient_dim=2, points=pts, directions=pts, values=np.ones(len(pts))
        )
        report = fit_min_vanishing_degree(cloud, 2)
        assert report.fitted_degree is None
        assert report.max_abs_eval is None
        with pytest.raises(ValueError, match="no fitted polynomial"):
            evaluate_fit(report, pts)

    def test_report_round_trip_dict(self, pentagon_cloud):
        report = fit_min_vanishing_degree(pentagon_cloud, 5)
        data = asdict(report)
        assert data["fitted_degree"] == 5
        assert len(data["per_degree"]) == len(report.per_degree)


class TestPipeline:
    def test_pentagon(self):
        result = bound_pipeline(pentagon_fixture(), 600, 6, seed=7)
        assert result.conclusive
        assert result.d_est == 5
        assert result.psd_bound == pytest.approx(np.sqrt(np.log2(5)), rel=1e-9)
        assert result.psd_bound_ceil == 2

    @pytest.mark.parametrize("seed", [602040, 159])
    def test_pentagon_150_directions(self, seed):
        # an evenly spaced 45-row subsample of seed 602040's cloud has no
        # point on one polar edge, so a fit on it finds a degree-4 kernel;
        # seed 159 fitted 4 under a small change of the solver's step lengths
        result = bound_pipeline(pentagon_fixture(), 150, 6, seed)
        assert result.conclusive
        assert result.d_est == 5

    def test_not_interior(self):
        with pytest.raises(NotInteriorError):
            bound_pipeline(NOT_INTERIOR, 10, 2, seed=0)

    def test_disk(self):
        result = bound_pipeline(disk_fixture(), 80, 4, seed=11)
        assert result.d_est == 2
        assert result.psd_bound == pytest.approx(1.0)
        assert result.psd_bound_ceil == 1

    def test_segment(self):
        result = bound_pipeline(segment_fixture(), 40, 3, seed=13)
        assert result.d_est == 2
        assert result.psd_bound == pytest.approx(1.0)

    def test_inconclusive(self):
        result = bound_pipeline(pentagon_fixture(), 600, 3, seed=7)
        assert not result.conclusive
        assert result.d_est is None
        assert result.d_used == 3
        assert result.psd_bound == pytest.approx(np.sqrt(np.log2(3)))
