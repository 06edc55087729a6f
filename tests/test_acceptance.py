"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances and runtime budgets are pinned here, not configurable.
"""

import time

import numpy as np

from psdbound.bounds import (
    bezout_kkt_count,
    psd_rank_lower_bound,
    triangular,
)
from psdbound.combinatorics import (
    check_delta_exponent_bound,
    check_psi_interval_lower_bound,
    delta,
    psi,
    psi_interval_harris_tu,
    psi_interval_product,
    psi_minor_sum,
)
from psdbound.experiments import random_pencil, rank_frequency, shift_to_interior
from psdbound.kkt import assignment_from_solution, build_kkt, residual
from psdbound.polar import (
    disk_fixture,
    fit_min_vanishing_degree,
    pentagon_fixture,
    pentagon_vertices,
    sample_polar_boundary,
    segment_fixture,
)
from psdbound.sdp import solve_sdp


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_interval_triple_agreement():
    t0 = time.time()
    ok = True
    for p in range(1, 13):
        for q in range(p, 13):
            minor = psi_minor_sum(range(p + 1, q + 1))
            product = psi_interval_product(p, q)
            harris = psi_interval_harris_tu(q, q - p) if q > p else 1
            if not (minor == product == harris):
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(1, ok, f"all intervals 1 <= p <= q <= 12 agree, {elapsed:.1f}s")
    assert ok


def test_criterion_02_singleton_law():
    ok = all(psi([i]) == 2 ** (i - 1) for i in range(1, 31))
    report(2, ok, "psi({i}) = 2^(i-1) for i = 1..30, exact")
    assert ok


def test_criterion_03_delta_interval_consistency():
    ok = True
    for m in range(1, 9):
        for r in range(1, m + 1):
            if delta(triangular(m - r), m, r) != psi_interval_harris_tu(m, r):
                ok = False
    report(3, ok, "delta(t_(m-r), m, r) matches the interval product, m <= 8")
    assert ok


def test_criterion_04_interval_growth_inequality():
    ok = all(
        check_psi_interval_lower_bound(p, q).holds
        for p in range(1, 13)
        for q in range(p, 13)
    )
    report(4, ok, "interval growth bound holds for 1 <= p <= q <= 12, exact verdicts")
    assert ok


def test_criterion_05_tightness_regime_exact_degrees():
    t0 = time.time()
    reports = [check_delta_exponent_bound(m) for m in range(4, 17, 2)]
    logs = [r.log2_delta for r in reports]
    increasing = all(b > a for a, b in zip(logs, logs[1:]))
    first_holds = next((r.m for r in reports if r.holds), None)
    holds_at_16 = reports[-1].holds
    elapsed = time.time() - t0
    ok = increasing and holds_at_16 and elapsed < 600.0
    report(
        5,
        ok,
        f"log2(delta) strictly increasing on m = 4..16, first m with "
        f"log2(delta) >= m^2/20 is {first_holds}, holds at 16, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_06_pentagon_end_to_end():
    t0 = time.time()
    pencil = pentagon_fixture()
    cloud = sample_polar_boundary(pencil, 600, seed=7)
    enough = len(cloud) >= 500
    fit = fit_min_vanishing_degree(cloud, 6)
    degree_ok = fit.fitted_degree == 5
    gap = fit.per_degree[4].gap if degree_ok else None
    gap_ok = gap is not None and gap >= 1e3
    bound = psd_rank_lower_bound(5)
    ceil_ok = bound.ceiling == 2
    support_ok = all(
        abs(solve_sdp(pencil, pencil.lift_direction(vert)).value - 1.0) <= 1e-6
        for vert in pentagon_vertices()
    )
    elapsed = time.time() - t0
    ok = enough and degree_ok and gap_ok and ceil_ok and support_ok and elapsed < 120.0
    report(
        6,
        ok,
        f"{len(cloud)} points, fitted degree {fit.fitted_degree}, "
        f"gap {gap:.1e}, ceil bound {bound.ceiling}, vertex supports within 1e-6, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_07_known_curve_fits():
    disk_cloud = sample_polar_boundary(disk_fixture(), 80, seed=11)
    disk_fit = fit_min_vanishing_degree(disk_cloud, 4)
    disk_ok = (
        disk_fit.fitted_degree == 2 and disk_fit.per_degree[1].gap is not None
        and disk_fit.per_degree[1].gap >= 1e3
    )
    seg_cloud = sample_polar_boundary(segment_fixture(), 40, seed=13)
    seg_fit = fit_min_vanishing_degree(seg_cloud, 3)
    seg_ok = (
        seg_fit.fitted_degree == 2 and seg_fit.per_degree[1].gap is not None
        and seg_fit.per_degree[1].gap >= 1e3
    )
    ok = disk_ok and seg_ok
    report(
        7,
        ok,
        f"disk degree {disk_fit.fitted_degree} gap {disk_fit.per_degree[1].gap:.1e}; "
        f"segment degree {seg_fit.fitted_degree} gap {seg_fit.per_degree[1].gap:.1e}",
    )
    assert ok


def test_criterion_08_kkt_validity_on_random_pencils():
    shapes = [(2, 1), (2, 2), (3, 3), (3, 4), (4, 5), (4, 6)]
    lifted = 0
    worst = 0.0
    counts_ok = True
    attempt = 0
    while lifted < 50 and attempt < 400:
        m, n = shapes[attempt % len(shapes)]
        pencil, _ = shift_to_interior(random_pencil(m, n, (81, attempt)))
        c = np.random.default_rng((82, attempt)).standard_normal(n)
        attempt += 1
        sol = solve_sdp(pencil, c)
        if sol.status != "optimal":
            continue
        lifted += 1
        system = build_kkt(pencil, c)
        if system.num_variables != n + 2 * triangular(m):
            counts_ok = False
        if system.num_equations != n + triangular(m) + m * m:
            counts_ok = False
        if system.metadata.bezout_product != 2 ** (m * m):
            counts_ok = False
        max_abs, _ = residual(system, assignment_from_solution(system, sol))
        magnitudes = max(
            np.linalg.norm(sol.x),
            np.linalg.norm(sol.X),
            np.linalg.norm(sol.Z),
            np.linalg.norm(c),
            max(np.linalg.norm(a) for a in pencil.mats),
        )
        ratio = float(max_abs) / (1.0 + magnitudes)
        worst = max(worst, ratio)
    ok = lifted >= 50 and counts_ok and worst <= 1e-6
    report(
        8,
        ok,
        f"{lifted} lifted optima, worst residual / (1 + magnitudes) = {worst:.2e}, "
        "variable/equation/Bezout counts exact",
    )
    assert ok


def test_criterion_09_rank_frequencies():
    t0 = time.time()
    results = []
    ok = True
    for m, n in [(3, 3), (4, 6)]:
        table = rank_frequency(m, n, 200, seed=1)
        every_rank = all(table.counts.get(r, 0) >= 5 for r in table.pataki_ranks)
        in_range = table.in_range_fraction >= 0.98
        ok = ok and every_rank and in_range
        results.append(
            f"({m},{n}) counts {dict(sorted(table.counts.items()))} "
            f"skip {table.skipped} in-range {table.in_range_fraction:.2f}"
        )
    elapsed = time.time() - t0
    ok = ok and elapsed < 180.0
    report(9, ok, "; ".join(results) + f", {elapsed:.1f}s")
    assert ok


def test_criterion_10_bound_arithmetic():
    ok = True
    for m in range(1, 21):
        bound = psd_rank_lower_bound(bezout_kkt_count(m))
        if bound.bound != float(m) or bound.ceiling != m:
            ok = False
    report(10, ok, "sqrt(log2(2^(m^2))) = m exactly for m = 1..20")
    assert ok
