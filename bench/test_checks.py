"""The benchmark's checkers accept right answers and reject wrong ones.

    python3 -m pytest bench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def pentagon_pipeline() -> dict:
    """The exact product of the five polar edge lines 1 - <p, v_k>."""
    poly = {(0, 0): 1.0}
    for k in range(5):
        a, b = math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5)
        nxt: dict = {}
        for (i, j), cf in poly.items():
            for (di, dj), f in (((0, 0), 1.0), ((1, 0), -a), ((0, 1), -b)):
                nxt[(i + di, j + dj)] = nxt.get((i + di, j + dj), 0.0) + cf * f
        poly = nxt
    monos = sorted(poly, key=lambda e: (sum(e), e))
    coeffs = np.array([poly[e] for e in monos])
    coeffs /= np.linalg.norm(coeffs)
    return {
        "d_est": 5,
        "conclusive": True,
        "psd_bound_ceil": 2,
        "report": {"fitted_monomials": [list(e) for e in monos], "fitted_coefficients": coeffs.tolist()},
    }


def test_pentagon_fit():
    good = pentagon_pipeline()
    assert checks.check_pentagon(good) == []
    coeffs = good["report"]["fitted_coefficients"]
    for idx in (0, 7, len(coeffs) - 1):
        bad = pentagon_pipeline()
        bad["report"]["fitted_coefficients"][idx] += 1e-4
        assert checks.check_pentagon(bad)
    assert checks.check_pentagon(dict(good, d_est=6))


# max x1 over the unit disk [[1 + x1, x2], [x2, 1 - x1]] psd: x = (1, 0)
DISK = [np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]


def test_sdp_certificate():
    c, x = np.array([1.0, 0.0]), np.array([1.0, 0.0])
    X, Z = np.diag([2.0, 0.0]), np.diag([0.0, 1.0])
    assert checks.check_sdp_optimal(DISK, c, x, X, Z) == []
    # A*(Z) + c = 0 still holds, but Z has eigenvalue -0.5
    problems = checks.check_sdp_optimal(DISK, c, x, X, np.diag([-0.5, 0.5]))
    assert any("Z has eigenvalue" in p for p in problems)
    assert checks.check_sdp_optimal(DISK, c, np.array([1.0, 1e-3]), X, Z)


def test_ray():
    mats = [np.eye(2), np.eye(2)]
    assert checks.check_ray(mats, [1.0], [1.0]) == []
    assert checks.check_ray(mats, [1.0], [-1.0])


def degree_table(m: int) -> dict:
    table = {}
    for n in range(1, checks.tri(m) + 1):
        table[n] = {r: checks.delta_minor_sum(n, m, r) for r in checks.pataki_ranks(m, n) if 1 <= r <= m}
    return table


def test_degree_table():
    table = degree_table(4)
    assert checks.check_degree_table(4, table) == []
    assert checks.delta_minor_sum(7, 6, 4) == 2040
    for n, r in ((3, 3), (6, 1), (4, 2)):
        bad = degree_table(4)
        bad[n][r] += 1
        assert checks.check_degree_table(4, bad)
    incomplete = degree_table(4)
    del incomplete[5]
    assert checks.check_degree_table(4, incomplete)


@pytest.mark.parametrize("r", [1, 2])
def test_kkt_point(r):
    from psdbound.kkt import build_kkt_rank
    from psdbound.pencil import Pencil

    mats, point = checks.integer_kkt_point(np.random.default_rng(r), 3, 3, r)
    system = build_kkt_rank(Pencil(mats=tuple(np.array(a, dtype=float) for a in mats)), r)
    assert checks.check_kkt_system(system, 3, 3, r, point) == []
    for name in ("x2", "Z_1_3", "c1"):
        moved = dict(point, **{name: point[name] + 1})
        assert any("does not vanish" in p for p in checks.check_kkt_system(system, 3, 3, r, moved))
    assert checks.check_kkt_system(system, 3, 4, r, point)


def test_benchmark_json_lists_the_metrics_printed():
    from run import E2E_UNITS
    from spans import LAYER_UNITS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
