"""Random-pencil experiments: reproducibility, shifts, rank tables."""

import numpy as np
import pytest

from psdbound.bounds import triangular
from psdbound.combinatorics import delta
from psdbound.experiments import (
    random_pencil,
    random_symmetric,
    rank_frequency,
    shift_to_interior,
    tightness_report,
)


class TestRandomPencil:
    def test_seeded_determinism(self):
        a = random_pencil(3, 3, 42)
        b = random_pencil(3, 3, 42)
        assert all(np.array_equal(x, y) for x, y in zip(a.mats, b.mats))
        c = random_pencil(3, 3, 43)
        assert not np.array_equal(a.mats[0], c.mats[0])

    def test_exact_symmetry(self):
        pencil = random_pencil(5, 4, 7)
        for mat in pencil.mats:
            assert np.array_equal(mat, mat.T)

    def test_gaussian_moments(self):
        # trace inner product Gaussian: Var(diag) = 1, Var(offdiag) = 1/2
        rng = np.random.default_rng(0)
        diag = []
        off = []
        for _ in range(4000):
            mat = random_symmetric(rng, 3)
            diag.append(mat[0, 0])
            off.append(mat[0, 1])
        assert np.var(diag) == pytest.approx(1.0, abs=0.08)
        assert np.var(off) == pytest.approx(0.5, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_pencil(0, 1, 1)
        with pytest.raises(ValueError):
            random_pencil(3, 7, 1)


class TestShift:
    def test_shift_applied_when_needed(self):
        pencil = random_pencil(4, 4, 3)
        shifted, shift = shift_to_interior(pencil)
        lam = float(np.linalg.eigvalsh(shifted.mats[0])[0])
        assert lam >= 0.1 - 1e-12
        if float(np.linalg.eigvalsh(pencil.mats[0])[0]) < 0.1:
            assert shift > 0

    def test_no_shift_when_interior(self):
        pencil = random_pencil(3, 2, 5)
        base = pencil.mats[0] + 10.0 * np.eye(3)
        from psdbound.pencil import Pencil

        interior = Pencil(mats=(base,) + pencil.mats[1:])
        same, shift = shift_to_interior(interior)
        assert shift == 0.0
        assert same is interior


@pytest.fixture(scope="module")
def table_33():
    return rank_frequency(3, 3, 120, seed=1)


class TestRankFrequency:

    def test_counts_partition_trials(self, table_33):
        assert sum(table_33.counts.values()) + table_33.skipped == table_33.trials
        assert sum(table_33.statuses.values()) == table_33.trials

    def test_reproducible(self, table_33):
        again = rank_frequency(3, 3, 120, seed=1)
        assert again.counts == table_33.counts
        assert again.skipped == table_33.skipped

    def test_both_ranks_occur(self, table_33):
        assert table_33.pataki_ranks == (1, 2)
        assert table_33.counts.get(1, 0) > 0
        assert table_33.counts.get(2, 0) > 0

    def test_in_range_fraction(self, table_33):
        assert table_33.in_range_fraction >= 0.98

    def test_single_rank_shape(self):
        table = rank_frequency(2, 1, 60, seed=5)
        assert table.pataki_ranks == (1,)
        assert set(table.counts) <= {1}
        assert table.counts.get(1, 0) >= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_frequency(3, 3, 0, seed=1)


class TestTightness:
    def test_exact_part_m4(self):
        report = tightness_report(4, trials=0, seed=1)
        assert report.n == triangular(2) + 1 == 4
        assert report.r == 3
        assert report.delta == delta(4, 4, 3) == 8
        assert report.frequency is None
        assert report.bound_holds == (8**20 >= 2**16)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials >= 0"):
            tightness_report(4, trials=-3, seed=1)

    def test_empirical_part_m6(self):
        report = tightness_report(6, trials=150, seed=7)
        assert report.frequency is not None
        assert report.frequency.trials == 150
        assert report.target_rank_count is not None
        assert report.bound_holds
        assert report.sqrt20_bound >= report.m

    def test_empirical_part_m14(self):
        report = tightness_report(14, trials=5, seed=1)
        assert report.frequency is not None
        assert report.trials == report.frequency.trials == 5
        assert report.delta > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            tightness_report(5, trials=0, seed=0)
        with pytest.raises(ValueError):
            tightness_report(2, trials=0, seed=0)
