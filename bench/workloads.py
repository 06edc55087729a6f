"""The benchmark's workloads.

A workload builds its inputs in ``setup`` and then runs whole rounds of the
same operations.  ``round(k)`` times each unit, one call into psdbound's
public API, alone and passes it to ``_record``, and appends to ``problems``
every output that fails a check in ``checks``; checking happens outside the
timed region.

Right after each unit ``_record`` times a fixed calibration loop that does
not call psdbound.  The machine this was built on drifts between speeds
(the same solve took 0.40 s or 0.70 s depending on the minute), and a unit's
time over the mean of the loop's times just before and after it cancels
most of that drift.

Inputs that make the program fail are fixed, not drawn from the seed, so
that the failed share of a round is the same on every seed (the seed then
sets the order of the round).  Inputs on which nothing fails are drawn from
the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
from psdbound import cli, experiments, kkt, pencil, sdp

# the checks call the builder they compare against untraced
BUILD_KKT_RANK = kkt.build_kkt_rank

OUT = Path(__file__).resolve().parent / "out"


class Calibration:
    """A fixed loop of the kinds of work psdbound does: numpy calls on
    24 x 24 and 4 x 4 matrices, big rationals, dicts and text."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.dense = [(a + a.T) / 2 for a in rng.standard_normal((24, 24, 24))]
        self.small = [a @ a.T + np.eye(4) for a in rng.standard_normal((8, 4, 4))]

    def seconds(self) -> float:
        start = time.perf_counter()
        for a in self.dense:
            for b in self.dense[:12]:
                np.vdot(a, b)
        for a in self.dense[:10]:
            np.linalg.eigh(a)
        for _ in range(25):
            for a in self.small:
                w, _ = np.linalg.eigh(a)
                np.linalg.solve(np.linalg.cholesky(a), w)
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(math.comb(90, i % 90), i)
        counts: dict = {}
        for i in range(3000):
            counts[i % 97, i % 13] = counts.get((i % 97, i % 13), 0) + i
        text = " + ".join(f"{v}*X_{a}_{b}" for (a, b), v in sorted(counts.items()))
        re.findall(r"\d+\*X_\d+_\d+", text)
        return time.perf_counter() - start


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.problems: list[str] = []
        # (seconds, operations, failed, calibration seconds) per timed unit
        self.records: list[tuple[float, int, int, float]] = []
        self.cli_bytes = 0
        self._calibration = Calibration()
        self._last_cal: float | None = None

    def setup(self) -> None:
        """Build the inputs; the first timed call follows directly."""

    def round(self, k: int) -> None:
        raise NotImplementedError

    def _record(self, seconds: float, ops: int, failed: int) -> None:
        cal = self._calibration.seconds()
        before = cal if self._last_cal is None else self._last_cal
        self.records.append((seconds, ops, failed, (before + cal) / 2))
        self._last_cal = cal

    def _order(self, items: list, k: int) -> list:
        perm = np.random.default_rng((self.seed, k)).permutation(len(items))
        return [items[i] for i in perm]

    def _cli(self, argv: list[str]) -> tuple[int, str, float]:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        text = buf.getvalue()
        self.cli_bytes += len(text.encode())
        return code, text, elapsed

    def _fail(self, where: str, problems: list[str]) -> None:
        self.problems.extend(f"{self.name} {where}: {p}" for p in problems)


class Pentagon(Workload):
    name = "pentagon"
    NUM_DIRS = 150

    def round(self, k):
        seed = self.seed * 1000 + k
        code, text, elapsed = self._cli(["pentagon", "--num-dirs", str(self.NUM_DIRS), "--seed", str(seed)])
        self._record(elapsed, 1, int(code != 0))
        if code == 0:
            self._fail(f"seed {seed}", checks.check_pentagon(json.loads(text)["pipeline"]))


def strictly_feasible_instance(m: int, n: int, key):
    """Gaussian pencil shifted to lambda_min(A0) >= 1, objective c = -A*(Z0)
    for Z0 = G G^T / m + 0.1 I, so both sides are strictly feasible."""
    rng = np.random.default_rng(key)
    p, _ = experiments.shift_to_interior(experiments.random_pencil(m, n, rng), 1.0)
    g = rng.standard_normal((m, m))
    return p, -pencil.adjoint(p, g @ g.T / m + 0.1 * np.eye(m))


class SdpLarge(Workload):
    name = "sdp-large"
    SHAPE = (24, 80)
    # every round solves this fixed pool; instance 11 ends numerical_failure
    POOL = [(2024, i) for i in range(12)]

    def setup(self):
        self.instances = [strictly_feasible_instance(*self.SHAPE, key) for key in self.POOL]

    def round(self, k):
        for i in self._order(list(range(len(self.POOL))), k):
            p, c = self.instances[i]
            start = time.perf_counter()
            sol = sdp.solve_sdp(p, c)
            self._record(time.perf_counter() - start, 1, int(sol.status == sdp.STATUS_FAILURE))
            where = f"instance {self.POOL[i]}"
            if sol.status == sdp.STATUS_OPTIMAL:
                self._fail(where, checks.check_sdp_optimal(p.mats, c, sol.x, sol.X, sol.Z))
            elif sol.status != sdp.STATUS_FAILURE:
                self._fail(where, [f"status {sol.status} on a strictly feasible pair"])


class Tightness(Workload):
    name = "tightness"
    M, N, R = 6, 7, 4
    # fixed CLI seeds: most trials end numerical_failure, which must not vary
    CLI_SEEDS = list(range(7, 37))
    TRIALS = 10

    def setup(self):
        self.solves: list[tuple] = []
        self._delta = None

        def recording_solve(p, c, **kwargs):
            sol = sdp.solve_sdp(p, c, **kwargs)
            if sol.status in (sdp.STATUS_OPTIMAL, sdp.STATUS_UNBOUNDED):
                self.solves.append((p, c, sol))
            return sol

        experiments.solve_sdp = recording_solve

    def round(self, k):
        ranks = checks.pataki_ranks(self.M, self.N)
        for seed in self._order(self.CLI_SEEDS, k):
            argv = ["tightness", "--m", str(self.M), "--trials", str(self.TRIALS), "--seed", str(seed)]
            code, text, elapsed = self._cli(argv)
            where = f"seed {seed}"
            if code != 0:
                self._record(elapsed, self.TRIALS, self.TRIALS)
                continue
            report = json.loads(text)["tightness"]
            statuses = report["frequency"]["statuses"]
            self._record(elapsed, self.TRIALS, statuses.get(sdp.STATUS_FAILURE, 0))
            if self._delta is None:
                self._delta = checks.delta_minor_sum(self.N, self.M, self.R)
            problems = []
            if (report["n"], report["r"], int(report["delta"])) != (self.N, self.R, self._delta):
                problems.append(f"(n, r, delta) = ({report['n']}, {report['r']}, {report['delta']}), "
                                f"expected ({self.N}, {self.R}, {self._delta})")
            if sum(statuses.values()) != self.TRIALS:
                problems.append(f"statuses {statuses} do not add up to {self.TRIALS}")
            bad = [r for r in report["frequency"]["counts"] if int(r) not in ranks]
            if bad:
                problems.append(f"ranks {bad} outside the Pataki range {ranks}")
            for p, c, sol in self.solves:
                if sol.status == sdp.STATUS_UNBOUNDED:
                    problems += checks.check_ray(p.mats, c, sol.ray) if sol.ray is not None else ["no ray"]
                else:
                    problems += checks.check_sdp_optimal(p.mats, c, sol.x, sol.X, sol.Z)
            self.solves.clear()
            self._fail(where, problems)


def clear_memos() -> None:
    """Empty every functools cache in psdbound, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("psdbound"):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Degrees(Workload):
    name = "degrees"
    M = 13

    def round(self, k):
        table: dict[int, dict[int, int]] = {}
        for n in self._order(list(range(1, checks.tri(self.M) + 1)), k):
            clear_memos()
            code, text, elapsed = self._cli(["degree", "--n", str(n), "--m", str(self.M), "--all-ranks"])
            self._record(elapsed, 1, int(code != 0))
            if code == 0:
                doc = json.loads(text)
                table[n] = {row["r"]: int(row["delta"]) for row in doc["ranks"]}
                if int(doc["sum_over_range"]) != sum(table[n].values()):
                    self._fail(f"n={n}", ["sum_over_range is not the sum of the row"])
        self._fail("table", checks.check_degree_table(self.M, table))


class Kkt(Workload):
    name = "kkt"
    M, N = 6, 10

    def setup(self):
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"kkt_pencil_{self.seed}.json"

    def round(self, k):
        rng = np.random.default_rng((self.seed, k))
        for r in checks.pataki_ranks(self.M, self.N):
            mats, point = checks.integer_kkt_point(rng, self.M, self.N, r)
            self.path.write_text(json.dumps({"m": self.M, "n": self.N, "mats": [sum(a, []) for a in mats]}))
            elapsed = 0.0
            parsed = {}
            failed = 0
            for fmt in ("plain_text", "json"):
                argv = ["kkt-export", "--pencil", str(self.path), "--variant", "rank",
                        "--rank", str(r), "--format", fmt]
                code, text, took = self._cli(argv)
                start = time.perf_counter()
                parsed[fmt] = kkt.parse_system(text, fmt) if code == 0 else None
                elapsed += took + time.perf_counter() - start
                failed |= code != 0
            self._record(elapsed, 1, int(failed))
            if failed:
                continue
            built = BUILD_KKT_RANK(pencil.load_pencil(self.path), r)
            problems = [f"parse(export(S)) != S in {fmt}" for fmt, s in parsed.items() if s != built]
            problems += checks.check_kkt_system(built, self.M, self.N, r, point)
            self._fail(f"round {k} rank {r}", problems)


WORKLOADS = {w.name: w for w in (Pentagon, SdpLarge, Tightness, Degrees, Kkt)}
