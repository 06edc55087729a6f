"""Spans around psdbound's public functions, recorded from outside.

``Tracer.install`` replaces each listed function, in every loaded psdbound
module that refers to it, by a wrapper that records one span per call:
name, parent span, start and end.  ``uninstall`` puts the originals back.
Spans stay in memory; ``layer_metrics`` aggregates them and ``dump``
writes them out.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function, group): a span's time counts toward its group only
# when no enclosing span has the same group, so nested builders and the
# recursion between them are not counted twice
WRAPPED = [
    ("psdbound.cli", "main", "cli"),
    ("psdbound.sdp", "solve_sdp", "sdp.solve"),
    ("psdbound.sdp", "adjoint", "pencil.adjoint"),
    ("psdbound.polar", "sample_polar_boundary", "polar.sample"),
    ("psdbound.polar", "fit_min_vanishing_degree", "polar.fit"),
    ("psdbound.experiments", "random_pencil", "experiments.draw"),
    ("psdbound.combinatorics", "delta", "combinatorics.delta"),
    ("psdbound.kkt", "build_kkt", "kkt.build"),
    ("psdbound.kkt", "build_kkt_normalized", "kkt.build"),
    ("psdbound.kkt", "build_kkt_rank", "kkt.build"),
    ("psdbound.kkt", "export_system", "kkt.export"),
    ("psdbound.kkt", "parse_system", "kkt.parse"),
]

# every per-layer metric and its unit; "/op" values are totals over the
# traced rounds divided by the workload operations in them
LAYER_UNITS = {
    "sdp.solves": "count/op",
    "sdp.busy_s": "s/op",
    "sdp.iters_per_solve": "count",
    "sdp.ms_per_iter": "ms",
    "sdp.optimal_ratio": "ratio",
    "pencil.adjoint_calls": "count/op",
    "pencil.adjoint_busy_s": "s/op",
    "polar.sample_busy_s": "s/op",
    "polar.fit_busy_s": "s/op",
    "polar.points_per_direction": "ratio",
    "polar.fit_rows_ratio": "ratio",
    "experiments.draw_busy_s": "s/op",
    "combinatorics.delta_calls": "count/op",
    "combinatorics.delta_busy_s": "s/op",
    "kkt.build_busy_s": "s/op",
    "kkt.terms": "count/op",
    "kkt.export_busy_s": "s/op",
    "kkt.parse_busy_s": "s/op",
    "kkt.export_bytes": "bytes/op",
    "cli.self_s": "s/op",
    "cli.out_bytes": "bytes/op",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self) -> None:
        # span: [name, group, parent index, start, end, time in child spans]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.totals: dict[str, float] = defaultdict(float)

    def _outermost(self, group: str) -> bool:
        return all(self.spans[i][1] != group for i in self._stack)

    def _wrap(self, fn, name: str, group: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._outermost(group)
            parent = self._stack[-1] if self._stack else -1
            span = [name, group, parent, time.perf_counter(), 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[4] = time.perf_counter()
                if parent >= 0:
                    self.spans[parent][5] += span[4] - span[3]
            if outer:
                self._record(group, span, args, result)
            return result

        return wrapper

    def _record(self, group: str, span: list, args: tuple, result) -> None:
        t = self.totals
        t[group + ".calls"] += 1
        t[group + ".busy_s"] += span[4] - span[3]
        if group == "sdp.solve":
            t["sdp.iterations"] += result.iterations
            t["sdp.optimal"] += result.status == "optimal"
        elif group == "polar.sample":
            t["polar.points"] += len(result.points)
            t["polar.directions"] += len(result.points) + len(result.skipped)
        elif group == "polar.fit":
            t["polar.fit_rows"] += max(f.sample_count for f in result.per_degree)
            t["polar.fit_cloud"] += len(args[0])
        elif group == "kkt.build":
            t["kkt.terms"] += sum(len(eq) for eq in result.equations)
        elif group == "kkt.export":
            t["kkt.export_bytes"] += len(result.encode())
        elif group == "cli":
            t["cli.self_s"] += span[4] - span[3] - span[5]

    def install(self) -> None:
        for mod_name, attr, group in WRAPPED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, f"{mod_name}.{attr}", group)
            for name, mod in list(sys.modules.items()):
                if name.startswith("psdbound") and getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_metrics(self, ops: int, out_bytes: int, overhead_pct: float) -> dict[str, float]:
        t = self.totals

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        solves = t["sdp.solve.calls"]
        per_op = {
            "sdp.solves": solves,
            "sdp.busy_s": t["sdp.solve.busy_s"],
            "pencil.adjoint_calls": t["pencil.adjoint.calls"],
            "pencil.adjoint_busy_s": t["pencil.adjoint.busy_s"],
            "polar.sample_busy_s": t["polar.sample.busy_s"],
            "polar.fit_busy_s": t["polar.fit.busy_s"],
            "experiments.draw_busy_s": t["experiments.draw.busy_s"],
            "combinatorics.delta_calls": t["combinatorics.delta.calls"],
            "combinatorics.delta_busy_s": t["combinatorics.delta.busy_s"],
            "kkt.build_busy_s": t["kkt.build.busy_s"],
            "kkt.terms": t["kkt.terms"],
            "kkt.export_busy_s": t["kkt.export.busy_s"],
            "kkt.parse_busy_s": t["kkt.parse.busy_s"],
            "kkt.export_bytes": t["kkt.export_bytes"],
            "cli.self_s": t["cli.self_s"],
            "cli.out_bytes": out_bytes,
        }
        values = {name: v / ops for name, v in per_op.items()}
        values.update({
            "sdp.iters_per_solve": ratio(t["sdp.iterations"], solves),
            "sdp.ms_per_iter": ratio(1e3 * t["sdp.solve.busy_s"], t["sdp.iterations"]),
            "sdp.optimal_ratio": ratio(t["sdp.optimal"], solves),
            "polar.points_per_direction": ratio(t["polar.points"], t["polar.directions"]),
            "polar.fit_rows_ratio": ratio(t["polar.fit_rows"], t["polar.fit_cloud"]),
            "trace.overhead_pct": overhead_pct,
        })
        return {name: values[name] for name in LAYER_UNITS}

    def dump(self, path) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [[s[0], s[2], round(s[3] - t0, 9), round(s[4] - t0, 9)] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "parent", "start_s", "end_s"], "spans": rows}, fh)
