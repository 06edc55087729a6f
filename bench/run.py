"""Run a psdbound benchmark workload and print its metrics.

    python3 bench/run.py --workload pentagon --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18

One workload runs in this process; ``all`` runs each in a fresh process of
its own.  BLAS is pinned to one thread before numpy loads.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The lines before it give the
machine facts and each metric by name, unit and workload.  See README.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
NAMES = ["pentagon", "sdp-large", "tightness", "degrees", "kkt"]
SETUP_REPEATS = 5
CAL_REF_S = 0.0125  # about the calibration loop's median time where this was built
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_cal": "cal"}


def import_program():
    """Import psdbound from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import psdbound

    if not Path(psdbound.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"psdbound was imported from {psdbound.__file__}, not from {SRC}")


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def child(args: argparse.Namespace, workload: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 2 * args.seconds, check=True)


def setup_seconds(args: argparse.Namespace) -> float:
    """Median over 5 fresh processes that import psdbound and build the
    workload's inputs: each process's wall time, less the calibration loops
    it then runs, scaled to a machine on which that loop takes CAL_REF_S."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        out = child(args, args.workload, "--setup-only")
        cal, cal_total = map(float, out.stdout.split())
        times.append((time.perf_counter() - start - cal_total) * CAL_REF_S / cal)
    return statistics.median(times)


def rounds(wl, seconds: float, start: float, k: int = 0) -> None:
    """Whole rounds from round k on, until ``seconds`` have passed since start."""
    while k == 0 or time.perf_counter() - start < seconds:
        wl.round(k)
        k += 1


def run_workload(args: argparse.Namespace) -> dict:
    setup_s = setup_seconds(args) if not args.trace else None
    import_program()
    from workloads import OUT, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    if args.trace:
        from spans import LAYER_UNITS as units, Tracer

        # round 0 untraced, then the same round traced: the median ratio of
        # the same calls' calibrated times gives the tracing overhead
        start = time.perf_counter()
        wl.round(0)
        n0 = len(wl.records)
        tracer = Tracer()
        bytes_before = wl.cli_bytes
        tracer.install()
        wl.round(0)
        pairs = zip(wl.records[:n0], wl.records[n0:])
        overhead_pct = 100 * (statistics.median((t[0] / t[3]) / (u[0] / u[3]) for u, t in pairs) - 1)
        rounds(wl, args.seconds, start, k=1)
        tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace_{args.workload}_seed{args.seed}.json")
        ops = sum(r[1] for r in wl.records[n0:])
        values = tracer.layer_metrics(ops, wl.cli_bytes - bytes_before, overhead_pct)
    else:
        rounds(wl, args.seconds, time.perf_counter())
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "op_p50_cal": statistics.median(r[0] / r[1] / r[3] for r in wl.records),
        }
        units = E2E_UNITS
        print(f"{args.workload:<10} uncalibrated: op_p50_ms "
              f"{1e3 * statistics.median(r[0] / r[1] for r in wl.records):.3f}, calibration loop p50_ms "
              f"{1e3 * statistics.median(r[3] for r in wl.records):.3f}")
    for problem in wl.problems:
        print(problem, file=sys.stderr)
    return {
        "correct": not wl.problems,
        "attempted": sum(r[1] for r in wl.records),
        "failed": sum(r[2] for r in wl.records),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }


def print_result(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:<10} {name:<28} {m['value']:>16.6f} {m['unit']}")
    print(f"{workload:<10} attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.setup_only:
        import_program()
        from workloads import WORKLOADS, Calibration

        wl = WORKLOADS[args.workload](args.seed)
        wl.setup()
        # timed after the set-up, which the parent measures without them
        start = time.perf_counter()
        cal = Calibration()
        cal.seconds()
        median = statistics.median(cal.seconds() for _ in range(3))
        print(median, time.perf_counter() - start)
        return 0

    if args.workload == "all":
        print(json.dumps({"machine": machine_facts()}))
        results = {}
        for name in NAMES:
            results[name] = json.loads(child(args, name).stdout.splitlines()[-1])
            print_result(name, results[name])
        print(json.dumps(results))
        return 0

    result = run_workload(args)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": machine_facts()}))
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
