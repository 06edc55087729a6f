"""Command-line front end.

Every subcommand writes a single document to stdout, or to ``--out FILE``,
which every subcommand takes.  The grammar is built once per process, at
import (:data:`PARSER`), and :func:`main` only parses with it.  The
result modules hold data only; this module writes every view of it.  The
JSON documents embed a run manifest (subcommand, flags, seeds, version,
timestamp) and go through one strict encoder: a report dataclass is written
field by field, an ndarray as a list, and a NaN or infinite float raises
instead of printing invalid JSON (RFC 8259).  Exact degrees and manifest
integers above 2**53 are written as decimal strings, since JSON numbers
cannot hold them.  The two CSV exports (``rank-freq`` and ``sample-polar``
with ``--format csv``) go through one writer.  Argparse refuses the flag
combinations it can express, a subcommand refuses a flag its chosen mode
would ignore, the library function that uses a value refuses a bad one, and
:func:`main` alone prints errors and picks the exit code: 0 ok,
1 numerical failure, 2 usage error, 3 infeasible or degenerate input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bounds import (
    check_pataki_rank,
    log2_big,
    lp_extension_lower_bound,
    pataki_range,
    psd_rank_lower_bound,
)
from .combinatorics import (
    check_delta_exponent_bound,
    delta,
    psi,
    psi_interval_harris_tu,
    psi_interval_product,
)
from .experiments import rank_frequency, tightness_report
from .kkt import (
    FORMATS,
    build_kkt,
    build_kkt_normalized,
    build_kkt_rank,
    export_system,
)
from .pencil import load_pencil
from .polar import (
    AllSkippedError,
    BoundaryCloud,
    InsufficientSamplesError,
    NotInteriorError,
    bound_pipeline,
    fit_min_vanishing_degree,
    pentagon_fixture,
    sample_polar_boundary,
)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _manifest(args: argparse.Namespace) -> dict:
    flags = {
        k: (str(v) if isinstance(v, int) and abs(v) > 2**53 else v)
        for k, v in vars(args).items()
        if k not in ("func", "subcommand") and v is not None
    }
    return {
        "subcommand": args.subcommand,
        "args": flags,
        "seed": flags.get("seed"),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _fields(obj):
    """The encoder's fallback: an ndarray as a list, a dataclass as a dict
    of its fields in order (the encoder recurses into their values, with no
    copy); anything else raises TypeError (from ``fields``)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _json(obj, indent: int | None = None) -> str:
    """Every JSON document the CLI writes; a NaN or infinity raises ValueError."""
    return json.dumps(obj, indent=indent, default=_fields, allow_nan=False)


def _csv(rows) -> str:
    """Every CSV export the CLI writes, in ``csv``'s default dialect (CRLF line ends)."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _emit(args: argparse.Namespace, payload: dict, *, text: str | None = None) -> None:
    if text is not None:
        data = text
    else:
        data = _json({"manifest": _manifest(args), **payload}, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def cmd_psi(args) -> int:
    if args.set is not None:
        # a bare --set is the empty set; "1,,2", "," and "2,3," have an empty entry
        entries = args.set.split(",") if args.set.strip() else []
        if not all(map(str.strip, entries)):
            raise ValueError(f"--set {args.set!r} has an empty entry")
        elements = [int(tok) for entry in entries for tok in entry.split()]
        value = psi(elements)
        _emit(args, {"set": elements, "psi": str(value)})
        return EXIT_OK
    p, q = args.interval
    product = psi_interval_product(p, q)
    minor_sum = psi(range(p + 1, q + 1))
    harris = psi_interval_harris_tu(q, q - p) if q > p else product
    agree = minor_sum == product == harris
    _emit(
        args,
        {
            "interval": [p + 1, q],
            "psi": str(minor_sum),
            "product_formula": str(product),
            "harris_tu": str(harris),
            "all_formulas_agree": agree,
        },
    )
    return EXIT_OK if agree else EXIT_NUMERICAL


def cmd_degree(args) -> int:
    if args.all_ranks:
        if args.force:
            raise ValueError("--all-ranks does not take --force")
        # rank 0 adds no degree
        degrees = {r: delta(args.n, args.m, r) for r in pataki_range(args.m, args.n).ranks if r}
        rows = [{"r": r, "delta": str(d)} for r, d in degrees.items()]
        total = str(sum(degrees.values()))
        _emit(args, {"n": args.n, "m": args.m, "ranks": rows, "sum_over_range": total})
        return EXIT_OK
    if not args.force:
        check_pataki_rank(args.m, args.n, args.r)
    d = delta(args.n, args.m, args.r)
    _emit(
        args,
        {
            "n": args.n,
            "m": args.m,
            "r": args.r,
            "delta": str(d),
            "log2_delta": log2_big(d) if d > 0 else None,
        },
    )
    return EXIT_OK


def cmd_pataki(args) -> int:
    _emit(args, _fields(pataki_range(args.m, args.n)))
    return EXIT_OK


def cmd_bound(args) -> int:
    d = int(args.d)
    rank = psd_rank_lower_bound(d)
    _emit(
        args,
        {
            "d": str(d),
            "psd_bound": rank.bound,
            "psd_bound_ceil": rank.ceiling,
            "lp_bound": lp_extension_lower_bound(d),
        },
    )
    return EXIT_OK


# the optional flags each kkt-export variant reads, the one it needs first;
# any other given one is refused
_KKT_FLAGS = {"plain": ("--c",), "normalized": (), "rank": ("--rank", "--force")}


def cmd_kkt_export(args) -> int:
    flags = _KKT_FLAGS[args.variant]
    given = {"--c": args.c is not None, "--rank": args.rank is not None, "--force": args.force}
    ignored = [flag for flag, on in given.items() if on and flag not in flags]
    if ignored:
        raise ValueError(f"--variant {args.variant} does not take {' '.join(ignored)}")
    if flags and not given[flags[0]]:
        raise ValueError(f"--variant {args.variant} needs {flags[0]}")
    pencil = load_pencil(args.pencil)
    if args.variant == "plain":
        system = build_kkt(pencil, [float(v) for v in args.c.split(",")])
    elif args.variant == "normalized":
        system = build_kkt_normalized(pencil)
    else:
        system = build_kkt_rank(pencil, args.rank, force=args.force)
    text = export_system(system, args.format)
    if args.format == "plain_text":
        # manifest as a comment line; parsers skip it
        text += "# manifest: " + _json(_manifest(args)) + "\n"
    _emit(args, {}, text=text)
    return EXIT_OK


def cmd_sample_polar(args) -> int:
    pencil = load_pencil(args.pencil)
    cloud = sample_polar_boundary(pencil, args.num_dirs, args.seed)
    if args.format == "csv":
        header = [f"x{i + 1}" for i in range(cloud.ambient_dim)]
        _emit(args, {}, text=_csv([header, *cloud.points.tolist()]))
    else:
        _emit(args, {"cloud": cloud})
    return EXIT_OK


def cmd_fit_degree(args) -> int:
    with open(args.cloud, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cloud = BoundaryCloud.from_dict(data.get("cloud", data) if isinstance(data, dict) else data)
    report = fit_min_vanishing_degree(cloud, args.max_degree)
    _emit(args, {"report": report})
    return EXIT_OK


def cmd_pipeline(args) -> int:
    pencil = load_pencil(args.pencil)
    result = bound_pipeline(pencil, args.num_dirs, args.max_degree, args.seed)
    _emit(args, {"pipeline": result})
    return EXIT_OK


def cmd_rank_freq(args) -> int:
    table = rank_frequency(args.m, args.n, args.trials, args.seed)
    if args.format == "csv":
        rows = [["rank", "count"], *table.counts.items(), ["skipped", table.skipped]]
        _emit(args, {}, text=_csv(rows))
    else:
        _emit(args, {"table": table})
    return EXIT_OK


def cmd_tightness(args) -> int:
    report = tightness_report(args.m, args.trials, args.seed)
    _emit(args, {"tightness": {**_fields(report), "delta": str(report.delta)}})
    return EXIT_OK


def cmd_check_growth(args) -> int:
    report = check_delta_exponent_bound(args.m)
    _emit(args, {**report._asdict(), "delta": str(report.delta)})
    return EXIT_OK


def cmd_pentagon(args) -> int:
    pencil = pentagon_fixture()
    result = bound_pipeline(pencil, args.num_dirs, args.max_degree, args.seed)
    payload = {"pipeline": result}
    if result.d_est != 5:
        payload["error"] = f"expected boundary degree 5, fitted {result.d_est}"
    _emit(args, payload)
    return EXIT_OK if result.d_est == 5 else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdbound",
        description=(
            "Lower bounds on the positive semidefinite rank of convex bodies: "
            "exact SDP degree combinatorics, KKT system export, polar-boundary "
            "degree estimation, and random-spectrahedron experiments."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("psi", help="Pascal-minor sums psi over index sets or intervals")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--set", nargs="?", const="", help="comma-separated indices, e.g. 2,3,4")
    mode.add_argument("--interval", nargs=2, type=int, metavar=("P", "Q"), help="interval {P+1..Q}")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("degree", help="algebraic degree delta(n, m, r) of SDP")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--r", type=int)
    mode.add_argument("--all-ranks", action="store_true", help="sweep the Pataki range and sum")
    p.add_argument("--force", action="store_true", help="compute outside the Pataki range")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("pataki", help="generic optimal-rank range for a shape (m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_pataki)

    p = sub.add_parser("bound", help="representation-size bounds from a boundary degree d")
    p.add_argument("--d", required=True, help="degree (arbitrary-size integer)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("kkt-export", help="build and export a KKT polynomial system")
    p.add_argument("--pencil", required=True, help="pencil JSON file")
    p.add_argument("--variant", choices=["plain", "normalized", "rank"], default="plain")
    p.add_argument("--rank", type=int, help="rank for --variant rank")
    p.add_argument("--c", help="comma-separated objective for --variant plain")
    p.add_argument("--force", action="store_true", help="allow ranks outside the Pataki range")
    p.add_argument("--format", choices=list(FORMATS), default="plain_text")
    p.set_defaults(func=cmd_kkt_export)

    p = sub.add_parser("sample-polar", help="sample boundary points of the polar body")
    p.add_argument("--pencil", required=True)
    p.add_argument("--num-dirs", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_sample_polar)

    p = sub.add_parser("fit-degree", help="minimal vanishing degree of a sampled cloud")
    p.add_argument("--cloud", required=True, help="cloud JSON from sample-polar")
    p.add_argument("--max-degree", type=int, default=6)
    p.set_defaults(func=cmd_fit_degree)

    p = sub.add_parser("pipeline", help="sample, fit, and bound in one run")
    p.add_argument("--pencil", required=True)
    p.add_argument("--num-dirs", type=int, default=300)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("rank-freq", help="optimal-rank frequencies over random pencils")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_rank_freq)

    p = sub.add_parser("tightness", help="half-rank-regime degree and rank frequencies")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("check-growth", help="exact delta versus the 2^(m^2/20) floor")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_check_growth)

    p = sub.add_parser("pentagon", help="full pentagon demo: fixture, sample, fit, bound")
    p.add_argument("--num-dirs", type=int, default=600)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_pentagon)

    # last, so it is each subcommand's last option in --help and the manifest
    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (NotInteriorError, AllSkippedError, InsufficientSamplesError) as exc:
        print(f"psdbound: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, OSError) as exc:
        print(f"psdbound: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"psdbound: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
