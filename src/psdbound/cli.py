"""Command-line front end.

Every subcommand prints a single JSON document (to stdout or ``--out``)
that embeds a run manifest: subcommand, flags, seeds, version, timestamp.
Big integers are serialized as decimal strings since JSON numbers cannot
hold them.  Exit codes: 0 ok, 1 numerical failure, 2 usage error,
3 infeasible or degenerate input.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .bounds import (
    log2_big,
    lp_extension_lower_bound,
    pataki_range,
    psd_rank_lower_bound,
    triangular,
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
    PatakiViolationError,
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
    bound_pipeline,
    fit_min_vanishing_degree,
    pentagon_fixture,
    sample_polar_boundary,
)
from .sdp import NotInteriorError

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _manifest(args: argparse.Namespace) -> dict:
    flags = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "subcommand") and v is not None
    }
    return {
        "subcommand": args.subcommand,
        "args": {k: (str(v) if isinstance(v, int) and abs(v) > 2**53 else v) for k, v in flags.items()},
        "seed": flags.get("seed"),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(args: argparse.Namespace, payload: dict, *, text: str | None = None) -> None:
    if text is not None:
        data = text
    else:
        payload = {"manifest": _manifest(args), **payload}
        data = json.dumps(payload, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.replace(",", " ").split()]


def cmd_psi(args) -> int:
    if (args.set is None) == (args.interval is None):
        print("psi: provide exactly one of --set or --interval", file=sys.stderr)
        return EXIT_USAGE
    if args.set is not None:
        elements = _parse_int_list(args.set)
        value = psi(elements)
        _emit(args, {"set": elements, "psi": str(value)})
        return EXIT_OK
    p, q = args.interval
    if not 0 <= p <= q:
        print(f"psi: need 0 <= p <= q, got {p}, {q}", file=sys.stderr)
        return EXIT_USAGE
    minor_sum = psi(range(p + 1, q + 1))
    product = psi_interval_product(p, q)
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
    in_shape = args.m >= 1 and 1 <= args.n <= triangular(args.m)
    rng = pataki_range(args.m, args.n) if in_shape else None
    if args.all_ranks:
        if rng is None:
            print("degree: need 1 <= n <= t_m for --all-ranks", file=sys.stderr)
            return EXIT_USAGE
        rows = []
        total = 0
        for r in rng.ranks:
            if r == 0 or r > args.m:
                continue
            d = delta(args.n, args.m, r)
            total += d
            rows.append({"r": r, "delta": str(d)})
        _emit(args, {"n": args.n, "m": args.m, "ranks": rows, "sum_over_range": str(total)})
        return EXIT_OK
    if args.r is None:
        print("degree: provide --r or --all-ranks", file=sys.stderr)
        return EXIT_USAGE
    if (rng is None or args.r not in rng.ranks) and not args.force:
        ranks = list(rng.ranks) if rng is not None else []
        print(
            f"degree: rank {args.r} outside the Pataki range {ranks}"
            " (use --force to compute anyway)",
            file=sys.stderr,
        )
        return EXIT_USAGE
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
    rng = pataki_range(args.m, args.n)
    _emit(
        args,
        {
            "m": rng.m,
            "n": rng.n,
            "ranks": list(rng.ranks),
            "strict_ranks": list(rng.strict_ranks),
        },
    )
    return EXIT_OK


def cmd_bound(args) -> int:
    d = int(args.d)
    if d < 1:
        print("bound: --d must be a positive integer", file=sys.stderr)
        return EXIT_USAGE
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


def cmd_kkt_export(args) -> int:
    pencil = load_pencil(args.pencil)
    if args.variant == "plain":
        if args.c is None:
            print("kkt-export: --variant plain needs --c", file=sys.stderr)
            return EXIT_USAGE
        c = [float(v) for v in args.c.split(",")]
        system = build_kkt(pencil, c)
    elif args.variant == "normalized":
        system = build_kkt_normalized(pencil)
    else:
        if args.rank is None:
            print("kkt-export: --variant rank needs --rank", file=sys.stderr)
            return EXIT_USAGE
        system = build_kkt_rank(pencil, args.rank, force=args.force)
    text = export_system(system, args.format)
    if args.format == "plain_text":
        # manifest as a comment line; parsers skip it
        text += "# manifest: " + json.dumps(_manifest(args)) + "\n"
    _emit(args, {}, text=text)
    return EXIT_OK


def cmd_sample_polar(args) -> int:
    pencil = load_pencil(args.pencil)
    cloud = sample_polar_boundary(pencil, args.num_dirs, args.seed)
    if args.format == "csv":
        _emit(args, {}, text=cloud.points_csv())
    else:
        _emit(args, {"cloud": cloud.to_dict()})
    return EXIT_OK


def cmd_fit_degree(args) -> int:
    with open(args.cloud, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cloud = BoundaryCloud.from_dict(data.get("cloud", data))
    report = fit_min_vanishing_degree(cloud, args.max_degree)
    _emit(args, {"report": report.to_dict()})
    return EXIT_OK


def cmd_pipeline(args) -> int:
    pencil = load_pencil(args.pencil)
    result = bound_pipeline(pencil, args.num_dirs, args.max_degree, args.seed)
    _emit(args, {"pipeline": result.to_dict()})
    return EXIT_OK


def cmd_rank_freq(args) -> int:
    table = rank_frequency(args.m, args.n, args.trials, args.seed)
    if args.format == "csv":
        _emit(args, {}, text=table.to_csv())
    else:
        _emit(args, {"table": table.to_dict()})
    return EXIT_OK


def cmd_tightness(args) -> int:
    report = tightness_report(args.m, args.trials, args.seed)
    _emit(args, {"tightness": report.to_dict()})
    return EXIT_OK


def cmd_check_growth(args) -> int:
    report = check_delta_exponent_bound(args.m)
    _emit(
        args,
        {
            "m": report.m,
            "n": report.n,
            "r": report.r,
            "delta": str(report.delta),
            "log2_delta": report.log2_delta,
            "threshold": report.threshold,
            "holds": report.holds,
        },
    )
    return EXIT_OK


def cmd_pentagon(args) -> int:
    pencil = pentagon_fixture()
    result = bound_pipeline(pencil, args.num_dirs, args.max_degree, args.seed)
    payload = {"pipeline": result.to_dict()}
    if result.d_est != 5:
        payload["error"] = f"expected boundary degree 5, fitted {result.d_est}"
        _emit(args, payload)
        return EXIT_NUMERICAL
    _emit(args, payload)
    return EXIT_OK


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
    p.add_argument("--set", nargs="?", const="", help="comma-separated indices, e.g. 2,3,4")
    p.add_argument("--interval", nargs=2, type=int, metavar=("P", "Q"), help="interval {P+1..Q}")
    p.add_argument("--out")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("degree", help="algebraic degree delta(n, m, r) of SDP")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--all-ranks", action="store_true", help="sweep the Pataki range and sum")
    p.add_argument("--force", action="store_true", help="compute outside the Pataki range")
    p.add_argument("--out")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("pataki", help="generic optimal-rank range for a shape (m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pataki)

    p = sub.add_parser("bound", help="representation-size bounds from a boundary degree d")
    p.add_argument("--d", required=True, help="degree (arbitrary-size integer)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("kkt-export", help="build and export a KKT polynomial system")
    p.add_argument("--pencil", required=True, help="pencil JSON file")
    p.add_argument("--variant", choices=["plain", "normalized", "rank"], default="plain")
    p.add_argument("--rank", type=int, help="rank for --variant rank")
    p.add_argument("--c", help="comma-separated objective for --variant plain")
    p.add_argument("--force", action="store_true", help="allow ranks outside the Pataki range")
    p.add_argument("--format", choices=["plain_text", "json"], default="plain_text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kkt_export)

    p = sub.add_parser("sample-polar", help="sample boundary points of the polar body")
    p.add_argument("--pencil", required=True)
    p.add_argument("--num-dirs", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample_polar)

    p = sub.add_parser("fit-degree", help="minimal vanishing degree of a sampled cloud")
    p.add_argument("--cloud", required=True, help="cloud JSON from sample-polar")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit_degree)

    p = sub.add_parser("pipeline", help="sample, fit, and bound in one run")
    p.add_argument("--pencil", required=True)
    p.add_argument("--num-dirs", type=int, default=300)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("rank-freq", help="optimal-rank frequencies over random pencils")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank_freq)

    p = sub.add_parser("tightness", help="half-rank-regime degree and rank frequencies")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("check-growth", help="exact delta versus the 2^(m^2/20) floor")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_growth)

    p = sub.add_parser("pentagon", help="full pentagon demo: fixture, sample, fit, bound")
    p.add_argument("--num-dirs", type=int, default=600)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pentagon)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotInteriorError, AllSkippedError, InsufficientSamplesError) as exc:
        print(f"psdbound: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PatakiViolationError as exc:
        print(f"psdbound: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"psdbound: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"psdbound: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
