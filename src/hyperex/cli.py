"""Command-line front end.

Subcommands: constants, curve, conv, verify, concentrate.  JSON is the
canonical machine format (--json); curve data additionally flows as CSV.
Every report carries the same six keys: command, inputs, outputs,
error_estimates, seed, wall_time_ms.  With --no-meta the wall time is pinned
to 0 so identical flags and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from .functionals import (
    SUPPORTED_PAIRS,
    best_constant,
    constant_expression,
    mass_fraction,
    q_ratio,
    q_route,
    trend_verdict,
)
from .measures import CLOSED_PAIRS, ConvClosedForm, conv_closed, conv_point_oracle
from .verify import SUITES, run_checks

USAGE_ERROR = 2


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _default_seed(explicit: int | None) -> int | None:
    if explicit is not None:
        return explicit
    env = os.environ.get("HYPEREX_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise SystemExit(f"hyperex: HYPEREX_SEED must be an integer, got {env!r}")


def _report(command, inputs, outputs, error_estimates, seed, started, no_meta):
    wall = 0 if no_meta else int(round((time.monotonic() - started) * 1000.0))
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "error_estimates": error_estimates,
        "seed": seed,
        "wall_time_ms": wall,
    }


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _print_json(report) -> None:
    print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))


# ---------------------------------------------------------------- constants

def _constants_rows(d, p, s, sheet):
    if (d is None) != (p is None):
        raise SystemExit("hyperex constants: give both --d and --p or neither")
    if d is None:
        pairs = [(dd, pp, sh) for dd, pp in SUPPORTED_PAIRS for sh in ("one", "two")]
    else:
        if (d, p) not in SUPPORTED_PAIRS:
            raise SystemExit(f"hyperex constants: unsupported pair (d, p) = ({d}, {p})")
        pairs = [(d, p, sheet)]
    rows = []
    for dd, pp, sh in pairs:
        c = best_constant(dd, pp, s, sh)
        rows.append(
            {
                "d": dd,
                "p": pp,
                "s": s,
                "sheet": sh,
                "expression": constant_expression(dd, pp, sh),
                "value": c.value,
            }
        )
    return rows


def cmd_constants(args) -> int:
    started = time.monotonic()
    rows = _constants_rows(args.d, args.p, args.s, args.sheet)
    inputs = {"d": args.d, "p": args.p, "s": args.s, "sheet": args.sheet}
    report = _report(
        "constants", inputs, {"rows": rows}, {}, None, started, args.no_meta
    )
    if args.json:
        _print_json(report)
    elif args.csv:
        print("d,p,s,sheet,expression,value")
        for r in rows:
            print(
                f"{r['d']},{r['p']},{_fmt17(r['s'])},{r['sheet']},"
                f"{r['expression']},{_fmt17(r['value'])}"
            )
    else:
        for r in rows:
            label = "two-sheet" if r["sheet"] == "two" else "one-sheet"
            print(
                f"(d={r['d']}, p={r['p']}, s={r['s']:g}, {label})  "
                f"{r['expression']}  =  {r['value']:.15g}"
            )
    return 0


# -------------------------------------------------------------------- curve

def cmd_curve(args) -> int:
    started = time.monotonic()
    if (args.d, args.p) not in SUPPORTED_PAIRS:
        raise SystemExit(f"hyperex curve: unsupported pair (d, p) = ({args.d}, {args.p})")
    if not (0.0 < args.a_min < args.a_max):
        raise SystemExit("hyperex curve: need 0 < a-min < a-max")
    if args.points < 2:
        raise SystemExit("hyperex curve: need at least 2 points")
    method = q_route(args.d, args.method)
    if args.log_spacing:
        grid = np.geomspace(args.a_min, args.a_max, args.points)
    else:
        grid = np.linspace(args.a_min, args.a_max, args.points)
    limit_value = best_constant(args.d, args.p, args.s).value
    rows = []
    errors = []
    for a in grid:
        r = q_ratio(args.d, args.p, float(a), args.s, method)
        ratio = r.value / limit_value
        if ratio >= 1.0:
            raise SystemExit(
                f"hyperex curve: ratio {float(ratio)!r} >= 1 at a = {float(a)!r} "
                "contradicts Q < H; Q is not resolved at this rate"
            )
        errors.append(r.error)
        rows.append(
            {"a": float(a), "q_value": r.value, "limit_value": limit_value, "ratio": ratio}
        )
    verdict = trend_verdict([r["q_value"] for r in rows])

    csv_lines = ["a,q_value,limit_value,ratio"] + [
        ",".join(
            _fmt17(r[k]) for k in ("a", "q_value", "limit_value", "ratio")
        )
        for r in rows
    ]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(csv_lines) + "\n")

    inputs = {
        "d": args.d,
        "p": args.p,
        "s": args.s,
        "a_min": args.a_min,
        "a_max": args.a_max,
        "points": args.points,
        "log_spacing": bool(args.log_spacing),
        "method": method,
    }
    outputs = {
        "rows": rows,
        "monotonicity": verdict,
        "limit_value": limit_value,
    }
    if args.out:
        outputs["csv_path"] = args.out
    error_estimates = {}
    if method == "quadrature":
        error_estimates["q_value_max"] = max(errors)
    report = _report("curve", inputs, outputs, error_estimates, None, started,
                     args.no_meta)
    if args.json:
        _print_json(report)
    elif args.out:
        print(f"wrote {len(rows)} rows to {args.out}; trend {verdict}")
    else:
        print("\n".join(csv_lines))
    return 0


# --------------------------------------------------------------------- conv

def cmd_conv(args) -> int:
    started = time.monotonic()
    if (args.d, args.n) not in CLOSED_PAIRS:
        raise SystemExit(f"hyperex conv: unsupported pair (d, n) = ({args.d}, {args.n})")
    try:
        xi = np.array([_finite_float(v) for v in args.xi.split(",")], dtype=float)
    except argparse.ArgumentTypeError:
        raise SystemExit(f"hyperex conv: could not parse --xi {args.xi!r} as finite floats")
    if xi.shape != (args.d,):
        raise SystemExit(f"hyperex conv: --xi must have {args.d} components")
    if args.method == "oracle" and args.n != 2:
        raise SystemExit("hyperex conv: the point oracle covers n = 2 only")

    form = ConvClosedForm(args.d, args.n, args.s)
    value = float(conv_closed(form, xi, args.tau))
    m2 = args.tau ** 2 - float(np.sum(xi * xi))
    notes = []
    if args.tau <= 0.0 or m2 < (args.n * args.s) ** 2:
        notes.append("outside-support")

    outputs = {"value": value}
    error_estimates = {}
    if args.method == "oracle" and not notes:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            oracle = conv_point_oracle(form, xi, args.tau)
        if caught:
            notes.append("boundary-proximate")
        outputs["oracle_value"] = oracle.value
        outputs["abs_difference"] = abs(oracle.value - value)
        error_estimates["oracle_value"] = oracle.error
    if notes:
        outputs["notes"] = notes

    inputs = {
        "d": args.d,
        "n": args.n,
        "s": args.s,
        "xi": [float(v) for v in xi],
        "tau": args.tau,
        "method": args.method,
    }
    report = _report("conv", inputs, outputs, error_estimates, None, started,
                     args.no_meta)
    if args.json:
        _print_json(report)
    else:
        print(f"value = {_fmt17(value)}")
        if "oracle_value" in outputs:
            print(f"oracle = {_fmt17(outputs['oracle_value'])}")
            print(f"|closed - oracle| = {_fmt17(outputs['abs_difference'])}")
            print(f"oracle error estimate = {_fmt17(error_estimates['oracle_value'])}")
        for note in notes:
            print(f"note: {note}")
    return 0


# ------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    started = time.monotonic()
    seed = _default_seed(args.seed)
    if args.grid is not None and args.grid < 1:
        raise SystemExit("hyperex verify: --grid must be a positive percentage")
    checks = run_checks(args.suite, seed=0 if seed is None else seed,
                        samples=args.samples, grid=args.grid)
    failed = [c for c in checks if not c.passed]
    outputs = {
        "checks": [
            {
                "suite": c.suite,
                "name": c.name,
                "passed": c.passed,
                "discrepancy": c.discrepancy,
                "tolerance": c.tolerance,
                "note": c.note,
            }
            for c in checks
        ],
        "passed_count": len(checks) - len(failed),
        "failed_count": len(failed),
    }
    error_estimates = {
        f"{c.suite}/{c.name}": c.error_estimate
        for c in checks
        if c.error_estimate > 0.0
    }
    inputs = {"suite": args.suite, "samples": args.samples, "grid": args.grid}
    report = _report("verify", inputs, outputs, error_estimates,
                     0 if seed is None else seed, started, args.no_meta)
    if args.json:
        _print_json(report)
    else:
        for c in checks:
            flag = "PASS" if c.passed else "FAIL"
            extra = f"  ({c.note})" if c.note else ""
            print(
                f"{flag} {c.suite}/{c.name}: discrepancy {c.discrepancy:.3e}"
                f" vs tolerance {c.tolerance:.1e}{extra}"
            )
        print(f"{len(checks) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


# -------------------------------------------------------------- concentrate

def cmd_concentrate(args) -> int:
    started = time.monotonic()
    if args.d not in (2, 3):
        raise SystemExit("hyperex concentrate: --d must be 2 or 3")
    if min(args.s, args.a, args.radius) <= 0:
        raise SystemExit("hyperex concentrate: --s, --a, --radius must be positive")
    fraction = mass_fraction(args.d, args.s, args.a, args.radius)
    regime = "vertex" if fraction >= 0.5 else "spatial-infinity"
    inputs = {"d": args.d, "s": args.s, "a": args.a, "radius": args.radius}
    outputs = {"mass_fraction": fraction, "regime": regime}
    report = _report("concentrate", inputs, outputs, {}, None, started,
                     args.no_meta)
    if args.json:
        _print_json(report)
    else:
        print(f"mass fraction inside radius {args.radius:g}: {fraction:.15g}")
        print(
            f"regime: {regime} "
            f"({'mass pins near the vertex' if regime == 'vertex' else 'mass escapes to spatial infinity'})"
        )
    return 0


# -------------------------------------------------------------------- parse

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperex",
        description="Sharp extension inequalities on the hyperboloid: "
        "constants, profile curves, convolution densities, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument(
            "--no-meta",
            action="store_true",
            help="pin wall_time_ms to 0 for byte-identical output",
        )

    p = sub.add_parser("constants", help="sharp-constant table")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--s", type=_finite_float, default=1.0)
    p.add_argument("--sheet", choices=("one", "two"), default="one")
    p.add_argument("--csv", action="store_true", help="emit the table as CSV")
    add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("curve", help="profile-ratio curve a -> Q(a)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=_finite_float, default=1.0)
    p.add_argument("--a-min", type=_finite_float, required=True)
    p.add_argument("--a-max", type=_finite_float, required=True)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--log-spacing", action="store_true")
    p.add_argument("--method", choices=("closed", "quadrature"), default=None)
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    add_common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("conv", help="convolution density at a point")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=_finite_float, default=1.0)
    p.add_argument("--xi", type=str, required=True, help='point as "v1,v2[,v3]"')
    p.add_argument("--tau", type=_finite_float, required=True)
    p.add_argument("--method", choices=("closed", "oracle"), default="closed")
    add_common(p)
    p.set_defaults(func=cmd_conv)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument(
        "--grid",
        type=int,
        default=None,
        help="tensor quadrature budget as a percent of the default (100); "
        "affects the lorentz and oracle suites",
    )
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("concentrate", help="profile mass inside a ball")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=_finite_float, default=1.0)
    p.add_argument("--a", type=_finite_float, required=True)
    p.add_argument("--radius", type=_finite_float, required=True)
    add_common(p)
    p.set_defaults(func=cmd_concentrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        # Library input validation: a usage error, not a failed verification.
        print(f"hyperex: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:
        # Semantic usage errors carry a message; argparse passes codes through.
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return USAGE_ERROR
        if exc.code is None:
            return 0
        return int(exc.code)


if __name__ == "__main__":
    sys.exit(main())
