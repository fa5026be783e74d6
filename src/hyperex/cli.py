"""Command-line front end.

Subcommands: constants, curve, conv, verify, concentrate.  JSON is the
canonical machine format (--json); curve data additionally flows as CSV.
Every report carries the same six keys: command, inputs, outputs,
error_estimates, seed, wall_time_ms.  The inputs are the parsed flags, less
the output switches and the seed.  With --no-meta the wall time is pinned
to 0 so identical flags and seed produce byte-identical output.  Every
refusal after argument parsing is a ValueError or BudgetError, which main
maps to exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
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
    monotonicity_scan,
)
from .measures import ConvClosedForm, conv_closed, conv_point_oracle, conv_support
from .quadrature import BudgetError, check_budget
from .verify import SUITES, run_checks

USAGE_ERROR = 2


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_lines(rows) -> list[str]:
    """Header (the row keys) and rows; floats as _fmt17 so they round-trip."""
    return [",".join(rows[0])] + [
        ",".join(_fmt17(v) if isinstance(v, float) else str(v) for v in r.values())
        for r in rows
    ]


def _default_seed(explicit: int | None) -> int:
    """--seed, else HYPEREX_SEED, else 0."""
    if explicit is not None:
        return explicit
    env = os.environ.get("HYPEREX_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"HYPEREX_SEED must be an integer, got {env!r}") from None


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _finite_floats(text: str) -> list[float]:
    """argparse type: comma-separated finite floats."""
    return [_finite_float(v) for v in text.split(",")]


# Parsed attributes that are not inputs of the computation; the seed is one
# of the report's own keys.
_NOT_INPUTS = ("command", "func", "started", "json", "no_meta", "csv", "out", "seed")


def _emit(args, outputs, lines, error_estimates=None, seed=None) -> None:
    """Print the six-key JSON report under --json, else the text lines.

    inputs are the parsed flags less _NOT_INPUTS; wall_time_ms runs from
    args.started, which main sets after parsing.
    """
    if not args.json:
        print("\n".join(lines))
        return
    wall = 0 if args.no_meta else int(round((time.monotonic() - args.started) * 1000.0))
    report = {
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
        "outputs": outputs,
        "error_estimates": error_estimates or {},
        "seed": seed,
        "wall_time_ms": wall,
    }
    print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))


# ---------------------------------------------------------------- constants

def cmd_constants(args) -> int:
    d, p, s = args.d, args.p, args.s
    if (d is None) != (p is None):
        raise ValueError("give both --d and --p or neither")
    if d is None:
        pairs = [(dd, pp, sh) for dd, pp in SUPPORTED_PAIRS for sh in ("one", "two")]
    else:
        pairs = [(d, p, args.sheet)]
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
    if args.csv:
        lines = _csv_lines(rows)
    else:
        lines = [
            f"(d={r['d']}, p={r['p']}, s={r['s']:g}, {r['sheet']}-sheet)  "
            f"{r['expression']}  =  {r['value']:.15g}"
            for r in rows
        ]
    _emit(args, {"rows": rows}, lines)
    return 0


# -------------------------------------------------------------------- curve

def cmd_curve(args) -> int:
    if not (0.0 < args.a_min < args.a_max):
        raise ValueError("need 0 < a-min < a-max")
    check_budget(args.points, "curve points")
    spacing = np.geomspace if args.log_spacing else np.linspace
    grid = spacing(args.a_min, args.a_max, args.points)
    limit_value = best_constant(args.d, args.p, args.s).value
    points, verdict = monotonicity_scan(args.d, args.p, args.s, grid, args.method)
    rows = [
        {"a": pt.a, "q_value": pt.q_value, "limit_value": limit_value,
         "ratio": pt.q_value / limit_value}
        for pt in points
    ]
    for r in rows:
        if r["ratio"] >= 1.0:
            raise ValueError(
                f"ratio {float(r['ratio'])!r} >= 1 at a = {r['a']!r} "
                "contradicts Q < H; Q is not resolved at this rate"
            )
    csv_lines = _csv_lines(rows)
    outputs = {"rows": rows, "monotonicity": verdict, "limit_value": limit_value}
    error_estimates = {}
    if args.method == "quadrature":
        error_estimates["q_value_max"] = max(pt.error for pt in points)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(csv_lines) + "\n")
        outputs["csv_path"] = args.out
        csv_lines = [f"wrote {len(rows)} rows to {args.out}; trend {verdict}"]
    _emit(args, outputs, csv_lines, error_estimates)
    return 0


# --------------------------------------------------------------------- conv

def cmd_conv(args) -> int:
    form = ConvClosedForm(args.d, args.n, args.s)
    value = float(conv_closed(form, args.xi, args.tau))
    inside, m2 = conv_support(form, args.xi, args.tau)
    notes = [] if inside else ["outside-support"]
    if inside and m2 == (form.n * form.s) ** 2:
        # On the computed boundary the closed value (0 at d = 3) rides on the
        # rounding of m^2; the oracle refuses such a point.
        notes.append("boundary-proximate")

    outputs = {"value": value}
    error_estimates = {}
    if args.method == "oracle":
        # Outside the support too, so that it refuses an n it does not cover.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            oracle = conv_point_oracle(form, args.xi, args.tau)
        if inside:
            if caught:
                notes.append("boundary-proximate")
            outputs["oracle_value"] = oracle.value
            outputs["abs_difference"] = abs(oracle.value - value)
            error_estimates["oracle_value"] = oracle.error
    if notes:
        outputs["notes"] = notes

    lines = [f"value = {_fmt17(value)}"]
    if "oracle_value" in outputs:
        lines += [
            f"oracle = {_fmt17(outputs['oracle_value'])}",
            f"|closed - oracle| = {_fmt17(outputs['abs_difference'])}",
            f"oracle error estimate = {_fmt17(error_estimates['oracle_value'])}",
        ]
    lines += [f"note: {note}" for note in notes]
    _emit(args, outputs, lines, error_estimates)
    return 0


# ------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    seed = _default_seed(args.seed)
    checks = run_checks(args.suite, seed=seed, samples=args.samples, grid=args.grid)
    failed = sum(not c.passed for c in checks)
    outputs = {
        "checks": [{k: v for k, v in dataclasses.asdict(c).items() if k != "error_estimate"}
                   for c in checks],
        "passed_count": len(checks) - failed,
        "failed_count": failed,
    }
    error_estimates = {
        f"{c.suite}/{c.name}": c.error_estimate
        for c in checks
        if c.error_estimate > 0.0
    }
    lines = [
        f"{'PASS' if c.passed else 'FAIL'} {c.suite}/{c.name}: discrepancy "
        f"{c.discrepancy:.3e} vs tolerance {c.tolerance:.1e}"
        + (f"  ({c.note})" if c.note else "")
        for c in checks
    ] + [f"{len(checks) - failed} passed, {failed} failed"]
    _emit(args, outputs, lines, error_estimates, seed)
    return 1 if failed else 0


# -------------------------------------------------------------- concentrate

def cmd_concentrate(args) -> int:
    fraction = mass_fraction(args.d, args.s, args.a, args.radius)
    regime = "vertex" if fraction >= 0.5 else "spatial-infinity"
    outputs = {"mass_fraction": fraction, "regime": regime}
    why = "mass pins near the vertex" if regime == "vertex" else "mass escapes to spatial infinity"
    lines = [
        f"mass fraction inside radius {args.radius:g}: {fraction:.15g}",
        f"regime: {regime} ({why})",
    ]
    _emit(args, outputs, lines)
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
    p.add_argument("--method", choices=("closed", "quadrature"), default="closed")
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    add_common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("conv", help="convolution density at a point")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=_finite_float, default=1.0)
    p.add_argument("--xi", type=_finite_floats, required=True, help='point as "v1,v2[,v3]"')
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
    """Run one command; its standard output is written once it has finished.

    A reader that closes the pipe early (`hyperex constants | head -c1`)
    drops the rest of the output and leaves the exit code as it was.
    """
    parser = build_parser()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
            args.started = time.monotonic()
            code = args.func(args)
    except (ValueError, BudgetError) as exc:
        # A library refusal: a usage error, not a failed verification.
        print(f"hyperex: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:
        # argparse's own exits: 0 after --help, 2 after a usage message.
        code = int(exc.code or 0)
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
