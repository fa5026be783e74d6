"""The two workloads: their seeded inputs, one round of work, and the checks.

A workload is a `prepare(seed)` that builds the inputs and their reference
values (untimed), a `run_round(state, child)` that does one round of the
program's work and returns its raw outputs, and a `check(state, raw)` that turns the raw outputs into one `Outcome` per
operation.  Checking happens after the round, outside every timed region.
A state may carry `warm_up`: the overrides that cut it down to one cheap
operation, run untimed before the first timed round.

Every operation compares the program's output with a value computed apart
from it (see reference.py) or with a property the mathematics requires.
An operation that fails its check counts as failed; `known_fault` marks the
operations of the documented fault (README.md, "Known failing operations"),
whose inputs do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Round-off allowance added to every reported error bar, relative to the
# scale of the computation: about 450 units in the last place.
ROUNDOFF_REL = 1e-13

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict:
    """Environment for every child process: checkout's src/, one thread."""
    env = {k: v for k, v in os.environ.items() if k != "HYPEREX_SEED"}
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


@dataclass(frozen=True)
class Outcome:
    """Check result of one operation.

    deviation is the relative deviation from the reference (for a verify
    check, the check's own discrepancy); margin is the absolute deviation
    over what the check allows, so margin <= 1 passes.
    """

    label: str
    ok: bool
    known_fault: bool
    deviation: float
    margin: float


def _cli(argv: list[str]) -> tuple[int, str]:
    """hyperex.cli.main in this process, stdout captured."""
    from hyperex.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _allowed(error: float, scale: float) -> float:
    return error + ROUNDOFF_REL * scale


# ------------------------------------------------------------- verify-all

LORENTZ_PAIRS = 20
LORENTZ_D3_PAIRS = 10
TOLERANCES_PATH = BENCH_DIR / "tolerances.json"
REPORT_KEYS = {"command", "inputs", "outputs", "error_estimates", "seed",
               "wall_time_ms"}


def lorentz_d3_pairs(verify_seed: int) -> int:
    """How many of the lorentz suite's measure pairs draw d = 3.

    Replays the draws that hyperex.verify._suite_lorentz makes from
    default_rng(seed) before its first surface integral (the specfun suite
    ahead of it draws nothing): per pair, integers(2, 4) for d, then s, the
    two rapidities, the angle, alpha and beta.
    """
    rng = np.random.default_rng(verify_seed)
    count = 0
    for _ in range(LORENTZ_PAIRS):
        d = int(rng.integers(2, 4))
        rng.uniform(size=6)
        count += d == 3
    return count


def verify_seed_for(seed: int) -> int:
    """The first of seed*1000, seed*1000+1, ... with 10 d = 3 lorentz pairs.

    The d = 3 surface integrals take most of the verify time, so fixing
    their number keeps the work of a round the same on every seed.
    """
    for candidate in range(seed * 1000, seed * 1000 + 1000):
        if lorentz_d3_pairs(candidate) == LORENTZ_D3_PAIRS:
            return candidate
    raise RuntimeError(f"no verify seed with {LORENTZ_D3_PAIRS} d = 3 pairs")


def verify_prepare(seed: int) -> dict:
    vseed = verify_seed_for(seed)
    return {
        "verify_seed": vseed,
        "argv": ["verify", "--suite", "all", "--json", "--no-meta",
                 "--seed", str(vseed)],
        "tolerances": json.loads(TOLERANCES_PATH.read_text()),
        "describe": f"verify seed {vseed}, {LORENTZ_D3_PAIRS} of "
                    f"{LORENTZ_PAIRS} lorentz pairs in d = 3",
    }


def verify_round(state: dict, child: bool):
    """One `hyperex verify --suite all` run: a child process, or in-process."""
    if child:
        proc = subprocess.run(
            [sys.executable, "-m", "hyperex", *state["argv"]],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=150,
        )
        return proc.returncode, proc.stdout
    return _cli(state["argv"])


def verify_check(state: dict, raw) -> list[Outcome]:
    code, out = raw
    table = state["tolerances"]
    try:
        report = json.loads(out)
        checks = {f"{c['suite']}/{c['name']}": c for c in report["outputs"]["checks"]}
        well_formed = (
            code == 0
            and set(report) == REPORT_KEYS
            and report["command"] == "verify"
            and report["seed"] == state["verify_seed"]
            and report["wall_time_ms"] == 0
        )
    except (ValueError, KeyError, TypeError):
        checks, well_formed = {}, False
    outcomes = []
    for key, documented in table.items():
        c = checks.get(key)
        if c is None or not well_formed:
            outcomes.append(Outcome(key, False, False, math.inf, math.inf))
            continue
        disc, tol = float(c["discrepancy"]), float(c["tolerance"])
        ok = bool(c["passed"]) and disc <= tol and tol <= documented
        margin = disc / tol if tol > 0 else (0.0 if disc == 0 else math.inf)
        outcomes.append(Outcome(key, ok, False, disc, margin))
    # A check the table does not know must still pass.
    for key, c in checks.items():
        if key not in table:
            ok = bool(c["passed"]) and c["discrepancy"] <= c["tolerance"]
            outcomes.append(Outcome(key, ok, False, float(c["discrepancy"]),
                                    0.0 if ok else math.inf))
    return outcomes


# -------------------------------------------------------- extension-field

# One operation evaluates the field of one profile f_a, in d = 2 or 3, at
# eight spacetime points, or computes one direct L^p norm.  Six rates
# log-spaced over [0.3, 3]; at each, eight (|x|, |t|) targets.  The seed
# jitters each rate up and each target down by at most 3 %, and draws the
# direction of x and the sign of t.  The corner (d = 2, a = 0.3,
# |x| = |t| = 8) is never jittered: it is the largest J0 outer product of the
# set and so fixes the peak memory.
FIELD_RATES = 0.3 * 10.0 ** (np.arange(6) / 5.0)
FIELD_TARGETS = ((0.0, 0.0), (0.0, 8.0), (8.0, 0.0), (1.5, 3.0), (3.0, 1.5),
                 (2.0, 6.0), (6.0, 2.0), (8.0, 8.0))
JITTER = 0.03
# Direct L^p norms (d = 2): p = 6 at a s >= 1 under-reports its error.
FIELD_NORMS = ((4, 0.3), (4, 1.0), (4, 3.0), (6, 0.3), (6, 1.0), (6, 3.0))
S = 1.0


def field_profiles(seed: int) -> list[tuple[int, float, list]]:
    """(d, a, [(x, t), ...]) for each of the 12 profiles."""
    rng = np.random.default_rng(seed)
    fields = []
    for d in (2, 3):
        for k, rate in enumerate(FIELD_RATES):
            corner = d == 2 and k == 0
            a = float(rate) * (1.0 if corner else float(rng.uniform(1.0, 1.0 + JITTER)))
            points = []
            for r, t in FIELD_TARGETS:
                jit = rng.uniform(1.0 - JITTER, 1.0, size=2)
                if not (corner and (r, t) == (8.0, 8.0)):
                    r, t = r * jit[0], t * jit[1]
                direction = rng.normal(size=d)
                direction /= np.linalg.norm(direction)
                sign = 1.0 if rng.uniform() < 0.5 else -1.0
                points.append((r * direction, sign * t))
            fields.append((d, a, points))
    return fields


def field_prepare(seed: int) -> dict:
    fields = field_profiles(seed)
    return {
        "fields": fields,
        "field_refs": [[reference.extension(d, a, S, float(np.linalg.norm(x)), t)
                        for x, t in points] for d, a, points in fields],
        # |integrand| <= its value at x = 0, t = 0, so T f_a(0, 0) bounds the
        # sum of absolute quadrature terms that round-off scales with.
        "field_scales": [abs(reference.extension(d, a, S, 0.0, 0.0))
                         for d, a, _ in fields],
        "norms": FIELD_NORMS,
        "norm_refs": [reference.lp_norm(p, a, S) for p, a in FIELD_NORMS],
        "warm_up": {"fields": fields[-1:], "norms": ()},
        "describe": f"{len(fields)} profiles x {len(FIELD_TARGETS)} points, "
                    f"{len(FIELD_NORMS)} direct norms",
    }


def field_round(state: dict, child: bool):
    from hyperex import (ExpProfile, HyperboloidParams, extension_quadrature,
                         lp_norm_extension_direct)

    raw = []
    for d, a, points in state["fields"]:
        prof = ExpProfile(a=a, params=HyperboloidParams(d=d, s=S))
        raw.append([extension_quadrature(prof, x, t) for x, t in points])
    for p, a in state["norms"]:
        res = lp_norm_extension_direct(ExpProfile(a=a, params=HyperboloidParams(d=2, s=S)), p)
        raw.append((res.value, res.error))
    return raw


def field_check(state: dict, raw) -> list[Outcome]:
    outcomes = []
    n_fields = len(state["fields"])
    for (d, a, _), values, refs, scale in zip(
            state["fields"], raw, state["field_refs"], state["field_scales"]):
        devs = [abs(v - ref) for (v, _), ref in zip(values, refs)]
        margin = max(dev / _allowed(err, scale) for dev, (_, err) in zip(devs, values))
        deviation = max(dev / abs(ref) for dev, ref in zip(devs, refs))
        ok = all(np.isfinite(v) for v, _ in values) and margin <= 1.0
        outcomes.append(Outcome(f"field d={d} a={a:.4g}", ok, False, deviation, margin))
    for (p, a), (value, error), ref in zip(state["norms"], raw[n_fields:],
                                           state["norm_refs"]):
        dev = abs(value - ref)
        margin = dev / _allowed(error, ref)
        ok = bool(np.isfinite(value)) and margin <= 1.0
        outcomes.append(Outcome(f"direct L^{p} norm a={a:g}", ok,
                                p == 6 and a * S >= 1.0, dev / ref, margin))
    return outcomes


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int], dict]
    run_round: Callable[[dict, bool], object]
    check: Callable[[dict, object], list[Outcome]]
    # Timed rounds run in a child process (the CLI as a user starts it).
    child_process: bool = False


WORKLOADS = {
    "verify-all": Workload(verify_prepare, verify_round, verify_check, child_process=True),
    "extension-field": Workload(field_prepare, field_round, field_check),
}
