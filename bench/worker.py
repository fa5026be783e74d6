"""Run one workload in this fresh process and print its result as JSON.

    python3 bench/worker.py <workload> --seed N --seconds S [--trace]

Timed mode runs whole rounds for S seconds: at least one, and another only
while it would end within S seconds at the mean round time so far.  It
reports the median round time and the peak resident set.  Traced mode
installs the wrappers of tracing.py first, runs exactly one round, and
reports the per-layer figures; it also writes every span to
bench/out/trace-<workload>.csv.gz.

run.py starts this with PYTHONPATH pointing at the checkout's src/ and BLAS
and OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

import workloads
from tracing import Tracer

OUT_DIR = workloads.BENCH_DIR / "out"


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _accuracy(outcomes) -> dict:
    """Worst deviation among passing and among failing operations."""
    acc = {}
    for key, group in (("passed", [o for o in outcomes if o.ok]),
                       ("failed", [o for o in outcomes if not o.ok])):
        if group:
            worst = max(group, key=lambda o: (o.margin, o.deviation))
            acc[key] = {"ops": len(group), "worst_margin": worst.margin,
                        "worst_deviation": max(o.deviation for o in group),
                        "worst_op": worst.label}
    return acc


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    in_child = wl.child_process and not args.trace
    import hyperex  # noqa: F401  (import cost is setup_s, measured apart)

    state = wl.prepare(args.seed)
    outcomes = []
    metrics: dict[str, float] = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        raw = wl.run_round(state, in_child)
        metrics["trace.wall_s"] = time.perf_counter() - start
        outcomes += wl.check(state, raw)
        metrics.update(tracer.summary())
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}.csv.gz")
        rounds = 1
    else:
        if "warm_up" in state:
            # Untimed: the first calls fill the Gauss-Legendre caches.
            wl.run_round({**state, **state["warm_up"]}, in_child)
        round_s = []
        began = time.perf_counter()
        # Not starting a round that would overrun S keeps a run within about
        # S seconds however fast the machine is, even where one round is a
        # third of S (verify-all).
        while not round_s or (time.perf_counter() - began
                              + statistics.fmean(round_s) <= args.seconds):
            start = time.perf_counter()
            raw = wl.run_round(state, in_child)
            round_s.append(time.perf_counter() - start)
            outcomes += wl.check(state, raw)
        rounds = len(round_s)
        metrics["wall_s"] = statistics.median(round_s)
        metrics["peak_rss_mb"] = _peak_rss_mb(in_child)

    unexpected = [o.label for o in outcomes if not o.ok and not o.known_fault]
    print(json.dumps({
        "describe": state["describe"],
        "rounds": rounds,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "unexpected_failures": unexpected[:20],
        "correct": not unexpected,
        "accuracy": _accuracy(outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
