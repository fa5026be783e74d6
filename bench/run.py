"""Benchmark of hyperex: two workloads, timed or traced.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 55 --trace 0

Runs against the checkout's own src/ (PYTHONPATH=src, nothing installed), so
every commit measures its own code.  With --trace 0 it measures set-up
(`import hyperex` in fresh interpreters) and then runs the workload in a
fresh worker process (worker.py) for --seconds; with --trace 1 it measures
the import layer and runs one traced round instead.  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

carrying every end_to_end metric of BENCHMARK.json (trace 0) or every
per_layer metric (trace 1).  The lines before it give each metric with its
unit, the counts, and the worst deviation from the references.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS, child_env

SETUP_IMPORTS = 5
WORKER_TIMEOUT_S = 160


def _python(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=60)


def _wall(code: str) -> float:
    start = time.perf_counter()
    _python(code)
    return time.perf_counter() - start


def setup_seconds() -> float:
    """Median wall time of `import hyperex` in fresh interpreters."""
    return statistics.median(_wall("import hyperex") for _ in range(SETUP_IMPORTS))


def _scipy_import_ms(stderr: str) -> float:
    """Cumulative -X importtime of the outermost scipy modules, in ms.

    Lines are printed children first, so walk them backwards keeping the
    chain of enclosing imports.
    """
    total_us = 0
    chain: list[tuple[int, str]] = []
    for line in reversed(stderr.splitlines()):
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        depth, name = len(m.group(2)), m.group(3)
        while chain and chain[-1][0] >= depth:
            chain.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n.startswith("scipy") for _, n in chain):
            total_us += int(m.group(1))
        chain.append((depth, name))
    return total_us / 1e3


def import_layer() -> dict[str, float]:
    timed = "import time; t = time.perf_counter(); import hyperex; print(time.perf_counter() - t)"
    return {
        "import.hyperex_ms": 1e3 * statistics.median(
            float(_python(timed).stdout) for _ in range(SETUP_IMPORTS)),
        "import.scipy_ms": statistics.median(
            _scipy_import_ms(_python("import hyperex", "-X", "importtime").stderr)
            for _ in range(3)),
        "process.bare_ms": 1e3 * statistics.median(_wall("pass") for _ in range(SETUP_IMPORTS)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "hyperex" / "__init__.py").is_file():
        print(f"bench: no hyperex package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    _python("import hyperex")  # untimed: compiles and caches the package files
    metrics = import_layer() if args.trace else {"setup_s": setup_seconds()}
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics.update(result["metrics"])

    print(f"{args.workload}, seed {args.seed}: {result['describe']}; "
          f"{result['rounds']} round(s), {'traced' if args.trace else 'timed'}")
    out = {}
    for m in wanted:
        # A layer the workload never calls reads 0.
        value = metrics.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<42} {value:>14.6g} {m['unit']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}"
          + (f"; unexpected failures: {result['unexpected_failures']}"
             if result["unexpected_failures"] else ""))
    for group, acc in result["accuracy"].items():
        print(f"  accuracy ({group}, {acc['ops']} ops): worst deviation/allowance "
              f"{acc['worst_margin']:.3g} at {acc['worst_op']}; "
              f"worst deviation {acc['worst_deviation']:.3g}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
