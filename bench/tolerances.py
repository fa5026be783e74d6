"""Regenerate tolerances.json from `hyperex verify --suite all --json`.

    python3 bench/tolerances.py

tolerances.json is a copy of every verify check's tolerance as the program
documents it.  The verify-all workload fails a check whose tolerance reads
looser than this copy, so regenerate it only when a change tightens a
tolerance or adds a check, never to admit a looser one.
"""

from __future__ import annotations

import json
import subprocess
import sys

from workloads import ROOT, TOLERANCES_PATH, child_env


def main() -> int:
    proc = subprocess.run(
        [sys.executable, "-m", "hyperex", "verify", "--suite", "all", "--json",
         "--no-meta"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    )
    checks = json.loads(proc.stdout)["outputs"]["checks"]
    table = {f"{c['suite']}/{c['name']}": c["tolerance"] for c in checks}
    TOLERANCES_PATH.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {len(table)} tolerances to {TOLERANCES_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
