"""Self-check of the traced run: every ``.calls`` counter and
``auto_orbits.automorphisms_materialized`` must repeat exactly across two
traced runs of the same workload and seed.

    python3 perfbench/selfcheck.py [--workloads a,b] [--seed N]

Exits 1 and names each counter that differs; prints every counter otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import tracing  # noqa: E402


def traced_counters(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if k.endswith(".calls") or k == tracing.AUTOS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="finite-omega,table-certify,mixed-omega,cocycle-split")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    bad = 0
    for wl in args.workloads.split(","):
        first, second = traced_counters(wl, args.seed), traced_counters(wl, args.seed)
        for name in sorted(first):
            same = first[name] == second.get(name)
            bad += not same
            print(f"{wl:14s} {name:48s} {first[name]:>10} {'' if same else f'!= {second.get(name)}'}")
    print("self-check:", "counters repeat exactly" if not bad else f"{bad} counters differ")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
