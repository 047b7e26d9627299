"""Run the benchmark on every workload (or some) over several seeds and
summarize each metric by its median, quartiles and spread.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--out FILE]

Each run is ``run.py --trace 0`` in a fresh process, measuring for the
``run_seconds`` of BENCHMARK.json; traced runs are made with ``run.py
--trace 1`` and ``selfcheck.py``. For every workload and metric it prints
the median, the first and third quartiles and the spread, which is the
distance between the quartiles as a share of the median, and flags an
end-to-end metric whose spread exceeds its bound in BENCHMARK.json. Each
run's ``#`` notes, such as the host reference timing, go to stderr. With
``--out`` it also writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    report: dict = {"seconds": seconds, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{wl} seed {seed}: run.py exited with {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"], res["wall_s"] = seed, time.perf_counter() - t0
            runs.append(res)
            res["notes"] = [line for line in proc.stdout.splitlines() if line.startswith("#")]
            print(f"{wl} seed {seed}: {res['wall_s']:.1f} s, attempted {res['attempted']}, "
                  f"failed {res['failed']}", *res["notes"], sep="\n  ", file=sys.stderr, flush=True)
        summary = {name: dict(summarize([r["metrics"][name]["value"] for r in runs]),
                              unit=runs[0]["metrics"][name]["unit"])
                   for name in runs[0]["metrics"]}
        report["workloads"][wl] = {"runs": runs, "summary": summary}
        print(f"\n{wl}  ({len(runs)} runs)")
        print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}  unit")
        for name, s in summary.items():
            flag = ""
            if name in bounds and s["spread"] > bounds[name]:
                flag = f"  > bound {bounds[name]}"
            print(f"  {name:44s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:7.3f}  {s['unit']}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
