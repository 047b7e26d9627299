"""orbitforge benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is used from ``src/`` as it is;
there is nothing to build. The run

1. times ``import orbitforge`` plus building the CLI parser in fresh
   processes, half before and half after the workload (``setup_s``, their
   median);
2. starts the workload in its own fresh process (``worker.py``), which builds
   the seeded inputs and runs the job list for ``--seconds``, checking every
   output, and then runs the workload's defect probes once, untimed;
3. prints a summary, with the timings of the reference kernel
   (``reference.py``) that show the host's speed during the run, and, as its
   last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
   metrics of a traced run with ``--trace 1``. A probe whose defect known at
   the seed commit is still open is named in a ``#`` note and counted in
   ``known_defects.open``; any other wrong output makes ``correct`` false.

Scratch files go to ``.bench_work/`` under the root; spans of a traced run
are kept in ``.bench_work/traces/``. BENCHMARK.json lists the workloads and
metrics, ``layer_map.json`` which end-to-end metric each layer should move,
and ``results/`` the measured trajectory. ``sweep.py`` runs every workload
over several seeds; ``selfcheck.py`` checks that the traced counters repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("finite-omega", "table-certify", "mixed-omega", "cocycle-split")
#: Fresh-process samples behind setup_s, half taken before the workload and
#: half after it, so that they span the run; host speed drifts over seconds.
SETUP_SAMPLES = 12
#: The whole run must end within 180 s; this leaves time for the setup
#: probes that follow the workload.
DEADLINE_S = 160.0

SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import orbitforge.cli\n"
    "orbitforge.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)

E2E_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # numpy must not start a BLAS thread pool: every workload is single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_samples(env: dict, count: int) -> list[float]:
    probe = [sys.executable, "-c", SETUP_PROBE]
    samples = []
    for _ in range(count):
        out = subprocess.run(probe, env=env, check=True, capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout.strip()))
    return samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "orbitforge", "cli.py")):
        print(f"error: no orbitforge sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    env = child_env()
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup = []
        if not args.trace:
            # the first import compiles bytecode; users pay that once, not per command
            setup_samples(env, 1)
            setup = setup_samples(env, SETUP_SAMPLES // 2)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir]
        if args.trace:
            cmd += ["--trace-out", os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json")]
        budget = DEADLINE_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"error: workload did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
            return 3
        if not args.trace and proc.returncode == 0:
            setup += setup_samples(env, SETUP_SAMPLES - len(setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 4
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in sorted(res["per_layer"].items())}
    else:
        values = dict(res["e2e"], setup_s=statistics.median(setup))
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        ref = res["reference_s"]
        q1, _, q3 = statistics.quantiles(ref, n=4)
        print(f"# {args.workload} seed {args.seed}: run_s and cpu_s sum each job's median over "
              f"{res['passes']} pass(es) of {res['jobs']} jobs; setup_s is the median of "
              f"{SETUP_SAMPLES} processes")
        print(f"# host reference kernel: median {statistics.median(ref):.6f} s of {len(ref)} timings "
              f"between jobs, quartiles {q1:.6f}-{q3:.6f} s")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    for job in res["defects_open"]:
        print(f"# known defect still open: probe {job} (untimed)")
    for job, reason in sorted(res["failures"].items()):
        print(f"FAILED {job}: {reason}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
