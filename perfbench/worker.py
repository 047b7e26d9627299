"""One workload in one fresh process: build the seeded inputs, then run the
job list pass after pass for the given number of seconds, check every output,
and print one JSON object of results as the last line.

Started by ``run.py``; it runs single-threaded and starts no processes.
The defect probes of a workload (jobs with a ``known_defect``) are not part
of the timed passes; each runs once after them, untimed and untraced.
Between jobs it times the reference kernel of ``reference.py``, whose
median shows the host's speed during the run. With ``--trace 1`` it first
runs one traced pass that measures table-build allocations with tracemalloc,
whose times are dropped; then it runs pairs of an untraced and a traced
pass, in alternating order, and writes the spans to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import gc as pygc
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class OverBudget(Exception):
    """Raised by the job timer when a job runs past its budget."""


def _on_alarm(signum, frame):
    raise OverBudget()


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def execute(job: workloads.Job) -> tuple[float, float, str | None, int]:
    """One execution: (seconds, CPU seconds, failure reason or None, output bytes)."""
    outcome, error = None, None
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, job.budget_s)
    try:
        outcome = job.run()
    except OverBudget:
        error = f"over its budget of {job.budget_s} s"
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    t1, cpu1 = time.perf_counter(), _cpu_seconds()
    if error is None:
        try:
            error = job.check(outcome)
        except (ValueError, KeyError, TypeError) as exc:  # malformed output is wrong output
            error = f"output check raised {type(exc).__name__}: {exc}"
    out = outcome.out if isinstance(outcome, workloads.CliResult) else ""
    return t1 - t0, cpu1 - cpu0, error, len(out.encode())


def _record(job: workloads.Job) -> dict:
    s, cpu_s, error, out_bytes = execute(job)
    return {"job": job.name, "s": s, "cpu_s": cpu_s, "error": error,
            "out_bytes": out_bytes, "ref_s": reference.reference_kernel()}


def run_pass(jobs: list[workloads.Job], tracer: tracing.Tracer | None = None) -> list[dict]:
    """One pass over the jobs; ``ref_s`` of a job is the time of the
    reference kernel run right after it."""
    records = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        records.append(_record(job))
    return records


def run_passes(jobs, seconds: float) -> list[list[dict]]:
    """One whole pass, then more for as long as ``seconds`` allows: a job is
    not started if, at its time in the pass before, it would end after
    ``seconds``, and the last pass stops there, so it may be partial."""
    passes: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        pygc.collect()
        records: list[dict] = []
        for i, job in enumerate(jobs):
            if passes and time.perf_counter() - start + passes[-1][i]["s"] > seconds:
                return passes + [records] if records else passes
            records.append(_record(job))
        passes.append(records)


#: Pairs of an untraced and a traced pass that a traced run makes at least.
#: Every other pair runs in the opposite order, so a steady drift of the
#: host's speed cancels from the mean of two differences.
MIN_TRACE_PAIRS = 2


def run_trace_pairs(jobs, seconds: float, tracer: tracing.Tracer) -> tuple[list[tuple], list[dict]]:
    """Pairs of an untraced and a traced pass, as for ``run_passes`` but at
    least ``MIN_TRACE_PAIRS``. Returns the (untraced, traced) pairs and the
    tracer's snapshot of each traced pass."""
    pairs, snapshots = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced_first = len(pairs) % 2 == 1
        pair = {}
        for traced in (traced_first, not traced_first):
            pygc.collect()
            if traced:
                tracer.reset()
                tracer.install()
                pair[traced] = run_pass(jobs, tracer)
                tracer.uninstall()
                snapshots.append(tracer.snapshot())
            else:
                pair[traced] = run_pass(jobs)
        pairs.append((pair[False], pair[True]))
        now = time.perf_counter()
        if len(pairs) >= MIN_TRACE_PAIRS and now - start + (now - t0) > seconds:
            return pairs, snapshots


def _pass_sum(records: list[dict], key: str) -> float:
    return sum(r[key] for r in records)


def _job_median_sum(passes: list[list[dict]], key: str) -> float:
    """The job list's time once: the sum over jobs of each job's median over
    the passes that ran it, so that a burst of host slowness in one pass
    moves only the jobs it fell on."""
    return sum(statistics.median(p[i][key] for p in passes if i < len(p))
               for i in range(len(passes[0])))


def run_probes(probes: list[workloads.Job]) -> tuple[list[dict], list[str]]:
    """Run each defect probe once. Returns its records, with ``error`` set
    only for an outcome that is neither right nor the known defect, and the
    names of the probes whose defect is still open."""
    records, still_open = [], []
    for job in probes:
        pygc.collect()
        _, _, error, _ = execute(job)
        if error == job.known_defect:
            still_open.append(job.name)
            error = None
        records.append({"job": job.name, "error": error})
    return records, still_open


#: Per-layer metric: defect probes whose known defect is still open.
OPEN_DEFECTS = "known_defects.open"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, _on_alarm)
    rng = random.Random(f"{args.workload}:{args.seed}")
    every_job = workloads.WORKLOADS[args.workload](rng, args.workdir)
    jobs = [j for j in every_job if j.known_defect is None]
    probes = [j for j in every_job if j.known_defect is not None]

    result: dict = {"jobs": len(jobs)}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.trace_alloc = True
        alloc_pass = run_pass(jobs, tracer)
        tracer.uninstall()
        tracer.trace_alloc = False
        alloc_peak_mb = tracer.alloc_peak / 2**20
        tracer.spans.clear()  # their times include tracemalloc's cost
        pairs, snapshots = run_trace_pairs(jobs, args.seconds, tracer)
        all_passes = [p for pair in pairs for p in pair]
        for (_, traced), snap in zip(pairs, snapshots):
            snap["cli.output_bytes"] = _pass_sum(traced, "out_bytes")
        layer = {k: statistics.median(snap[k] for snap in snapshots) for k in snapshots[0]}
        layer[tracing.ALLOC] = alloc_peak_mb
        layer["tracing.overhead_s"] = statistics.median(
            _pass_sum(t, "s") - _pass_sum(u, "s") for u, t in pairs)
        layer["host.reference_s"] = statistics.median(r["ref_s"] for p in all_passes for r in p)
        result["per_layer"] = layer
        all_passes = [alloc_pass] + all_passes
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed})
    else:
        all_passes = run_passes(jobs, args.seconds)
        result["e2e"] = {
            "run_s": _job_median_sum(all_passes, "s"),
            "cpu_s": _job_median_sum(all_passes, "cpu_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["reference_s"] = [r["ref_s"] for p in all_passes for r in p]

    probe_records, result["defects_open"] = run_probes(probes)
    if args.trace:
        result["per_layer"][OPEN_DEFECTS] = len(result["defects_open"])
    records = [r for p in all_passes for r in p] + probe_records
    result.update(passes=len(all_passes), attempted=len(records),
                  failed=sum(1 for r in records if r["error"]),
                  failures={r["job"]: r["error"] for r in records if r["error"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
