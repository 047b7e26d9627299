"""Every timed job of the benchmark passes its own oracle.

The benchmark's jobs pin outputs (the mixed-omega digests, the cocycle
checks) and the API that ``perfbench/inputs.py`` builds its inputs with, so
a change to either must fail here, not only in a benchmark run. Defect
probes, the jobs with a ``known_defect``, are left out: the benchmark runs
them once, outside its timed passes.
"""

import importlib.util
import pathlib
import random
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
WORKLOAD_NAMES = ("finite-omega", "table-certify", "mixed-omega", "cocycle-split")
#: The workloads whose jobs are ``cli.main`` calls.
CLI_WORKLOADS = ("finite-omega", "mixed-omega", "cocycle-split")


def _load(monkeypatch, name: str):
    """perfbench/<name>.py as the module ``name``; monkeypatch removes it
    from sys.modules again, so no test sees the benchmark's modules."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports inputs by name; dataclasses look their module up
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    _load(monkeypatch, "inputs")
    return _load(monkeypatch, "workloads")


def _timed_jobs(workloads, tmp_path, name: str) -> list:
    # the worker's rng for this workload at seed 1
    jobs = workloads.WORKLOADS[name](random.Random(f"{name}:1"), str(tmp_path))
    timed = [job for job in jobs if job.known_defect is None]
    assert timed
    return timed


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_timed_job_passes_its_oracle(workloads, tmp_path, name):
    for job in _timed_jobs(workloads, tmp_path, name):
        assert job.check(job.run()) is None, job.name


@pytest.mark.parametrize("name", CLI_WORKLOADS)
def test_cli_jobs_pass_again_in_the_same_process(workloads, tmp_path, name):
    # a benchmark run repeats its passes in one process, so no command may
    # leave state (parsed flags, the shared parser) that changes the next
    timed = _timed_jobs(workloads, tmp_path, name)
    for round_ in (1, 2):
        for job in timed:
            assert job.check(job.run()) is None, (round_, job.name)


def test_benchmark_modules_are_unloaded():
    assert "inputs" not in sys.modules and "workloads" not in sys.modules
