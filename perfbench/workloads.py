"""The four benchmark workloads: seeded job lists, each job with its oracle.

A job is one CLI command (through ``cli.main``) or one library call. Its
``run`` is the timed part and calls only the program; its ``check`` is the
oracle, runs untimed, and returns ``None`` when the output is right or a
one-line reason when it is wrong. A job also fails when it raises, returns
the wrong exit code, or runs past its budget.

Two jobs probe defects that are known at the seed commit 8578f1d. Such a job
names, in ``known_defect``, the exact reason its oracle gives at that commit.
It is not timed: the worker runs it once after the timed passes. If it
fails with exactly that reason, the defect is reported as still open; if it
passes, the defect is fixed; any other failure is a wrong output and fails
the run, like a failure of a timed job. So a run of the program as it is
reports its two defects on every seed without being a failed run, and the
time a probe takes (a budget hit or a sampled check) stays out of run_s.

Why each workload exists:

* ``finite-omega``: ``classify`` on relabeled group tables. The automorphism
  search dominates, in three regimes: large |Aut| relative to n (EA groups,
  where materializing Aut(G) is the cost), large n with small |Aut| (C128,
  D32, where the O(n^2) closure per candidate is the cost), and many tiny
  groups (the catalog, where JSON load and table validation dominate).
  EA_2_5 runs under a budget as a defect probe: at the seed commit the
  search does not finish.
* ``table-certify``: tables at and above the 512 boundary of full
  associativity checking, built or imported and then queried. Table storage
  and validation dominate time and memory. The order-1024 loop must be
  rejected; it is a defect probe, since at the seed commit it is accepted
  (orders above 512 are only sampled). The loop is not relabeled by the seed
  (see ``inputs.loop_json``). ``cyclic(4096)`` is left out: it needs
  about 1.2 GB of resident memory.
* ``mixed-omega``: exact Q^n x| C_p certificates; ``exact_linear`` and
  ``mixed_group`` do all the work, sparse power application at small p with
  many witness pairs, spec validation at p = 31.
* ``cocycle-split``: cocycle verify, trivialize and complement; the |B|^3
  dense vector-times-matrix loop of ``verify_cocycle`` dominates, on small
  dense Fractions, the other use of ``exact_linear``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from orbitforge import catalog, cli
from orbitforge import group_core as gc

import inputs

#: Guard against a hang in any job; only EA_2_5 has a budget it may hit.
GUARD_BUDGET_S = 120.0
#: EA_2_5 (order 32) must finish within this; the slowest finite-omega job
#: that finishes at the seed commit (EA_3_3) takes about 2.5 s.
EA_2_5_BUDGET_S = 3.0


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    budget_s: float = GUARD_BUDGET_S
    #: For a defect probe, the reason ``check`` or the budget gives while the
    #: defect is open; None for a timed job.
    known_defect: str | None = None


@dataclass
class CliResult:
    code: int
    out: str


def run_cli(argv: list[str]) -> CliResult:
    """One CLI command in this process, with stdout and stderr captured.
    ``cli.main`` is looked up at call time so a tracing wrapper applies."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def _write_json(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _expect_code(res: CliResult, code: int) -> str | None:
    return None if res.code == code else f"exit code {res.code}, expected {code}"


# ---------------------------------------------------------------------------
# finite-omega

def _ea(prime: int, rank: int):
    return 2, "elementary_abelian", {"prime": prime, "rank": rank}


def _lm(p: int, q: int, n: int):
    return 3, "laffey_machale_pq", {"p": p, "q": q, "n": n}


_PP = (3, "prime_power_unclassified", {})

# (name, table builder, (omega, verdict, evidence subset)); catalog omegas are
# the catalog's theorem and computed values, EA and Laffey-MacHale verdicts
# follow from the classification, the rest were frozen at the seed commit
FINITE_GROUPS = [
    ("trivial", catalog.CATALOG["trivial"].build, (1, "trivial", {})),
    ("C2", catalog.CATALOG["C2"].build, _ea(2, 1)),
    ("C3", catalog.CATALOG["C3"].build, _ea(3, 1)),
    ("C4", catalog.CATALOG["C4"].build, _PP),
    ("C5", catalog.CATALOG["C5"].build, _ea(5, 1)),
    ("C6", catalog.CATALOG["C6"].build, (4, "other", {})),
    ("C7", catalog.CATALOG["C7"].build, _ea(7, 1)),
    ("C8", catalog.CATALOG["C8"].build, (4, "other", {})),
    ("EA_2_2", catalog.CATALOG["EA_2_2"].build, _ea(2, 2)),
    ("EA_3_2", catalog.CATALOG["EA_3_2"].build, _ea(3, 2)),
    ("S3", catalog.CATALOG["S3"].build, _lm(2, 3, 1)),
    ("D4", catalog.CATALOG["D4"].build, (4, "other", {})),
    ("D5", catalog.CATALOG["D5"].build, _lm(2, 5, 1)),
    ("Q8", catalog.CATALOG["Q8"].build, _PP),
    ("A4", catalog.CATALOG["A4"].build, _lm(3, 2, 2)),
    ("G21", catalog.CATALOG["G21"].build, (4, "other", {})),
    ("A5", catalog.CATALOG["A5"].build, (4, "other", {})),
    ("S5", lambda: gc.symmetric(5), (7, "other", {})),
    ("D32", lambda: gc.dihedral(32), (7, "other", {})),
    ("C128", lambda: gc.cyclic(128), (8, "other", {})),
    ("EA_2_4", lambda: gc.elementary_abelian(2, 4), _ea(2, 4)),
    ("EA_3_3", lambda: gc.elementary_abelian(3, 3), _ea(3, 3)),
    ("EA_7_2", lambda: gc.elementary_abelian(7, 2), _ea(7, 2)),
] + [
    (name, lambda q=q, n=n, p=p, m=m: inputs.semidirect(q, n, p, m), _lm(p, q, n))
    for name, q, n, p, m in inputs.SEMIDIRECT_SPECS
] + [
    ("EA_2_5", lambda: gc.elementary_abelian(2, 5), _ea(2, 5)),
]


def _classify_check(expected):
    omega, verdict, evidence = expected

    def check(res: CliResult) -> str | None:
        bad = _expect_code(res, 0)
        if bad:
            return bad
        got = json.loads(res.out)
        if (got["omega"], got["verdict"]) != (omega, verdict):
            return f"omega/verdict {got['omega']}/{got['verdict']}, expected {omega}/{verdict}"
        for key, value in evidence.items():
            if got["evidence"].get(key) != value:
                return f"evidence {key} = {got['evidence'].get(key)!r}, expected {value!r}"
        return None

    return check


def finite_omega(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    for name, build, expected in FINITE_GROUPS:
        path = _write_json(workdir, name, inputs.relabeled_group_json(build(), rng))
        job = Job(name, lambda path=path: run_cli(["--json", "classify", path]),
                  _classify_check(expected))
        if name == "EA_2_5":
            job.budget_s = EA_2_5_BUDGET_S
            job.known_defect = f"over its budget of {EA_2_5_BUDGET_S} s"
        jobs.append(job)
    return jobs


# ---------------------------------------------------------------------------
# table-certify

def _query(g: gc.GroupTable):
    g.element_orders()
    return g.order, g.is_abelian, gc.is_elementary_abelian(g), gc.exponent(g)


def _table_check(order: int, abelian: bool, elementary: tuple, exponent: int):
    expected = (order, abelian, elementary, exponent)

    def check(got) -> str | None:
        return None if got == expected else f"(order, abelian, elementary, exponent) = {got}, expected {expected}"

    return check


def _import_table(path: str) -> gc.GroupTable:
    with open(path, "r", encoding="utf-8") as fh:
        return gc.GroupTable.from_json(json.load(fh))


def _import_loop(path: str) -> str:
    try:
        _import_table(path)
    except ValueError:
        return "rejected"
    return "accepted"


LOOP_ACCEPTED = "non-associative loop accepted as a group"


def table_certify(rng: random.Random, workdir: str) -> list[Job]:
    product = gc.direct_product(gc.symmetric(5), gc.cyclic(8))
    product_path = _write_json(workdir, "S5xC8", inputs.relabeled_group_json(product, rng))
    loop_path = _write_json(workdir, "loop1024", inputs.loop_json())
    return [
        Job("cyclic512", lambda: _query(gc.cyclic(512)), _table_check(512, True, (False, None), 512)),
        Job("EA_3_6", lambda: _query(gc.elementary_abelian(3, 6)), _table_check(729, True, (True, 3), 3)),
        Job("EA_2_10", lambda: _query(gc.elementary_abelian(2, 10)), _table_check(1024, True, (True, 2), 2)),
        Job("dihedral1024", lambda: _query(gc.dihedral(1024)), _table_check(2048, False, (False, None), 1024)),
        Job("S5xC8", lambda: _query(_import_table(product_path)), _table_check(960, False, (False, None), 120)),
        Job("loop1024", lambda: _import_loop(loop_path),
            lambda got: None if got == "rejected" else LOOP_ACCEPTED, known_defect=LOOP_ACCEPTED),
    ]


# ---------------------------------------------------------------------------
# mixed-omega

#: The witness draws use one fixed CLI seed, so each certificate has one
#: frozen digest; the workload seed does not change these inputs. Witness
#: draws at other CLI seeds differ in cost by about 10 %, which would spread
#: run_s across seeds more than a bound allows.
MIXED_CLI_SEED = 0

MIXED_COMMANDS = [
    ("omega_p7_t2", ["mixed", "omega", "--p", "7", "--t", "2", "--pairs", "20"]),
    ("omega_p13_t2", ["mixed", "omega", "--p", "13", "--t", "2", "--pairs", "5"]),
    ("omega_p19_t1", ["mixed", "omega", "--p", "19", "--t", "1", "--pairs", "2"]),
    ("auto_p13_t2", ["mixed", "auto", "--p", "13", "--t", "2"]),
    ("verify_p31_t1", ["mixed", "verify", "--p", "31", "--t", "1"]),
]

#: SHA-256 of the --json output of each command, frozen at the seed commit.
MIXED_SHA256 = {
    "omega_p7_t2": "e5316342c8337005a87c6b5698c028a76777a141bb8e16fd8d94c688242f45c2",
    "omega_p13_t2": "20e3dcdcb595085c8dd4284c849655c479c4ca8850fc2f21f63c722501bc638a",
    "omega_p19_t1": "c31fbf6a94c538623090ebabc8c313e8357688852f9f3777623ff887ca2fbb5b",
    "auto_p13_t2": "01480b199667cc26a8325f4b18660d970affb15f6094b236c95d545a939beb2f",
    "verify_p31_t1": "1082adddd2e324c664267bb1f225434ec2837071f3a9a4dfe2f77481f70d2d05",
}


def _sha_check(expected: str):
    def check(res: CliResult) -> str | None:
        bad = _expect_code(res, 0)
        if bad:
            return bad
        got = hashlib.sha256(res.out.encode()).hexdigest()
        return None if got == expected else f"certificate digest {got[:16]}..., expected {expected[:16]}..."

    return check


def mixed_omega(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    for name, argv in MIXED_COMMANDS:
        full = ["--json", "--seed", str(MIXED_CLI_SEED)] + argv
        jobs.append(Job(name, lambda full=full: run_cli(full), _sha_check(MIXED_SHA256[name])))
    return jobs


# ---------------------------------------------------------------------------
# cocycle-split

#: First failing (x, y, z) of the A4 cocycle corrupted at inputs.CORRUPT_CELL,
#: frozen at the seed commit; it depends only on the corrupted cell.
CORRUPT_WITNESS = [1, 1, 1]


def _parse_vec(v) -> list[Fraction]:
    return [Fraction(e) for e in v]


def _trivializes(data: dict, e: list[list[Fraction]]) -> str | None:
    """Independent exact check that c(y, z) = e(yz) - e(y) M_z - e(z) for all
    pairs, in plain Fractions; this is also exactly the condition for the
    section x -> (x, e(x)) to be a complement."""
    table = data["base"]["table"]
    mats = [[_parse_vec(row) for row in m] for m in data["action"]]
    nb, dim = len(table), data["module_dim"]
    if len(e) != nb or any(len(v) != dim for v in e):
        return "trivializer has the wrong shape"
    if any(e[0]):
        return "trivializer does not vanish at the identity"
    for y in range(nb):
        ey = e[y]
        for z in range(nb):
            m = mats[z]
            eyz = e[table[y][z]]
            c = _parse_vec(data["values"][y][z])
            for j in range(dim):
                moved = sum(ey[i] * m[i][j] for i in range(dim) if ey[i] and m[i][j])
                if c[j] != eyz[j] - moved - e[z][j]:
                    return f"trivialization relation fails at pair ({y}, {z})"
    return None


def _complement_check(data: dict):
    def check(res: CliResult) -> str | None:
        bad = _expect_code(res, 0)
        if bad:
            return bad
        got = json.loads(res.out)
        nb = len(data["base"]["table"])
        if got["size"] != nb or [s["x"] for s in got["complement"]] != list(range(nb)):
            return "complement does not have one section element per base element"
        return _trivializes(data, [_parse_vec(s["a"]) for s in got["complement"]])

    return check


def _trivialize_check(data: dict):
    def check(res: CliResult) -> str | None:
        bad = _expect_code(res, 0)
        if bad:
            return bad
        return _trivializes(data, [_parse_vec(v) for v in json.loads(res.out)["trivializer"]])

    return check


def _verify_check(code: int, payload: dict):
    def check(res: CliResult) -> str | None:
        bad = _expect_code(res, code)
        if bad:
            return bad
        got = json.loads(res.out)
        return None if got == payload else f"verify output {got}, expected {payload}"

    return check


def cocycle_split(rng: random.Random, workdir: str) -> list[Job]:
    a5, s4, a4, s3 = gc.alternating(5), gc.symmetric(4), gc.alternating(4), gc.symmetric(3)
    a4_perm = inputs.permutation_action(a4)
    cases = [
        ("complement_A5_trivial_Q3", "complement",
         inputs.coboundary_json(a5, gc.trivial_action(a5, 3), rng), _complement_check),
        ("complement_S4_perm_Q4", "complement",
         inputs.coboundary_json(s4, inputs.permutation_action(s4), rng), _complement_check),
        ("trivialize_A4_perm_Q4", "trivialize",
         inputs.coboundary_json(a4, a4_perm, rng), _trivialize_check),
        ("verify_S3_sign_Q2", "verify",
         inputs.coboundary_json(s3, inputs.sign_action(s3, 2), rng),
         lambda data: _verify_check(0, {"ok": True, "witness": None})),
        ("verify_A4_corrupted", "verify",
         inputs.corrupted_json(a4, a4_perm, rng),
         lambda data: _verify_check(1, {"ok": False, "witness": CORRUPT_WITNESS})),
    ]
    jobs = []
    for name, command, data, make_check in cases:
        path = _write_json(workdir, name, data)
        jobs.append(Job(name, lambda command=command, path=path: run_cli(["--json", "cocycle", command, path]),
                        make_check(data)))
    return jobs


WORKLOADS: dict[str, Callable[[random.Random, str], list[Job]]] = {
    "finite-omega": finite_omega,
    "table-certify": table_certify,
    "mixed-omega": mixed_omega,
    "cocycle-split": cocycle_split,
}
