"""Seeded input generation for the orbitforge benchmark.

Every generator but ``loop_json`` takes a ``random.Random`` derived from the
workload seed, so the same seed always gives byte-identical inputs; the loop
is the same for every seed. Inputs are built before any
timing starts and handed to the program only as JSON files or arguments.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction

from orbitforge import cocycle_split as cs
from orbitforge import group_core as gc
from orbitforge.exact_linear import QMatrix, QVector


def relabeling(n: int, rng: random.Random) -> list[int]:
    """A random permutation of 0..n-1 that fixes 0, since index 0 must stay
    the identity of a group table."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def relabeled_json(table, labels, rng: random.Random) -> dict:
    """Group JSON for the table with every element index x renamed to s[x]."""
    n = len(table)
    s = relabeling(n, rng)
    new = [[0] * n for _ in range(n)]
    new_labels = [""] * n
    for i in range(n):
        row, si, ni = table[i], s[i], new[s[i]]
        for j in range(n):
            ni[s[j]] = s[row[j]]
        new_labels[si] = labels[i]
    return {"order": n, "labels": new_labels, "table": new}


def relabeled_group_json(g: gc.GroupTable, rng: random.Random) -> dict:
    return relabeled_json(g.table, g.labels, rng)


# ---------------------------------------------------------------------------
# three non-prime-power groups with omega = 3 (the Laffey-MacHale p*q^n family)

def _companion_mod(coeffs: list[int], q: int) -> tuple[tuple[int, ...], ...]:
    """Companion matrix of the monic polynomial with low-order coefficients
    ``coeffs``, in the row-vector convention of ``exact_linear.companion``."""
    d = len(coeffs)
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        rows[i][d - 1] = (-coeffs[i]) % q
    for i in range(1, d):
        rows[i][i - 1] = 1
    return tuple(tuple(r) for r in rows)


def _block_diag_mod(blocks) -> tuple[tuple[int, ...], ...]:
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, e in enumerate(row):
                rows[off + i][off + j] = e
        off += len(b)
    return tuple(tuple(r) for r in rows)


# (name, q, n, p, generator matrix over F_q): C_p acts fixed-point-freely on
# (C_q)^n through a companion matrix (or a block diagonal of them)
SEMIDIRECT_SPECS = [
    # x + 1 twice: -I on F_3^2, the generalized dihedral group of (C3)^2
    ("C3^2:C2", 3, 2, 2, _block_diag_mod([_companion_mod([1], 3)] * 2)),
    # x^2 + x + 1 is irreducible over F_5, so C3 acts without fixed points
    ("C5^2:C3", 5, 2, 3, _companion_mod([1, 1], 5)),
    # x^4 + x^3 + x^2 + x + 1 is irreducible over F_2 (2 has order 4 mod 5)
    ("C2^4:C5", 2, 4, 5, _companion_mod([1, 1, 1, 1], 2)),
]


def semidirect(q: int, n: int, p: int, matrix) -> gc.GroupTable:
    base = gc.cyclic(p)
    action = gc.cyclic_matrix_action(base, matrix, characteristic=q)
    return gc.finite_semidirect(q, n, action, base)


# ---------------------------------------------------------------------------
# the order-1024 Latin-square loop that is not a group

LOOP_ORDER = 1024
# one intercalate of cyclic(1024): rows 3 and 515, columns 5 and 517 hold the
# values 8 and 520 in a 2x2 square; swapping them keeps the Latin property
# and the identity but breaks associativity on 16,336 of 1024^3 triples
LOOP_CELLS = ((3, 5), (3, 517), (515, 5), (515, 517))


def loop_json() -> dict:
    """The loop in the labelling of cyclic(1024), the same for every seed.

    Orders above 512 are checked on 10,000 triples from a fixed generator.
    A seeded relabeling would move the bad triples, so some seeds would hit
    one by luck and reject the loop. In this labelling the sample misses all
    16,336 at the seed commit 8578f1d, so the defect shows on every seed.
    """
    n = LOOP_ORDER
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    for r, c in LOOP_CELLS:
        table[r][c] = 520 if table[r][c] == 8 else 8
    return {"order": n, "labels": [f"x{k}" for k in range(n)], "table": table}


# ---------------------------------------------------------------------------
# cocycles over Q^n

def _perms(g: gc.GroupTable) -> list[tuple[int, ...]]:
    # symmetric() and alternating() label each element by its permutation tuple
    return [ast.literal_eval(lab) for lab in g.labels]


def permutation_action(g: gc.GroupTable) -> gc.FiniteAction:
    """Q^d permuted by the points of a permutation group, as a right action:
    M_p[i][j] = 1 iff p(j) = i, so that M_p M_q = M_{pq}."""
    perms = _perms(g)
    d = len(perms[0])
    mats = tuple(
        QMatrix.of([[1 if p[j] == i else 0 for j in range(d)] for i in range(d)]) for p in perms
    )
    return gc.FiniteAction(g, d, 0, mats)


def _is_even(p: tuple[int, ...]) -> bool:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2 == 0


def sign_action(g: gc.GroupTable, dim: int) -> gc.FiniteAction:
    ident = QMatrix.identity(dim)
    mats = tuple(ident if _is_even(p) else -ident for p in _perms(g))
    return gc.FiniteAction(g, dim, 0, mats)


def random_cochain(order: int, dim: int, rng: random.Random) -> list[QVector]:
    f = [QVector.zero(dim)]
    for _ in range(order - 1):
        f.append(QVector(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim))))
    return f


def coboundary_json(base: gc.GroupTable, action: gc.FiniteAction, rng: random.Random) -> dict:
    f = random_cochain(base.order, action.module_dim, rng)
    return cs.coboundary(f, base, action).to_json()


# the corrupted entry of the broken A4 cocycle; off the identity row and
# column so the cocycle stays normalized and passes input validation
CORRUPT_CELL = (1, 2)


def corrupted_json(base: gc.GroupTable, action: gc.FiniteAction, rng: random.Random) -> dict:
    data = coboundary_json(base, action, rng)
    x, y = CORRUPT_CELL
    bump = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    entries = [Fraction(e) for e in data["values"][x][y]]
    entries[0] += bump
    data["values"][x][y] = [f"{e.numerator}/{e.denominator}" for e in entries]
    return data
