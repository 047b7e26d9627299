"""Extensions of a finite group B by the divisible torsion-free module Q^n:
2-cocycle verification, the averaging trivialization, and a verified
complement.

The kernel A = Q^n is written additively, so the usual multiplicative
extension formulas translate by the dictionary: product becomes sum,
inverse becomes negation, and the (unique, because A is torsion-free)
|B|-th root becomes exact division by |B|. In these terms the cocycle
identity reads

    c(xy, z) + c(x, y) * M_z  ==  c(x, yz) + c(y, z)

for the right action matrices M of B on A, and extension elements (x, a)
multiply as (x, a)(y, b) = (xy, a * M_y + b + c(x, y)).

Cocycles here are normalized, c(1, y) = c(x, 1) = 0; that loses no
generality and makes the complement meet A trivially by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact_linear import QVector
from .group_core import FiniteAction, GroupTable


class CocycleError(ValueError):
    """The value table fails the cocycle identity; carries a witness triple."""

    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        super().__init__(f"cocycle identity fails at triple {witness}")


class TrivializationError(RuntimeError):
    """The averaged 1-cochain does not trivialize a verified cocycle. This
    cannot happen over Q^n; seeing it means a bug, not a property of input."""


@dataclass(frozen=True)
class Cocycle:
    """A normalized 2-cocycle of a finite group with values in Q^n."""

    base: GroupTable
    action: FiniteAction
    values: tuple[tuple[QVector, ...], ...]

    def __post_init__(self):
        b, act = self.base, self.action
        if act.characteristic != 0:
            raise ValueError("cocycle values live in Q^n; the action must have characteristic 0")
        if act.domain.table != b.table:
            raise ValueError("action domain must be the base group")
        n = act.module_dim
        if len(self.values) != b.order or any(len(row) != b.order for row in self.values):
            raise ValueError("values table must be |B| x |B|")
        if any(v.dim != n for row in self.values for v in row):
            raise ValueError(f"every cocycle value must have dimension {n}")
        for y in range(b.order):
            if not self.values[0][y].is_zero or not self.values[y][0].is_zero:
                raise ValueError("cocycle must be normalized: c(1, y) = c(x, 1) = 0")
        object.__setattr__(self, "_verified", None)

    @property
    def module_dim(self) -> int:
        return self.action.module_dim

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "module_dim": self.module_dim,
            "action": [m.to_json() for m in self.action.matrices],
            "values": [[v.to_json() for v in row] for row in self.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cocycle":
        from .exact_linear import QMatrix

        try:
            base = GroupTable.from_json(data["base"])
            n = int(data["module_dim"])
            matrices = tuple(QMatrix.from_json(m) for m in data["action"])
            action = FiniteAction(base, n, 0, matrices)
            values = tuple(
                tuple(QVector.from_json(v) for v in row) for row in data["values"]
            )
        except TypeError as exc:
            raise ValueError(f"malformed cocycle JSON: {exc}") from exc
        return cls(base, action, values)


def verify_cocycle(c: Cocycle) -> tuple[bool, tuple[int, int, int] | None]:
    """Exhaustive exact check of the cocycle identity over all |B|^3 triples;
    on failure the first offending (x, y, z) is returned."""
    t = c.base.table
    vals = c.values
    mats = c.action.matrices
    for x in range(c.base.order):
        for y in range(c.base.order):
            cxy = vals[x][y]
            xy = t[x][y]
            for z in range(c.base.order):
                if vals[xy][z] + cxy * mats[z] != vals[x][t[y][z]] + vals[y][z]:
                    return False, (x, y, z)
    return True, None


def ensure_verified(c: Cocycle) -> None:
    """Verify once and cache; raises CocycleError with a witness on failure."""
    state = getattr(c, "_verified", None)
    if state is None:
        ok, witness = verify_cocycle(c)
        object.__setattr__(c, "_verified", (ok, witness))
        state = (ok, witness)
    ok, witness = state
    if not ok:
        raise CocycleError(witness)


@dataclass(frozen=True)
class ExtensionElement:
    """An element (x, a) of the extension of B by Q^n determined by a cocycle."""

    x: int
    a: QVector


def extension_identity(c: Cocycle) -> ExtensionElement:
    return ExtensionElement(0, QVector.zero(c.module_dim))


def extension_multiply(e1: ExtensionElement, e2: ExtensionElement, c: Cocycle) -> ExtensionElement:
    """(x, a)(y, b) = (xy, a * M_y + b + c(x, y)); requires a verified cocycle,
    since the cocycle identity is exactly associativity of this product."""
    ensure_verified(c)
    if e1.a.dim != c.module_dim or e2.a.dim != c.module_dim:
        raise ValueError("extension element dimension mismatch")
    x, y = e1.x, e2.x
    return ExtensionElement(
        c.base.table[x][y], e1.a * c.action.matrices[y] + e2.a + c.values[x][y]
    )


def trivialize(c: Cocycle) -> tuple[QVector, ...]:
    """The averaging 1-cochain e with c(y, z) = e(yz) - e(y) * M_z - e(z).

    Summing the cocycle identity over the first argument gives
    d(z) + d(y) * M_z = d(yz) + |B| * c(y, z) for d(y) = sum_x c(x, y), and
    dividing by -|B| (exact and unique over Q^n) yields e. The relation is
    re-verified exhaustively before returning; failure would be a bug.
    """
    ensure_verified(c)
    t = c.base.table
    nb = c.base.order
    mats = c.action.matrices
    scale = Fraction(-1, nb)
    e = tuple(
        sum((c.values[x][y] for x in range(nb)), QVector.zero(c.module_dim)) * scale
        for y in range(nb)
    )
    for y in range(nb):
        for z in range(nb):
            if c.values[y][z] != e[t[y][z]] - e[y] * mats[z] - e[z]:
                raise TrivializationError(
                    f"trivialization relation fails at pair ({y}, {z})"
                )
    return e


class ComplementError(RuntimeError):
    """The candidate complement failed one of its verification checks."""


def complement(c: Cocycle) -> list[ExtensionElement]:
    """A verified complement H = {(x, e(x))} with s_y s_z = s_yz.

    Verifies: multiplicativity of x -> s_x on all |B|^2 pairs, that only the
    base identity lands in A (so H meets A trivially), and that every
    extension element factors uniquely as (1, a) * s_x, which amounts to the
    action matrices being invertible.
    """
    e = trivialize(c)
    t = c.base.table
    nb = c.base.order
    h = [ExtensionElement(x, e[x]) for x in range(nb)]
    for y in range(nb):
        for z in range(nb):
            if extension_multiply(h[y], h[z], c) != h[t[y][z]]:
                raise ComplementError(f"s_y s_z != s_yz at pair ({y}, {z})")
    if not h[0].a.is_zero:
        raise ComplementError("section at the identity is not the extension identity")
    for x in range(nb):
        if c.action.matrices[x].det() == 0:
            raise ComplementError(f"action matrix of element {x} is singular")
    # spot-check the unique factorization (1, a) * s_x = (x, a * M_x + e(x))
    probe = QVector.of(*range(1, c.module_dim + 1))
    for x in range(nb):
        target = ExtensionElement(x, probe)
        u = (target.a - e[x]) * c.action.matrices[x].inverse()
        if extension_multiply(ExtensionElement(0, u), h[x], c) != target:
            raise ComplementError(f"factorization through s_{x} failed")
    return h


def coboundary(f: Sequence[QVector], base: GroupTable, action: FiniteAction) -> Cocycle:
    """The cocycle c(x, y) = f(xy) - f(x) * M_y - f(y) of a 1-cochain with
    f(1) = 0; coboundaries are automatically normalized cocycles."""
    if len(f) != base.order:
        raise ValueError("need one cochain value per group element")
    if not f[0].is_zero:
        raise ValueError("cochain must vanish at the identity")
    t = base.table
    mats = action.matrices
    values = tuple(
        tuple(f[t[x][y]] - f[x] * mats[y] - f[y] for y in range(base.order))
        for x in range(base.order)
    )
    return Cocycle(base, action, values)


def random_cocycle(base: GroupTable, action: FiniteAction, seed: int) -> Cocycle:
    """Seeded random coboundary; same seed, same cocycle.

    Over Q^n every cocycle of a finite group is a coboundary (that is what
    trivialize computes), so coboundaries are fully representative test
    inputs. The result is still run through verify_cocycle.
    """
    rng = random.Random(seed)
    n = action.module_dim
    f = [QVector.zero(n)]
    for _ in range(base.order - 1):
        f.append(
            QVector(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)))
        )
    c = coboundary(f, base, action)
    ensure_verified(c)
    return c
