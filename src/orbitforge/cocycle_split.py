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
Building a ``Cocycle`` verifies the identity, as building a ``GroupTable``
proves associativity, so holding one certifies it.

The checks run on plain integers. A cocycle scales its values once to one
common denominator D and its action matrices to one common denominator E,
and every identity is checked multiplied through by those; a
vector-matrix product is then ``int_vecmul`` on integer rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact_linear import QMatrix, QVector, int_vecmul
from .group_core import FiniteAction, GroupTable, exact_int


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
    """A normalized 2-cocycle of a finite group with values in Q^n, verified
    when it is built: construction raises ``CocycleError`` with the first
    failing triple, so every ``Cocycle`` satisfies the identity."""

    base: GroupTable
    action: FiniteAction
    values: tuple[tuple[QVector, ...], ...]

    def __post_init__(self):
        b, act = self.base, self.action
        if act.characteristic != 0:
            raise ValueError("cocycle values live in Q^n; the action must have characteristic 0")
        if not np.array_equal(act.domain.array, b.array):
            raise ValueError("action domain must be the base group")
        n = act.module_dim
        if len(self.values) != b.order or any(len(row) != b.order for row in self.values):
            raise ValueError("values table must be |B| x |B|")
        if any(v.dim != n for row in self.values for v in row):
            raise ValueError(f"every cocycle value must have dimension {n}")
        for y in range(b.order):
            if not self.values[0][y].is_zero or not self.values[y][0].is_zero:
                raise ValueError("cocycle must be normalized: c(1, y) = c(x, 1) = 0")
        object.__setattr__(self, "_ints", _integer_form(self))
        ok, witness = verify_cocycle(self)
        if not ok:
            raise CocycleError(witness)

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
        try:
            base = GroupTable.from_json(data["base"])
            n = exact_int(data["module_dim"])
            matrices = tuple(QMatrix.from_json(m) for m in data["action"])
            action = FiniteAction(base, n, 0, matrices)
            values = tuple(
                tuple(QVector.from_json(v) for v in row) for row in data["values"]
            )
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed cocycle JSON: {exc}") from exc
        del data  # free the parsed document before the identity is verified
        return cls(base, action, values)


def _integer_form(c: Cocycle) -> tuple[int, list, int, list]:
    """(D, vals, E, rows), kept on c when it is built: D and E are the least
    common denominators of the values and of the action matrices,
    vals[x][y] = D * c(x, y), and rows[z] holds the sparse rows of E * M_z,
    as (column, entry) pairs of integers."""
    d = math.lcm(*(v.den for row in c.values for v in row))
    vals = [[v.nums if v.den == d else tuple([x * (d // v.den) for x in v.nums])
             for v in row] for row in c.values]
    mats = c.action.matrices
    e = math.lcm(*(m.den for m in mats))
    rows = [m._sparse if m.den == e else [[(j, w * (e // m.den)) for j, w in row]
                                          for row in m._sparse] for m in mats]
    return d, vals, e, rows


def _first_failure(c: Cocycle, middles: Sequence[int]) -> tuple[int, int, int] | None:
    """The first (x, y, z) in lexicographic order, y drawn from middles, at
    which E * (c(xy, z) - c(x, yz) - c(y, z)) + c(x, y) * (E * M_z) != 0,
    the cocycle identity times E; None if there is none."""
    _, vals, e, rows = c._ints
    arr = c.base.array
    order = range(c.base.order)
    vecmul = int_vecmul
    # per middle y: the column x -> xy and the row z -> yz
    by_y = [(y, arr[:, y].tolist(), arr[y].tolist()) for y in middles]
    for x in order:
        vx = vals[x]
        for y, col_y, row_y in by_y:
            cxy, vxy, vy = vx[y], vals[col_y[x]], vals[y]
            for z in order:
                if any(e * (u - v - w) + q
                       for u, v, w, q in zip(vxy[z], vx[row_y[z]], vy[z], vecmul(cxy, rows[z]))):
                    return x, y, z
    return None


def verify_cocycle(c: Cocycle) -> tuple[bool, tuple[int, int, int] | None]:
    """Exact check of the cocycle identity, which ``Cocycle`` runs once when
    it is built; on failure the lexicographically first offending (x, y, z)
    is returned.

    The identity at (x, y, z) is associativity of the extension at the
    triple ((x, 0), (y, 0), (z, 0)) with y in the middle, so by Light's test
    it suffices to check y in ``base.generators`` (O(|B|^2 * d), not
    O(|B|^3)). The middles m, with (u m) v = u (m v) for all u, v, are
    closed under products. Every (1, a) is one, since c is normalized; (s, 0)
    is one exactly when the identity holds at every (x, s, z), given that
    M_s M_z = M_sz (the action is a homomorphism). The (1, a) and the (s, 0)
    for generators s generate the extension, so every element is a middle.
    Only when the generator check fails is every y scanned, so the witness
    is the first one in lexicographic order.
    """
    if _first_failure(c, c.base.generators) is None:
        return True, None
    return False, _first_failure(c, range(c.base.order))


@dataclass(frozen=True)
class ExtensionElement:
    """An element (x, a) of the extension of B by Q^n determined by a cocycle."""

    x: int
    a: QVector


def extension_multiply(e1: ExtensionElement, e2: ExtensionElement, c: Cocycle) -> ExtensionElement:
    """(x, a)(y, b) = (xy, a * M_y + b + c(x, y)); associative, because the
    cocycle identity that ``Cocycle`` proves is exactly associativity of this
    product."""
    if e1.a.dim != c.module_dim or e2.a.dim != c.module_dim:
        raise ValueError("extension element dimension mismatch")
    x, y = e1.x, e2.x
    return ExtensionElement(
        int(c.base.array[x, y]), e1.a * c.action.matrices[y] + e2.a + c.values[x][y]
    )


def trivialize(c: Cocycle) -> tuple[QVector, ...]:
    """The averaging 1-cochain e with c(y, z) = e(yz) - e(y) * M_z - e(z).

    Summing the cocycle identity over the first argument gives
    d(z) + d(y) * M_z = d(yz) + |B| * c(y, z) for d(y) = sum_x c(x, y), and
    dividing by -|B| (exact and unique over Q^n) yields e. The relation is
    re-verified before returning; failure would be a bug. It says exactly
    that s_y s_z = s_yz in the extension for s_y = (y, e(y)), and the z for
    which that holds at every y are closed under products (the extension is
    associative): s_y s_(zw) = (s_y s_z) s_w = s_(yzw). They include the
    identity (e(1) = 0, as c is normalized), so checking z in
    ``base.generators`` proves the relation for every pair.

    On integers, e(y) = -s(y) / (|B| * D) for s(y) = sum_x D * c(x, y), and
    the relation times |B| * D * E is
    E * (|B| * D * c(y, z) + s(yz) - s(z)) - s(y) * (E * M_z) == 0.
    """
    d, vals, e, rows = c._ints
    nb = c.base.order
    vecmul = int_vecmul
    sums = [[sum(col) for col in zip(*column)] for column in zip(*vals)]
    by_z = [(z, c.base.array[:, z].tolist()) for z in c.base.generators]
    for y in range(nb):
        for z, col_z in by_z:
            if any(e * (nb * v + a - b) - q for v, a, b, q
                   in zip(vals[y][z], sums[col_z[y]], sums[z], vecmul(sums[y], rows[z]))):
                raise TrivializationError(f"trivialization relation fails at pair ({y}, {z})")
    return tuple(QVector.from_ints([-x for x in sy], nb * d) for sy in sums)


def complement(c: Cocycle) -> list[ExtensionElement]:
    """A verified complement H = {(x, e(x))} with s_y s_z = s_yz.

    Every property of H is proved by :func:`trivialize` and the checks
    behind it, so nothing is checked again here:

    - Multiplicativity of x -> s_x = (x, e(x)) is, term for term, the
      relation c(y, z) = e(yz) - e(y) * M_z - e(z) that ``trivialize``
      proves for every pair (on generators, by Light's argument).
    - H meets A trivially: e(1) = -(1/|B|) * sum_x c(x, 1) = 0, because
      ``Cocycle`` checks c(x, 1) = 0 when it is built.
    - Every extension element factors uniquely as (1, a) * s_x, because
      ``FiniteAction`` has proved M_1 = I and M_x M_y = M_xy, so every M_x is
      invertible with inverse M_(x^-1).
    """
    return [ExtensionElement(x, v) for x, v in enumerate(trivialize(c))]


def coboundary(f: Sequence[QVector], base: GroupTable, action: FiniteAction) -> Cocycle:
    """The cocycle c(x, y) = f(xy) - f(x) * M_y - f(y) of a 1-cochain with
    f(1) = 0; coboundaries are automatically normalized cocycles."""
    if len(f) != base.order:
        raise ValueError("need one cochain value per group element")
    if not f[0].is_zero:
        raise ValueError("cochain must vanish at the identity")
    mats = action.matrices
    values = tuple(
        tuple(f[xy] - fx * mats[y] - f[y] for y, xy in enumerate(row))
        for fx, row in zip(f, base.array.tolist())
    )
    return Cocycle(base, action, values)
