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

The checks run on integers, in whole-array numpy passes. A cocycle is held
in one integer form, built once: its values over one common denominator D,
as the array V of shape (|B|, |B|, d) with V[x, y] = D * c(x, y). Its action
brings the one integer form of ``FiniteAction``: the array of the E * M_z,
of shape (|B|, d, d), over the least common denominator E, which the
cocycle casts to its own dtype. Every identity is checked multiplied through
by D and E, and the cocycle identity by ``_first_failure``, the same Light
test that proves the action a homomorphism. The arrays are int64 only where
every intermediate of a check is proved to stay below 2^63 in absolute
value. With |V| <= v and |E * M| <= m (so E <= m, as M_1 = I), every
entry, partial sum and residue of the cocycle check is at most
max(m, v * (3E + d * m)); the trivialization relation adds up |B| values,
so its bound is |B| times that. Past 2^63 the same expressions run on
arrays of Python ints (dtype object), so every result is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .exact_linear import QMatrix, QVector, _format_row
from .group_core import FiniteAction, GroupTable, _dtype, _first_failure, exact_int


class CocycleError(ValueError):
    """The value table fails the cocycle identity; carries a witness triple."""

    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        super().__init__(f"cocycle identity fails at triple {witness}")


class TrivializationError(RuntimeError):
    """The averaged 1-cochain does not trivialize a verified cocycle. This
    cannot happen over Q^n; seeing it means a bug, not a property of input."""


def _flat(data, shape: tuple[int, ...]) -> list | None:
    """The entries of data, nested lists of exactly the given shape, in
    row-major order; None for data of any other shape."""
    level = [data]
    for size in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    return level


def _check_action(base: GroupTable, action: FiniteAction) -> None:
    if action.characteristic != 0:
        raise ValueError("cocycle values live in Q^n; the action must have characteristic 0")
    if not np.array_equal(action.domain.array, base.array):
        raise ValueError("action domain must be the base group")


_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class Cocycle:
    """A normalized 2-cocycle of a finite group with values in Q^n, verified
    when it is built: construction raises ``CocycleError`` with the first
    failing triple, so every ``Cocycle`` satisfies the identity. Its fields
    cannot be reassigned, so that stays true.

    It keeps only the integer form of the module docstring: D and V, with
    the bound that picks their dtype; E and the E * M_z are the action's
    ``den`` and ``matrices``."""

    base: GroupTable
    action: FiniteAction
    _d: int
    _bound: int
    _v: np.ndarray

    def __init__(self, base: GroupTable, action: FiniteAction,
                 values: Sequence[Sequence[QVector]]):
        _check_action(base, action)
        n = action.module_dim
        if len(values) != base.order or any(len(row) != base.order for row in values):
            raise ValueError("values table must be |B| x |B|")
        if any(v.dim != n for row in values for v in row):
            raise ValueError(f"every cocycle value must have dimension {n}")
        d = math.lcm(*(v.den for row in values for v in row))
        self._build(base, action, d, [x * (d // v.den) for row in values for v in row for x in v.nums])

    @classmethod
    def _of_ints(cls, base: GroupTable, action: FiniteAction, d: int, nums: Sequence[int]) -> "Cocycle":
        """The cocycle with D = d and the row-major entries nums of V, over a
        characteristic-0 action on base."""
        c = cls.__new__(cls)
        c._build(base, action, d, nums)
        return c

    def _build(self, base: GroupTable, action: FiniteAction, d: int, nums: Sequence[int]) -> None:
        """Set the integer form, check that the cocycle is normalized, and
        verify the identity."""
        nb, n = base.order, action.module_dim
        max_v, max_em = max(map(abs, nums)), int(abs(action.matrices).max())
        #: the bound of the module docstring on every intermediate of verify_cocycle
        bound = max(max_em, max_v * (3 * action.den + n * max_em))
        v = np.array(nums, _dtype(bound)).reshape(nb, nb, n)
        v.flags.writeable = False
        for name, value in (("base", base), ("action", action), ("_d", d), ("_bound", bound), ("_v", v)):
            _set(self, name, value)
        if (v[0] != 0).any() or (v[:, 0] != 0).any():
            raise ValueError("cocycle must be normalized: c(1, y) = c(x, 1) = 0")
        ok, witness = verify_cocycle(self)
        if not ok:
            raise CocycleError(witness)

    @property
    def module_dim(self) -> int:
        return self.action.module_dim

    @property
    def values(self) -> tuple[tuple[QVector, ...], ...]:
        """c(x, y) at [x][y]. Each access builds all |B|^2 QVectors from D
        and V, O(|B|^2 * d) work, so a caller that reads several values
        should take the table once."""
        d = self._d
        return tuple(tuple(QVector.from_ints(v, d) for v in row) for row in self._v.tolist())

    def to_json(self) -> dict:
        d, e = self._d, self.action.den
        return {
            "base": self.base.to_json(),
            "module_dim": self.module_dim,
            "action": [[_format_row(row, e) for row in m] for m in self.action.matrices.tolist()],
            "values": [[_format_row(v, d) for v in row] for row in self._v.tolist()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cocycle":
        """The cocycle of a JSON document. The value table must be |B| lists
        of |B| lists of d entries; it is read one row c(x, -) at a time, as
        one QVector of its |B| * d entries, and scaled to D and V, so no
        QVector is built per value."""
        try:
            base = GroupTable.from_json(data["base"])
            n = exact_int(data["module_dim"])
            action = FiniteAction(base, n, 0, tuple(QMatrix.from_json(m) for m in data["action"]))
            flat = _flat(data["values"], (base.order, base.order, n))
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed cocycle JSON: {exc}") from exc
        del data  # free the parsed document before the identity is verified
        if flat is None:
            raise ValueError(f"values table must be {base.order} x {base.order} lists of {n} rationals")
        k = base.order * n  # the entries of one row, c(x, -)
        parts = [QVector.from_json(flat[i:i + k]) for i in range(0, len(flat), k)]
        del flat
        d = math.lcm(*(part.den for part in parts))
        return cls._of_ints(base, action, d, [x * (d // part.den) for part in parts for x in part.nums])


def _middle_failures(c: Cocycle, y: int, stop: int) -> np.ndarray:
    """The stop x |B| mask of the (x, z), x < stop, at which the cocycle
    identity times D * E fails with y in the middle: where
    E * (V[xy, z] - V[x, yz] - V[y, z]) + V[x, y] (E M_z) is not zero."""
    v, arr = c._v, c.base.array
    em = c.action.matrices.astype(v.dtype, copy=False)
    moved = np.matmul(v[:stop, y], em).swapaxes(0, 1)  # [x, z] = V[x, y] (E M_z)
    return (c.action.den * (v[arr[:stop, y]] - v[:stop, arr[y]] - v[y]) + moved != 0).any(axis=2)


def verify_cocycle(c: Cocycle) -> tuple[bool, tuple[int, int, int] | None]:
    """Exact check of the cocycle identity, which ``Cocycle`` runs once when
    it is built; on failure the lexicographically first offending (x, y, z)
    is returned.

    The identity at (x, y, z) is associativity of the extension at the
    triple ((x, 0), (y, 0), (z, 0)) with y in the middle, so by Light's test
    it suffices to check y in ``base.generators`` (|B|^2 triples for each,
    not |B|^3 in all). The middles m, with (u m) v = u (m v) for all u, v, are
    closed under products. Every (1, a) is one, since c is normalized; (s, 0)
    is one exactly when the identity holds at every (x, s, z), given that
    M_s M_z = M_sz (the action is a homomorphism). The (1, a) and the (s, 0)
    for generators s generate the extension, so every element is a middle.

    The test is ``group_core._first_failure``, which also proves the action
    a homomorphism: each middle is one pass of ``_middle_failures``, |B|^2
    products of a d-vector by a d x d integer matrix, with temporaries of
    O(|B|^2 * d) entries, and only after a generator fails is every y
    scanned, for the lexicographically first witness.
    """
    witness = _first_failure(c.base, lambda y, stop: _middle_failures(c, y, stop))
    return witness is None, witness


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
    moved = (np.array(e1.a.nums, dtype=object) @ c.action.matrices[y]).tolist()  # E * a M_y
    return ExtensionElement(int(c.base.array[x, y]), QVector.from_ints(moved, e1.a.den * c.action.den)
                            + e2.a + QVector.from_ints(c._v[x, y].tolist(), c._d))


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
    The sums cost O(|B|^2 * d); each generator z is then one pass of numpy
    operations over all y, |B| products of a d-vector by a d x d matrix. Past
    the int64 bound V is first copied to Python ints, a temporary of
    O(|B|^2 * d) entries; the other temporaries are O(|B| * d), and the
    failure masks O(|generators| * |B|). A failure names the least y, and
    the first generator z in ``base.generators`` that fails with it.
    """
    nb = c.base.order
    dtype = _dtype(nb * c._bound)  # the bound of the module docstring
    v, em = c._v.astype(dtype, copy=False), c.action.matrices.astype(dtype, copy=False)
    sums = v.sum(axis=0)
    # [i, y]: the relation fails at (y, the i-th generator)
    bad = np.array([_relation_failures(c, v, em, sums, z) for z in c.base.generators])
    if bad.any():
        y = int(bad.any(axis=0).argmax())
        z = c.base.generators[int(bad[:, y].argmax())]
        raise TrivializationError(f"trivialization relation fails at pair ({y}, {z})")
    return tuple(QVector.from_ints([-x for x in s], nb * c._d) for s in sums.tolist())


def _relation_failures(c: Cocycle, v: np.ndarray, em: np.ndarray, sums: np.ndarray,
                       z: int) -> np.ndarray:
    """The mask of the y at which the trivialization relation times
    |B| * D * E fails at (y, z): where
    E * (|B| * V[y, z] + s(yz) - s(z)) - s(y) (E M_z) is not zero."""
    residue = c.action.den * (c.base.order * v[:, z] + sums[c.base.array[:, z]] - sums[z])
    return (residue - np.matmul(sums, em[z]) != 0).any(axis=1)


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
    _check_action(base, action)
    n = action.module_dim
    for v in f:
        if v.dim != n:
            raise ValueError(f"dimension mismatch: vector {v.dim}, matrix {n}")
    # in Python ints: F = df * f, and D * c(x, y) = E F(xy) - F(x) (E M_y) - E F(y)
    # for D = df * E, divided through by the gcd of D and every entry
    df = math.lcm(*(v.den for v in f))
    fs = np.array([x * (df // v.den) for v in f for x in v.nums], dtype=object).reshape(base.order, n)
    e = action.den
    moved = np.matmul(fs, action.matrices.astype(object)).swapaxes(0, 1)  # [x, y] = F(x) (E M_y)
    nums = (e * (fs[base.array] - fs) - moved).ravel().tolist()
    g = math.gcd(df * e, *nums)
    return Cocycle._of_ints(base, action, df * e // g, [x // g for x in nums])
