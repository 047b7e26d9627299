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
in one integer form, built by its one constructor: its values over one
common denominator D, in lowest terms (``exact_linear._lowest_terms``, as
an action is), as the array V of shape (|B|, |B|, d) with V[x, y] = D * c(x, y).
Its action brings the one integer form of ``FiniteAction``: the E * M_z,
of shape (|B|, d, d), over the least common denominator E, which the
cocycle casts to its own dtype. Every identity is checked multiplied through
by D and E; the cocycle identity and the trivialization relation by
``group_core._first_failure``, the Light test that also proves tables and
actions, which names the first failure of the first failing generator, in
blocks of 256 rows. The arrays are int64 only where
every intermediate of a check is proved to stay below 2^63 in absolute
value. With |V| <= v and |E * M| <= m (so E <= m, as M_1 = I), every
entry, partial sum and residue of the cocycle check is at most
max(m, v * (3E + d * m)); the trivialization relation adds up |B| values,
so its bound is |B| times that. Past 2^63 the same expressions run on
arrays of Python ints (dtype object), so every result is exact. A JSON
document's action and value table come through
``exact_linear._rational_table`` as int64 tables, which the constructor
takes as they are, with no pass through Python lists: read straight from
the file's text by the CLI's text intake (``exact_linear._text_table``), or
from parsed JSON by ``exact_linear._rationals``. Only entries or products
past 2^63 make Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exact_linear import QVector, _dtype, _format_row, _int_table, _lowest_terms, _rational_table, exact_int
from .group_core import FiniteAction, GroupTable, _first_failure


class CocycleError(ValueError):
    """The value table fails the cocycle identity; carries a witness triple."""

    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        super().__init__(f"cocycle identity fails at triple {witness}")


class TrivializationError(RuntimeError):
    """The averaged 1-cochain does not trivialize a verified cocycle. This
    cannot happen over Q^n; seeing it means a bug, not a property of input."""


def _check_action(base: GroupTable, action: FiniteAction) -> None:
    if action.characteristic != 0:
        raise ValueError("cocycle values live in Q^n; the action must have characteristic 0")
    if not np.array_equal(action.domain.array, base.array):
        raise ValueError("action domain must be the base group")


@dataclass(frozen=True, repr=False, eq=False)
class Cocycle:
    """A normalized 2-cocycle of a finite group with values in Q^n, verified
    when it is built: construction raises ``CocycleError`` with the witness
    of :func:`verify_cocycle`, so every ``Cocycle`` satisfies the identity.
    Its fields cannot be reassigned and its array cannot be written, so that
    stays true.

    Like ``FiniteAction`` it has one constructor: ``values`` is an integer
    table of shape (|B|, |B|, d), a numpy array or nested lists, over ``den``,
    so c(x, y) = values[x, y] / den. ``__post_init__`` reads it through
    ``exact_linear._int_table``, the intake of every integer table (an
    integer array of the right shape has nothing more to check), reduces
    the table to D and V of the module docstring with
    ``exact_linear._lowest_terms``, and keeps a read-only copy of V in the
    dtype its bound picks; then it checks normalization and the identity."""

    base: GroupTable
    action: FiniteAction
    values: np.ndarray
    den: int = 1
    #: the bound of the module docstring on every intermediate of verify_cocycle
    _bound: int = field(init=False)

    def __post_init__(self):
        base, action = self.base, self.action
        _check_action(base, action)
        shape = (base.order, base.order, action.module_dim)
        v = _int_table(self.values, shape, "cocycle values")
        if type(self.den) is not int or self.den < 1:
            raise ValueError("den must be a positive int")
        v, den = _lowest_terms(v, self.den)
        max_em = int(abs(action.matrices).max())
        bound = max(max_em, max(abs(int(v.max())), abs(int(v.min()))) * (3 * action.den + shape[2] * max_em))
        v = v.astype(_dtype(bound))  # a copy: the caller's array is never held
        v.flags.writeable = False
        for name, value in (("values", v), ("den", den), ("_bound", bound)):
            object.__setattr__(self, name, value)
        if (v[0] != 0).any() or (v[:, 0] != 0).any():
            raise ValueError("cocycle must be normalized: c(1, y) = c(x, 1) = 0")
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
            "action": [[_format_row(row, self.action.den) for row in m] for m in self.action.matrices.tolist()],
            "values": [[_format_row(v, self.den) for v in row] for row in self.values.tolist()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cocycle":
        """The cocycle of a JSON document: an action of |B| lists of d lists of
        d rationals, then a value table of |B| lists of |B| lists of d, each
        read by ``exact_linear._rational_table``, which checks its shape and
        names the first bad entry in row-major order."""
        try:
            base = GroupTable.from_json(data["base"])
            nb, n = base.order, exact_int(data["module_dim"])
            if n < 1:  # before the action's shape, whose message would hide it
                raise ValueError("module dimension must be positive")
            mats, e = _rational_table(data["action"], (nb, n, n),
                                      f"action must be {nb} lists of {n} lists of {n} rationals")
            action = FiniteAction(base, n, 0, mats, e)
            values = data["values"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed cocycle JSON: {exc}") from exc
        del data  # free the parsed document before the identity is verified
        values, d = _rational_table(values, (nb, nb, n), f"values table must be {nb} x {nb} lists of {n} rationals")
        return cls(base, action, values, d)


def _middle_failures(c: Cocycle, y: int, lo: int, hi: int) -> np.ndarray:
    """The mask of the (x, z), x in [lo, hi), at which the cocycle identity
    times D * E fails with y in the middle: where
    E * (V[xy, z] - V[x, yz] - V[y, z]) + V[x, y] (E M_z) is not zero."""
    v, arr = c.values, c.base.array
    em = c.action.matrices.astype(v.dtype, copy=False)
    moved = np.matmul(v[lo:hi, y], em).swapaxes(0, 1)  # [x, z] = V[x, y] (E M_z)
    return (c.action.den * (v[arr[lo:hi, y]] - v[lo:hi, arr[y]] - v[y]) + moved != 0).any(axis=2)


def verify_cocycle(c: Cocycle) -> tuple[bool, tuple[int, int, int] | None]:
    """Exact check of the cocycle identity, which ``Cocycle`` runs once when
    it is built; on failure the witness (x, y, z) of ``_first_failure`` is
    returned, the first failure of the first failing generator y.

    The identity at (x, y, z) is associativity of the extension at the
    triple ((x, 0), (y, 0), (z, 0)) with y in the middle, so by Light's test
    it suffices to check y in ``base.generators``. The middles m, with
    (u m) v = u (m v) for all u, v, are closed under products. Every (1, a)
    is one, since c is normalized; (s, 0) is one exactly when the identity
    holds at every (x, s, z), given that M_s M_z = M_sz (the action is a
    homomorphism). The (1, a) and the (s, 0) for generators s generate the
    extension, so every element is a middle.

    Each middle costs |B|^2 products of a d-vector by a d x d integer
    matrix, in passes of ``_middle_failures`` over blocks of 256 rows x,
    with temporaries of O(256 * |B| * d) entries.
    """
    witness = _first_failure(c.base.generators, c.base.order,
                             lambda y, lo, hi: _middle_failures(c, y, lo, hi))
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
                            + e2.a + QVector.from_ints(c.values[x, y].tolist(), c.den))


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
    The sums cost O(|B|^2 * d); each generator z is then the Light test of
    ``_first_failure``, with z in the middle: |B| products of a d-vector by
    a d x d matrix, in passes of ``_relation_failures`` over blocks of y.
    Past the int64 bound V is first copied to Python ints, a temporary of
    O(|B|^2 * d) entries; the other temporaries are O(|B| * d). A failure
    names the kernel's witness (x, middle) as the pair (y, z).
    """
    nb = c.base.order
    dtype = _dtype(nb * c._bound)  # the bound of the module docstring
    v, em = c.values.astype(dtype, copy=False), c.action.matrices.astype(dtype, copy=False)
    sums = v.sum(axis=0)
    witness = _first_failure(c.base.generators, nb,
                             lambda z, lo, hi: _relation_failures(c, v, em, sums, z, lo, hi))
    if witness is not None:
        raise TrivializationError(f"trivialization relation fails at pair {witness}")
    return tuple(QVector.from_ints([-x for x in s], nb * c.den) for s in sums.tolist())


def _relation_failures(c: Cocycle, v: np.ndarray, em: np.ndarray, sums: np.ndarray,
                       z: int, lo: int, hi: int) -> np.ndarray:
    """The mask of the y in [lo, hi) at which the trivialization relation
    times |B| * D * E fails at (y, z): where
    E * (|B| * V[y, z] + s(yz) - s(z)) - s(y) (E M_z) is not zero."""
    residue = c.action.den * (c.base.order * v[lo:hi, z] + sums[c.base.array[lo:hi, z]] - sums[z])
    return (residue - np.matmul(sums[lo:hi], em[z]) != 0).any(axis=1)


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
    # for D = df * E; the constructor puts that in lowest terms
    df = math.lcm(*(v.den for v in f))
    fs = np.array([x * (df // v.den) for v in f for x in v.nums], dtype=object).reshape(base.order, n)
    e = action.den
    moved = np.matmul(fs, action.matrices.astype(object)).swapaxes(0, 1)  # [x, y] = F(x) (E M_y)
    return Cocycle(base, action, e * (fs[base.array] - fs) - moved, df * e)
