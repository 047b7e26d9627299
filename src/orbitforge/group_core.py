"""Finite groups as immutable multiplication tables, plus the constructors
and structural queries the rest of the package needs.

Conventions: elements are the indices 0..order-1, index 0 is the identity,
and ``array[i, j]`` is the product i*j. That read-only int16 array is the one
form of a table: the constructors build it by index arithmetic and every
query and search reads it. ``table`` only exports it as tuples of ints. Group
actions on vector modules are *right* actions on row vectors (``a * M``), so
action matrices compose as ``M[x] * M[y] == M[x*y]``. At every
characteristic an action likewise has one form, a read-only integer array of
shape (|B|, n, n) over one denominator, one constructor, ``FiniteAction``,
which reduces it over Q with ``exact_linear._lowest_terms``, the step of
every exact form. One kernel, the Light test of ``_first_failure``, proves
a table associative, an action a homomorphism and, in ``cocycle_split``,
the cocycle identity; each names the first failure of its first failing
generator.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, islice, permutations, repeat

import numpy as np

from .arith import factorize, is_prime
from .exact_linear import QMatrix, _dtype, _int_table, _lowest_terms, exact_int

#: Hard cap on group order for every table; it keeps entries inside int16.
#: At the cap, ``omega`` on an order-4096 JSON table (D256 x C8, 96 MB)
#: reads and validates it through the CLI, up to the automorphism search
#: cap, in 0.84-0.85 s at a 170 MiB peak RSS (the file's text and the int16
#: table, read from it block by block), on a 2 vCPU host.
MAX_ORDER = 4096

#: Rows per block of the Light test ``_first_failure``; bounds its
#: temporaries at 2 * 256 * n int16 entries for a table of order n (4 MB at
#: n = 4096), and at O(256 * |B| * d) for a cocycle.
_ASSOC_BLOCK = 256


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds cap {MAX_ORDER}")


def _close(members: list[int], inside: bytearray, cols: list[list[int]], start: int) -> None:
    """Extend members (flagged in inside) to their closure under right
    multiplication by the elements whose table columns are cols. The first
    start members must be closed under all but the last column already, so
    they need only that one; every later member needs all of them."""
    for x in members[:start]:
        y = cols[-1][x]
        if not inside[y]:
            inside[y] = 1
            members.append(y)
    for x in islice(members, start, None):  # grows while it is walked
        for col in cols:
            y = col[x]
            if not inside[y]:
                inside[y] = 1
                members.append(y)


def _generators(arr: np.ndarray, among=None, limit: int | None = None) -> tuple[int, ...]:
    """Each element of among (by default every element), in turn, that lies
    outside the closure of those chosen before it. The closure is that of the
    identity under right multiplication by the chosen elements; on a group it
    is the subgroup they generate, on any magma it holds every left-bracketed
    product of them. With a limit, stop once that many are chosen."""
    inside = bytearray(len(arr))
    inside[0] = 1
    members = [0]
    gens: list[int] = []
    cols: list[list[int]] = []
    for x in range(len(arr)) if among is None else among:
        if not inside[x]:
            if len(gens) == limit:
                break
            gens.append(x)
            cols.append(arr[:, x].tolist())
            _close(members, inside, cols, len(members))
    return tuple(gens)


_NOT_LATIN = "some row is not a permutation (Latin square violated)"


def _require_latin_rows(arr: np.ndarray) -> None:
    """Raise the Latin message unless every row of arr is a permutation."""
    n = len(arr)
    idx = np.arange(n, dtype=arr.dtype)
    if not np.array_equal(np.sort(arr, axis=1), np.broadcast_to(idx, (n, n))):
        raise ValueError(_NOT_LATIN)


def _first_failure(gens, n: int, failures) -> tuple[int, ...] | None:
    """Light's test (Clifford and Preston 1961, section 1.2) of an identity
    with y in the middle, with a witness. The y at which it holds for every x
    (and every further argument) are closed under products and hold the
    identity, so checking each y in gens, whose left-bracketed products
    reach all n elements, proves it for every y: O(n^2) checks for each
    generator, not O(n^3) in all. ``failures(y, lo, hi)`` is the failure
    mask over the x in [lo, hi) (axis 0) and any further arguments, taken in
    blocks of ``_ASSOC_BLOCK`` rows, which bound its temporaries. The
    witness is (x, y, ...) at the first failure, in row-major order, of the
    first failing y in gens; None if every y passes."""
    for y in gens:
        for lo in range(0, n, _ASSOC_BLOCK):
            bad = failures(y, lo, min(lo + _ASSOC_BLOCK, n))
            if bad.any():
                x, *rest = map(int, np.unravel_index(bad.argmax(), bad.shape))
                return (lo + x, y, *rest)
    return None


def _validate_table(arr: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Check that the integer array arr is the Cayley table of a group with
    identity 0; return it as a read-only int16 array, checked in place, the
    generating set of :func:`_generators` and the inverse of every element.

    Associativity is exact at every order: (x*a)*y == x*(a*y) is the
    Light test of :func:`_first_failure`, with a in the middle.

    Latin rows, Latin columns and inverses are derived, not checked. One
    argmin pass finds a 0 in every row: x*r = 0 gives each x a right inverse
    r. An associative table with a two-sided identity is a monoid, and a
    monoid in which every element has a right inverse is a group, so r is
    also a left inverse and every row and column of the table is a
    permutation. The rows are sorted only to name a failure: when Light's
    test fails, a table whose rows are not all permutations gets the Latin
    message rather than the associativity one; and before Light's test when
    there are more than floor(log2 n) generators, which a group never has
    (each one at least doubles the subgroup generated so far), so a table far
    from Latin cannot drive the test to O(n^3).
    """
    if arr.dtype.kind not in "iu":
        raise ValueError(f"table entries must be integers, got {arr.dtype}")
    n = len(arr)
    if arr.shape != (n, n):
        raise ValueError(f"table must be square, got shape {arr.shape}")
    if n == 0:
        raise ValueError("empty table")
    _check_order(n)
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("table entries must be element indices")
    arr = arr.astype(np.int16, copy=False)
    arr.flags.writeable = False
    idx = np.arange(n, dtype=arr.dtype)
    if not (np.array_equal(arr[0], idx) and np.array_equal(arr[:, 0], idx)):
        raise ValueError("index 0 is not a two-sided identity")
    # argmin copies a read-only array whole, so it goes a block at a time
    inverses = np.concatenate([arr[lo:lo + _ASSOC_BLOCK].argmin(axis=1)
                               for lo in range(0, n, _ASSOC_BLOCK)])
    if arr[idx, inverses].any():  # some row holds no 0
        raise ValueError(_NOT_LATIN)
    bound = n.bit_length() - 1  # floor(log2 n)
    gens = _generators(arr, limit=bound + 1)
    if len(gens) > bound:
        _require_latin_rows(arr)
        gens = _generators(arr)

    def failures(a: int, lo: int, hi: int) -> np.ndarray:  # (x*a)*y != x*(a*y)
        return arr.take(arr[lo:hi, a], axis=0) != arr[lo:hi].take(arr[a], axis=1)

    witness = _first_failure(gens, n, failures)
    if witness is not None:
        if len(gens) <= bound:  # the rows are not sorted yet
            _require_latin_rows(arr)
        x, a, y = witness
        raise ValueError(f"associativity fails: ({x}*{a})*{y} != {x}*({a}*{y})")
    return arr, gens, inverses


def _powers(arr: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """x_i^m for every element x_i of x and m >= 1, by repeated squaring."""
    out = None
    while True:
        if m & 1:
            out = x if out is None else arr[out, x]
        m >>= 1
        if not m:
            return out
        x = arr[x, x]


class GroupTable:
    """A finite group as an immutable Cayley table.

    The one form is ``array``, read-only int16, with ``array[i, j]`` the
    index of i*j; ``table`` is an export view of its rows as tuples of ints,
    built anew on every call and kept nowhere. Rows (as JSON gives them) come
    in through ``exact_linear._int_table``, the one intake of integer tables;
    an integer array goes straight to the checks, and an int16 one is frozen
    and kept without a copy.

    Identity at index 0, a 0 in every row and associativity are verified
    exactly at construction time, at every order; together they imply Latin
    rows and columns and two-sided inverses (:func:`_validate_table`), so
    holding a GroupTable is itself a certificate that the table is a group.
    ``generators`` is the generating set the associativity check used: the
    least element outside the subgroup generated so far, repeated until that
    subgroup is everything.
    """

    __slots__ = ("order", "array", "labels", "generators", "_inverses", "_orders", "_abelian")

    def __init__(self, table, labels):
        try:
            labels = tuple(map(str, labels))
        except TypeError as exc:
            raise ValueError(f"labels must be iterable: {exc}") from exc
        if not isinstance(table, np.ndarray):
            # rows give the order; a table with no rows to count, the labels
            n = len(table) if isinstance(table, (list, tuple)) else len(labels)
            table = _int_table(table, (n, n), "table entries")
            if table.dtype == object:  # an entry past int64
                raise ValueError("table entries must be element indices")
        arr, gens, inverses = _validate_table(table)
        n = arr.shape[0]
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_inverses", tuple(inverses.tolist()))
        object.__setattr__(self, "_orders", None)
        object.__setattr__(self, "_abelian", None)

    def __setattr__(self, name, value):
        raise AttributeError("GroupTable is immutable")

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The rows of ``array`` as tuples of ints, built on every call."""
        return tuple(map(tuple, self.array.tolist()))

    def mul(self, i: int, j: int) -> int:
        return int(self.array[i, j])

    def inv(self, i: int) -> int:
        return self._inverses[i]

    def conjugate(self, x: int, by: int) -> int:
        """by^-1 * x * by."""
        a = self.array
        return int(a[a[self._inverses[by], x], by])

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            # the centralizer of each element is a subgroup, so it is all of
            # the group once it holds every generator
            a = self.array
            result = all(np.array_equal(a[s], a[:, s]) for s in self.generators)
            object.__setattr__(self, "_abelian", result)
        return self._abelian

    def element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            # for p^e exactly dividing n, x^(n / p^e) has the p-part of the
            # order of x as its order (Lagrange), found by taking p-th powers
            n = self.order
            orders = np.ones(n, dtype=np.int64)
            for p, e in factorize(n).items():
                y = _powers(self.array, np.arange(n), n // p**e)
                while y.any():
                    orders[y != 0] *= p
                    y = _powers(self.array, y, p)
            object.__setattr__(self, "_orders", tuple(orders.tolist()))
        return self._orders

    def to_json(self) -> dict:
        return {"order": self.order, "labels": list(self.labels),
                "table": self.array.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "GroupTable":
        try:
            table = data["table"]
            labels = data.get("labels")
            if not isinstance(labels, (list, type(None))):
                raise TypeError(f"labels must be a list, got {type(labels).__name__}")
            labels = [str(i) for i in range(len(table))] if labels is None else labels
            declared = data.get("order")
            declared = None if declared is None else exact_int(declared)
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed group JSON: {exc}") from exc
        g = cls(table, labels)
        if declared is not None and declared != g.order:
            raise ValueError(f"declared order {declared} does not match table size {g.order}")
        return g

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order})"


# ---------------------------------------------------------------------------
# constructors

def _cyclic_array(n: int) -> np.ndarray:
    """The table of C_n, contiguous read-only int16: row i is 0..n-1 rotated
    left by i, a window of the doubled range, so no entry needs a modulo."""
    doubled = np.tile(np.arange(n, dtype=np.int16), 2)
    arr = np.lib.stride_tricks.sliding_window_view(doubled, n)[:n].copy()
    arr.flags.writeable = False
    return arr


def _product_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The direct product of the tables a and b; the pair (i, j) gets index
    i*|b| + j."""
    m, k = len(a), len(b)
    return (a[:, None, :, None] * k + b[None, :, None, :]).reshape(m * k, m * k)


def cyclic(n: int) -> GroupTable:
    """The cyclic group C_n with labels g^0..g^(n-1)."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    _check_order(n)
    return GroupTable(_cyclic_array(n), [f"g^{k}" for k in range(n)])


def _digits(v: int, q: int, k: int) -> tuple[int, ...]:
    return tuple((v // q**i) % q for i in range(k))


def _elementary_abelian_array(q: int, k: int) -> np.ndarray:
    # (C_q)^k is (C_q)^(k//2) x (C_q)^(k - k//2), halved recursively; its table
    # is digit-wise addition mod q, so the grouping of the factors cannot
    # change it, and the product index agrees with the vector index sum v_i * q^i
    if k == 1:
        return _cyclic_array(q)
    return _product_array(_elementary_abelian_array(q, k // 2),
                          _elementary_abelian_array(q, k - k // 2))


def elementary_abelian(q: int, k: int) -> GroupTable:
    """(C_q)^k for prime q, elements indexed by base-q digit vectors."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if k < 1:
        raise ValueError("rank must be positive")
    n = q**k
    _check_order(n)
    return GroupTable(_elementary_abelian_array(q, k), [str(_digits(v, q, k)) for v in range(n)])


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Componentwise product; element (i, j) gets index i*|h| + j."""
    _check_order(g.order * h.order)
    labels = [f"({a}, {b})" for a in g.labels for b in h.labels]
    return GroupTable(_product_array(g.array, h.array), labels)


def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n; elements s^f r^a with index f*n + a."""
    if n < 1:
        raise ValueError("rotation order must be positive")
    _check_order(2 * n)
    # (f1, a1)(f2, a2) = (f1 ^ f2, (-1)^f2 * a1 + a2 mod n): with c the
    # table of C_n, the f2 = 1 blocks are the rows of c at -a1
    c = _cyclic_array(n)
    neg = np.arange(n, 0, -1)
    neg[0] = 0  # -a mod n at index a
    c_neg = c.take(neg, axis=0)
    table = np.block([[c, c_neg + np.int16(n)], [c + np.int16(n), c_neg]])
    labels = [f"r^{a}" for a in range(n)] + [f"sr^{a}" for a in range(n)]
    return GroupTable(table, labels)


#: (sign, axis) of the product of two unit quaternions 1, i, j, k
_QUAT_AXIS = np.array([
    ((0, 0), (0, 1), (0, 2), (0, 3)),
    ((0, 1), (1, 0), (0, 3), (1, 2)),
    ((0, 2), (1, 3), (1, 0), (0, 1)),
    ((0, 3), (0, 2), (1, 1), (1, 0)),
], dtype=np.int16)


def quaternion() -> GroupTable:
    """The quaternion group Q8 with labels 1, -1, i, -i, j, -j, k, -k."""
    # element index = axis*2 + sign, axes ordered 1, i, j, k
    axis, sign = np.divmod(np.arange(8, dtype=np.int16), 2)
    sign3, axis3 = np.moveaxis(_QUAT_AXIS[axis[:, None], axis], -1, 0)
    table = axis3 * 2 + (sign[:, None] ^ sign ^ sign3)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return GroupTable(table, labels)


def _perm_group(n: int, even_only: bool) -> GroupTable:
    """The permutations of n points, or the even ones, sorted, under
    composition (p * q)(x) = p(q(x))."""
    p = np.array(sorted(permutations(range(n))), dtype=np.int64)
    if even_only:
        inversions = np.triu(p[:, :, None] > p[:, None, :]).sum(axis=(1, 2))
        p = p[inversions % 2 == 0]
    # a permutation's base-n number orders codes as the tuples are ordered
    weights = n ** np.arange(n - 1, -1, -1)
    composed = p[:, p]  # [i, j, x] = p_i(p_j(x))
    table = np.searchsorted(p @ weights, composed @ weights)
    return GroupTable(table, [str(tuple(q)) for q in p.tolist()])


def symmetric(n: int) -> GroupTable:
    """Symmetric group on n points as a Cayley table (n <= 5)."""
    if not 1 <= n <= 5:
        raise ValueError("symmetric(n) supports 1 <= n <= 5")
    return _perm_group(n, even_only=False)


def alternating(n: int) -> GroupTable:
    """Alternating group on n points as a Cayley table (n <= 5)."""
    if not 1 <= n <= 5:
        raise ValueError("alternating(n) supports 1 <= n <= 5")
    return _perm_group(n, even_only=True)


# ---------------------------------------------------------------------------
# actions and semidirect products

def _check_characteristic(q: int) -> None:
    if q and not (q <= MAX_ORDER and is_prime(q)):
        raise ValueError(f"characteristic must be 0 or a prime <= {MAX_ORDER}")


@dataclass(frozen=True, eq=False)
class FiniteAction:
    """A right action of a finite group B on a vector module of dimension n,
    over Q (characteristic 0) or over F_q for a prime q <= MAX_ORDER.

    Every characteristic has one form: M_x = matrices[x] / den, with
    ``matrices`` one read-only integer array of shape (|B|, n, n). Over Q,
    den is the lcm E of the denominators of the M_x, and the array holds the
    E * M_x; over F_q, it holds the M_x reduced mod q, and den = 1. The one
    constructor takes the integer matrices over ``den`` as one table of
    ``exact_linear._int_table``, the intake of every integer table, or, over
    Q, a list of QMatrix values, first put over the lcm of their
    denominators. It reduces them mod q, or over Q by
    ``exact_linear._lowest_terms``, the step of every exact form. The array
    is int64 while (n + 1) * m^2, for m the largest of den and |entries|,
    bounds every entry of the check below under 2^63, and holds Python
    ints (dtype object) past that.

    Validation enforces matrices[0] = den * I and M_x M_y = M_xy, that is
    matrices[x] @ matrices[y] = den * matrices[xy] (mod q over F_q), which
    make every matrix invertible. That is the Light test of
    :func:`_first_failure`, with y in the middle, as M_x M_(yz) = M_x M_y M_z
    = M_(xy) M_z = M_(xyz). Actions compare by identity, as tables do.
    """

    domain: GroupTable
    module_dim: int
    characteristic: int
    matrices: np.ndarray
    den: int = 1

    def __post_init__(self):
        b, q, den, mats = self.domain, self.characteristic, self.den, self.matrices
        try:
            n = exact_int(self.module_dim)
        except TypeError:
            n = 0  # refused below, with every other n < 1
        if n < 1:
            raise ValueError("module dimension must be a positive int")
        _check_characteristic(q)
        if type(den) is not int or den < 1 or q and den != 1:
            raise ValueError("den must be a positive int, and 1 over F_q")
        if not q and isinstance(mats, (list, tuple)) and mats and all(isinstance(m, QMatrix) for m in mats):
            e = math.lcm(*(m.den for m in mats))
            mats, den = [[[x * (e // m.den) for x in r] for r in m.nums] for m in mats], den * e
        mats = _int_table(mats, (b.order, n, n), "action matrices")
        mats, den = (mats % q, 1) if q else _lowest_terms(mats, den)
        m = max(den, int(mats.max()), -int(mats.min()))
        mats = mats.astype(_dtype((n + 1) * m * m))  # a copy: the caller's array is never held
        if not np.array_equal(mats[0], den * np.identity(n, mats.dtype)):
            raise ValueError("identity element must act as the identity matrix")
        mats.flags.writeable = False
        for name, value in (("module_dim", n), ("matrices", mats), ("den", den)):
            object.__setattr__(self, name, value)

        def failures(y: int, lo: int, hi: int) -> np.ndarray:
            diff = mats[lo:hi] @ mats[y] - den * mats[b.array[lo:hi, y]]
            return (diff % q if q else diff).any(axis=(1, 2))

        witness = _first_failure(b.generators, b.order, failures)
        if witness is not None:
            raise ValueError(f"action is not a homomorphism at pair {witness}")


def trivial_action(b: GroupTable, dim: int, characteristic: int = 0) -> FiniteAction:
    return FiniteAction(b, dim, characteristic, np.broadcast_to(np.identity(dim, np.int64), (b.order, dim, dim)))


def cyclic_matrix_action(base: GroupTable, generator_matrix, characteristic: int = 0) -> FiniteAction:
    """Action of a cyclic(n) table where index k acts by the k-th power of
    the given generator matrix: integer rows, or over Q also a QMatrix or
    rows of rationals. The base must be a :func:`cyclic` table, which its
    column 1 fixes: in a group, k * 1 = k + 1 makes each k the power 1^k."""
    n, q = base.order, characteristic
    if not np.array_equal(base.array[:, 1 % n], (np.arange(n) + 1) % n):
        raise ValueError("base must be a cyclic() table (index = exponent)")
    if q:
        _check_characteristic(q)
        dim = len(generator_matrix)
        gen = (_int_table(generator_matrix, (dim, dim), "generator matrix") % q).astype(np.int64)
        one, mul = np.identity(dim, np.int64), lambda p, m: p @ m % q
    else:  # a QMatrix product is in lowest terms, so each power keeps its own denominator
        gen = generator_matrix if isinstance(generator_matrix, QMatrix) else QMatrix.of(generator_matrix)
        dim, one, mul = gen.n, QMatrix.identity(gen.n), operator.mul
    powers = list(accumulate(repeat(gen, n - 1), mul, initial=one))
    return FiniteAction(base, dim, q, np.array(powers) if q else powers)


def finite_semidirect(q: int, n: int, action: FiniteAction, b: GroupTable) -> GroupTable:
    """The semidirect product (C_q)^n x| B for a B-action over F_q.

    Elements are pairs (k, v) of a base element k and a vector v, in normal
    form with index k*q^n + v; the product is (k, v)(l, w) = (k*l, v*M_l + w).
    With the trivial action this coincides exactly with
    ``direct_product(b, elementary_abelian(q, n))``.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if action.characteristic != q:
        raise ValueError("action characteristic must equal q")
    if action.module_dim != n:
        raise ValueError("action dimension must equal n")
    if not np.array_equal(action.domain.array, b.array):
        raise ValueError("action domain must be the base group")
    qn = q**n
    _check_order(qn * b.order)
    # moved[v, l] is the index of v * M_l, for the digit vector v of index v
    digits = np.arange(qn)[:, None] // q ** np.arange(n) % q
    moved = (digits @ action.matrices % q @ q ** np.arange(n)).T
    # (k, v)(l, w) = (k*l, v*M_l + w), at index (k*l)*q^n + (v*M_l + w)
    ea = _elementary_abelian_array(q, n)
    table = (b.array[:, None, :, None] * qn + ea[moved][None]).reshape(qn * b.order, -1)
    labels = [f"({k}, {_digits(v, q, n)})" for k in b.labels for v in range(qn)]
    return GroupTable(table, labels)


# ---------------------------------------------------------------------------
# structural queries

def element_order(g: GroupTable, i: int) -> int:
    """Least k >= 1 with i^k = identity."""
    if not 0 <= i < g.order:
        raise ValueError(f"element index {i} out of range")
    return g.element_orders()[i]


def order_profile(g: GroupTable) -> dict[int, int]:
    """Counts of elements by order; an Aut-invariant fingerprint."""
    return dict(sorted(Counter(g.element_orders()).items()))


def exponent(g: GroupTable) -> int:
    return math.lcm(*g.element_orders())


def subgroup_closure(g: GroupTable, seeds) -> tuple[int, ...]:
    """The subgroup generated by the given element indices, as a sorted tuple."""
    inside = bytearray(g.order)
    inside[0] = 1
    members = [0]
    _close(members, inside, [g.array[:, s].tolist() for s in set(seeds) if s != 0], 0)
    return tuple(sorted(members))


def derived_subgroup(g: GroupTable) -> tuple[int, ...]:
    """The subgroup generated by all commutators, as a sorted index tuple."""
    a, inv = g.array, np.array(g._inverses)
    comms = a[a[inv[:, None], inv], a]  # a^-1 * b^-1 * (a * b) at [a, b]
    return subgroup_closure(g, np.unique(comms).tolist())


def is_elementary_abelian(g: GroupTable) -> tuple[bool, int | None]:
    """(True, q) iff g is abelian of prime exponent q. The trivial group
    counts vacuously, reported as (True, None)."""
    if g.order == 1:
        return True, None
    if not g.is_abelian:
        return False, None
    e = exponent(g)
    return (True, e) if is_prime(e) else (False, None)
