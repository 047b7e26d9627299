"""Finite groups as immutable multiplication tables, plus the constructors
and structural queries the rest of the package needs.

Conventions: elements are the indices 0..order-1, index 0 is the identity,
and ``table[i][j]`` is the product i*j. Group actions on vector modules are
*right* actions on row vectors (``a * M``), so action matrices compose as
``M[x] * M[y] == M[x*y]``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .arith import is_prime
from .exact_linear import QMatrix

#: Hard cap on group order for every constructor.
MAX_ORDER = 4096

#: Rows per block in the associativity check; bounds its temporaries at
#: 2 * 256 * n int64 entries (8 MB at n = 2048).
_ASSOC_BLOCK = 256


def _generators(arr: np.ndarray) -> tuple[int, ...]:
    """The least element outside the closure so far, repeated until the
    closure is everything. The closure is that of the identity under right
    multiplication by the chosen elements; on a group it is the subgroup they
    generate, on any magma it holds every left-bracketed product of them."""
    n = arr.shape[0]
    inside = bytearray(n)
    inside[0] = 1
    members = [0]
    gens: list[int] = []
    cols: list[list[int]] = []
    while len(members) < n:
        least = inside.index(0)
        gens.append(least)
        cols.append(arr[:, least].tolist())
        # the old members are closed under the old generators, so they need
        # only the new one; every new member needs all of them
        i = len(members)
        new = cols[-1]
        for x in members[:i]:
            y = new[x]
            if not inside[y]:
                inside[y] = 1
                members.append(y)
        while i < len(members):
            x = members[i]
            i += 1
            for col in cols:
                y = col[x]
                if not inside[y]:
                    inside[y] = 1
                    members.append(y)
    return tuple(gens)


def _validate_table(arr: np.ndarray) -> tuple[int, ...]:
    """Check that arr is the Cayley table of a group with identity 0 and
    return the generating set of :func:`_generators`.

    Associativity is exact at every order, by Light's test (Clifford and
    Preston 1961, section 1.2): the elements a with (x*a)*y == x*(a*y) for
    all x, y are closed under products, so checking every a in a set whose
    left-bracketed products reach every element proves it for all a. That is
    O(n^2 * d) for d generators, not O(n^3), done in blocks of rows.
    """
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise ValueError(f"table must be square, got shape {arr.shape}")
    if n == 0:
        raise ValueError("empty table")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("table entries must be element indices")
    idx = np.arange(n)
    if not (np.array_equal(arr[0], idx) and np.array_equal(arr[:, 0], idx)):
        raise ValueError("index 0 is not a two-sided identity")
    if not np.array_equal(np.sort(arr, axis=1), np.broadcast_to(idx, (n, n))):
        raise ValueError("some row is not a permutation (Latin square violated)")
    if not np.array_equal(np.sort(arr, axis=0), np.broadcast_to(idx[:, None], (n, n))):
        raise ValueError("some column is not a permutation (Latin square violated)")
    right_inv = np.argmin(arr, axis=1)  # unique 0 per row by the Latin property
    if not np.array_equal(arr[right_inv, idx], np.zeros(n, dtype=arr.dtype)):
        raise ValueError("some element lacks a two-sided inverse")
    gens = _generators(arr)
    for a in gens:
        right = arr[a]
        for lo in range(0, n, _ASSOC_BLOCK):
            block = arr[lo:lo + _ASSOC_BLOCK]
            lhs = arr[block[:, a]]  # (x*a)*y
            rhs = block[:, right]   # x*(a*y)
            if not np.array_equal(lhs, rhs):
                x, y = np.argwhere(lhs != rhs)[0]
                raise ValueError(
                    f"associativity fails: ({lo + x}*{a})*{y} != {lo + x}*({a}*{y})"
                )
    return gens


_EXACT_INT = frozenset({int})


def _int_row(row) -> tuple[int, ...]:
    """One table row as a tuple of ints. A float or a bool is rejected, not
    truncated; other integer types (numpy's) go through ``operator.index``."""
    r = tuple(row)
    if not _EXACT_INT.issuperset(map(type, r)):
        if any(issubclass(t, bool) for t in set(map(type, r))):
            raise ValueError("table entries must be integers, not booleans")
        r = tuple(map(operator.index, r))
    return r


class GroupTable:
    """A finite group as an immutable Cayley table.

    All structural invariants (identity at index 0, Latin square, two-sided
    inverses, associativity) are verified exactly at construction time, at
    every order, so holding a GroupTable is itself a certificate that the
    table is a group. ``generators`` is the generating set the associativity
    check used: the least element outside the subgroup generated so far,
    repeated until that subgroup is everything.
    """

    __slots__ = ("order", "table", "labels", "generators", "_inverses", "_orders",
                 "_abelian", "_orbit_cache")

    def __init__(self, table, labels):
        try:
            rows = tuple(_int_row(row) for row in table)
            labels = tuple(str(x) for x in labels)
            arr = np.asarray(rows, dtype=np.int64)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"table must be a list of rows of integers: {exc}") from exc
        gens = _validate_table(arr)
        n = arr.shape[0]
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_inverses", tuple(int(x) for x in np.argmin(arr, axis=1)))
        object.__setattr__(self, "_orders", None)
        object.__setattr__(self, "_abelian", None)
        object.__setattr__(self, "_orbit_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("GroupTable is immutable")

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self._inverses[i]

    def conjugate(self, x: int, by: int) -> int:
        """by^-1 * x * by."""
        t = self.table
        return t[t[self._inverses[by]][x]][by]

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            # the centralizer of each element is a subgroup, so it is all of
            # the group once it holds every generator
            t = self.table
            result = all(t[s][x] == t[x][s] for s in self.generators for x in range(self.order))
            object.__setattr__(self, "_abelian", result)
        return self._abelian

    def element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            t = self.table
            orders = []
            for i in range(self.order):
                x, k = i, 1
                while x != 0:
                    x = t[x][i]
                    k += 1
                orders.append(k)
            object.__setattr__(self, "_orders", tuple(orders))
        return self._orders

    def to_json(self) -> dict:
        return {"order": self.order, "labels": list(self.labels),
                "table": [list(r) for r in self.table]}

    @classmethod
    def from_json(cls, data: dict) -> "GroupTable":
        try:
            table = data["table"]
            labels = data.get("labels") or [str(i) for i in range(len(table))]
            declared = data.get("order")
            declared = None if declared is None else int(declared)
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

def cyclic(n: int) -> GroupTable:
    """The cyclic group C_n with labels g^0..g^(n-1)."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds cap {MAX_ORDER}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupTable(table, [f"g^{k}" for k in range(n)])


def _digits(v: int, q: int, k: int) -> tuple[int, ...]:
    return tuple((v // q**i) % q for i in range(k))


def elementary_abelian(q: int, k: int) -> GroupTable:
    """(C_q)^k for prime q, elements indexed by base-q digit vectors."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if k < 1:
        raise ValueError("rank must be positive")
    n = q**k
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds cap {MAX_ORDER}")
    vecs = [_digits(v, q, k) for v in range(n)]
    powers = [q**s for s in range(k)]
    table = [
        [sum(((vi + wi) % q) * p for vi, wi, p in zip(vecs[v], vecs[w], powers)) for w in range(n)]
        for v in range(n)
    ]
    return GroupTable(table, [str(v) for v in vecs])


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Componentwise product; element (i, j) gets index i*|h| + j."""
    n = g.order * h.order
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds cap {MAX_ORDER}")
    hn = h.order
    table = [
        [g.table[i1][j1] * hn + h.table[i2][j2] for j1 in range(g.order) for j2 in range(hn)]
        for i1 in range(g.order)
        for i2 in range(hn)
    ]
    labels = [f"({g.labels[i1]}, {h.labels[i2]})" for i1 in range(g.order) for i2 in range(hn)]
    return GroupTable(table, labels)


def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n; elements s^f r^a with index f*n + a."""
    if n < 1:
        raise ValueError("rotation order must be positive")
    if 2 * n > MAX_ORDER:
        raise ValueError(f"order {2 * n} exceeds cap {MAX_ORDER}")
    table = []
    for f1 in range(2):
        for a1 in range(n):
            row = []
            for f2 in range(2):
                for a2 in range(n):
                    f = f1 ^ f2
                    a = (a1 * (-1 if f2 else 1) + a2) % n
                    row.append(f * n + a)
            table.append(row)
    labels = [f"r^{a}" for a in range(n)] + [f"sr^{a}" for a in range(n)]
    return GroupTable(table, labels)


_QUAT_AXIS = (
    ((0, 0), (0, 1), (0, 2), (0, 3)),
    ((0, 1), (1, 0), (0, 3), (1, 2)),
    ((0, 2), (1, 3), (1, 0), (0, 1)),
    ((0, 3), (0, 2), (1, 1), (1, 0)),
)


def quaternion() -> GroupTable:
    """The quaternion group Q8 with labels 1, -1, i, -i, j, -j, k, -k."""
    # element index = axis*2 + sign, axes ordered 1, i, j, k
    table = []
    for a1 in range(4):
        for s1 in range(2):
            row = []
            for a2 in range(4):
                for s2 in range(2):
                    s3, a3 = _QUAT_AXIS[a1][a2]
                    row.append(a3 * 2 + (s1 ^ s2 ^ s3))
            table.append(row)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return GroupTable(table, labels)


def _perm_group(perms: list[tuple[int, ...]]) -> GroupTable:
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(len(p)))] for q in perms]
        for p in perms
    ]
    return GroupTable(table, [str(p) for p in perms])


def _perm_sign(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
    return sign


def symmetric(n: int) -> GroupTable:
    """Symmetric group on n points as a Cayley table (n <= 5)."""
    if not 1 <= n <= 5:
        raise ValueError("symmetric(n) supports 1 <= n <= 5")
    return _perm_group(sorted(permutations(range(n))))


def alternating(n: int) -> GroupTable:
    """Alternating group on n points as a Cayley table (n <= 5)."""
    if not 1 <= n <= 5:
        raise ValueError("alternating(n) supports 1 <= n <= 5")
    perms = sorted(p for p in permutations(range(n)) if _perm_sign(p) == 1)
    return _perm_group(perms)


# ---------------------------------------------------------------------------
# actions and semidirect products

def _mat_mul_mod(a, b, q: int):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n)) for i in range(n)
    )


@dataclass(frozen=True)
class FiniteAction:
    """A right action of a finite group on a vector module.

    For characteristic q the matrices are integer tuples reduced mod q, for
    characteristic 0 they are exact QMatrix values. Validation enforces that
    the identity acts trivially and that ``matrices[x] * matrices[y] ==
    matrices[x*y]``; together these make every matrix invertible. The
    product rule is checked for y in ``domain.generators`` only: the y for
    which it holds at every x are closed under products, since
    M_x M_(yz) = M_x M_y M_z = M_(xy) M_z = M_(xyz).
    """

    domain: GroupTable
    module_dim: int
    characteristic: int
    matrices: tuple

    def __post_init__(self):
        b = self.domain
        n = self.module_dim
        q = self.characteristic
        if n < 1:
            raise ValueError("module dimension must be positive")
        if q != 0 and not is_prime(q):
            raise ValueError("characteristic must be 0 or a prime")
        if len(self.matrices) != b.order:
            raise ValueError("need one matrix per group element")
        if q == 0:
            mats = self.matrices
            if any(not isinstance(m, QMatrix) or m.n != n for m in mats):
                raise ValueError("characteristic-0 action needs n x n QMatrix values")
            ident = QMatrix.identity(n)
            mul = QMatrix.__mul__
        else:
            mats = tuple(
                tuple(tuple(int(e) % q for e in row) for row in m) for m in self.matrices
            )
            object.__setattr__(self, "matrices", mats)
            ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
            if any(len(m) != n or any(len(r) != n for r in m) for m in mats):
                raise ValueError("matrices must be n x n")

            def mul(a, c):
                return _mat_mul_mod(a, c, q)
        if mats[0] != ident:
            raise ValueError("identity element must act as the identity matrix")
        t = b.table
        order = range(b.order)
        if any(mul(mats[x], mats[y]) != mats[t[x][y]] for y in b.generators for x in order):
            # name the first failing pair of the full scan
            x, y = next((x, y) for x in order for y in order
                        if mul(mats[x], mats[y]) != mats[t[x][y]])
            raise ValueError(f"action is not a homomorphism at pair ({x}, {y})")


def trivial_action(b: GroupTable, dim: int, characteristic: int = 0) -> FiniteAction:
    if characteristic == 0:
        mats = tuple(QMatrix.identity(dim) for _ in range(b.order))
    else:
        ident = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
        mats = tuple(ident for _ in range(b.order))
    return FiniteAction(b, dim, characteristic, mats)


def cyclic_matrix_action(base: GroupTable, generator_matrix, characteristic: int = 0) -> FiniteAction:
    """Action of a cyclic(n) table where index k acts by the k-th power of the
    given generator matrix. The base must come from :func:`cyclic`."""
    n = base.order
    if base.table != cyclic(n).table:
        raise ValueError("base must be a cyclic() table (index = exponent)")
    if characteristic == 0:
        gen = generator_matrix if isinstance(generator_matrix, QMatrix) else QMatrix.of(generator_matrix)
        mats = [QMatrix.identity(gen.n)]
        for _ in range(n - 1):
            mats.append(mats[-1] * gen)
        return FiniteAction(base, gen.n, 0, tuple(mats))
    q = characteristic
    gen = tuple(tuple(int(e) % q for e in row) for row in generator_matrix)
    dim = len(gen)
    ident = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    mats = [ident]
    for _ in range(n - 1):
        mats.append(_mat_mul_mod(mats[-1], gen, q))
    return FiniteAction(base, dim, q, tuple(mats))


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
    if action.domain.table != b.table:
        raise ValueError("action domain must be the base group")
    qn = q**n
    size = qn * b.order
    if size > MAX_ORDER:
        raise ValueError(f"order {size} exceeds cap {MAX_ORDER}")
    vecs = [_digits(v, q, n) for v in range(qn)]
    table = []
    for k in range(b.order):
        for v in vecs:
            row = []
            for l in range(b.order):
                m = action.matrices[l]
                moved = tuple(sum(v[r] * m[r][c] for r in range(n)) % q for c in range(n))
                kl = b.table[k][l]
                for w in vecs:
                    combined = sum(((moved[c] + w[c]) % q) * q**c for c in range(n))
                    row.append(kl * qn + combined)
            table.append(row)
    labels = [f"({b.labels[k]}, {v})" for k in range(b.order) for v in vecs]
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
    profile: dict[int, int] = {}
    for o in g.element_orders():
        profile[o] = profile.get(o, 0) + 1
    return dict(sorted(profile.items()))


def exponent(g: GroupTable) -> int:
    return math.lcm(*g.element_orders())


def subgroup_closure(g: GroupTable, seeds) -> tuple[int, ...]:
    """The subgroup generated by the given element indices, as a sorted tuple."""
    t = g.table
    seen = {0}
    frontier = [0]
    gens = [s for s in set(seeds) if s != 0]
    while frontier:
        nxt = []
        for x in frontier:
            row = t[x]
            for s in gens:
                y = row[s]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def derived_subgroup(g: GroupTable) -> tuple[int, ...]:
    """The subgroup generated by all commutators, as a sorted index tuple."""
    t = g.table
    inv = g._inverses
    comms = {
        t[t[inv[a]][inv[b]]][t[a][b]]
        for a in range(g.order)
        for b in range(a + 1, g.order)
    }
    return subgroup_closure(g, comms)


def is_elementary_abelian(g: GroupTable) -> tuple[bool, int | None]:
    """(True, q) iff g is abelian of prime exponent q. The trivial group
    counts vacuously, reported as (True, None)."""
    if g.order == 1:
        return True, None
    if not g.is_abelian:
        return False, None
    e = exponent(g)
    return (True, e) if is_prime(e) else (False, None)
