"""Exact rational linear algebra: vectors, matrices, polynomials.

Every result is exact; no floating point is used anywhere in the package.
A vector is stored as integer numerators over one positive denominator,
and a matrix as integer rows over one positive denominator, each reduced
so the form is unique; their arithmetic is integer arithmetic with one lcm
per operation, and ``entries`` and ``rows`` derive ``Fraction``s for output
only. A matrix keeps the sparse form of its rows once it is first used in
a product; the products are vector and matrix times matrix, with no scalar
product. ``det``, ``inverse``, ``minimal_polynomial`` and the echelon of
``cyclic_decomposition`` share one elimination routine, ``_clear``, with
``_insert`` keeping the (pivot, row) list, on integer rows that are divided
by the gcd of their entries after every update (primitive rows, in the
fraction-free style of Bareiss, 1968), so entries grow with the minors of
the input and not with a power of its common denominator. ``inverse`` is
the one solve: [A | I] reduced until its left half is diagonal, sparsest
rows first.

A ``cyclic_decomposition`` (Krylov) basis turns Q^n into F^t for the
field F = Q[x]/Phi_p(x), the p-th cyclotomic field, and ``semilinear_map``
solves t x t systems over F with five integer operations on elements: the
product, the monomial shift, the Galois maps x -> x^g, the inverse by
Galois conjugates over the norm, and fraction-free Gauss-Jordan
elimination.

Convention: linear maps act on *row* vectors from the right, ``v * m``.
Matrix products therefore compose left to right, which matches the
group-action convention used by the rest of the package.

Vectors and matrices serialize as JSON arrays of ``"num/den"`` strings so
that output is exact and independent of any binary float format; one
formatter, ``_format_row``, writes them and one parser, ``_num_den``, reads.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from .arith import factorize, is_prime


def _format_row(nums: Iterable[int], d: int) -> list[str]:
    """Each x / d, for d > 0, in the canonical "num/den" form: reduced, the
    sign on the numerator, an integer over 1 (``-1/2``, ``3/1``)."""
    return [f"{x // g}/{d // g}" for x in nums for g in (math.gcd(x, d),)]


def _num_den(s: str | int) -> tuple[int, int]:
    """(num, den > 0), not reduced, of a JSON rational: "num/den", a bare
    integer string, or an int. Anything else, a float, a bool or a zero or
    signed denominator included, is a ValueError."""
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        # a denominator is digits only: no sign, no space, not empty
        d = int(den) if den.isdigit() else 0 if slash else 1
        if d:
            return int(num), d
    elif isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    raise ValueError(f"invalid rational {s!r}: expected \"num/den\", an integer string or an int")


_ZERO, _ONE = Fraction(0), Fraction(1)


def _over(nums: Iterable[int], d: int) -> tuple[Fraction, ...]:
    """The entries nums[i] / d, one reduced Fraction each."""
    return tuple(Fraction(x, d) if x else _ZERO for x in nums)


def int_vecmul(v: Sequence[int], rows: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """The integer row vector v times the square integer matrix given by its
    sparse rows of (column, entry) pairs, as ``QMatrix._sparse`` holds them."""
    acc = [0] * len(rows)
    for a, row in zip(v, rows):
        if a:
            for j, w in row:
                acc[j] += a * w
    return acc


_new = object.__new__
_set = object.__setattr__


def _vector(nums: Sequence[int], den: int, v: "QVector | None" = None) -> "QVector":
    """nums / den for den > 0, divided through by their gcd, set in v or in
    a new QVector."""
    g = math.gcd(den, *nums) if den > 1 else 1
    if g > 1:
        nums, den = [x // g for x in nums], den // g
    v = _new(QVector) if v is None else v
    _set(v, "nums", tuple(nums))
    _set(v, "den", den)
    return v


@dataclass(frozen=True, slots=True, init=False, repr=False)
class QVector:
    """Immutable rational row vector: the integers ``nums`` over the one
    denominator ``den`` > 0, with gcd(nums, den) = 1. The form is unique,
    so equality and hashing compare the fields."""

    nums: tuple[int, ...]
    den: int

    def __init__(self, entries: Iterable) -> None:
        """The vector of the given ints and Fractions."""
        es = tuple(entries)
        d = math.lcm(*(e.denominator for e in es))
        _vector([e.numerator * (d // e.denominator) for e in es], d, self)

    @classmethod
    def of(cls, *entries) -> "QVector":
        return cls(tuple(Fraction(e) for e in entries))

    @classmethod
    def from_ints(cls, nums: Sequence[int], den: int) -> "QVector":
        """The vector nums / den, for integers nums and den > 0."""
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        return _vector(nums, den)

    @classmethod
    def zero(cls, n: int) -> "QVector":
        return _vector((0,) * n, 1)

    @classmethod
    def unit(cls, n: int, i: int) -> "QVector":
        return _vector(tuple(1 if j == i else 0 for j in range(n)), 1)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as Fractions, built on each call; for output."""
        return _over(self.nums, self.den)

    @property
    def dim(self) -> int:
        return len(self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def _combine(self, other: "QVector", sign: int) -> "QVector":
        """self + sign * other over the lcm of the two denominators."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        a, b = self.den, other.den
        d = math.lcm(a, b)
        ma, mb = d // a, sign * (d // b)
        return _vector([x * ma + y * mb for x, y in zip(self.nums, other.nums)], d)

    def __add__(self, other: "QVector") -> "QVector":
        return self._combine(other, 1)

    def __sub__(self, other: "QVector") -> "QVector":
        return self._combine(other, -1)

    def __neg__(self) -> "QVector":
        return _vector([-x for x in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.dim != other.n:
                raise ValueError(f"dimension mismatch: vector {self.dim}, matrix {other.n}")
            return _vector(int_vecmul(self.nums, other._sparse), self.den * other.den)
        return NotImplemented

    def to_json(self) -> list[str]:
        return _format_row(self.nums, self.den)

    @classmethod
    def from_json(cls, data: list[str | int]) -> "QVector":
        if not isinstance(data, list):
            raise ValueError(f"vector must be a list of rationals, got {type(data).__name__}")
        pairs = [_num_den(e) for e in data]
        d = math.lcm(*(den for _, den in pairs))
        return _vector([num * (d // den) for num, den in pairs], d)

    def __repr__(self) -> str:
        return "QVector(" + ", ".join(str(e) for e in self.entries) + ")"


def _matrix(nums: Sequence[Sequence[int]], den: int, m: "QMatrix | None" = None) -> "QMatrix":
    """nums / den for den > 0, divided through by the gcd of all entries and
    den, set in m or in a new QMatrix."""
    g = math.gcd(den, *chain.from_iterable(nums)) if den > 1 else 1
    if g > 1:
        nums, den = [[x // g for x in row] for row in nums], den // g
    m = _new(QMatrix) if m is None else m
    _set(m, "nums", tuple(map(tuple, nums)))
    _set(m, "den", den)
    return m


def _square(rows: list) -> list:
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return rows


@dataclass(frozen=True, init=False, repr=False)
class QMatrix:
    """Immutable square rational matrix acting on row vectors from the right:
    the integer rows ``nums`` over the one denominator ``den`` > 0, with
    gcd(all entries, den) = 1. The form is unique, so equality and hashing
    compare the fields."""

    nums: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, rows: Iterable[Iterable]) -> None:
        """The matrix of the given rows of ints and Fractions."""
        rows = _square([tuple(r) for r in rows])
        d = math.lcm(*(e.denominator for r in rows for e in r))
        _matrix([[e.numerator * (d // e.denominator) for e in r] for r in rows], d, self)

    @classmethod
    def of(cls, rows: Iterable[Iterable]) -> "QMatrix":
        return cls(tuple(tuple(Fraction(e) for e in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return _matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], 1)

    @classmethod
    def block_diag(cls, blocks: Sequence["QMatrix"]) -> "QMatrix":
        n, den = sum(b.n for b in blocks), math.lcm(*(b.den for b in blocks))
        rows, off = [], 0
        for b in blocks:
            rows += [[0] * off + [x * (den // b.den) for x in r] + [0] * (n - off - b.n)
                     for r in b.nums]
            off += b.n
        return _matrix(rows, den)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, built on each call; for output."""
        return tuple(_over(row, self.den) for row in self.nums)

    @property
    def n(self) -> int:
        return len(self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.nums))

    @cached_property
    def _sparse(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per row, the (column, numerator) pairs of its nonzero entries."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.nums)

    def _combine(self, other: "QMatrix", sign: int) -> "QMatrix":
        """self + sign * other over the lcm of the two denominators."""
        self._check_dim(other)
        d = math.lcm(self.den, other.den)
        ma, mb = d // self.den, sign * (d // other.den)
        return _matrix([[x * ma + y * mb for x, y in zip(ra, rb)]
                        for ra, rb in zip(self.nums, other.nums)], d)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "QMatrix":
        return _matrix([[-x for x in row] for row in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            self._check_dim(other)
            # each row of self times the cached sparse rows of other, so the
            # sparse companion powers this package lives on stay cheap
            rows = other._sparse
            return _matrix([int_vecmul(r, rows) for r in self.nums], self.den * other.den)
        return NotImplemented

    def det(self) -> Fraction:
        """Exact determinant: the product of the pivots of Gaussian
        elimination, each read off one primitive integer row of ``_clear``
        (rows are stored by pivot column, so the sign is the parity of the
        pivot order)."""
        n, d = self.n, self.den
        rows: list[tuple[int, list[int]]] = []
        pivots = []
        result = _ONE
        for r in self.nums:
            v, s, t = _clear(r, rows)
            piv = _insert(rows, v, n)
            if piv is None:
                return _ZERO
            pivots.append(piv)
            # v = (s / t) * d * (eliminated rational row); per-row Fractions stay reduced
            result *= Fraction(t * v[piv], s * d)
        inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
        return -result if inversions % 2 else result

    def inverse(self) -> "QMatrix":
        """Exact inverse: ``_clear`` reduces the integer rows of [A | I]
        until the left half is diagonal; raises on singular input. Rows go
        in by nonzero count, then bit length: sparse rows then reduce
        nothing, and the inverse is unique, so the order changes only the
        work."""
        n, d, nums = self.n, self.den, self.nums
        rows: list[tuple[int, list[int]]] = []
        for i in sorted(range(n), key=lambda i: (n - nums[i].count(0),
                                                 sum(x.bit_length() for x in nums[i]))):
            v = _clear([*nums[i], *(d if j == i else 0 for j in range(n))], rows)[0]
            if _insert(rows, v, n) is None:
                raise ValueError("matrix is singular")
        # the pivots are now 0..n-1; clear above each, last first, so every
        # row is reduced by rows whose left half is zero off their pivot
        for k in range(n - 2, -1, -1):
            rows[k] = (k, _clear(rows[k][1], rows[k + 1:])[0])
        # row k of the result is row[n:] / row[k], put over the lcm of the pivots
        den = math.lcm(*(row[k] for k, row in rows))
        return _matrix([[x * (den // row[k]) for x in row[n:]] for k, row in rows], den)

    def _check_dim(self, other: "QMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def to_json(self) -> list[list[str]]:
        return [_format_row(row, self.den) for row in self.nums]

    @classmethod
    def from_json(cls, data: list[list[str | int]]) -> "QMatrix":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("matrix must be a list of rows of rationals")
        pairs = _square([[_num_den(e) for e in row] for row in data])
        d = math.lcm(*(den for row in pairs for _, den in row))
        return _matrix([[num * (d // den) for num, den in row] for row in pairs], d)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"QMatrix[{body}]"


@dataclass(frozen=True)
class QPoly:
    """Rational polynomial, coefficients lowest degree first, no trailing zeros."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use QPoly.of for normalization")

    @classmethod
    def of(cls, *coeffs) -> "QPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __repr__(self) -> str:
        if self.is_zero:
            return "QPoly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "QPoly(" + " + ".join(terms) + ")"


def cyclotomic_prime(p: int) -> QPoly:
    """1 + x + ... + x^(p-1) for prime p (irreducible over the rationals)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return QPoly((_ONE,) * p)


def companion(f: QPoly) -> QMatrix:
    """Companion matrix of a monic polynomial of degree >= 1.

    Ones on the subdiagonal, the negated low-order coefficients in the last
    column; under the row-vector right action its minimal polynomial is f.
    """
    d = f.degree
    if d < 1:
        raise ValueError("companion requires degree >= 1")
    if not f.is_monic:
        raise ValueError("companion requires a monic polynomial")
    den = math.lcm(*(c.denominator for c in f.coeffs))
    rows = [[den if j == i - 1 else 0 for j in range(d)] for i in range(d)]
    for i, c in enumerate(f.coeffs[:d]):
        rows[i][d - 1] = -c.numerator * (den // c.denominator)
    return _matrix(rows, den)


_PIVOT = itemgetter(0)


def _clear(v: list[int], rows: Sequence[tuple[int, list[int]]]) -> tuple[list[int], int, int]:
    """The one elimination step behind every kernel in this module.

    ``rows`` are (pivot, row) pairs of integer rows sorted by pivot, each
    row zero before its pivot. v is made primitive, then cleared at each
    pivot in turn: v <- (a * v - b * row) / g, with a and b the pivot
    entries of row and v divided by their gcd, and g the gcd of the result.
    One pass clears every pivot: each row is zero before its pivot, so
    clearing one pivot never refills an earlier one. Returns (w, s, t) with w = (s / t) * (v - a combination of
    the rows); w is primitive.
    """
    s = t = 1
    g = math.gcd(*v)
    if g > 1:
        v = [x // g for x in v]
        t = g
    for piv, row in rows:
        b = v[piv]
        if b:
            a = row[piv]
            g = math.gcd(a, b)
            a //= g
            b //= g
            v = [a * x - b * y for x, y in zip(v, row)]
            s *= a
            g = math.gcd(*v)
            if g > 1:
                v = [x // g for x in v]
                t *= g
    return v, s, t


def _insert(rows: list[tuple[int, list[int]]], v: list[int], width: int) -> int | None:
    """Store v under its pivot, the first nonzero among its first ``width``
    entries, keeping rows sorted; None, storing nothing, if those are zero."""
    piv = next((i for i in range(width) if v[i]), None)
    if piv is not None:
        insort(rows, (piv, v), key=_PIVOT)
    return piv


def minimal_polynomial(m: QMatrix) -> QPoly:
    """Monic minimal polynomial, via exact elimination on the Krylov flats I, m, m^2, ...

    The first power that is linearly dependent on the earlier ones yields the
    (unique) monic annihilating polynomial of least degree. Each flat carries
    a unit tail that records, through the elimination, which combination of
    powers it is; a flat that reduces to zero leaves those coefficients.
    """
    n = m.n
    width = n * n
    rows: list[tuple[int, list[int]]] = []
    power = QMatrix.identity(n)
    for k in range(n + 1):
        tail = [0] * (n + 1)
        tail[k] = power.den
        v = _clear([x for row in power.nums for x in row] + tail, rows)[0]
        if _insert(rows, v, width) is None:
            combo = v[width:width + k + 1]
            return QPoly(_over(combo, combo[k]))
        power = power * m
    raise AssertionError("powers of an n x n matrix must be dependent by degree n")


def cyclic_decomposition(m: QMatrix, p: int, seed: QVector) -> QMatrix:
    """The basis b_1, b_1 * m, ..., b_1 * m^(p-2), ..., b_t * m^(p-2) of the
    whole space made of the orbit blocks {b_i * m^k, 0 <= k <= p-2} of seeds
    b_1 = seed, b_2, ..., b_t, as the rows of a matrix; the seeds are the rows
    0, p-1, 2(p-1), ....

    Requires the minimal polynomial of m to be 1 + x + ... + x^(p-1), so each
    nonzero vector generates a cyclic subspace of dimension exactly p-1 and any
    block starting outside the current span extends it directly. Later seeds
    are chosen greedily: the first standard basis vector outside the span.

    The blocks certify that precondition as they are built: each seed must
    satisfy seed * Phi_p(m) = 0, Phi_p = 1 + x + ... + x^(p-1), or this raises.
    Phi_p is irreducible, so it is the local minimal polynomial of the nonzero
    seed: the block is independent and spans a simple m-invariant subspace,
    so the block of a seed outside the invariant span of the earlier blocks
    meets that span only in 0. No row is checked, and only blocks that a
    later seed is tested against are echeloned. Phi_p(m) commutes with m, so
    it kills every block, hence a basis: it is zero, and Phi_p is the
    minimal polynomial of m.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = m.n
    if seed.dim != n:
        raise ValueError(f"seed dimension {seed.dim} does not match matrix size {n}")
    if seed.is_zero:
        raise ValueError("seed must be nonzero")
    if n % (p - 1) != 0:
        raise ValueError(f"dimension {n} is not divisible by {p - 1}")

    echelon: list[tuple[int, list[int]]] = []  # of the blocks so far, by numerators
    basis: list[QVector] = []
    w = seed
    while True:
        block, total = [], w
        for _ in range(p - 1):
            block.append(w)
            w = w * m
            total = total + w
        if not total.is_zero:
            raise ValueError("minimal polynomial is not the prime cyclotomic polynomial")
        basis += block
        if len(basis) == n:
            break
        for v in block:
            _insert(echelon, _clear(list(v.nums), echelon)[0], n)
        w = QVector.unit(n, next(i for i in range(n)
                                 if any(_clear([int(j == i) for j in range(n)], echelon)[0])))
    den = math.lcm(*(v.den for v in basis))
    return _matrix([[x * (den // v.den) for x in v.nums] for v in basis], den)


# ---------------------------------------------------------------------------
# the field F = Q[x] / Phi_p(x), Phi_p = 1 + x + ... + x^(p-1), in which x is
# a primitive p-th root of unity. An element is its p - 1 coefficients on
# 1, x, ..., x^(p-2): an integer list over a positive denominator, divided
# through by their gcd (``_elem``), so the form is unique. Products are taken
# mod x^p - 1 and then reduced by x^(p-1) = -(1 + x + ... + x^(p-2)).

_Elem = tuple[list[int], int]


def _elem(nums: list[int], den: int) -> _Elem:
    """nums / den for den != 0, divided through by their gcd, den > 0."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    return ([x // g for x in nums], den // g) if g != 1 else (nums, den)


def _reduce_phi(acc: list[int]) -> list[int]:
    """The p coefficients of a polynomial mod x^p - 1, reduced mod Phi_p."""
    top = acc.pop()
    return [x - top for x in acc] if top else acc


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer elements of F."""
    p = len(a) + 1
    acc = [0] * (2 * p)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                acc[k] += x * y
    return _reduce_phi([x + y for x, y in zip(acc, acc[p:])])


def _poly_map(a: Sequence[int], h: int, s: int) -> list[int]:
    """x^s * sigma_h(a) for the Galois map sigma_h: x -> x^h, h prime to p:
    the coefficient of x^j moves to x^((h*j + s) mod p). With h = 1 it is
    the monomial shift, with s = 0 the Galois map alone."""
    p = len(a) + 1
    acc = [0] * p
    for j, x in enumerate(a):
        acc[(h * j + s) % p] = x
    return _reduce_phi(acc)


def _primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod the prime p."""
    qs = factorize(p - 1)
    return next(r for r in range(1, p) if all(pow(r, (p - 1) // q, p) != 1 for q in qs))


def _elem_inverse(a: _Elem) -> _Elem:
    """The inverse of a nonzero element: the product of its p - 2 Galois
    conjugates other than itself, over its norm N(a) = a * (that product),
    a nonzero rational. The sigma_h form a cyclic group generated by one
    primitive root r, so the product of sigma_(r^i)(a) for i < k doubles to
    i < 2k by one product with its own image under sigma_(r^k): O(log p)
    products in all. At p = 2, F = Q and the one conjugate taken is a
    itself, so the inverse is a / a^2."""
    nums, den = a
    p = len(nums) + 1
    r = _primitive_root(p)
    # q = prod of sigma_(r^i)(nums) for 0 <= i < k, from k = 1 to p - 2
    q, k = nums, 1
    for bit in bin(p - 2)[3:]:
        q = _poly_mul(q, _poly_map(q, pow(r, k, p), 0))
        k *= 2
        if bit == "1":
            q = _poly_mul(q, _poly_map(nums, pow(r, k, p), 0))
            k += 1
    conj = _poly_map(q, r, 0)
    # nums * conj is the constant N. Mod x^p - 1 every coefficient but that
    # of x^0 equals the one of x^(p-1), so N is the difference of the two:
    # the sums over i + j = p (or 0) and over i + j = p - 1
    const = nums[0] * conj[0] + sum(x * y for x, y in zip(nums[2:], reversed(conj[2:])))
    top = sum(x * y for x, y in zip(nums[1:], reversed(conj[1:])))
    return _elem([x * den for x in conj], const - top)


def _elem_mul(a: _Elem, b: _Elem) -> _Elem:
    return _elem(_poly_mul(a[0], b[0]), a[1] * b[1])


def _elem_sub(a: _Elem, b: _Elem) -> _Elem:
    (x, da), (y, db) = a, b
    d = math.lcm(da, db)
    ma, mb = d // da, d // db
    return _elem([u * ma - v * mb for u, v in zip(x, y)], d)


def _field_row(nums: Sequence[int], den: int, k: int) -> list[_Elem]:
    """The vector nums / den of Q^(t*k) as a row of F^t, k = p - 1 entries
    per block."""
    return [_elem(list(nums[i:i + k]), den) for i in range(0, len(nums), k)]


def _field_residual(v: list[_Elem], rows: Sequence[tuple[int, list[_Elem]]], d: _Elem,
                    cols: range) -> list[_Elem]:
    """The entries ``cols`` of d * v minus its components along rows, (pivot,
    row) pairs of a fraction-free reduced echelon form: every row is d at its
    pivot and 0 at the other pivots, so the component along it is v[pivot].
    Zero entries are skipped, so a sparse v or echelon costs little."""
    pivots = {c for c, _ in rows}
    along = [(v[c], row) for c, row in rows if any(v[c][0])]
    zero = ([0] * len(d[0]), 1)
    out = []
    for j in cols:
        if j in pivots:
            out.append(zero)
            continue
        e = _elem_mul(d, v[j]) if any(v[j][0]) else v[j]
        for f, row in along:
            if any(row[j][0]):
                e = _elem_sub(e, _elem_mul(f, row[j]))
        out.append(e)
    return out


def _field_insert(w: list[_Elem], rows: list[tuple[int, list[_Elem]]], d: _Elem) -> _Elem:
    """Add a nonzero ``_field_residual`` w to the echelon rows of common
    pivot d, in fraction-free Gauss-Jordan style: the first nonzero entry e
    of w marks its pivot, and every other row r becomes
    (e * r - r[pivot] * w) / d, so e is the new common pivot, returned. As in
    Bareiss (1968), every entry stays a minor of the rows inserted, so only
    minors are ever inverted: the inverse of a quotient of two elements
    would cost p times the size of the quotient, itself p times theirs."""
    c = next(j for j, (x, _) in enumerate(w) if any(x))
    e = w[c]
    if rows:
        inv = _elem_inverse(d)
        for i, (q, row) in enumerate(rows):
            f = row[c]
            row = [_elem_mul(e, x) if any(x[0]) else x for x in row]
            if any(f[0]):
                row = [_elem_sub(x, _elem_mul(f, y)) if any(y[0]) else x for x, y in zip(row, w)]
            rows[i] = (q, [_elem_mul(inv, x) if any(x[0]) else x for x in row])
    rows.append((c, w))
    return e


def _choose_basis(first: list[_Elem], units: QMatrix, k: int, tails: Sequence[list[_Elem]]):
    """The F-basis of F^t made of first and then each row of ``units`` in
    turn that is F-independent of the rows chosen so far; the chosen row i
    is extended by tails[i], which takes no part in the choice. Returns the
    chosen rows, unextended, the echelon form of all but the last extended
    row with its common pivot, and the last one's residual against it."""
    t = len(first)
    chosen, rows, d = [first], [], ([1] + [0] * (k - 1), 1)
    last = first + tails[0]
    for u in units.nums:
        if len(chosen) == t:
            break
        if last is not None:
            d = _field_insert(last, rows, d)
            last = None
        v = _field_row(u, units.den, k)
        left = _field_residual(v, rows, d, range(t))
        if any(any(e) for e, _ in left):
            tail = tails[len(chosen)]
            last = left + _field_residual(v + tail, rows, d, range(t, t + len(tail)))
            chosen.append(v)
    return chosen, rows, d, last


def semilinear_map(b: QVector, c: QVector, units: QMatrix, p: int, g: int) -> QMatrix:
    """The sigma_g-semilinear map of F^t that sends one F-basis to another.

    A vector of Q^n, n = t * (p - 1), is read as a row of F^t, block i of
    its p - 1 coordinates holding the coefficients of entry i. The bases
    start at b and at c, then take each row of ``units`` in turn that is
    F-independent of the rows so far (``units`` must span F^t). With B and C
    the t x t matrices of the two bases over F, the map is
    u -> sigma_g(u * B^-1) * C, so row (i, j) of its matrix, the image of
    x^j in entry i, is x^(g*j) * sigma_g(row i of B^-1) * C.

    Fraction-free Gauss-Jordan on [B | sigma_(g^-1)(C)] over F, run while the
    rows of B are chosen, ends at [D | D * X] with D = +-det B times the
    identity and X = B^-1 * sigma_(g^-1)(C); row i of sigma_g(X) is
    sigma_g(row i of B^-1) * C. Every inverse is of a minor: one per pivot
    of B after its first, one per pivot of C after its first but for its
    last, and one of det B, so det B alone at t = 1. No Fraction is made.
    The caller, ``mixed_group.build_automorphism``, checks the seeds.
    """
    k, t, g_inv = p - 1, b.dim // (p - 1), pow(g, -1, p)
    right = _choose_basis(_field_row(c.nums, c.den, k), units, k, [[]] * t)[0]
    tails = [[(_poly_map(e, g_inv, 0), d) for e, d in row] for row in right]
    _, rows, d, last = _choose_basis(_field_row(b.nums, b.den, k), units, k, tails)
    # every pivot is now det(B) (up to sign): X is the right half over it
    inv = _elem_inverse(_field_insert(last, rows, d))
    rows.sort(key=_PIVOT)
    # sigma_g of X, then the p - 1 shifts of each of its rows, over one denominator
    xs = [[(_poly_map(e, g, 0), d) for e, d in (_elem_mul(inv, x) for x in row[t:])]
          for _, row in rows]
    den = math.lcm(*(d for row in xs for _, d in row))
    return _matrix([[y * (den // d) for e, d in row for y in _poly_map(e, 1, g * j)]
                    for row in xs for j in range(k)], den)
