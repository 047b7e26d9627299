"""Exact rational linear algebra: vectors, matrices, polynomials.

Every result is exact; no floating point is used anywhere in the package.
A vector is stored as integer numerators over one positive denominator,
reduced so the form is unique, and its arithmetic is integer arithmetic
with one lcm per operation; ``entries`` derives ``Fraction``s from it for
output. A matrix keeps ``Fraction`` entries; it computes its least common
denominator and its sparse rows of integer numerators once and keeps them,
and a matrix product makes one ``Fraction`` per result entry. Determinant,
inverse, echelon form and minimal polynomial share one elimination
routine, ``_clear``, on integer rows that are divided by the gcd of their
entries after every update (primitive rows, in the fraction-free style of
Bareiss, 1968), so entries grow with the minors of the input and not with
a power of its common denominator.

Convention: linear maps act on *row* vectors from the right, ``v * m``.
Matrix products therefore compose left to right, which matches the
group-action convention used by the rest of the package.

Vectors and matrices serialize as JSON arrays of ``"num/den"`` strings so
that output is exact and independent of any binary float format.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .arith import is_prime


def format_rat(x: Fraction) -> str:
    """Canonical "num/den" form, e.g. ``-1/2`` or ``3/1``."""
    return f"{x.numerator}/{x.denominator}"


def _num_den(s: str | int) -> tuple[int, int]:
    """(num, den > 0), not reduced, of a string or int as ``parse_rat`` accepts."""
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        # a denominator is digits only: no sign, no space, not empty
        d = int(den) if den.isdigit() else 0 if slash else 1
        if d:
            return int(num), d
    elif isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    raise ValueError(f"invalid rational {s!r}: expected \"num/den\", an integer string or an int")


def parse_rat(s: str | int) -> Fraction:
    """Accepts "num/den", a bare integer string, or an int; anything else,
    a float or a bool included, is a ValueError."""
    return Fraction(*_num_den(s))


_ZERO = Fraction(0)


def _numerators(entries: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, d) with d the least common denominator of the entries and
    nums[i] = d * entries[i], an integer."""
    d = math.lcm(*(e.denominator for e in entries))
    return [e.numerator * (d // e.denominator) for e in entries], d


def _over(nums: Iterable[int], d: int) -> tuple[Fraction, ...]:
    """The entries nums[i] / d, one reduced Fraction each."""
    return tuple(Fraction(x, d) if x else _ZERO for x in nums)


def int_vecmul(v: Sequence[int], rows: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """The integer row vector v times the square integer matrix given by its
    sparse rows of (column, entry) pairs, as in ``QMatrix._sparse``."""
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
        _vector(*_numerators(tuple(entries)), self)

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
            den, rows = other._sparse
            return _vector(int_vecmul(self.nums, rows), self.den * den)
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return _vector([x * k for x in self.nums], self.den * other.denominator)
        return NotImplemented

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self.__mul__(scalar)
        return NotImplemented

    def to_json(self) -> list[str]:
        return [format_rat(e) for e in self.entries]

    @classmethod
    def from_json(cls, data: Sequence[str | int]) -> "QVector":
        try:
            pairs = [_num_den(e) for e in data]
        except TypeError as exc:
            raise ValueError(f"vector must be a list of rationals: {exc}") from exc
        d = math.lcm(*(den for _, den in pairs))
        return _vector([num * (d // den) for num, den in pairs], d)

    def __repr__(self) -> str:
        return "QVector(" + ", ".join(str(e) for e in self.entries) + ")"


@dataclass(frozen=True)
class QMatrix:
    """Immutable square rational matrix acting on row vectors from the right."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def of(cls, rows: Iterable[Iterable]) -> "QMatrix":
        return cls(tuple(tuple(Fraction(e) for e in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    @classmethod
    def block_diag(cls, blocks: Sequence["QMatrix"]) -> "QMatrix":
        n = sum(b.n for b in blocks)
        rows = [[Fraction(0)] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i in range(b.n):
                for j in range(b.n):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.n
        return cls(tuple(tuple(r) for r in rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for row in self.rows for e in row)

    @cached_property
    def _sparse(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """(D, rows): D the least common denominator of all entries and, per
        row, the (column, D * entry) pairs of its nonzero entries."""
        den = math.lcm(*(e.denominator for row in self.rows for e in row))
        return den, tuple(
            tuple((j, e.numerator * (den // e.denominator)) for j, e in enumerate(row) if e)
            for row in self.rows
        )

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_dim(other)
        return QMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_dim(other)
        return QMatrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __neg__(self) -> "QMatrix":
        return QMatrix(tuple(tuple(-a for a in row) for row in self.rows))

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            self._check_dim(other)
            # row-by-row accumulation over the nonzero numerators of both
            # factors: linear in the nonzeros on the sparse matrices
            # (companion powers) this package lives on
            n = self.n
            den_a, rows_a = self._sparse
            den_b, rows_b = other._sparse
            out = []
            for ra in rows_a:
                acc = [0] * n
                for k, v in ra:
                    for j, w in rows_b[k]:
                        acc[j] += v * w
                out.append(_over(acc, den_a * den_b))
            return QMatrix(tuple(out))
        if isinstance(other, (int, Fraction)):
            return QMatrix(tuple(tuple(a * other for a in row) for row in self.rows))
        return NotImplemented

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self.__mul__(scalar)
        return NotImplemented

    def det(self) -> Fraction:
        """Exact determinant: the product of the pivots of Gaussian
        elimination, each read off one primitive integer row of ``_clear``
        (rows are stored by pivot column, so the sign is the parity of the
        pivot order)."""
        n = self.n
        rows: list[tuple[int, list[int]]] = []
        pivots = []
        result = Fraction(1)
        for r in self.rows:
            nums, d = _numerators(r)
            v, s, t = _clear(nums, rows)
            piv = _insert(rows, v, n)
            if piv is None:
                return Fraction(0)
            pivots.append(piv)
            # v = (s / t) * d * (the eliminated rational row)
            result *= Fraction(t * v[piv], s * d)
        inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
        return -result if inversions % 2 else result

    def inverse(self) -> "QMatrix":
        """Exact inverse: ``_clear`` reduces the integer rows of [A | I] until
        the left half is diagonal; raises on singular input."""
        n = self.n
        rows: list[tuple[int, list[int]]] = []
        for i, r in enumerate(self.rows):
            nums, d = _numerators(r)
            tail = [0] * n
            tail[i] = d
            v = _clear(nums + tail, rows)[0]
            if _insert(rows, v, n) is None:
                raise ValueError("matrix is singular")
        # the pivots are now 0..n-1; clear above each, last first, so every
        # row is reduced by rows whose left half is zero off their pivot
        for k in range(n - 2, -1, -1):
            rows[k] = (k, _clear(rows[k][1], rows[k + 1:])[0])
        return QMatrix(tuple(_over(row[n:], row[k]) for k, row in rows))

    def _check_dim(self, other: "QMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def to_json(self) -> list[list[str]]:
        return [[format_rat(e) for e in row] for row in self.rows]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str | int]]) -> "QMatrix":
        try:
            return cls(tuple(tuple(parse_rat(e) for e in row) for row in data))
        except TypeError as exc:
            raise ValueError(f"matrix must be a list of rows of rationals: {exc}") from exc

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
    return QPoly(tuple(Fraction(1) for _ in range(p)))


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
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        rows[i][d - 1] = -f.coeffs[i]
    for i in range(1, d):
        rows[i][i - 1] = Fraction(1)
    return QMatrix(tuple(tuple(r) for r in rows))


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


class _Echelon:
    """Incremental exact row echelon form on primitive integer rows."""

    def __init__(self) -> None:
        self._rows: list[tuple[int, list[int]]] = []

    def _reduce(self, v: QVector) -> list[int]:
        # the span of v is that of its numerators
        return _clear(list(v.nums), self._rows)[0]

    def contains(self, v: QVector) -> bool:
        return not any(self._reduce(v))

    def add(self, v: QVector) -> bool:
        """Insert a vector; False if it was already in the span."""
        w = self._reduce(v)
        return _insert(self._rows, w, len(w)) is not None

    @property
    def rank(self) -> int:
        return len(self._rows)


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
        nums, d = _numerators([e for row in power.rows for e in row])
        tail = [0] * (n + 1)
        tail[k] = d
        v = _clear(nums + tail, rows)[0]
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

    The blocks certify that precondition as they are built: each must be
    independent of the span so far, and each seed must satisfy
    seed * (I + m + ... + m^(p-1)) = 0. That sum commutes with m, so it then
    kills every block and hence a basis; it is zero, and the irreducible
    1 + x + ... + x^(p-1) is the minimal polynomial. Either failure raises.
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
    not_cyclotomic = "minimal polynomial is not the prime cyclotomic polynomial"

    ech = _Echelon()
    rows: list[tuple] = []

    def add_block(v: QVector) -> None:
        w = total = v
        for _ in range(p - 1):
            if not ech.add(w):
                raise ValueError(not_cyclotomic)
            rows.append(w.entries)
            w = w * m
            total = total + w
        if not total.is_zero:
            raise ValueError(not_cyclotomic)

    add_block(seed)
    while ech.rank < n:
        nxt = next(i for i in range(n) if not ech.contains(QVector.unit(n, i)))
        add_block(QVector.unit(n, nxt))
    return QMatrix(tuple(rows))
