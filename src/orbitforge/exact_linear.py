"""Exact rational linear algebra: vectors, matrices, polynomials.

Everything here is built on ``fractions.Fraction`` (arbitrary-precision,
always reduced, positive denominator), so every result is exact; no
floating point is used anywhere in the package.

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
from typing import Iterable, Sequence

from .arith import is_prime


def format_rat(x: Fraction) -> str:
    """Canonical "num/den" form, e.g. ``-1/2`` or ``3/1``."""
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str | int) -> Fraction:
    """Accepts "num/den", a bare integer string, or an int."""
    return Fraction(str(s))


@dataclass(frozen=True)
class QVector:
    """Immutable rational row vector."""

    entries: tuple[Fraction, ...]

    @classmethod
    def of(cls, *entries) -> "QVector":
        return cls(tuple(Fraction(e) for e in entries))

    @classmethod
    def zero(cls, n: int) -> "QVector":
        return cls(tuple(Fraction(0) for _ in range(n)))

    @classmethod
    def unit(cls, n: int, i: int) -> "QVector":
        return cls(tuple(Fraction(1 if j == i else 0) for j in range(n)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __add__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "QVector":
        return QVector(tuple(-a for a in self.entries))

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.dim != other.n:
                raise ValueError(f"dimension mismatch: vector {self.dim}, matrix {other.n}")
            acc = [Fraction(0)] * other.n
            for i, v in enumerate(self.entries):
                if not v:
                    continue
                row = other.rows[i]
                if v == 1:
                    for j, w in enumerate(row):
                        if w:
                            acc[j] += w
                else:
                    for j, w in enumerate(row):
                        if w:
                            acc[j] += v * w
            return QVector(tuple(acc))
        if isinstance(other, (int, Fraction)):
            return QVector(tuple(a * other for a in self.entries))
        return NotImplemented

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return QVector(tuple(scalar * a for a in self.entries))
        return NotImplemented

    def _check_dim(self, other: "QVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def to_json(self) -> list[str]:
        return [format_rat(e) for e in self.entries]

    @classmethod
    def from_json(cls, data: Sequence[str | int]) -> "QVector":
        try:
            return cls(tuple(parse_rat(e) for e in data))
        except TypeError as exc:
            raise ValueError(f"vector must be a list of rationals: {exc}") from exc

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
    def zeros(cls, n: int) -> "QMatrix":
        return cls(tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n)))

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

    def row(self, i: int) -> QVector:
        return QVector(self.rows[i])

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
            # row-by-row accumulation, skipping zero entries in both factors;
            # same exact result as the textbook triple loop but fast on the
            # sparse matrices (companion powers) this package lives on
            n = self.n
            orows = other.rows
            out = []
            for ra in self.rows:
                acc = [Fraction(0)] * n
                for k, v in enumerate(ra):
                    if not v:
                        continue
                    rk = orows[k]
                    if v == 1:
                        for j, w in enumerate(rk):
                            if w:
                                acc[j] += w
                    else:
                        for j, w in enumerate(rk):
                            if w:
                                acc[j] += v * w
                out.append(tuple(acc))
            return QMatrix(tuple(out))
        if isinstance(other, (int, Fraction)):
            return QMatrix(tuple(tuple(a * other for a in row) for row in self.rows))
        return NotImplemented

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self.__mul__(scalar)
        return NotImplemented

    def __pow__(self, k: int) -> "QMatrix":
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = QMatrix.identity(self.n)
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def det(self) -> Fraction:
        """Exact determinant: denominators are cleared and the integer matrix
        is reduced by fraction-free Bareiss elimination (no gcd churn)."""
        n = self.n
        if n == 0:
            return Fraction(1)
        den = 1
        for row in self.rows:
            for e in row:
                den = den * e.denominator // math.gcd(den, e.denominator)
        a = [[int(e * den) for e in row] for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
                if piv is None:
                    return Fraction(0)
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            akk = a[k][k]
            for i in range(k + 1, n):
                aik = a[i][k]
                row_i = a[i]
                row_k = a[k]
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
                row_i[k] = 0
            prev = akk
        return Fraction(sign * a[n - 1][n - 1], den**n)

    def inverse(self) -> "QMatrix":
        """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
        n = self.n
        a = [
            list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            pval = a[col][col]
            a[col] = [x / pval for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return QMatrix(tuple(tuple(row[n:]) for row in a))

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

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if self.is_zero:
            return "QPoly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "QPoly(" + " + ".join(terms) + ")"


def poly_eval(f: QPoly, m: QMatrix) -> QMatrix:
    """Evaluate f at the matrix m (Horner), exactly."""
    acc = QMatrix.zeros(m.n)
    ident = QMatrix.identity(m.n)
    for c in reversed(f.coeffs):
        acc = acc * m + ident * c
    return acc


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


class _Echelon:
    """Incremental exact row echelon; rows kept sorted by pivot column."""

    def __init__(self) -> None:
        self._rows: list[tuple[int, list[Fraction]]] = []

    def _reduce(self, v: list[Fraction]) -> list[Fraction]:
        # rows are sorted by pivot and have zeros before their pivot, so one
        # forward pass fully clears every pivot position
        for piv, row in self._rows:
            f = v[piv]
            if f:
                for i in range(piv, len(v)):
                    if row[i]:
                        v[i] -= f * row[i]
        return v

    def contains(self, entries: Sequence[Fraction]) -> bool:
        return not any(self._reduce(list(entries)))

    def add(self, entries: Sequence[Fraction]) -> bool:
        """Insert a vector; False if it was already in the span."""
        v = self._reduce(list(entries))
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        pval = v[piv]
        insort(self._rows, (piv, [x / pval for x in v]), key=lambda r: r[0])
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)


def minimal_polynomial(m: QMatrix) -> QPoly:
    """Monic minimal polynomial, via exact elimination on the Krylov flats I, m, m^2, ...

    The first power that is linearly dependent on the earlier ones yields the
    (unique) monic annihilating polynomial of least degree.
    """
    n = m.n
    rows: list[tuple[int, list[Fraction], list[Fraction]]] = []
    power = QMatrix.identity(n)
    for k in range(n + 1):
        vec = [e for row in power.rows for e in row]
        combo = [Fraction(0)] * k + [Fraction(1)]
        for piv, rvec, rcombo in rows:
            f = vec[piv]
            if f:
                for i in range(piv, len(vec)):
                    if rvec[i]:
                        vec[i] -= f * rvec[i]
                for i, c in enumerate(rcombo):
                    if c:
                        combo[i] -= f * c
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return QPoly(tuple(combo))
        pval = vec[piv]
        entry = (piv, [x / pval for x in vec], [c / pval for c in combo])
        insort(rows, entry, key=lambda r: r[0])
        power = power * m
    raise AssertionError("powers of an n x n matrix must be dependent by degree n")


def cyclic_decomposition(m: QMatrix, p: int, seed: QVector) -> list[QVector]:
    """Seeds b_1 = seed, b_2, ..., b_t whose orbit blocks {b_i * m^k, 0 <= k <= p-2}
    together form a basis of the whole space.

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
    seeds: list[QVector] = []

    def add_block(v: QVector) -> None:
        w = total = v
        for _ in range(p - 1):
            if not ech.add(w.entries):
                raise ValueError(not_cyclotomic)
            w = w * m
            total = total + w
        if not total.is_zero:
            raise ValueError(not_cyclotomic)

    add_block(seed)
    seeds.append(seed)
    while ech.rank < n:
        nxt = next(i for i in range(n) if not ech.contains(QVector.unit(n, i).entries))
        e = QVector.unit(n, nxt)
        add_block(e)
        seeds.append(e)
    return seeds
