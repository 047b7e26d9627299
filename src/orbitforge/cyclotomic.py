"""The p-th cyclotomic field F = Q(zeta_p) = Q[x] / Phi_p(x), Phi_p = 1 + x
+ ... + x^(p-1) for a prime p, and the semilinear maps of F^t.

An element of F is the ``QVector`` of its p - 1 coordinates on 1, x, ...,
x^(p-2); products are taken mod x^p - 1, then reduced by x^(p-1) =
-(1 + x + ... + x^(p-2)). The arithmetic runs on the integer numerators.

This is the field of the mixed-order groups Q^n x| C_p (``mixed_group``).
Let M be a rational n x n matrix with Phi_p(M) = 0. Phi_p is irreducible,
so Q[M] is a copy of F, and:

- A = Q^n is F^t, n = t * (p - 1), through the cyclic basis K =
  ``cyclic_decomposition(M, p, e_1)`` of blocks b_i * M^j, 0 <= j < p - 1:
  v -> v * K^-1 reads v in F^t, block i of its coordinates holding entry
  i, and row j of K^-1 is e_j in F^t.
- M acts as multiplication by x, so M^k acts as x^k, and Q[M^k] = F for p
  not dividing k: a block under M^k spans the F-line of its seed, and e_j
  is outside the span of earlier blocks iff it is F-independent of their
  seeds.
- A witness L is sigma_g-semilinear, sigma_g: x -> x^g. M^a * L == L * M^b
  (p dividing neither a nor b) says L(x^a * u) = x^b * L(u), so g = b / a
  mod p, and L is u -> sigma_g(u * B^-1) * C for the t x t matrices B and
  C over F of an F-basis and its image (``semilinear_map``).
- det L = +-N(det C) / N(det B) != 0, N the norm of F: u -> u * X over F
  has determinant N(det X) over Q, and sigma_g, of finite order, has
  determinant +-1.
- K * M = C * K for C the block companion of Phi_p, as row (i, j) of K is
  b_i * M^j and b_i * Phi_p(M) = 0. K is invertible, so for L' = K * L *
  K^-1, P * L == L * R (P = M^a, R = M^b) holds iff C^a * L' == L' * C^b,
  and b * L == c iff (b * K^-1) * L' == c * K^-1: O(n^2) checks
  (``_first_mismatch``), with no product over Q and no power of M.
"""

from __future__ import annotations

import math
from typing import Sequence

from .arith import factorize
from .exact_linear import _PIVOT, QMatrix, QVector, _matrix, _vector


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


def _first_mismatch(nums: Sequence[Sequence[int]], p: int, a: int, b: int) -> int | None:
    """The first row at which C^a * L' and L' * C^b differ (module
    docstring), for L' of integer rows nums; None if none does. Row (i, j)
    of C^a * L' is row (i, j + a mod p) of L', row (i, p - 1) being minus
    the sum of block i; row (i, j) of L' * C^b has each block times x^b."""
    k = p - 1
    for i in range(0, len(nums), k):
        block = [list(row) for row in nums[i:i + k]]
        block.append([-sum(col) for col in zip(*block)])
        for j, row in enumerate(block[:k]):
            if block[(j + a) % p] != [y for s in range(0, len(row), k)
                                      for y in _poly_map(row[s:s + k], 1, b)]:
                return i + j
    return None


def _primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod the prime p."""
    qs = factorize(p - 1)
    return next(r for r in range(1, p) if all(pow(r, (p - 1) // q, p) != 1 for q in qs))


def _norm(a: Sequence[int]) -> tuple[int, list[int]]:
    """(N(a), c) for a nonzero integer element a and the product c of its
    p - 2 Galois conjugates other than a, so a * c = N(a) != 0; N(a) > 0 but
    at p = 2, where F = Q and c = 1. The sigma_h are the powers of sigma_r,
    r a primitive root, so the product of sigma_(r^i)(a) for i < k doubles
    to i < 2k by one product with its image under sigma_(r^k): O(log p)
    products in all."""
    p = len(a) + 1
    r = _primitive_root(p)
    # q = prod of sigma_(r^i)(a) for 0 <= i < k, from k = 0 to p - 2
    q, k = [1] + [0] * (p - 2), 0
    for bit in bin(p - 2)[2:]:
        q = _poly_mul(q, _poly_map(q, pow(r, k, p), 0))
        k *= 2
        if bit == "1":
            q = _poly_mul(q, _poly_map(a, pow(r, k, p), 0))
            k += 1
    c = _poly_map(q, r, 0)
    # a * c is the constant N. Mod x^p - 1 every coefficient but that of
    # x^0 equals the one of x^(p-1), so N is the difference of the two:
    # the sums over i + j = p (or 0) and over i + j = p - 1
    const = a[0] * c[0] + sum(x * y for x, y in zip(a[2:], reversed(c[2:])))
    top = sum(x * y for x, y in zip(a[1:], reversed(c[1:])))
    return const - top, c


def _elem_inverse(a: QVector) -> QVector:
    """(nums / den)^-1 = den * c / N(nums) for (N(nums), c) = ``_norm(nums)``;
    a negative norm (p = 2 only) moves its sign to the numerators."""
    n, c = _norm(a.nums)
    d = a.den if n > 0 else -a.den
    return _vector([d * x for x in c], abs(n))


def _elem_mul(a: QVector, b: QVector) -> QVector:
    return _vector(_poly_mul(a.nums, b.nums), a.den * b.den)


def _field_row(nums: Sequence[int], den: int, k: int) -> list[QVector]:
    """The vector nums / den of Q^(t*k) as a row of F^t, k = p - 1 entries
    per block."""
    return [_vector(nums[i:i + k], den) for i in range(0, len(nums), k)]


def _field_residual(v: list[QVector], rows: Sequence[tuple[int, list[QVector]]], d: QVector,
                    cols: range) -> list[QVector]:
    """The entries ``cols`` of d * v minus its components along rows, (pivot,
    row) pairs of a fraction-free reduced echelon form: every row is d at its
    pivot and 0 at the other pivots, so the component along it is v[pivot].
    Zero entries are skipped, so a sparse v or echelon costs little."""
    pivots = {c for c, _ in rows}
    along = [(v[c], row) for c, row in rows if any(v[c].nums)]
    zero = QVector.zero(len(d.nums))
    out = []
    for j in cols:
        if j in pivots:
            out.append(zero)
            continue
        e = _elem_mul(d, v[j]) if any(v[j].nums) else v[j]
        for f, row in along:
            if any(row[j].nums):
                e = e - _elem_mul(f, row[j])
        out.append(e)
    return out


def _field_insert(w: list[QVector], rows: list[tuple[int, list[QVector]]], d: QVector) -> QVector:
    """Add a nonzero ``_field_residual`` w to the echelon rows of common
    pivot d, in fraction-free Gauss-Jordan style: the first nonzero entry e
    of w marks its pivot, and every other row r becomes
    (e * r - r[pivot] * w) / d, so e is the new common pivot, returned. As in
    Bareiss (1968), every entry stays a minor of the rows inserted, so only
    minors are ever inverted: the inverse of a quotient of two elements
    would cost p times the size of the quotient, itself p times theirs."""
    c = next(j for j, x in enumerate(w) if any(x.nums))
    e = w[c]
    if rows:
        inv = _elem_inverse(d)
        for i, (q, row) in enumerate(rows):
            f = row[c]
            row = [_elem_mul(e, x) if any(x.nums) else x for x in row]
            if any(f.nums):
                row = [x - _elem_mul(f, y) if any(y.nums) else x for x, y in zip(row, w)]
            rows[i] = (q, [_elem_mul(inv, x) if any(x.nums) else x for x in row])
    rows.append((c, w))
    return e


def _choose_basis(first: list[QVector], units: QMatrix, k: int, tails: Sequence[list[QVector]]):
    """The F-basis of F^t made of first and then each row of ``units`` in
    turn that is F-independent of the rows chosen so far; the chosen row i
    is extended by tails[i], which takes no part in the choice. Returns the
    chosen rows, unextended, the echelon form of all but the last extended
    row with its common pivot, and the last one's residual against it."""
    t = len(first)
    chosen, rows, d = [first], [], QVector.unit(k, 0)
    last = first + tails[0]
    for u in units.nums:
        if len(chosen) == t:
            break
        if last is not None:
            d = _field_insert(last, rows, d)
            last = None
        v = _field_row(u, units.den, k)
        left = _field_residual(v, rows, d, range(t))
        if any(any(e.nums) for e in left):
            tail = tails[len(chosen)]
            last = left + _field_residual(v + tail, rows, d, range(t, t + len(tail)))
            chosen.append(v)
    return chosen, rows, d, last


def semilinear_map(b: QVector, c: QVector, basis_inv: QMatrix, p: int, g: int) -> QMatrix:
    """L' = K * L * K^-1, the matrix in the spec's cyclic coordinates of
    the sigma_g-semilinear map L of A = F^t that sends the F-basis starting
    at the nonzero b of Q^n to the one starting at c, for basis_inv = K^-1
    of the cyclic basis K that reads Q^n as F^t (see the module docstring).
    Each basis takes, after its seed, each e_j (row j of K^-1) in turn that
    is F-independent of the rows so far. For B and C the t x t matrices of
    the bases over F, row (i, j) of L', the image of x^j in entry i, is
    x^(g*j) * sigma_g(row i of B^-1) * C; L over Q is K^-1 * L' * K.

    Fraction-free Gauss-Jordan on [B | sigma_(g^-1)(C)] over F, run while the
    rows of B are chosen, ends at [D | D * X] with D = +-det B times the
    identity and X = B^-1 * sigma_(g^-1)(C); row i of sigma_g(X) is
    sigma_g(row i of B^-1) * C. Every inverse is of a minor: one per pivot
    of B after its first, one per pivot of C after its first but for its
    last, and one of det B, so det B alone at t = 1. No Fraction is made.
    The caller, ``mixed_group.build_automorphism``, checks the seeds.
    """
    k, t, g_inv = p - 1, b.dim // (p - 1), pow(g, -1, p)
    b, c = b * basis_inv, c * basis_inv
    right = _choose_basis(_field_row(c.nums, c.den, k), basis_inv, k, [[]] * t)[0]
    tails = [[_vector(_poly_map(e.nums, g_inv, 0), e.den) for e in row] for row in right]
    _, rows, d, last = _choose_basis(_field_row(b.nums, b.den, k), basis_inv, k, tails)
    # every pivot is now det(B) (up to sign): X is the right half over it
    inv = _elem_inverse(_field_insert(last, rows, d))
    rows.sort(key=_PIVOT)
    # row (i, j) of L' is x^(g*j) * sigma_g(row i of X), over one denominator
    xs = [[_elem_mul(inv, x) for x in row[t:]] for _, row in rows]
    den = math.lcm(*(e.den for row in xs for e in row))
    return _matrix([[y * (den // e.den) for e in row for y in _poly_map(e.nums, g, g * j)]
                    for row in xs for j in range(k)], den)
