"""The p-th cyclotomic field F = Q(zeta_p) = Q[x] / Phi_p(x), Phi_p = 1 + x
+ ... + x^(p-1) for a prime p, and the semilinear maps of F^t.

An element of F is the ``QVector`` of its p - 1 coordinates on 1, x, ...,
x^(p-2); products are taken mod x^p - 1, then reduced by x^(p-1) =
-(1 + x + ... + x^(p-2)). The arithmetic runs on the integer numerators.
A row of F^t is a sequence of t elements.

This is the field of the mixed-order groups Q^n x| C_p (``mixed_group``).
Let M be a rational n x n matrix with Phi_p(M) = 0. Phi_p is irreducible,
so Q[M] is a copy of F, and:

- A = Q^n is F^t, n = t * (p - 1), through the cyclic basis K =
  ``cyclic_decomposition(M, p, e_1)`` of blocks b_i * M^j, 0 <= j < p - 1:
  v -> v * K^-1 reads v in F^t, block i of its coordinates holding entry
  i (``_field_row``), and row j of K^-1 is e_j in F^t.
- M acts as multiplication by x, so M^k acts as x^k, and Q[M^k] = F for p
  not dividing k: a block under M^k spans the F-line of its seed, and e_j
  is outside the span of earlier blocks iff it is F-independent of their
  seeds.

A witness is a pair (g, X), g prime to p and X a t x t matrix over F: the
sigma_g-semilinear map L(w) = sigma_g(w * X) of F^t, sigma_g: x -> x^g.

- Intertwining: for p dividing neither a nor b, M^a * L == L * M^b iff
  g * a == b mod p (for X != 0). L(x^a * w) = x^(g*a) * L(w), which is
  x^b * L(w) for a w with L(w) != 0 only if x^(g*a) = x^b.
- Row identities: L sends b to c iff b * X == sigma_(g^-1)(c)
  (``carries``). On the t rows of F-bases B and C they say B * X =
  sigma_(g^-1)(C), so X = B^-1 * sigma_(g^-1)(C), whatever built it:
  ``semilinear_map`` solves it so, and a witness that passes them is that
  map.
- det L = (g | p)^t * N(det C) / N(det B) over Q, N the norm of F and
  (g | p) the Legendre symbol: w -> w * X has determinant N(det X) over Q,
  N(det sigma_(g^-1)(C)) = N(det C), and sigma_g has determinant (g | p) on
  F, as it permutes the basis x^j of Q[x] / (x^p - 1) by j -> g*j mod p,
  of sign (g | p) by Zolotarev's lemma (``_zolotarev_sign``), and fixes
  1 + x + ... + x^(p-1), which spans the complement of F there. So det L
  != 0 exactly when det C != 0. det_F of a basis is the last pivot of the
  fraction-free elimination that chose it, times the sign of its pivot
  order (``field_basis``); N(-x) = N(x) but at p = 2, where F = Q, N is
  the identity and the sign counts. The norm of det X itself, a quotient,
  would cost p times the size of its two factors.
- Over Q, in K's coordinates, L' = K * L * K^-1 has row (i, j), the image
  of x^j in entry i, equal to x^(g*j) * sigma_g(row i of X)
  (``semilinear_matrix``); L = K^-1 * L' * K.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def _primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod the prime p."""
    qs = factorize(p - 1)
    return next(r for r in range(1, p) if all(pow(r, (p - 1) // q, p) != 1 for q in qs))


def _zolotarev_sign(g: int, p: int) -> int:
    """The sign of the permutation j -> g*j mod p of 0, ..., p - 1, for g
    prime to the prime p: the Legendre symbol (g | p) by Zolotarev's lemma,
    so g^((p-1)/2) mod p by Euler's criterion; 1 at p = 2, where g = 1."""
    return 1 if pow(g, (p - 1) // 2, p) == 1 else -1


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


def field_basis(seed: Sequence[QVector], units: QMatrix, p: int) -> tuple[list[list[QVector]], QVector]:
    """The F-basis of F^t that ``semilinear_map`` chooses from the nonzero
    seed row, as rows of F^t (seed, then the rows of units = K^-1 that
    ``_choose_basis`` picks), and the determinant over F of its t x t
    matrix. The last pivot of the fraction-free elimination that chose the
    rows is the determinant of that matrix with its columns in pivot order,
    so it is det times the sign of that order."""
    chosen, rows, _, last = _choose_basis(list(seed), units, p - 1, [[]] * len(seed))
    c = next(j for j, e in enumerate(last) if any(e.nums))
    order = [q for q, _ in rows] + [c]
    odd = sum(a > b for i, a in enumerate(order) for b in order[i + 1:]) % 2
    det = _vector([-x for x in last[c].nums], last[c].den) if odd else last[c]
    return chosen, det


def semilinear_det(det_b: QVector, det_c: QVector, p: int, g: int, t: int) -> Fraction:
    """det L = (g | p)^t * N(det C) / N(det B) over Q for the
    sigma_g-semilinear map L of F^t that sends the rows of B to those of C,
    given det B and det C over F (module docstring)."""
    nb, nc = _norm(det_b.nums)[0], _norm(det_c.nums)[0]
    return Fraction(_zolotarev_sign(g, p) ** t * nc * det_b.den ** (p - 1), nb * det_c.den ** (p - 1))


def _galois_row(row: Sequence[QVector], h: int) -> list[QVector]:
    """sigma_h of each entry of a row of F^t."""
    return [_vector(_poly_map(e.nums, h, 0), e.den) for e in row]


def carries(b: Sequence[QVector], c: Sequence[QVector], x: Sequence[Sequence[QVector]], g: int) -> bool:
    """Whether the witness (g, X) sends the row b of F^t to c: b * X ==
    sigma_(g^-1)(c) (module docstring). Zero entries of b and X are
    skipped, so a sparse b costs little."""
    k = len(c[0].nums)
    image = [QVector.zero(k)] * len(c)
    for e, row in zip(b, x):
        if any(e.nums):
            image = [y + _elem_mul(e, z) if any(z.nums) else y for y, z in zip(image, row)]
    return image == _galois_row(c, pow(g, -1, k + 1))


def semilinear_map(b: Sequence[QVector], c: Sequence[QVector], basis_inv: QMatrix, p: int,
                   g: int) -> tuple[tuple[QVector, ...], ...]:
    """X = B^-1 * sigma_(g^-1)(C), so that (g, X) is the sigma_g-semilinear
    map of A = F^t that sends the F-basis B starting at b to the one C
    starting at c, for b and c nonzero rows of F^t, and basis_inv = K^-1 of
    the cyclic basis K that reads Q^n as F^t (see the module docstring).
    Each basis takes, after its seed, each e_j (row j of K^-1) in turn that
    is F-independent of the rows so far.

    Fraction-free Gauss-Jordan on [B | sigma_(g^-1)(C)] over F, run while the
    rows of B are chosen, ends at [D | D * X] with D = +-det B times the
    identity. Every inverse is of a minor: one per pivot of B after its
    first, one per pivot of C after its first but for its last, and one of
    det B, so det B alone at t = 1. No Fraction is made. The caller,
    ``mixed_group.build_automorphism``, checks the seeds.
    """
    k, t = p - 1, len(b)
    right = _choose_basis(list(c), basis_inv, k, [[]] * t)[0]
    tails = [_galois_row(row, pow(g, -1, p)) for row in right]
    _, rows, d, last = _choose_basis(list(b), basis_inv, k, tails)
    # every pivot is now det(B) (up to sign): X is the right half over it
    inv = _elem_inverse(_field_insert(last, rows, d))
    rows.sort(key=_PIVOT)
    return tuple(tuple(_elem_mul(inv, e) for e in row[t:]) for _, row in rows)


def semilinear_matrix(x: Sequence[Sequence[QVector]], p: int, g: int) -> QMatrix:
    """L' = K * L * K^-1 over Q for the witness (g, X): row (i, j), the
    image of x^j in entry i, is x^(g*j) * sigma_g(row i of X), over one
    denominator (module docstring)."""
    den = math.lcm(*(e.den for row in x for e in row))
    return _matrix([[y * (den // e.den) for e in row for y in _poly_map(e.nums, g, g * j)]
                    for row in x for j in range(p - 1)], den)
