"""The mixed-order groups G = Q^n x| C_p, handled exactly and symbolically.

An instance is determined by a prime p and an invertible rational matrix M
of multiplicative order p acting fixed-point-freely on Q^n, which forces
the minimal polynomial of M to be 1 + x + ... + x^(p-1) and n to be a
multiple of p - 1. Elements are kept in the normal form h^k * a with
0 <= k < p and a in Q^n, where h is the complement generator and A = Q^n
is written additively; the group law is

    (h^k a)(h^l b) = h^(k+l) (a * M^l + b).

The one fact established about a spec is Phi_p(M) = I + M + ... + M^(p-1)
= 0, proved when a ``MixedGroupSpec`` is built by the zero seed sums of its
one cyclic basis K; every check that it implies is derived from it, not
recomputed.

These groups are infinite, so the three-orbit certificate cannot be an
enumeration: it combines an exact separating invariant (element order is
1 on the identity, infinite on the rest of A, and exactly p outside A)
with constructed automorphism witnesses for transitivity inside each class.
``verify_automorphism`` certifies a witness (L, alpha, beta) by three exact
identities: det L != 0, P * L == L * R, and beta outside A.

Since Phi_p(M) = 0, A = F^t over the cyclotomic field F = Q(zeta_p), and
``build_automorphism`` solves each witness there as a semilinear map,
invertible by construction (the facts are stated in ``cyclotomic``). So
``omega_certificate`` checks only the other two identities. A witness
holds L' = K * L * K^-1 and is checked in K's coordinates in O(n^2) (see
``cyclotomic``); only the printed L and the group law work over Q.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, repeat

from .arith import is_prime
from .cyclotomic import _first_mismatch, semilinear_map
from .exact_linear import QMatrix, QVector, _matrix, cyclic_decomposition

#: Bound on numerators and denominators drawn for randomized witnesses;
#: keeps exact-arithmetic growth modest while exercising non-integer points.
SAMPLE_BOUND = 100


#: Cap on the dimension n = t * (p - 1) of a spec. The worst spec under it
#: is p = 127, t = 1: ``build`` (K and K^-1) takes 25 ms and peaks at
#: 1.0 MiB (tracemalloc); the p dense n x n powers of M, which only the group
#: law builds, 0.15 s and 16 MiB, and at p = 257, t = 1 (n = 256), 1.4 s and
#: 132 MiB, on a 2 vCPU host.
MAX_DIM = 128


class SpecValidationError(ValueError):
    """The supplied parameters or action matrix do not define Q^n x| C_p
    with a fixed-point-free action."""


def _check_params(p: int, t: int) -> None:
    """Reject n = t * (p - 1) above ``MAX_DIM`` before the trial-division
    primality test of p, and before any matrix is built; then p and t."""
    if p - 1 > MAX_DIM or t * (p - 1) > MAX_DIM:
        raise SpecValidationError(f"n = t*(p-1) must be at most {MAX_DIM}, got p={p}, t={t}")
    if not is_prime(p):
        raise SpecValidationError(f"p must be prime, got {p}")
    if t < 1:
        raise SpecValidationError("t must be positive")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class Certificate:
    """A list of named exact checks with an overall pass flag and metadata."""

    kind: str
    meta: dict
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "meta": self.meta,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


@dataclass(frozen=True)
class MixedGroupSpec:
    """A validated instance of Q^n x| C_p.

    Validity is the single identity Phi_p(M) = I + M + ... + M^(p-1) = 0.
    Phi_p is irreducible, so it is then the minimal polynomial of M; hence
    M^p = I, M != I, and no M^k with 0 < k < p fixes a nonzero vector
    (x^k - 1 and Phi_p are coprime).

    ``krylov`` = (K, K^-1) for K = ``cyclic_decomposition(M, p, e_1)``
    proves it: every seed of K has a zero sum seed * Phi_p(M), and Phi_p(M)
    commutes with M, so it kills the basis K. K also reads A as F^t, F the
    p-th cyclotomic field (see ``cyclotomic``). Only a rejected M is
    powered.

    ``powers[k]`` is M^k for 0 <= k < p, built at its first use by the
    group law (no witness check uses one) and kept; each power computes its
    sparse integer rows once, at its first product.
    """

    p: int
    t: int
    action: QMatrix
    krylov: tuple[QMatrix, QMatrix] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, t, m = self.p, self.t, self.action
        _check_params(p, t)
        n = t * (p - 1)
        if m.n != n:
            raise SpecValidationError(f"action must be {n} x {n} for p={p}, t={t}, got {m.n}")
        ident = QMatrix.identity(n)
        if m == ident:
            raise SpecValidationError("action matrix must not be the identity")
        try:
            basis = cyclic_decomposition(m, p, QVector.unit(n, 0))
        except ValueError:  # a seed sum is not zero, so Phi_p(M) != 0: name why
            if math.prod([m] * p, start=ident) != ident:
                raise SpecValidationError(f"action matrix does not have order {p}") from None
            raise SpecValidationError(
                "I + M + ... + M^(p-1) is not zero: some power of the action fixes a nonzero vector"
            ) from None
        object.__setattr__(self, "krylov", (basis, basis.inverse()))

    @property
    def n(self) -> int:
        return self.t * (self.p - 1)

    @cached_property
    def powers(self) -> tuple[QMatrix, ...]:
        out = [QMatrix.identity(self.n)]
        for _ in range(self.p - 1):
            out.append(out[-1] * self.action)
        return tuple(out)

    def to_json(self) -> dict:
        return {"p": self.p, "t": self.t, "n": self.n, "action": self.action.to_json()}


def build(p: int, t: int | None = None, m: QMatrix | None = None) -> MixedGroupSpec:
    """Build a validated spec; with m omitted, the action is the block
    diagonal of t companion matrices of 1 + x + ... + x^(p-1), written from
    integers: row r of a block has a 1 at column r - 1, unless r is the
    block's first row, and a -1 in the block's last column. The size
    n = t * (p - 1) is checked against ``MAX_DIM`` before anything else."""
    if m is None:
        if t is None:
            raise SpecValidationError("either t or an explicit action matrix is required")
        _check_params(p, t)
        n, d = t * (p - 1), p - 1
        rows = [[0] * n for _ in range(n)]
        for r, row in enumerate(rows):
            if r % d:
                row[r - 1] = 1
            row[r - r % d + d - 1] = -1
        m = _matrix(rows, 1)
    if t is None:
        _check_params(p, 1)
        if m.n == 0 or m.n % (p - 1) != 0:
            raise SpecValidationError(f"matrix size {m.n} is not a positive multiple of {p - 1}")
        t = m.n // (p - 1)
    return MixedGroupSpec(p, t, m)


@dataclass(frozen=True)
class MixedElement:
    """Normal form h^k * a. The exponent is reduced mod p by every operation."""

    k: int
    a: QVector

    def __repr__(self) -> str:
        return f"h^{self.k}*({', '.join(str(e) for e in self.a.entries)})"


def identity_element(spec: MixedGroupSpec) -> MixedElement:
    return MixedElement(0, QVector.zero(spec.n))


def _check_dim(g: MixedElement, spec: MixedGroupSpec) -> None:
    if g.a.dim != spec.n:
        raise ValueError(f"element vector has dimension {g.a.dim}, spec needs {spec.n}")


def _apply_power(a: QVector, spec: MixedGroupSpec, k: int) -> QVector:
    return a * spec.powers[k] if k else a


def multiply(g1: MixedElement, g2: MixedElement, spec: MixedGroupSpec) -> MixedElement:
    _check_dim(g1, spec)
    _check_dim(g2, spec)
    return MixedElement(
        (g1.k + g2.k) % spec.p, _apply_power(g1.a, spec, g2.k % spec.p) + g2.a
    )


def power(g: MixedElement, m: int, spec: MixedGroupSpec) -> MixedElement:
    """g^m for m >= 0, by m products."""
    if m < 0:
        raise ValueError(f"exponent must be nonnegative, got {m}")
    acc = identity_element(spec)
    for _ in range(m):
        acc = multiply(acc, g, spec)
    return acc


@dataclass(frozen=True)
class MixedAutomorphism:
    """An automorphism of the group of ``spec``, determined by an invertible
    restriction L to A and the image of the anchor element alpha; every g
    factors as alpha^m * a and maps to image_of_alpha^m * (a * L).
    ``field_map`` is L' = K * L * K^-1, L in the coordinates of the spec's
    cyclic basis K (see ``cyclotomic``)."""

    field_map: QMatrix
    alpha: MixedElement
    image_of_alpha: MixedElement
    spec: MixedGroupSpec = field(repr=False, compare=False)

    @cached_property
    def linear(self) -> QMatrix:
        """L = K^-1 * L' * K over Q, built at its first use."""
        basis, basis_inv = self.spec.krylov
        return basis_inv * (self.field_map * basis)

    @cached_property
    def anchor_powers(self) -> tuple[tuple[MixedElement, ...], ...]:
        """(alpha^m, image_of_alpha^m for 0 <= m < p), by p - 1 products
        each, built at their first use."""
        spec = self.spec
        return tuple(tuple(accumulate(repeat(g, spec.p - 1), lambda x, y: multiply(x, y, spec),
                                      initial=identity_element(spec))) for g in (self.alpha, self.image_of_alpha))


def apply_automorphism(phi: MixedAutomorphism, g: MixedElement) -> MixedElement:
    spec = phi.spec
    _check_dim(g, spec)
    p = spec.p
    alpha_powers, image_powers = phi.anchor_powers
    m = (g.k * pow(phi.alpha.k % p, -1, p)) % p
    u = g.a - alpha_powers[m].a
    return multiply(image_powers[m], MixedElement(0, u * phi.linear), spec)


def random_vector(rng: random.Random, n: int, nonzero: bool = False) -> QVector:
    """n entries x / d, each drawn as x in [-SAMPLE_BOUND, SAMPLE_BOUND] and
    then d in [1, SAMPLE_BOUND], over the lcm of the d."""
    while True:
        pairs = [(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND), rng.randint(1, SAMPLE_BOUND))
                 for _ in range(n)]
        den = math.lcm(*(d for _, d in pairs))
        v = QVector.from_ints([x * (den // d) for x, d in pairs], den)
        if not nonzero or not v.is_zero:
            return v


def random_element(rng: random.Random, spec: MixedGroupSpec, outside: bool = False) -> MixedElement:
    k = rng.randrange(1, spec.p) if outside else rng.randrange(spec.p)
    return MixedElement(k, random_vector(rng, spec.n))


def _product_checks(phi: MixedAutomorphism) -> list[CheckResult]:
    """The exact checks of ``verify_automorphism`` other than det L != 0:
    P * L == L * R, as C^a * L' == L' * C^b in K's coordinates (see
    ``cyclotomic``; a failure names the first differing row of L'), and
    beta outside A."""
    p = phi.spec.p
    a, b = phi.alpha.k % p, phi.image_of_alpha.k % p
    if a == 0:
        raise ValueError("anchor element must lie outside A")
    bad = _first_mismatch(phi.field_map.nums, p, a, b) if b else -1
    detail = ("image of anchor lies inside A" if not b else "P*L == L*R on the standard basis"
              if bad is None else f"fails at row {bad} of the cyclic basis")
    return [CheckResult("intertwining", bad is None, detail),
            CheckResult("image_order", b != 0, f"phi(alpha)^{p} == identity: {b != 0}")]


def verify_automorphism(phi: MixedAutomorphism, samples: int, seed: int = 0) -> Certificate:
    """Exact certificate that phi is an automorphism of the group of its spec.

    Write beta = phi(alpha), and P and R for conjugation by alpha and by
    beta on A. Every g is alpha^m * u in exactly one way (0 <= m < p, u in
    A), and phi sends it to beta^m * (u * L). As (alpha^m u)(alpha^l v) =
    alpha^(m+l) (u * P^l + v), that map preserves products exactly when
    P * L == L * R (``intertwining``, one matrix identity; a failure names
    the first differing row) and beta^p == 1. It is bijective when det L != 0
    (``linear_invertible``, read as det L', of the similar L') and beta lies
    outside A. Every beta = h^k b outside A has order p, because
    (h^k b)^p = h^0 (b * Phi_p(M^k)) and Phi_p(M^k) = Phi_p(M) = 0 for the
    spec, so ``image_order`` checks only that beta lies outside A. These
    three decide the certificate; ``homomorphism_samples`` tests the product
    law on ``samples`` random pairs through ``apply_automorphism``, a
    redundant spot check that stops at the first failing pair.
    """
    if samples < 0:
        raise ValueError(f"sample count must be nonnegative, got {samples}")
    spec = phi.spec
    product_checks = _product_checks(phi)
    det = phi.field_map.det()
    checks = [CheckResult("linear_invertible", det != 0, f"det(L) = {det}"), *product_checks]

    rng, failure = random.Random(seed), None
    for _ in range(samples):
        g1, g2 = random_element(rng, spec), random_element(rng, spec)
        if apply_automorphism(phi, multiply(g1, g2, spec)) != multiply(
                apply_automorphism(phi, g1), apply_automorphism(phi, g2), spec):
            failure = f"phi(g1*g2) != phi(g1)*phi(g2) for g1={g1!r}, g2={g2!r}"
            break
    checks.append(CheckResult("homomorphism_samples", failure is None,
                              failure or f"{samples}/{samples} sampled pairs multiplicative"))

    return Certificate(
        kind="mixed-automorphism",
        meta={"spec": spec.to_json(), "samples": samples, "seed": seed,
              "linear": phi.linear.to_json()},
        checks=checks,
    )


def build_automorphism(
    b: QVector,
    c: QVector,
    alpha: MixedElement,
    beta: MixedElement,
    spec: MixedGroupSpec,
) -> MixedAutomorphism:
    """The automorphism sending the orbit basis over alpha seeded at b to the
    orbit basis over beta seeded at c, and alpha itself to beta.

    The orbit basis over alpha is that of ``cyclic_decomposition(P, p, b)``
    for P = M^(k_alpha): the blocks b_i * P^j of b_1 = b and of greedy seeds
    b_2, ..., b_t; likewise over beta with R = M^(k_beta) and c. L sends each
    b_i * P^j to c_i * R^j: it is the sigma_g-semilinear map of A = F^t,
    g = k_beta / k_alpha mod p, between the F-bases of the seeds, and
    det L != 0 (see ``cyclotomic``). ``semilinear_map`` solves it as L', in
    the coordinates of the spec's cyclic basis, with no elimination over Q.

    Seeds that are zero or of the wrong length, and an alpha or beta inside
    A, are refused before any of this. No power of M is built; the map is
    returned unverified, and its certificate is ``verify_automorphism``.
    """
    if b.is_zero or c.is_zero:
        raise ValueError("seed vectors must be nonzero")
    p = spec.p
    if alpha.k % p == 0 or beta.k % p == 0:
        raise ValueError("alpha and beta must lie outside A")
    _check_dim(alpha, spec)
    _check_dim(beta, spec)
    if b.dim != spec.n or c.dim != spec.n:
        raise ValueError(f"seed dimensions {b.dim}, {c.dim} do not match the spec's {spec.n}")
    g = beta.k * pow(alpha.k, -1, p) % p
    return MixedAutomorphism(semilinear_map(b, c, spec.krylov[1], p, g), alpha, beta, spec)


def spec_checks(spec: MixedGroupSpec) -> Certificate:
    """The defining invariants of a spec as an explicit certificate.

    A ``MixedGroupSpec`` exists only when Phi_p(M) = 0, so each check
    restates that identity, passes by type, and has details that depend on
    p and t alone:

    - Phi_p is irreducible, so it is the minimal polynomial of M.
    - M^p = I follows from x^p - 1 = (x - 1) * Phi_p, and M != I from
      Phi_p(1) = p.
    - det(M^k - I) = ((-1)^(p-1) * p)^t for every 0 < k < p: the
      eigenvalues of M^k are the primitive p-th roots of unity, each t
      times, and prod_j (zeta^j - 1) = (-1)^(p-1) * Phi_p(1).
    - For k != 0, j -> k*j mod p permutes 0..p-1, so the telescope
      I + M^k + ... + M^((p-1)k) is Phi_p(M) itself.
    """
    p = spec.p
    det = ((-1) ** (p - 1) * p) ** spec.t
    checks = [
        CheckResult("order_p", True, f"M^{p} == I and M != I"),
        CheckResult("minimal_polynomial", True, "minimal polynomial is 1 + x + ... + x^(p-1)"),
        CheckResult("fixed_point_free", True,
                    f"det(M^k - I) for k=1..{p - 1}: {[str(det)] * (p - 1)}"),
        CheckResult("telescoping", True, f"I + M^k + ... + M^((p-1)k) == 0 for k=1..{p - 1}"),
    ]
    return Certificate(kind="mixed-spec", meta=spec.to_json(), checks=checks)


def omega_certificate(
    spec: MixedGroupSpec, pairs_per_class: int, seed: int = 0
) -> Certificate:
    """Certificate that the group has exactly three automorphism orbits.

    Separation is exact and forced: element orders 1, infinity, and p
    distinguish {identity}, the rest of A, and everything outside A, and no
    automorphism can merge order classes; the order p outside A is the
    spec's identity Phi_p(M) = 0 (see ``verify_automorphism``). Transitivity
    is constructive: for sampled pairs inside each nontrivial class an
    explicit automorphism carrying one to the other is built and verified.

    A witness is verified by P * L == L * R, beta outside A and b * L == c,
    with no determinant: ``build_automorphism`` solves L as a semilinear map
    between two F-bases of A = F^t, so det L != 0 (see ``cyclotomic``). The
    cyclic basis K that proved the spec, and its inverse, serve every
    witness: this makes no elimination over Q, and the identities are
    checked on L' in O(n^2), with no matrix product and no power of M.
    """
    if pairs_per_class < 1:
        raise ValueError("pairs_per_class must be positive")
    rng = random.Random(seed)
    p, n = spec.p, spec.n
    checks = [CheckResult("order_separation", True, f"orders 1 / infinite / {p} split the classes;"
                          f" telescoping sums vanish for k=1..{p - 1}")]

    # each draw is (b, c, alpha, beta) for build_automorphism, drawn in this
    # order; the witness carries h^0 b to h^0 c and alpha to beta
    base = MixedElement(1, QVector.zero(n))
    e1 = QVector.unit(n, 0)
    basis_inv = spec.krylov[1]

    def inside():
        b = random_vector(rng, n, nonzero=True)
        return b, random_vector(rng, n, nonzero=True), base, base

    def outside():
        g1 = random_element(rng, spec, outside=True)
        return e1, e1, g1, random_element(rng, spec, outside=True)

    for name, draw in (("transitivity_inside_A", inside), ("transitivity_outside_A", outside)):
        verified = 0
        detail = ""
        for _ in range(pairs_per_class):
            b, c, alpha, beta = draw()
            phi = build_automorphism(b, c, alpha, beta, spec)
            failed = ", ".join(ch.name for ch in _product_checks(phi) if not ch.passed)
            if failed:
                detail = f"witness construction failed: automorphism verification failed: {failed}"
                break
            if b * basis_inv * phi.field_map != c * basis_inv:
                detail = f"constructed map does not carry {b!r} to {c!r}"
                break
            verified += 1
        checks.append(CheckResult(name, verified == pairs_per_class, detail
                                  or f"{verified}/{pairs_per_class} verified automorphism witnesses"))

    cert = Certificate("mixed-omega", {"spec": spec.to_json(), "pairs_per_class": pairs_per_class,
                                       "seed": seed}, checks)
    cert.meta["omega"] = 3 if cert.ok else None
    return cert
