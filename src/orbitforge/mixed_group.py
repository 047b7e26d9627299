"""The mixed-order groups G = Q^n x| C_p, handled exactly and symbolically.

An instance is determined by a prime p and an invertible rational matrix M
of multiplicative order p acting fixed-point-freely on Q^n, which forces
the minimal polynomial of M to be 1 + x + ... + x^(p-1) and n to be a
multiple of p - 1. Elements are kept in the normal form h^k * a with
0 <= k < p and a in Q^n, where h is the complement generator and A = Q^n
is written additively; the group law is

    (h^k a)(h^l b) = h^(k+l) (a * M^l + b).

These groups are infinite, so the three-orbit certificate cannot be an
enumeration: it combines an exact separating invariant (element order is
1 on the identity, infinite on the rest of A, and exactly p outside A)
with constructed and verified automorphism witnesses for transitivity
inside each class.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import is_prime
from .exact_linear import (
    QMatrix,
    QVector,
    companion,
    cyclic_decomposition,
    cyclotomic_prime,
    minimal_polynomial,
)

#: Bound on numerators and denominators drawn for randomized witnesses;
#: keeps exact-arithmetic growth modest while exercising non-integer points.
SAMPLE_BOUND = 100

#: Samples used by the release gate inside build_automorphism.
RELEASE_SAMPLES = 8


class SpecValidationError(ValueError):
    """The supplied parameters or action matrix do not define Q^n x| C_p
    with a fixed-point-free action."""


class AutomorphismVerificationError(RuntimeError):
    """A constructed automorphism failed its verification certificate."""

    def __init__(self, certificate: "Certificate"):
        self.certificate = certificate
        failed = [c.name for c in certificate.checks if not c.passed]
        super().__init__(f"automorphism verification failed: {', '.join(failed)}")


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

    ``powers[k]`` caches M^k for 0 <= k < p and ``telescopes[k]`` caches
    I + M^k + M^(2k) + ... + M^((p-1)k), the matrix behind the order-p proof
    for every element outside A. ``telescopes[0]`` is p * I; every later
    entry is one shared matrix, the zero sum Phi_p(M) itself: for k != 0,
    j -> k*j mod p permutes 0..p-1, so the telescope sums the same powers.
    """

    p: int
    t: int
    action: QMatrix
    powers: tuple[QMatrix, ...] = field(init=False, repr=False, compare=False)
    telescopes: tuple[QMatrix, ...] = field(init=False, repr=False, compare=False)
    # sparse column form of each power: per column, the nonzero (row, coeff)
    # pairs; companion-block powers have ~2n nonzeros, so applying them this
    # way is linear instead of quadratic in n
    _power_cols: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, t, m = self.p, self.t, self.action
        if not is_prime(p):
            raise SpecValidationError(f"p must be prime, got {p}")
        if t < 1:
            raise SpecValidationError("t must be positive")
        n = t * (p - 1)
        if m.n != n:
            raise SpecValidationError(f"action must be {n} x {n} for p={p}, t={t}, got {m.n}")
        ident = QMatrix.identity(n)
        if m == ident:
            raise SpecValidationError("action matrix must not be the identity")
        powers = [ident]
        for _ in range(p - 1):
            powers.append(powers[-1] * m)
        if powers[-1] * m != ident:
            raise SpecValidationError(f"action matrix does not have order {p}")
        # the two checks above only name common failures; this one decides
        phi_m = sum(powers[1:], ident)
        if not phi_m.is_zero:
            raise SpecValidationError(
                "I + M + ... + M^(p-1) is not zero: some power of the action fixes a nonzero vector"
            )
        telescopes = (ident * p,) + (phi_m,) * (p - 1)
        power_cols = tuple(
            tuple(
                tuple((i, m.rows[i][j]) for i in range(n) if m.rows[i][j])
                for j in range(n)
            )
            for m in powers
        )
        object.__setattr__(self, "powers", tuple(powers))
        object.__setattr__(self, "telescopes", telescopes)
        object.__setattr__(self, "_power_cols", power_cols)

    @property
    def n(self) -> int:
        return self.t * (self.p - 1)

    def to_json(self) -> dict:
        return {"p": self.p, "t": self.t, "n": self.n, "action": self.action.to_json()}


def build(p: int, t: int | None = None, m: QMatrix | None = None) -> MixedGroupSpec:
    """Build a validated spec; with m omitted, the action is the block
    diagonal of t companion matrices of 1 + x + ... + x^(p-1)."""
    if m is None:
        if t is None:
            raise SpecValidationError("either t or an explicit action matrix is required")
        if not is_prime(p):
            raise SpecValidationError(f"p must be prime, got {p}")
        if t < 1:
            raise SpecValidationError("t must be positive")
        block = companion(cyclotomic_prime(p))
        m = QMatrix.block_diag([block] * t)
    if t is None:
        if m.n % (p - 1) != 0:
            raise SpecValidationError(f"matrix size {m.n} is not a multiple of {p - 1}")
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
    if k == 0:
        return a
    entries = a.entries
    out = []
    for col in spec._power_cols[k]:
        acc = Fraction(0)
        for i, coeff in col:
            if coeff == 1:
                acc += entries[i]
            elif coeff == -1:
                acc -= entries[i]
            else:
                acc += entries[i] * coeff
        out.append(acc)
    return QVector(tuple(out))


def multiply(g1: MixedElement, g2: MixedElement, spec: MixedGroupSpec) -> MixedElement:
    _check_dim(g1, spec)
    _check_dim(g2, spec)
    return MixedElement(
        (g1.k + g2.k) % spec.p, _apply_power(g1.a, spec, g2.k % spec.p) + g2.a
    )


def inverse(g: MixedElement, spec: MixedGroupSpec) -> MixedElement:
    _check_dim(g, spec)
    kk = (-g.k) % spec.p
    return MixedElement(kk, -_apply_power(g.a, spec, kk))


def power(g: MixedElement, m: int, spec: MixedGroupSpec) -> MixedElement:
    base = g if m >= 0 else inverse(g, spec)
    acc = identity_element(spec)
    for _ in range(abs(m)):
        acc = multiply(acc, base, spec)
    return acc


def element_order(g: MixedElement, spec: MixedGroupSpec) -> int | float:
    """1 for the identity, infinite inside A, and exactly p outside A.

    The order-p case is established by actually multiplying g with itself
    p times and, independently, by checking that the translation part is
    annihilated by the telescoping sum I + M^k + ... + M^((p-1)k).
    """
    _check_dim(g, spec)
    k = g.k % spec.p
    if k == 0:
        return 1 if g.a.is_zero else math.inf
    acc = g
    for _ in range(spec.p - 1):
        acc = multiply(acc, g, spec)
    if acc != identity_element(spec):
        raise AssertionError("element outside A failed to have order p; spec invalid")
    if not (g.a * spec.telescopes[k]).is_zero:
        raise AssertionError("telescoping annihilation failed; spec invalid")
    return spec.p


def conjugation_matrix(g: MixedElement, spec: MixedGroupSpec) -> QMatrix:
    """Action of conjugation by g on A, which is M^k because A is abelian."""
    _check_dim(g, spec)
    k = g.k % spec.p
    if k == 0:
        raise ValueError("conjugation matrix is only defined for elements outside A")
    return spec.powers[k]


@dataclass(frozen=True)
class MixedAutomorphism:
    """An automorphism determined by an invertible restriction L to A and the
    image of the anchor element alpha; every g factors as alpha^m * a and
    maps to image_of_alpha^m * (a * L)."""

    linear: QMatrix
    alpha: MixedElement
    image_of_alpha: MixedElement


def apply_automorphism(phi: MixedAutomorphism, g: MixedElement, spec: MixedGroupSpec) -> MixedElement:
    _check_dim(g, spec)
    p = spec.p
    j = phi.alpha.k % p
    m = (g.k * pow(j, -1, p)) % p
    anchor_m = power(phi.alpha, m, spec)
    u = g.a - anchor_m.a
    image_m = power(phi.image_of_alpha, m, spec)
    return multiply(image_m, MixedElement(0, u * phi.linear), spec)


def compose_automorphisms(
    first: MixedAutomorphism, second: MixedAutomorphism, spec: MixedGroupSpec
) -> MixedAutomorphism:
    """The map applying first, then second; anchored at first.alpha."""
    return MixedAutomorphism(
        linear=first.linear * second.linear,
        alpha=first.alpha,
        image_of_alpha=apply_automorphism(second, first.image_of_alpha, spec),
    )


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND), rng.randint(1, SAMPLE_BOUND))


def random_vector(rng: random.Random, n: int, nonzero: bool = False) -> QVector:
    while True:
        v = QVector(tuple(_random_fraction(rng) for _ in range(n)))
        if not nonzero or not v.is_zero:
            return v


def random_element(rng: random.Random, spec: MixedGroupSpec, outside: bool = False) -> MixedElement:
    k = rng.randrange(1, spec.p) if outside else rng.randrange(spec.p)
    return MixedElement(k, random_vector(rng, spec.n))


def verify_automorphism(
    phi: MixedAutomorphism, spec: MixedGroupSpec, samples: int, seed: int = 0
) -> Certificate:
    """Exact certificate that phi is an automorphism.

    Checks: the restriction to A is invertible; the intertwining relation
    phi(u * P) == phi(u) * R holds on the standard basis (a finite check that
    implies the homomorphism law on all A-conjugations); the image of the
    anchor has order p under repeated multiplication; and the homomorphism
    law holds exactly on sampled random pairs.
    """
    p = spec.p
    if phi.alpha.k % p == 0:
        raise ValueError("anchor element must lie outside A")
    checks: list[CheckResult] = []

    det = phi.linear.det()
    checks.append(
        CheckResult("linear_invertible", det != 0, f"det(L) = {det}")
    )

    pm = spec.powers[phi.alpha.k % p]
    rm = spec.powers[phi.image_of_alpha.k % p] if phi.image_of_alpha.k % p else None
    if rm is None:
        checks.append(CheckResult("intertwining", False, "image of anchor lies inside A"))
    else:
        bad = next(
            (
                i
                for i in range(spec.n)
                if (QVector.unit(spec.n, i) * pm) * phi.linear
                != (QVector.unit(spec.n, i) * phi.linear) * rm
            ),
            None,
        )
        checks.append(
            CheckResult(
                "intertwining",
                bad is None,
                "P*L == L*R on the standard basis" if bad is None else f"fails at basis vector {bad}",
            )
        )

    image = phi.image_of_alpha
    acc = image
    for _ in range(p - 1):
        acc = multiply(acc, image, spec)
    order_ok = acc == identity_element(spec) and image.k % p != 0
    checks.append(
        CheckResult("image_order", order_ok, f"phi(alpha)^{p} == identity: {order_ok}")
    )

    rng = random.Random(seed)
    failures = 0
    first_failure = ""
    for _ in range(samples):
        g1 = random_element(rng, spec)
        g2 = random_element(rng, spec)
        lhs = apply_automorphism(phi, multiply(g1, g2, spec), spec)
        rhs = multiply(
            apply_automorphism(phi, g1, spec), apply_automorphism(phi, g2, spec), spec
        )
        if lhs != rhs:
            failures += 1
            if not first_failure:
                first_failure = f"phi(g1*g2) != phi(g1)*phi(g2) for g1={g1!r}, g2={g2!r}"
    checks.append(
        CheckResult(
            "homomorphism_samples",
            failures == 0,
            first_failure or f"{samples}/{samples} sampled pairs multiplicative",
        )
    )

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
    samples: int = RELEASE_SAMPLES,
) -> MixedAutomorphism:
    """The automorphism sending the orbit basis over alpha seeded at b to the
    orbit basis over beta seeded at c, and alpha itself to beta.

    Both seeds are extended to full bases by cyclic decomposition with respect
    to the respective conjugation matrices; L is the unique linear map
    matching them block by block. The result is verified before release.
    """
    if b.is_zero or c.is_zero:
        raise ValueError("seed vectors must be nonzero")
    p = spec.p
    if alpha.k % p == 0 or beta.k % p == 0:
        raise ValueError("alpha and beta must lie outside A")
    pm = conjugation_matrix(alpha, spec)
    rm = conjugation_matrix(beta, spec)
    b_seeds = cyclic_decomposition(pm, p, b)
    c_seeds = cyclic_decomposition(rm, p, c)

    def basis_rows(seeds, m):
        rows = []
        for s in seeds:
            w = s
            for _ in range(p - 1):
                rows.append(w.entries)
                w = w * m
        return QMatrix(tuple(rows))

    bmat = basis_rows(b_seeds, pm)
    cmat = basis_rows(c_seeds, rm)
    linear = bmat.inverse() * cmat
    phi = MixedAutomorphism(linear=linear, alpha=alpha, image_of_alpha=beta)
    cert = verify_automorphism(phi, spec, samples=samples)
    if not cert.ok:
        raise AutomorphismVerificationError(cert)
    return phi


def spec_checks(spec: MixedGroupSpec) -> Certificate:
    """Re-derive the defining invariants of a spec as an explicit certificate."""
    p, m = spec.p, spec.action
    ident = QMatrix.identity(spec.n)
    checks = [
        CheckResult("order_p", spec.powers[p - 1] * m == ident and m != ident,
                    f"M^{p} == I and M != I"),
        CheckResult(
            "minimal_polynomial",
            minimal_polynomial(m) == cyclotomic_prime(p),
            "minimal polynomial is 1 + x + ... + x^(p-1)",
        ),
    ]
    dets = [(spec.powers[k] - ident).det() for k in range(1, p)]
    checks.append(
        CheckResult(
            "fixed_point_free",
            all(d != 0 for d in dets),
            f"det(M^k - I) for k=1..{p - 1}: {[str(d) for d in dets]}",
        )
    )
    checks.append(
        CheckResult(
            "telescoping",
            all(spec.telescopes[k].is_zero for k in range(1, p)),
            f"I + M^k + ... + M^((p-1)k) == 0 for k=1..{p - 1}",
        )
    )
    return Certificate(kind="mixed-spec", meta=spec.to_json(), checks=checks)


def omega_certificate(
    spec: MixedGroupSpec, pairs_per_class: int, seed: int = 0
) -> Certificate:
    """Certificate that the group has exactly three automorphism orbits.

    Separation is exact and forced: element orders 1, infinity, and p
    distinguish {identity}, the rest of A, and everything outside A, and no
    automorphism can merge order classes. Transitivity is constructive: for
    sampled pairs inside each nontrivial class an explicit automorphism
    carrying one to the other is built and verified.
    """
    if pairs_per_class < 1:
        raise ValueError("pairs_per_class must be positive")
    rng = random.Random(seed)
    p, n = spec.p, spec.n
    checks: list[CheckResult] = []

    sep_ok = all(spec.telescopes[k].is_zero for k in range(1, p))
    checks.append(
        CheckResult(
            "order_separation",
            sep_ok,
            f"orders 1 / infinite / {p} split the classes; telescoping sums vanish for k=1..{p - 1}",
        )
    )

    zero = QVector.zero(n)
    base = MixedElement(1, zero)
    verified = 0
    detail = ""
    for _ in range(pairs_per_class):
        u = random_vector(rng, n, nonzero=True)
        v = random_vector(rng, n, nonzero=True)
        try:
            phi = build_automorphism(u, v, base, base, spec)
        except AutomorphismVerificationError as exc:
            detail = f"witness construction failed: {exc}"
            break
        if apply_automorphism(phi, MixedElement(0, u), spec) != MixedElement(0, v):
            detail = f"constructed map does not carry {u!r} to {v!r}"
            break
        verified += 1
    checks.append(
        CheckResult(
            "transitivity_inside_A",
            verified == pairs_per_class,
            detail or f"{verified}/{pairs_per_class} verified automorphism witnesses",
        )
    )

    e1 = QVector.unit(n, 0)
    verified = 0
    detail = ""
    for _ in range(pairs_per_class):
        g1 = random_element(rng, spec, outside=True)
        g2 = random_element(rng, spec, outside=True)
        try:
            phi = build_automorphism(e1, e1, g1, g2, spec)
        except AutomorphismVerificationError as exc:
            detail = f"witness construction failed: {exc}"
            break
        img = apply_automorphism(phi, g1, spec)
        if img != g2 and img.k % p == g2.k % p and not img.a.is_zero and not g2.a.is_zero:
            # close any residual difference in the A-part with an A-class map
            psi = build_automorphism(img.a, g2.a, base, base, spec)
            phi = compose_automorphisms(phi, psi, spec)
            img = apply_automorphism(phi, g1, spec)
        if img != g2:
            detail = f"constructed map does not carry {g1!r} to {g2!r}"
            break
        verified += 1
    checks.append(
        CheckResult(
            "transitivity_outside_A",
            verified == pairs_per_class,
            detail or f"{verified}/{pairs_per_class} verified automorphism witnesses",
        )
    )

    cert = Certificate(
        kind="mixed-omega",
        meta={"spec": spec.to_json(), "pairs_per_class": pairs_per_class, "seed": seed},
        checks=checks,
    )
    cert.meta["omega"] = 3 if cert.ok else None
    return cert
