import math
import random
from fractions import Fraction

import pytest

from orbitforge import mixed_group as mg
from orbitforge.exact_linear import QMatrix, QVector, companion, cyclotomic_prime

E = mg.MixedElement


@pytest.fixture(scope="module")
def s21():
    return mg.build(2, 1)


@pytest.fixture(scope="module")
def s32():
    return mg.build(3, 2)


# ---------------------------------------------------------------------------
# spec construction

def test_build_defaults(s21, s32):
    assert s21.n == 1
    assert s21.action == QMatrix.of([[-1]])
    assert s32.n == 4
    phi3 = companion(cyclotomic_prime(3))
    assert s32.action == QMatrix.block_diag([phi3, phi3])


def test_build_accepts_valid_custom_matrix():
    spec = mg.build(3, m=QMatrix.of([[0, 1], [-1, -1]]))
    assert spec.t == 1 and spec.n == 2


def test_build_rejections():
    with pytest.raises(mg.SpecValidationError, match="prime"):
        mg.build(4, 1)
    with pytest.raises(mg.SpecValidationError, match="identity"):
        mg.build(2, m=QMatrix.identity(1))
    with pytest.raises(mg.SpecValidationError, match="order"):
        # right size for p=5 but multiplicative order 3
        mg.build(5, m=QMatrix.block_diag([companion(cyclotomic_prime(3))] * 2))
    # order 2 but reducible: fixes the second axis and has the wrong minimal polynomial
    with pytest.raises(mg.SpecValidationError):
        mg.build(2, m=QMatrix.of([[-1, 0], [0, 1]]))
    with pytest.raises(mg.SpecValidationError, match="positive"):
        mg.build(3, 0)


def test_spec_checks_certificate(s32):
    cert = mg.spec_checks(s32)
    assert cert.ok
    assert {c.name for c in cert.checks} == {
        "order_p", "minimal_polynomial", "fixed_point_free", "telescoping",
    }


def test_build_rejects_order_p_action_with_fixed_vectors():
    # order 3 and not the identity, but the I_2 block fixes every vector in it
    m = QMatrix.block_diag([companion(cyclotomic_prime(3)), QMatrix.identity(2)])
    assert m != QMatrix.identity(4) and m**3 == QMatrix.identity(4)
    with pytest.raises(mg.SpecValidationError, match="fixes a nonzero vector"):
        mg.build(3, m=m)


def test_build_accepts_rational_conjugate_of_companion():
    c = companion(cyclotomic_prime(5))
    q = QMatrix.of([[1, "1/2", 0, 0], [0, 1, 0, -3], [2, 0, 1, 0], [0, 0, "1/3", 1]])
    m = q.inverse() * c * q
    # every companion matrix has the shifted identity in its first n - 1 columns
    assert [r[:3] for r in m.rows] != [r[:3] for r in c.rows]
    spec = mg.build(5, m=m)
    assert spec.t == 1
    assert mg.spec_checks(spec).ok


def test_telescopes_match_their_definition():
    spec = mg.build(5, 2)
    for k in range(5):
        total = QMatrix.zeros(spec.n)
        for j in range(5):
            total = total + spec.powers[(k * j) % 5]
        assert spec.telescopes[k] == total


# ---------------------------------------------------------------------------
# arithmetic

def test_multiply_frozen_example(s21):
    assert mg.multiply(E(1, QVector.of(3)), E(1, QVector.of(5)), s21) == E(0, QVector.of(2))


def test_a_restriction_is_addition(s32):
    a = QVector.of(1, 2, "1/3", 0)
    b = QVector.of(0, -1, 1, "5/2")
    assert mg.multiply(E(0, a), E(0, b), s32) == E(0, a + b)


def test_group_laws_fuzzed(s32):
    rng = random.Random(4)
    ident = mg.identity_element(s32)
    for _ in range(25):
        g1 = mg.random_element(rng, s32)
        g2 = mg.random_element(rng, s32)
        g3 = mg.random_element(rng, s32)
        assert mg.multiply(g1, ident, s32) == g1
        assert mg.multiply(ident, g1, s32) == g1
        assert mg.multiply(g1, mg.inverse(g1, s32), s32) == ident
        assert mg.multiply(mg.inverse(g1, s32), g1, s32) == ident
        lhs = mg.multiply(mg.multiply(g1, g2, s32), g3, s32)
        rhs = mg.multiply(g1, mg.multiply(g2, g3, s32), s32)
        assert lhs == rhs


def test_dimension_mismatch(s21, s32):
    with pytest.raises(ValueError, match="dimension"):
        mg.multiply(E(0, QVector.of(1, 2)), E(0, QVector.of(1)), s21)


# ---------------------------------------------------------------------------
# element orders

def test_element_orders(s21, s32):
    assert mg.element_order(mg.identity_element(s21), s21) == 1
    assert mg.element_order(E(0, QVector.of(5)), s21) == math.inf
    assert mg.element_order(E(1, QVector.of(3)), s21) == 2
    # 3 * (I + M) = 0 is the telescoping identity at p = 2
    assert (QVector.of(3) * s21.telescopes[1]).is_zero

    rng = random.Random(1)
    for _ in range(10):
        g = E(2, mg.random_vector(rng, 4))
        assert mg.element_order(g, s32) == 3
        assert mg.power(g, 3, s32) == mg.identity_element(s32)
        assert mg.power(g, 1, s32) != mg.identity_element(s32)
        assert mg.power(g, 2, s32) != mg.identity_element(s32)


def test_telescoping_matrix_identity():
    for p, t in [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)]:
        spec = mg.build(p, t)
        for k in range(1, p):
            assert spec.telescopes[k].is_zero


# ---------------------------------------------------------------------------
# conjugation

def test_conjugation_matrix(s21, s32):
    assert mg.conjugation_matrix(E(1, QVector.of(99)), s21) == QMatrix.of([[-1]])
    s31 = mg.build(3, 1)
    assert mg.conjugation_matrix(E(2, QVector.zero(2)), s31) == s31.powers[2]
    with pytest.raises(ValueError, match="outside"):
        mg.conjugation_matrix(E(0, QVector.of(1)), s21)


def test_conjugation_matches_multiplication(s32):
    rng = random.Random(9)
    for _ in range(10):
        g = mg.random_element(rng, s32, outside=True)
        u = mg.random_vector(rng, 4)
        conj = mg.multiply(mg.multiply(mg.inverse(g, s32), E(0, u), s32), g, s32)
        assert conj == E(0, u * mg.conjugation_matrix(g, s32))


def test_outside_elements_act_fixed_point_freely(s32):
    rng = random.Random(13)
    for _ in range(20):
        g = mg.random_element(rng, s32, outside=True)
        u = mg.random_vector(rng, 4, nonzero=True)
        assert u * mg.conjugation_matrix(g, s32) != u


# ---------------------------------------------------------------------------
# automorphisms

def test_build_automorphism_frozen_example(s21):
    phi = mg.build_automorphism(
        QVector.of(3), QVector.of(5), E(1, QVector.of(0)), E(1, QVector.of(7)), s21
    )
    assert phi.linear == QMatrix.of([["5/3"]])
    assert phi.image_of_alpha == E(1, QVector.of(7))
    # phi((1, a)) = (1, 5a/3 + 7), hand-checked to preserve products
    for a in (0, 1, Fraction(3, 2), -4):
        got = mg.apply_automorphism(phi, E(1, QVector.of(a)), s21)
        assert got == E(1, QVector.of(Fraction(5, 3) * a + 7))


def test_identity_automorphism(s32):
    alpha = E(1, QVector.zero(4))
    b = QVector.unit(4, 0)
    phi = mg.build_automorphism(b, b, alpha, alpha, s32)
    assert phi.linear == QMatrix.identity(4)
    cert = mg.verify_automorphism(phi, s32, samples=20)
    assert cert.ok


def test_random_admissible_automorphisms_verify(s32):
    rng = random.Random(21)
    for _ in range(5):
        alpha = mg.random_element(rng, s32, outside=True)
        beta = mg.random_element(rng, s32, outside=True)
        b = mg.random_vector(rng, 4, nonzero=True)
        c = mg.random_vector(rng, 4, nonzero=True)
        phi = mg.build_automorphism(b, c, alpha, beta, s32)
        assert mg.apply_automorphism(phi, alpha, s32) == beta
        cert = mg.verify_automorphism(phi, s32, samples=10, seed=3)
        assert cert.ok


def test_build_automorphism_rejections(s21):
    alpha = E(1, QVector.of(0))
    with pytest.raises(ValueError, match="nonzero"):
        mg.build_automorphism(QVector.zero(1), QVector.of(1), alpha, alpha, s21)
    with pytest.raises(ValueError, match="outside"):
        mg.build_automorphism(QVector.of(1), QVector.of(1), E(0, QVector.of(1)), alpha, s21)


def test_tampered_linear_part_fails_verification(s32):
    alpha = E(1, QVector.zero(4))
    phi = mg.build_automorphism(
        QVector.unit(4, 0), QVector.of(1, 2, 0, 1), alpha, alpha, s32
    )
    rows = [list(r) for r in phi.linear.rows]
    rows[1][2] += 1
    bad = mg.MixedAutomorphism(QMatrix.of(rows), phi.alpha, phi.image_of_alpha)
    cert = mg.verify_automorphism(bad, s32, samples=10)
    assert not cert.ok
    failed = {c.name for c in cert.checks if not c.passed}
    assert failed & {"intertwining", "homomorphism_samples"}


def test_automorphism_preserves_orbit_classes(s32):
    rng = random.Random(5)
    alpha = E(1, QVector.zero(4))
    phi = mg.build_automorphism(
        QVector.of(2, 0, 1, 0), QVector.of(0, 1, 0, 3), alpha, alpha, s32
    )
    for _ in range(10):
        inside = E(0, mg.random_vector(rng, 4, nonzero=True))
        outside = mg.random_element(rng, s32, outside=True)
        assert mg.apply_automorphism(phi, inside, s32).k == 0
        assert mg.apply_automorphism(phi, outside, s32).k % 3 != 0


def test_compose_automorphisms(s32):
    rng = random.Random(30)
    alpha = E(1, QVector.zero(4))
    phi = mg.build_automorphism(QVector.unit(4, 0), QVector.unit(4, 2), alpha, alpha, s32)
    psi = mg.build_automorphism(QVector.unit(4, 1), QVector.of(1, 1, 1, 1), alpha, alpha, s32)
    chained = mg.compose_automorphisms(phi, psi, s32)
    for _ in range(10):
        g = mg.random_element(rng, s32)
        step = mg.apply_automorphism(psi, mg.apply_automorphism(phi, g, s32), s32)
        assert mg.apply_automorphism(chained, g, s32) == step


# ---------------------------------------------------------------------------
# the three-orbit certificate

def test_omega_certificate_small(s21):
    cert = mg.omega_certificate(s21, pairs_per_class=5, seed=11)
    assert cert.ok
    assert cert.meta["omega"] == 3
    names = [c.name for c in cert.checks]
    assert names == ["order_separation", "transitivity_inside_A", "transitivity_outside_A"]


def test_omega_certificate_deterministic(s21):
    a = mg.omega_certificate(s21, pairs_per_class=3, seed=2).to_json()
    b = mg.omega_certificate(s21, pairs_per_class=3, seed=2).to_json()
    assert a == b


def test_omega_certificate_json_shape(s21):
    data = mg.omega_certificate(s21, pairs_per_class=2, seed=1).to_json()
    assert data["ok"] is True
    assert data["kind"] == "mixed-omega"
    assert data["meta"]["spec"]["p"] == 2
    assert all(c["passed"] for c in data["checks"])
