import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_fixed_point_free
from orbitforge.exact_linear import (
    QMatrix,
    QPoly,
    QVector,
    companion,
    cyclic_decomposition,
    cyclotomic_prime,
    format_rat,
    minimal_polynomial,
    parse_rat,
    poly_eval,
)


# ---------------------------------------------------------------------------
# scalars

@given(
    a=st.integers(-10**9, 10**9),
    b=st.integers(1, 10**6),
    c=st.integers(-10**9, 10**9),
    d=st.integers(1, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_rational_addition_is_exact(a, b, c, d):
    # clearing denominators must land exactly back on integers
    assert (Fraction(a, b) + Fraction(c, d)) * (b * d) == a * d + c * b


def test_rat_format_parse_roundtrip():
    for x in [Fraction(0), Fraction(3), Fraction(-1, 2), Fraction(22, 7)]:
        assert parse_rat(format_rat(x)) == x
    assert format_rat(Fraction(3)) == "3/1"
    assert parse_rat("7") == Fraction(7)


# ---------------------------------------------------------------------------
# vectors and matrices

def test_vector_arithmetic():
    v = QVector.of(1, "1/2", -3)
    w = QVector.of(0, 2, 1)
    assert (v + w).entries == (Fraction(1), Fraction(5, 2), Fraction(-2))
    assert (v - w).entries == (Fraction(1), Fraction(-3, 2), Fraction(-4))
    assert (-v).entries == (Fraction(-1), Fraction(-1, 2), Fraction(3))
    assert (2 * v) == v * 2
    assert QVector.zero(3).is_zero and not v.is_zero
    assert QVector.unit(3, 1).entries == (0, 1, 0)


def test_vector_dimension_mismatch():
    with pytest.raises(ValueError):
        QVector.of(1) + QVector.of(1, 2)
    with pytest.raises(ValueError):
        QVector.of(1, 2, 3) * QMatrix.identity(2)


def _naive_matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    # textbook triple loop, the oracle for the sparse-aware product
    n = a.n
    return QMatrix(
        tuple(
            tuple(sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), Fraction(0)) for j in range(n))
            for i in range(n)
        )
    )


def _random_matrix(rng: random.Random, n: int) -> QMatrix:
    return QMatrix(
        tuple(
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
            for _ in range(n)
        )
    )


def test_matrix_product_matches_naive_oracle():
    rng = random.Random(42)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            a, b = _random_matrix(rng, n), _random_matrix(rng, n)
            assert a * b == _naive_matmul(a, b)


def test_vector_matrix_product_matches_naive():
    rng = random.Random(7)
    for _ in range(20):
        m = _random_matrix(rng, 3)
        v = QVector(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)))
        expected = tuple(
            sum((v.entries[i] * m.rows[i][j] for i in range(3)), Fraction(0)) for j in range(3)
        )
        assert (v * m).entries == expected


def _leibniz_det(m: QMatrix) -> Fraction:
    n = m.n
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if not seen[i]:
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= m.rows[i][perm[i]]
        total += sign * term
    return total


def test_det_matches_leibniz_oracle():
    rng = random.Random(3)
    for _ in range(25):
        m = _random_matrix(rng, 3)
        assert m.det() == _leibniz_det(m)


def test_det_and_inverse_special_cases():
    singular = QMatrix.of([[1, 2], [2, 4]])
    assert singular.det() == 0
    with pytest.raises(ValueError, match="singular"):
        singular.inverse()
    m = QMatrix.of([[1, "1/2"], [0, 3]])
    assert m * m.inverse() == QMatrix.identity(2)
    assert m.inverse() * m == QMatrix.identity(2)
    assert m**0 == QMatrix.identity(2)
    assert m**-1 == m.inverse()
    assert m**3 == m * m * m


def test_matrix_json_roundtrip():
    m = QMatrix.of([[0, "-1/2"], [1, "2/3"]])
    assert QMatrix.from_json(m.to_json()) == m
    v = QVector.of("5/7", -2)
    assert QVector.from_json(v.to_json()) == v


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        QMatrix.of([[1, 2], [3]])


# ---------------------------------------------------------------------------
# polynomials

def test_qpoly_normalization():
    f = QPoly.of(1, 2, 0, 0)
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    assert QPoly.of().is_zero and QPoly.of(0, 0).is_zero
    assert QPoly.of(2, 1).is_monic and not QPoly.of(1, 2).is_monic
    assert QPoly.of(1, 1, 1)(2) == 7


def test_cyclotomic_prime_values():
    assert cyclotomic_prime(2).coeffs == (1, 1)
    assert cyclotomic_prime(3).coeffs == (1, 1, 1)
    assert cyclotomic_prime(5).coeffs == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        cyclotomic_prime(4)
    with pytest.raises(ValueError):
        cyclotomic_prime(1)


def test_companion_frozen_examples():
    assert companion(QPoly.of(1, 1)) == QMatrix.of([[-1]])
    assert companion(QPoly.of(-1, 1)) == QMatrix.of([[1]])
    m = companion(cyclotomic_prime(3))
    assert m == QMatrix.of([[0, -1], [1, -1]])
    assert m**3 == QMatrix.identity(2)
    assert m.det() == 1


def test_companion_rejects_bad_input():
    with pytest.raises(ValueError, match="monic"):
        companion(QPoly.of(1, 2))
    with pytest.raises(ValueError, match="degree"):
        companion(QPoly.of(5))


def test_poly_eval_annihilates_companion():
    phi3 = cyclotomic_prime(3)
    assert poly_eval(phi3, companion(phi3)).is_zero
    # evaluating x - 1 at I gives 0
    assert poly_eval(QPoly.of(-1, 1), QMatrix.identity(3)).is_zero


def test_minimal_polynomial_basics():
    assert minimal_polynomial(QMatrix.identity(3)).coeffs == (-1, 1)
    phi3 = cyclotomic_prime(3)
    m = companion(phi3)
    assert minimal_polynomial(m) == phi3
    twice = QMatrix.block_diag([m, m])
    assert minimal_polynomial(twice) == phi3


@given(
    coeffs=st.lists(st.integers(-4, 4), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_minimal_polynomial_of_companion_is_the_polynomial(coeffs):
    f = QPoly.of(*coeffs, 1)  # force monic, degree = len(coeffs)
    assert minimal_polynomial(companion(f)) == f


def test_fixed_point_free():
    assert is_fixed_point_free(QMatrix.of([[-1]]), 2)
    m = companion(cyclotomic_prime(3))
    assert is_fixed_point_free(m, 3)
    assert (m - QMatrix.identity(2)).det() == 3
    assert not is_fixed_point_free(QMatrix.identity(2), 3)
    # order 2 but with a fixed vector (the second axis)
    assert not is_fixed_point_free(QMatrix.of([[-1, 0], [0, 1]]), 2)
    with pytest.raises(ValueError):
        is_fixed_point_free(m, 4)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_companion_power_identities(p):
    m = companion(cyclotomic_prime(p))
    ident = QMatrix.identity(p - 1)
    assert m != ident
    assert m**p == ident
    total = QMatrix.zeros(p - 1)
    power = ident
    for _ in range(p):
        total = total + power
        power = power * m
    assert total.is_zero
    assert is_fixed_point_free(m, p)
    assert is_fixed_point_free(QMatrix.block_diag([m, m]), p)


# ---------------------------------------------------------------------------
# cyclic decomposition

def test_cyclic_decomposition_frozen_examples():
    seeds = cyclic_decomposition(QMatrix.of([[-1]]), 2, QVector.of(3))
    assert seeds == [QVector.of(3)]

    m = companion(cyclotomic_prime(3))
    seeds = cyclic_decomposition(m, 3, QVector.of(1, 0))
    assert seeds == [QVector.of(1, 0)]
    # the orbit block is {seed, seed*m} = {(1,0), (0,-1)}; its determinant is -1
    basis = QMatrix((seeds[0].entries, (seeds[0] * m).entries))
    assert (seeds[0] * m) == QVector.of(0, -1)
    assert basis.det() == -1

    big = QMatrix.block_diag([m, m])
    seeds = cyclic_decomposition(big, 3, QVector.unit(4, 0))
    assert seeds == [QVector.unit(4, 0), QVector.unit(4, 2)]


def test_cyclic_decomposition_change_of_basis_invertible():
    rng = random.Random(11)
    m = QMatrix.block_diag([companion(cyclotomic_prime(3))] * 2)
    for _ in range(20):
        seed = QVector(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)))
        if seed.is_zero:
            continue
        seeds = cyclic_decomposition(m, 3, seed)
        rows = []
        for s in seeds:
            w = s
            for _ in range(2):
                rows.append(w.entries)
                w = w * m
        assert QMatrix(tuple(rows)).det() != 0


def test_cyclic_decomposition_errors():
    m = companion(cyclotomic_prime(3))
    with pytest.raises(ValueError, match="nonzero"):
        cyclic_decomposition(m, 3, QVector.zero(2))
    with pytest.raises(ValueError, match="match"):
        cyclic_decomposition(m, 3, QVector.of(1, 2, 3))
    with pytest.raises(ValueError, match="minimal polynomial"):
        cyclic_decomposition(QMatrix.identity(2), 3, QVector.of(1, 0))
    with pytest.raises(ValueError, match="divisible"):
        cyclic_decomposition(QMatrix.block_diag([QMatrix.of([[-1]])] * 3), 3, QVector.of(1, 0, 0))


def test_cyclic_decomposition_certifies_the_seed_sum():
    # the swap has order 2: its block {(1,0), (0,1)} is independent, but
    # (1,0) * (I + m + m^2) = (2, 1), so only the seed-sum check rejects it
    swap = QMatrix.of([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="minimal polynomial"):
        cyclic_decomposition(swap, 3, QVector.of(1, 0))
