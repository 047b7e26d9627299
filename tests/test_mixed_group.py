import dataclasses
import functools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    CONJUGATOR,
    bareiss_det,
    block_diag,
    companion,
    compose_automorphisms,
    conjugation_matrix,
    count_calls,
    count_eliminations,
    cyclotomic_prime,
    dense_product_checks,
    first_mismatch,
    fraction_matadd,
    krylov_witness_linear,
    matrix_power,
    mixed_element_order,
    mixed_inverse,
    powers_sum_verdict,
    rational_action,
    semilinear_oracle,
    spec_checks_oracle,
    telescope,
    zero_matrix,
)
from orbitforge import cli, exact_linear
from orbitforge import cyclotomic as cy
from orbitforge import mixed_group as mg
from orbitforge.exact_linear import QMatrix, QVector

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
    assert s32.action == block_diag([phi3, phi3])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31, 127])
def test_build_writes_the_block_companion_of_phi_p(p):
    # the default action, written from integer rows, is entry for entry the
    # block diagonal of t companions of Phi_p, at every t under MAX_DIM
    for t in range(1, mg.MAX_DIM // (p - 1) + 1):
        assert mg.build(p, t).action == block_diag([companion(cyclotomic_prime(p))] * t)


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
        mg.build(5, m=block_diag([companion(cyclotomic_prime(3))] * 2))
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
    m = block_diag([companion(cyclotomic_prime(3)), QMatrix.identity(2)])
    assert m != QMatrix.identity(4) and matrix_power(m, 3) == QMatrix.identity(4)
    with pytest.raises(mg.SpecValidationError, match="fixes a nonzero vector"):
        mg.build(3, m=m)


_BOUNDED = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _draw_action(data, p: int) -> tuple[str, int, QMatrix]:
    """(kind, p, M) for an n x n action M, n a multiple of p - 1: block
    companions of Phi_p (valid), Phi_3 blocks beside Phi_5 blocks with p
    set to 5 (order 15 or 3), companion(Phi_p) + I or a p-cycle permutation
    + I (order p, each fixing a vector), or small integer entries. Each of
    size n <= 8 may be conjugated by a rational matrix, which keeps its
    verdict."""
    k = p - 1
    kind = data.draw(st.sampled_from(["companions", "phi3_blocks", "companion_plus_identity",
                                      "cycle_plus_identity", "integers"]), label="kind")
    if kind == "companions":
        m = block_diag([companion(cyclotomic_prime(p))] * data.draw(st.integers(1, 2)))
    elif kind == "phi3_blocks":
        p = 5
        fives = data.draw(st.integers(0, 1), label="Phi_5 blocks")
        m = block_diag([companion(cyclotomic_prime(5))] * fives
                       + [companion(cyclotomic_prime(3))] * 2 * (2 - fives))
    elif kind == "companion_plus_identity":
        m = block_diag([companion(cyclotomic_prime(p)), QMatrix.identity(k)])
    elif kind == "cycle_plus_identity":
        cycle = QMatrix.of([[1 if j == (i + 1) % p else 0 for j in range(p)] for i in range(p)])
        m = block_diag([cycle, QMatrix.identity(p - 2)])
    else:
        n = k * data.draw(st.integers(1, 2), label="t")
        m = QMatrix.of(data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                          min_size=n, max_size=n), label="M"))
    n = m.n
    if n <= 8 and data.draw(st.booleans(), label="conjugate"):
        q = QMatrix.of(data.draw(st.lists(st.lists(_BOUNDED, min_size=n, max_size=n),
                                          min_size=n, max_size=n), label="Q"))
        assume(q.det() != 0)
        m = q.inverse() * m * q
    return kind, p, m


_KIND_VERDICTS = {
    "companions": None,
    "phi3_blocks": "action matrix does not have order 5",
    "companion_plus_identity": "fixes a nonzero vector",
    "cycle_plus_identity": "fixes a nonzero vector",
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_build_accepts_exactly_what_the_powers_sum_accepts(data):
    # a spec is proved by the zero seed sums of its cyclic basis; the oracle
    # is the earlier proof, the p powers of M, M^p and their sum
    kind, p, m = _draw_action(data, data.draw(st.sampled_from([2, 3, 5, 7]), label="p"))
    expected = powers_sum_verdict(p, m)
    if kind in _KIND_VERDICTS:
        want = _KIND_VERDICTS[kind]
        assert (expected is None) if want is None else (want in (expected or ""))
    if expected is None:
        assert mg.build(p, m=m).action == m
    else:
        with pytest.raises(mg.SpecValidationError) as err:
            mg.build(p, m=m)
        assert str(err.value) == expected


def test_build_makes_no_matrix_products(monkeypatch):
    # Phi_p(M) = 0 is proved by the zero seed sums of the spec's cyclic basis
    # K, built once and inverted once; no power of M is built until the
    # group law needs one
    rational = rational_action()
    matrix = count_calls(monkeypatch, QMatrix, "__mul__", "inverse")
    bases = count_calls(monkeypatch, mg, "cyclic_decomposition")
    for p, t, m in ((31, 1, None), (13, 4, None), (5, None, rational)):
        before = {**matrix, **bases}
        spec = mg.build(p, t, m)
        made = {name: count - before[name] for name, count in {**matrix, **bases}.items()}
        assert made == {"__mul__": 0, "inverse": 1, "cyclic_decomposition": 1}, (p, t)
        assert "powers" not in vars(spec)


def test_build_at_the_dimension_cap_peaks_under_4_mib():
    # p = 127, t = 1 is the largest spec under MAX_DIM; its 127 dense powers
    # of M took 16.8 MiB when the spec was proved by summing them
    tracemalloc.start()
    try:
        mg.build(127, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_build_accepts_rational_conjugate_of_companion():
    c = companion(cyclotomic_prime(5))
    m = CONJUGATOR.inverse() * c * CONJUGATOR
    # every companion matrix has the shifted identity in its first n - 1 columns
    assert [r[:3] for r in m.rows] != [r[:3] for r in c.rows]
    spec = mg.build(5, m=m)
    assert spec.t == 1
    assert mg.spec_checks(spec).ok


def test_telescopes_match_their_definition():
    # the oracle sums the cached powers; the definition powers M afresh
    spec = mg.build(5, 2)
    for k in range(5):
        total = zero_matrix(spec.n)
        for j in range(5):
            total = fraction_matadd(total, matrix_power(spec.action, k * j))
        assert telescope(spec, k) == total


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("t", [1, 2])
def test_spec_checks_match_the_recomputed_oracle(p, t):
    spec = mg.build(p, t)
    assert mg.spec_checks(spec).to_json() == spec_checks_oracle(spec)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_spec_checks_of_rational_conjugates_match_the_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    t = data.draw(st.sampled_from([1, 2]), label="t")
    n = t * (p - 1)
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    q = QMatrix.of(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                      min_size=n, max_size=n), label="Q"))
    assume(q.det() != 0)
    c = block_diag([companion(cyclotomic_prime(p))] * t)
    spec = mg.build(p, m=q.inverse() * c * q)
    assert mg.spec_checks(spec).to_json() == spec_checks_oracle(spec)


def test_spec_checks_do_no_matrix_work(monkeypatch):
    # every check is read off Phi_p(M) = 0, proved when the spec was built
    spec = mg.build(31, 1)
    calls = {"det": 0, "minimal_polynomial": 0, "mul": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(QMatrix, "det", counting("det", QMatrix.det))
    monkeypatch.setattr(QMatrix, "__mul__", counting("mul", QMatrix.__mul__))
    counted = counting("minimal_polynomial", exact_linear.minimal_polynomial)
    monkeypatch.setattr(exact_linear, "minimal_polynomial", counted)
    monkeypatch.setattr(mg, "minimal_polynomial", counted, raising=False)
    assert mg.spec_checks(spec).ok
    assert calls == {"det": 0, "minimal_polynomial": 0, "mul": 0}


# ---------------------------------------------------------------------------
# arithmetic

def test_multiply_frozen_example(s21):
    assert mg.multiply(E(1, QVector((3,))), E(1, QVector((5,))), s21) == E(0, QVector((2,)))


def test_a_restriction_is_addition(s32):
    a = QVector((1, 2, "1/3", 0))
    b = QVector((0, -1, 1, "5/2"))
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
        assert mg.multiply(g1, mixed_inverse(g1, s32), s32) == ident
        assert mg.multiply(mixed_inverse(g1, s32), g1, s32) == ident
        lhs = mg.multiply(mg.multiply(g1, g2, s32), g3, s32)
        rhs = mg.multiply(g1, mg.multiply(g2, g3, s32), s32)
        assert lhs == rhs


def test_dimension_mismatch(s21, s32):
    with pytest.raises(ValueError, match="dimension"):
        mg.multiply(E(0, QVector((1, 2))), E(0, QVector((1,))), s21)


# ---------------------------------------------------------------------------
# element orders

def test_element_orders(s21, s32):
    assert mixed_element_order(mg.identity_element(s21), s21) == 1
    assert mixed_element_order(E(0, QVector((5,))), s21) == math.inf
    assert mixed_element_order(E(1, QVector((3,))), s21) == 2
    # 3 * (I + M) = 0 is the telescoping identity at p = 2
    assert (QVector((3,)) * telescope(s21, 1)).is_zero

    rng = random.Random(1)
    for _ in range(10):
        g = E(2, mg.random_vector(rng, 4))
        assert mixed_element_order(g, s32) == 3
        assert mg.power(g, 3, s32) == mg.identity_element(s32)
        assert mg.power(g, 1, s32) != mg.identity_element(s32)
        assert mg.power(g, 2, s32) != mg.identity_element(s32)


def test_power_refuses_a_negative_exponent(s32):
    # the package keeps no group inverse: only the benchmark's tracer holds power
    with pytest.raises(ValueError, match="^exponent must be nonnegative, got -1$"):
        mg.power(E(2, QVector((1, 0, 0, 0))), -1, s32)


def test_element_order_raises_typed_error_on_a_tampered_spec():
    # a spec whose cached powers no longer make a vanishing telescope: the
    # CLI catches SpecValidationError (a ValueError) instead of printing a
    # traceback
    spec = mg.build(3, 1)
    ident = QMatrix.identity(2)
    object.__setattr__(spec, "powers", (ident, ident, ident))
    with pytest.raises(mg.SpecValidationError, match="telescoping"):
        mixed_element_order(E(1, QVector((1, 0))), spec)


def test_telescoping_matrix_identity():
    for p, t in [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)]:
        spec = mg.build(p, t)
        for k in range(1, p):
            assert telescope(spec, k) == zero_matrix(spec.n)


# ---------------------------------------------------------------------------
# conjugation

def test_conjugation_matrix(s21, s32):
    assert conjugation_matrix(E(1, QVector((99,))), s21) == QMatrix.of([[-1]])
    s31 = mg.build(3, 1)
    assert conjugation_matrix(E(2, QVector.zero(2)), s31) == s31.powers[2]
    with pytest.raises(ValueError, match="outside"):
        conjugation_matrix(E(0, QVector((1,))), s21)


def test_conjugation_matches_multiplication(s32):
    rng = random.Random(9)
    for _ in range(10):
        g = mg.random_element(rng, s32, outside=True)
        u = mg.random_vector(rng, 4)
        conj = mg.multiply(mg.multiply(mixed_inverse(g, s32), E(0, u), s32), g, s32)
        assert conj == E(0, u * conjugation_matrix(g, s32))


def test_outside_elements_act_fixed_point_freely(s32):
    rng = random.Random(13)
    for _ in range(20):
        g = mg.random_element(rng, s32, outside=True)
        u = mg.random_vector(rng, 4, nonzero=True)
        assert u * conjugation_matrix(g, s32) != u


# ---------------------------------------------------------------------------
# automorphisms

def test_build_automorphism_frozen_example(s21):
    phi = mg.build_automorphism(
        QVector((3,)), QVector((5,)), E(1, QVector((0,))), E(1, QVector((7,))), s21
    )
    assert phi.linear == QMatrix.of([["5/3"]])
    assert phi.image_of_alpha == E(1, QVector((7,)))
    # phi((1, a)) = (1, 5a/3 + 7), hand-checked to preserve products
    for a in (0, 1, Fraction(3, 2), -4):
        got = mg.apply_automorphism(phi, E(1, QVector((a,))))
        assert got == E(1, QVector((Fraction(5, 3) * a + 7,)))


def test_identity_automorphism(s32):
    alpha = E(1, QVector.zero(4))
    b = QVector.unit(4, 0)
    phi = mg.build_automorphism(b, b, alpha, alpha, s32)
    assert phi.linear == QMatrix.identity(4)
    cert = mg.verify_automorphism(phi, samples=20)
    assert cert.ok


def test_random_admissible_automorphisms_verify(s32):
    rng = random.Random(21)
    for _ in range(5):
        alpha = mg.random_element(rng, s32, outside=True)
        beta = mg.random_element(rng, s32, outside=True)
        b = mg.random_vector(rng, 4, nonzero=True)
        c = mg.random_vector(rng, 4, nonzero=True)
        phi = mg.build_automorphism(b, c, alpha, beta, s32)
        assert mg.apply_automorphism(phi, alpha) == beta
        cert = mg.verify_automorphism(phi, samples=10, seed=3)
        assert cert.ok


def _witness_inputs(spec, seed):
    """(b, c, alpha, beta) for build_automorphism, drawn from one seed."""
    rng = random.Random(seed)
    alpha = mg.random_element(rng, spec, outside=True)
    beta = mg.random_element(rng, spec, outside=True)
    b = mg.random_vector(rng, spec.n, nonzero=True)
    c = mg.random_vector(rng, spec.n, nonzero=True)
    return b, c, alpha, beta


def _count_multiply(monkeypatch) -> list[int]:
    """Patch mg.multiply to count its calls in the one-element list returned."""
    calls = [0]
    real = mg.multiply

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(mg, "multiply", counting)
    return calls


def test_verify_automorphism_work_is_bounded(monkeypatch):
    # the three exact identities use no group products; the sampled pairs
    # build the anchor tables alpha^m and phi(alpha)^m of apply_automorphism,
    # p - 1 products each, and then cost five each: g1 * g2, three
    # applications of phi (one product each) and phi(g1) * phi(g2)
    p, samples = 13, 8
    spec = mg.build(p, 2)
    phi = mg.build_automorphism(*_witness_inputs(spec, 0), spec)
    calls = _count_multiply(monkeypatch)
    assert mg.verify_automorphism(phi, samples=0).ok
    assert calls[0] == 0
    assert mg.verify_automorphism(phi, samples=samples).ok
    assert calls[0] == 2 * (p - 1) + 5 * samples


def test_build_automorphism_work_is_bounded(monkeypatch):
    # the witness is linear algebra on A alone, released unverified
    spec = mg.build(13, 2)
    calls = _count_multiply(monkeypatch)
    mg.build_automorphism(*_witness_inputs(spec, 0), spec)
    assert calls[0] == 0


def test_spec_and_witness_build_no_fraction(monkeypatch):
    # matrices are integer rows over one denominator: the cyclic basis K and
    # its inverse, which prove the spec, and the field solve and the change
    # of basis of a witness make no Fraction in exact_linear
    made = []

    class Counting(type):
        def __instancecheck__(cls, obj):
            return isinstance(obj, Fraction)

        def __call__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(exact_linear, "Fraction", Counting("Fraction", (), {}))
    mg.build(31, 1)
    assert made == []
    spec = mg.build(13, 2)
    mg.build_automorphism(*_witness_inputs(spec, 0), spec)
    assert made == []


_SPECS = {(p, t): mg.build(p, t) for p in (2, 3, 5) for t in (1, 2)}
_FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def _bumped(x, i: int, j: int, m: int, bump) -> tuple[tuple[QVector, ...], ...]:
    """X with bump added to the coefficient of x^m in entry (i, j)."""
    rows = [list(row) for row in x]
    e = rows[i][j]
    rows[i][j] = e + QVector([bump if q == m else 0 for q in range(e.dim)])
    return tuple(map(tuple, rows))


def _draw_bump(data, t: int, p: int):
    """(i, j, m, bump) for ``_bumped``, drawn by hypothesis."""
    i, j = (data.draw(st.integers(0, t - 1), label=label) for label in ("row", "column"))
    m = data.draw(st.integers(0, p - 2), label="power")
    return i, j, m, data.draw(_FRACTIONS.filter(bool), label="bump")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sampled_pairs_never_overrule_the_exact_identities(data):
    # (g, s * X) for a nonzero scalar s of F is still sigma_g-semilinear, so
    # it intertwines and is invertible, but it carries the seeds' bases B
    # and C, on which det L is derived, only when s = 1. X with one
    # coefficient bumped is semilinear too, but fails a row identity.
    # Either way, sampled pairs must not change the exact verdict.
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    t = data.draw(st.sampled_from([1, 2]), label="t")
    spec = _SPECS[p, t]
    b, c, alpha, beta = _witness_inputs(spec, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    witness = mg.build_automorphism(b, c, alpha, beta, spec)
    s = QVector(data.draw(st.lists(_FRACTIONS, min_size=p - 1, max_size=p - 1).filter(any), label="s"))
    scaled = tuple(tuple(cy._elem_mul(s, e) for e in row) for row in witness.x)
    bumped = _bumped(witness.x, *_draw_bump(data, t, p))

    for x, derived in ((scaled, s == QVector.unit(p - 1, 0)), (bumped, False)):
        phi = dataclasses.replace(witness, x=x)
        cert = mg.verify_automorphism(phi, samples=0)
        verdicts = {ch.name: ch.passed for ch in cert.checks}
        assert verdicts == {"linear_invertible": derived, "intertwining": True, "image_order": True,
                            "homomorphism_samples": True}
        assert mg.verify_automorphism(phi, samples=10, seed=p * t).ok == cert.ok


_ORACLE_SPECS = {f"p{p}_t{t}": (p, t, None) for p in (2, 3, 5, 7, 13, 19) for t in (1, 2, 4)
                 if t * (p - 1) <= mg.MAX_DIM}
_ORACLE_SPECS["rational"] = (5, None, rational_action())


@pytest.mark.parametrize("p, t, m", _ORACLE_SPECS.values(), ids=_ORACLE_SPECS.keys())
def test_build_automorphism_matches_the_krylov_oracle(p, t, m):
    # L by arithmetic in F^t against B^-1 * C by elimination over Q. Outside
    # draws (b = c = e_1, as omega_certificate makes them) take every
    # (k_alpha, k_beta) up to n = 12, and above it p - 1 pairs that take every
    # k_alpha, every k_beta and every ratio g = k_beta / k_alpha once. Inside
    # draws (dense random b and c, over small denominators to keep the oracle
    # fast) take k_alpha = k_beta = 1, as omega_certificate does, and one
    # random pair.
    spec = mg.build(p, t, m)
    n = spec.n
    rng = random.Random(p * spec.t)
    if n <= 12:
        pairs = [(ka, kb) for ka in range(1, p) for kb in range(1, p)]
    else:
        pairs = [(ka, ka * g % p) for ka, g in zip(range(1, p), rng.sample(range(1, p), p - 1))]
    e1 = QVector.unit(n, 0)
    draws = [(e1, e1, ka, kb) for ka, kb in pairs]
    for ka, kb in ((1, 1), (rng.randrange(1, p), rng.randrange(1, p))):
        b, c = (QVector.from_ints([rng.randint(-9, 9) for _ in range(n - 1)] + [1], rng.randint(1, 9))
                for _ in range(2))
        draws.append((b, c, ka, kb))
    for b, c, ka, kb in draws:
        alpha, beta = E(ka, mg.random_vector(rng, n)), E(kb, mg.random_vector(rng, n))
        linear = mg.build_automorphism(b, c, alpha, beta, spec).linear
        assert linear == krylov_witness_linear(b, c, alpha, beta, spec), (b, c, ka, kb)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_build_automorphism_under_rational_conjugates_matches_the_krylov_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    t = data.draw(st.sampled_from([1, 2]), label="t")
    n = t * (p - 1)
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    q = QMatrix.of(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                      min_size=n, max_size=n), label="Q"))
    assume(q.det() != 0)
    spec = mg.build(p, m=q.inverse() * block_diag([companion(cyclotomic_prime(p))] * t) * q)
    ka, kb = (data.draw(st.integers(1, p - 1), label=label) for label in ("k_alpha", "k_beta"))
    b, c = (QVector(data.draw(st.lists(entries, min_size=n, max_size=n), label=label))
            for label in ("b", "c"))
    assume(not b.is_zero and not c.is_zero)
    alpha, beta = E(ka, QVector.zero(n)), E(kb, QVector.zero(n))
    linear = mg.build_automorphism(b, c, alpha, beta, spec).linear
    assert linear == krylov_witness_linear(b, c, alpha, beta, spec)


def test_build_automorphism_rejections(s21):
    alpha = E(1, QVector((0,)))
    with pytest.raises(ValueError, match="nonzero"):
        mg.build_automorphism(QVector.zero(1), QVector((1,)), alpha, alpha, s21)
    with pytest.raises(ValueError, match="outside"):
        mg.build_automorphism(QVector((1,)), QVector((1,)), E(0, QVector((1,))), alpha, s21)


def test_build_automorphism_rejects_bad_input_before_field_arithmetic(monkeypatch, s32):
    # a zero seed has no inverse in F^t, and a seed of the wrong length no
    # coordinates: each is refused before any basis or field kernel runs
    calls = count_calls(monkeypatch, mg, "semilinear_map", "cyclic_decomposition")
    alpha, inside = E(1, QVector.zero(4)), E(0, QVector.zero(4))
    b = QVector((1, 2, 0, 1))
    for args, match in (((b, QVector.zero(4), alpha, alpha), "nonzero"),
                        ((b, b, alpha, inside), "outside"),
                        ((QVector((1, 2)), b, alpha, alpha), "dimension"),
                        ((b, QVector((1, 2, 3, 4, 5)), alpha, alpha), "dimension"),
                        ((b, b, alpha, E(1, QVector((1,)))), "dimension")):
        with pytest.raises(ValueError, match=match):
            mg.build_automorphism(*args, s32)
    assert calls == {"semilinear_map": 0, "cyclic_decomposition": 0}


def test_tampered_linear_part_fails_verification(s32):
    # one coefficient of X bumped keeps L semilinear, so it fails only the
    # row identities; g off by one fails the intertwining, which the
    # sampled pairs see too
    alpha = E(1, QVector.zero(4))
    phi = mg.build_automorphism(
        QVector.unit(4, 0), QVector((1, 2, 0, 1)), alpha, alpha, s32
    )
    bumped = dataclasses.replace(phi, x=_bumped(phi.x, 1, 0, 0, 1))
    off = dataclasses.replace(phi, g=phi.g % 2 + 1)
    for bad, expected in ((bumped, {"linear_invertible"}),
                          (off, {"linear_invertible", "intertwining", "homomorphism_samples"})):
        assert {ch.name: ch.passed for ch in mg._product_checks(bad)} == _q_oracle(bad)[0]
        cert = mg.verify_automorphism(bad, samples=10)
        assert {c.name for c in cert.checks if not c.passed} == expected


def test_automorphism_preserves_orbit_classes(s32):
    rng = random.Random(5)
    alpha = E(1, QVector.zero(4))
    phi = mg.build_automorphism(
        QVector((2, 0, 1, 0)), QVector((0, 1, 0, 3)), alpha, alpha, s32
    )
    for _ in range(10):
        inside = E(0, mg.random_vector(rng, 4, nonzero=True))
        outside = mg.random_element(rng, s32, outside=True)
        assert mg.apply_automorphism(phi, inside).k == 0
        assert mg.apply_automorphism(phi, outside).k % 3 != 0


def test_compose_automorphisms(s32):
    rng = random.Random(30)
    alpha = E(1, QVector.zero(4))
    phi = mg.build_automorphism(QVector.unit(4, 0), QVector.unit(4, 2), alpha, alpha, s32)
    psi = mg.build_automorphism(QVector.unit(4, 1), QVector((1, 1, 1, 1)), alpha, alpha, s32)
    chained = compose_automorphisms(phi, psi, s32)
    for _ in range(10):
        g = mg.random_element(rng, s32)
        step = mg.apply_automorphism(psi, mg.apply_automorphism(phi, g))
        assert mg.apply_automorphism(chained, g) == step


# ---------------------------------------------------------------------------
# witness checks in F^t against oracles over Q

def _unit_triangular(rng: random.Random, n: int, upper: bool) -> QMatrix:
    """A unit triangular n x n matrix with small random rationals off the
    diagonal, so of determinant 1."""
    return QMatrix.of([[1 if i == j else Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                        if (j > i) == upper else 0 for j in range(n)] for i in range(n)])


@functools.cache
def _verdict_spec(p: int, t: int, conjugated: bool) -> mg.MixedGroupSpec:
    """The block companion spec, or its conjugate by a product of two random
    unit triangular rational matrices."""
    m = block_diag([companion(cyclotomic_prime(p))] * t)
    if conjugated:
        rng = random.Random(p * 10 + t)
        q = _unit_triangular(rng, m.n, True) * _unit_triangular(rng, m.n, False)
        m = q.inverse() * m * q
    return mg.build(p, t, m)


def _small_vector(rng: random.Random, n: int) -> QVector:
    while True:
        v = QVector.from_ints([rng.randint(-9, 9) for _ in range(n)], rng.randint(1, 9))
        if not v.is_zero:
            return v


def _q_oracle(w: mg.MixedAutomorphism) -> tuple[dict[str, bool], bool, QMatrix]:
    """The verdicts of ``mg._product_checks``, whether L carries the seed b
    to c, and L itself, all over Q from L' and L = K^-1 * L' * K assembled
    from (g, X) by ``semilinear_oracle``. Intertwining is read both in K's
    coordinates (``first_mismatch``) and densely (``dense_product_checks``),
    which must agree."""
    spec = w.spec
    p, (basis, basis_inv) = spec.p, spec.krylov
    k_alpha, k_beta = w.alpha.k % p, w.image_of_alpha.k % p
    field_form = semilinear_oracle(w)
    verdicts = dense_product_checks(w, spec)
    intertwines = k_beta != 0 and first_mismatch(field_form, p, k_alpha, k_beta) is None
    assert verdicts["intertwining"] == intertwines
    b, c = (QVector([y for e in row for y in e.entries]) * basis for row in w.seeds)
    linear = basis_inv * field_form * basis
    return verdicts, b * linear == c, linear


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_verdicts_equal_the_q_oracles(data):
    # On the honest witness, on X with one coefficient bumped, and with g or
    # beta's exponent redrawn, for L' and L assembled from (g, X) by the
    # oracle: g * k_alpha == k_beta mod p exactly when C^a * L' == L' * C^b
    # in K's coordinates and P * L == L * R over Q; b * X == sigma_(g^-1)(c)
    # exactly when b * L == c; and det L is derived exactly when L
    # intertwines and is the witness solved by elimination over Q.
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]), label="p")
    t = data.draw(st.sampled_from([t for t in (1, 2, 3) if t * (p - 1) <= 36]), label="t")
    n = t * (p - 1)
    spec = _verdict_spec(p, t, n <= 12 and data.draw(st.booleans(), label="conjugated"))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ka, kb = (data.draw(st.integers(1, p - 1), label=label) for label in ("k_alpha", "k_beta"))
    b, c = _small_vector(rng, n), _small_vector(rng, n)
    alpha, beta = E(ka, _small_vector(rng, n)), E(kb, _small_vector(rng, n))
    phi = mg.build_automorphism(b, c, alpha, beta, spec)
    honest = krylov_witness_linear(b, c, alpha, beta, spec)
    redrawn = E(data.draw(st.integers(0, p - 1), label="k_beta redrawn"), beta.a)
    variants = (phi, dataclasses.replace(phi, x=_bumped(phi.x, *_draw_bump(data, t, p))),
                dataclasses.replace(phi, g=data.draw(st.integers(1, p - 1), label="g redrawn")),
                dataclasses.replace(phi, image_of_alpha=redrawn))
    for w in variants:
        product_checks = mg._product_checks(w)
        verdicts = {ch.name: ch.passed for ch in product_checks}
        oracle, carried, linear = _q_oracle(w)
        assert verdicts == oracle and cy.carries(*w.seeds, w.x, w.g) == carried
        assert w.linear == linear
        derived = mg._linear_invertible(w, verdicts["intertwining"]).passed
        assert derived == (oracle["intertwining"] and linear == honest)
        if w is phi:
            assert derived and carried and all(verdicts.values())


def test_a_tampered_witness_fails_its_named_check():
    spec = mg.build(5, 2)
    b, c, alpha, beta = _witness_inputs(spec, 0)
    phi = mg.build_automorphism(b, c, alpha, beta, spec)

    def failed(witness):
        assert {ch.name: ch.passed for ch in mg._product_checks(witness)} == _q_oracle(witness)[0]
        cert = mg.verify_automorphism(witness, samples=0)
        return {ch.name: ch.detail for ch in cert.checks if not ch.passed}

    assert failed(phi) == {}
    # g off by one, or another k_alpha or k_beta: g * k_alpha != k_beta, so
    # L no longer intertwines, and det L, which rests on it, is not derived
    not_semilinear = "det(L) not derived: L does not intertwine P and R"
    for witness in (dataclasses.replace(phi, g=phi.g % 4 + 1),
                    dataclasses.replace(phi, alpha=E(alpha.k % 4 + 1, alpha.a)),
                    dataclasses.replace(phi, image_of_alpha=E(beta.k % 4 + 1, beta.a))):
        ka, kb = witness.alpha.k % 5, witness.image_of_alpha.k % 5
        assert failed(witness) == {
            "linear_invertible": not_semilinear,
            "intertwining": f"g * k_alpha = {witness.g * ka % 5} != k_beta = {kb} mod 5"}
    assert failed(dataclasses.replace(phi, image_of_alpha=E(0, beta.a))) == {
        "linear_invertible": not_semilinear,
        "intertwining": "image of anchor lies inside A",
        "image_order": "phi(alpha)^5 == identity: False"}
    # X with one coefficient bumped, X with two proportional rows, 2 * X,
    # the zero map, and the seeds swapped: L is semilinear, but misses the
    # seed row; the zero map carries b to a zero c, whose basis C is singular
    x = phi.x
    for tampered in (dict(x=_bumped(x, 1, 0, 2, 1)), dict(x=(x[0], tuple(e + e for e in x[0]))),
                     dict(x=tuple(tuple(e + e for e in row) for row in x)),
                     dict(x=((QVector.zero(4),) * 2,) * 2), dict(seeds=phi.seeds[::-1])):
        assert failed(dataclasses.replace(phi, **tampered)) == {
            "linear_invertible": "det(L) not derived: b_1 * L != c_1"}, tampered
    zero_c = (phi.seeds[0], (QVector.zero(4),) * 2)
    assert failed(dataclasses.replace(phi, x=((QVector.zero(4),) * 2,) * 2, seeds=zero_c)) == {
        "linear_invertible": "det(L) not derived: C_F is singular, as c = 0"}
    # the semilinear map from b to c between bases that take the rows of
    # K^-1 in reverse carries the seed row but not the second basis row
    reversed_units = QMatrix(spec.krylov[1].rows[::-1])
    other = cy.semilinear_map(*phi.seeds, reversed_units, 5, phi.g)
    assert failed(dataclasses.replace(phi, x=other)) == {
        "linear_invertible": "det(L) not derived: b_2 * L != c_2"}


_DET_SPECS = {f"p{p}_t{t}": (p, t, None) for p in (2, 3, 5, 7, 13) for t in (1, 2, 3) if t * (p - 1) <= 24}
_DET_SPECS["rational"] = (5, None, rational_action())


@pytest.mark.parametrize("p, t, m", _DET_SPECS.values(), ids=_DET_SPECS.keys())
def test_the_derived_det_equals_the_bareiss_oracle(p, t, m):
    # det L = (g | p)^t * N(det C) / N(det B) against Bareiss elimination of
    # L over Q, for every ratio g = k_beta / k_alpha up to p = 7, and a square
    # and a non-square at p = 13: at odd t a non-square g makes det L < 0.
    # Seeds are drawn in K's coordinates with many zeros, so B and C are
    # often chosen in a pivot order that is not the identity, whose sign
    # counts at p = 2, where N is the identity; the first draw takes the
    # last coordinate for b and the first for c, of odd pivot order for B
    # at even t.
    spec = mg.build(p, t, m)
    n, basis = spec.n, spec.krylov[0]
    rng = random.Random(p * 10 + spec.t)

    def seed():
        while True:
            u = QVector.from_ints([rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)], rng.randint(1, 4))
            if not u.is_zero:
                return u * basis

    draws = [(QVector.unit(n, n - 1) * basis, QVector.unit(n, 0) * basis, 1)]
    for g in ((1, 2) if p == 13 else range(1, p)):
        draws += [(seed(), seed(), g) for _ in range(2)]
    for b, c, g in draws:
        ka = rng.randrange(1, p)
        alpha, beta = E(ka, mg.random_vector(rng, n)), E(ka * g % p, mg.random_vector(rng, n))
        phi = mg.build_automorphism(b, c, alpha, beta, spec)
        cert = mg.verify_automorphism(phi, samples=0)
        assert cert.ok
        det = Fraction(cert.checks[0].detail.removeprefix("det(L) = "))
        assert det == bareiss_det(phi.linear), (b, c, g)
        if p > 2:
            assert (det > 0) == (cy._zolotarev_sign(g, p) ** spec.t > 0)


def test_omega_certificate_fails_a_witness_that_misses_its_seed(monkeypatch):
    # (g, 2 * X) intertwines whenever (g, X) does, but carries b to 2 * c
    real = mg.semilinear_map
    monkeypatch.setattr(mg, "semilinear_map",
                        lambda *args: tuple(tuple(e + e for e in row) for row in real(*args)))
    cert = mg.omega_certificate(mg.build(5, 2), 2)
    failed = {ch.name: ch.detail for ch in cert.checks if not ch.passed}
    assert list(failed) == ["transitivity_inside_A", "transitivity_outside_A"]
    assert all(d.startswith("constructed map does not carry") for d in failed.values())
    assert cert.meta["omega"] is None


def test_mixed_omega_builds_no_power_and_no_matrix_product(monkeypatch, capsys, tmp_path):
    # every witness is checked in F^t; only the group law of mixed auto's
    # sampled pairs powers M
    path = tmp_path / "action.json"
    path.write_text(json.dumps(rational_action().to_json()))
    built = []
    real = mg.MixedGroupSpec.__dict__["powers"].func
    monkeypatch.setattr(mg.MixedGroupSpec, "powers",
                        property(lambda spec: built.append(spec.p) or real(spec)))
    products = count_calls(monkeypatch, QMatrix, "__mul__")
    for argv in (["--p", "13", "--t", "2", "--pairs", "5"], ["--p", "5", "--matrix", str(path)]):
        assert cli.main(["--json", "mixed", "omega", *argv]) == 0
    assert built == [] and products == {"__mul__": 0}
    assert cli.main(["--json", "mixed", "auto", "--p", "5", "--t", "1"]) == 0
    assert built and products["__mul__"] > 0
    capsys.readouterr()


def test_omega_certificate_at_the_dimension_cap_peaks_under_64_mib():
    # p = 127, t = 1: checking the witnesses over Q built the 127 dense
    # powers of M (16 MiB) and L next to L', a 123 MiB peak in all
    spec = mg.build(127, 1)
    tracemalloc.start()
    try:
        assert mg.omega_certificate(spec, 1).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# the three-orbit certificate

def test_omega_certificate_small(s21):
    cert = mg.omega_certificate(s21, pairs_per_class=5, seed=11)
    assert cert.ok
    assert cert.meta["omega"] == 3
    names = [c.name for c in cert.checks]
    assert names == ["order_separation", "transitivity_inside_A", "transitivity_outside_A"]


def test_omega_certificate_makes_no_group_products(monkeypatch):
    # separation is the spec's identity and each witness is certified by
    # P*L == L*R, beta outside A and b*L == c, none of which multiplies
    spec = mg.build(7, 2)
    calls = _count_multiply(monkeypatch)
    assert mg.omega_certificate(spec, 20).ok
    assert calls[0] == 0


@pytest.mark.parametrize("spec", [mg.build(7, 2), mg.build(19, 1), mg.build(5, m=rational_action())],
                         ids=["p7_t2", "p19_t1", "rational"])
def test_omega_certificate_computes_no_det_and_no_full_inverse(monkeypatch, spec):
    # det L != 0 follows from the two F-bases of the witness, and K^-1, the
    # one inverse, was computed when the spec was built
    calls = count_calls(monkeypatch, QMatrix, "det", "inverse")
    assert mg.omega_certificate(spec, 3).ok
    assert calls == {"det": 0, "inverse": 0}


def test_omega_certificate_builds_one_krylov_basis_per_spec(monkeypatch):
    # every witness is solved in F^t through the spec's cyclic basis K and
    # K^-1, built with the spec; the certificate makes no elimination over Q
    spec = mg.build(7, 2)
    counts = count_eliminations(monkeypatch)
    for seed in (0, 1):
        assert mg.omega_certificate(spec, 20, seed=seed).ok
        assert counts() == {"det": 0, "inverse": 0, "cyclic_decomposition": 0}


def test_omega_certificate_formats_only_its_own_spec(monkeypatch):
    # the witness checks are read for their verdicts only; formatting each
    # witness's L and spec into metadata nobody reads cost about 60 ms a pass
    calls = 0
    real = QMatrix.to_json

    def counting(self):
        nonlocal calls
        calls += 1
        return real(self)

    monkeypatch.setattr(QMatrix, "to_json", counting)
    assert mg.omega_certificate(mg.build(7, 2), 20).ok
    assert calls <= 1


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
