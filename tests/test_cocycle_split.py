import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

from orbitforge import cocycle_split as cs
from orbitforge import group_core as gc
from orbitforge.exact_linear import QMatrix, QVector


def _c2_instance():
    """B = C2 with the trivial action on Q^1 and c(g, g) = (1), else 0."""
    c2 = gc.cyclic(2)
    action = gc.trivial_action(c2, 1)
    zero = QVector.zero(1)
    values = ((zero, zero), (zero, QVector.of(1)))
    return cs.Cocycle(c2, action, values)


def _sign_action_s3(dim: int) -> tuple[gc.GroupTable, gc.FiniteAction]:
    """S3 acting on Q^dim through its sign quotient: odd permutations negate."""
    s3 = gc.symmetric(3)
    perms = sorted(permutations(range(3)))
    mats = []
    for p in perms:
        inversions = sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
        sign = -1 if inversions % 2 else 1
        mats.append(QMatrix.identity(dim) * sign)
    return s3, gc.FiniteAction(s3, dim, 0, tuple(mats))


BASES = {
    "C2": lambda: gc.cyclic(2),
    "C3": lambda: gc.cyclic(3),
    "C2xC2": lambda: gc.elementary_abelian(2, 2),
    "S3": lambda: gc.symmetric(3),
    "C6": lambda: gc.cyclic(6),
}


# ---------------------------------------------------------------------------
# verification

def test_zero_cocycle_verifies():
    for name, build in BASES.items():
        b = build()
        zero = QVector.zero(2)
        values = tuple(tuple(zero for _ in range(b.order)) for _ in range(b.order))
        c = cs.Cocycle(b, gc.trivial_action(b, 2), values)
        assert cs.verify_cocycle(c) == (True, None), name


def test_coboundaries_verify():
    for seed, (name, build) in enumerate(BASES.items()):
        b = build()
        c = cs.random_cocycle(b, gc.trivial_action(b, 2), seed=seed)
        assert cs.verify_cocycle(c) == (True, None), name


def test_corrupted_cocycle_fails_with_witness():
    c3 = gc.cyclic(3)
    zero = QVector.zero(1)
    rows = [[zero for _ in range(3)] for _ in range(3)]
    rows[1][1] = QVector.of(1)  # c(g, g) = 1 is not a cocycle over C3
    c = cs.Cocycle(c3, gc.trivial_action(c3, 1), tuple(tuple(r) for r in rows))
    ok, witness = cs.verify_cocycle(c)
    assert not ok and witness is not None
    x, y, z = witness
    lhs = c.values[c3.table[x][y]][z] + c.values[x][y]
    rhs = c.values[x][c3.table[y][z]] + c.values[y][z]
    assert lhs != rhs


def test_normalization_enforced_at_construction():
    c2 = gc.cyclic(2)
    one = QVector.of(1)
    zero = QVector.zero(1)
    with pytest.raises(ValueError, match="normalized"):
        cs.Cocycle(c2, gc.trivial_action(c2, 1), ((one, zero), (zero, zero)))


def test_characteristic_zero_required():
    c2 = gc.cyclic(2)
    act = gc.trivial_action(c2, 1, characteristic=3)
    zero = QVector.zero(1)
    with pytest.raises(ValueError, match="characteristic"):
        cs.Cocycle(c2, act, ((zero, zero), (zero, zero)))


# ---------------------------------------------------------------------------
# extension arithmetic

def test_extension_multiply_on_kernel():
    c = _c2_instance()
    a, b = QVector.of("1/2"), QVector.of(3)
    prod = cs.extension_multiply(cs.ExtensionElement(0, a), cs.ExtensionElement(0, b), c)
    assert prod == cs.ExtensionElement(0, a + b)


def test_zero_cocycle_is_semidirect_law():
    s3, action = _sign_action_s3(2)
    zero = QVector.zero(2)
    values = tuple(tuple(zero for _ in range(6)) for _ in range(6))
    c = cs.Cocycle(s3, action, values)
    rng = random.Random(0)
    for _ in range(15):
        x, y = rng.randrange(6), rng.randrange(6)
        a = QVector.of(rng.randint(-5, 5), rng.randint(-5, 5))
        b = QVector.of(rng.randint(-5, 5), rng.randint(-5, 5))
        got = cs.extension_multiply(cs.ExtensionElement(x, a), cs.ExtensionElement(y, b), c)
        assert got == cs.ExtensionElement(s3.table[x][y], a * action.matrices[y] + b)


def test_extension_multiply_associative_for_verified_cocycle():
    s3, action = _sign_action_s3(2)
    c = cs.random_cocycle(s3, action, seed=77)
    rng = random.Random(8)
    for _ in range(20):
        es = [
            cs.ExtensionElement(
                rng.randrange(6),
                QVector.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                           Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
            )
            for _ in range(3)
        ]
        lhs = cs.extension_multiply(cs.extension_multiply(es[0], es[1], c), es[2], c)
        rhs = cs.extension_multiply(es[0], cs.extension_multiply(es[1], es[2], c), c)
        assert lhs == rhs


def test_extension_multiply_refuses_invalid_cocycle():
    c3 = gc.cyclic(3)
    zero = QVector.zero(1)
    rows = [[zero for _ in range(3)] for _ in range(3)]
    rows[1][1] = QVector.of(1)
    bad = cs.Cocycle(c3, gc.trivial_action(c3, 1), tuple(tuple(r) for r in rows))
    with pytest.raises(cs.CocycleError):
        cs.extension_multiply(cs.ExtensionElement(0, zero), cs.ExtensionElement(0, zero), bad)


# ---------------------------------------------------------------------------
# trivialization

def test_trivialize_frozen_c2_example():
    c = _c2_instance()
    e = cs.trivialize(c)
    assert e[0] == QVector.zero(1)
    assert e[1] == QVector.of(Fraction(-1, 2))
    # oracle: with e(1) = 0 and the trivial action, the single unknown solves
    # c(g, g) = e(1) - 2 e(g), so e(g) = -c(g, g) / 2 exactly
    assert e[1] == QVector.of(-Fraction(1) / 2)


def test_trivialize_zero_cocycle():
    c3 = gc.cyclic(3)
    zero = QVector.zero(2)
    values = tuple(tuple(zero for _ in range(3)) for _ in range(3))
    c = cs.Cocycle(c3, gc.trivial_action(c3, 2), values)
    assert all(v.is_zero for v in cs.trivialize(c))


def test_trivialize_satisfies_relation_independently():
    s3, action = _sign_action_s3(3)
    c = cs.random_cocycle(s3, action, seed=123)
    e = cs.trivialize(c)
    for y in range(6):
        for z in range(6):
            assert c.values[y][z] == e[s3.table[y][z]] - e[y] * action.matrices[z] - e[z]


def test_trivialize_need_not_recover_the_cochain():
    # the averaged e trivializes, but it is a different cochain than the one
    # the coboundary was built from. Two trivializers of one cocycle differ
    # by a 1-cocycle, so this needs Z^1 != 0: under the trivial action
    # Z^1(C2, Q) = Hom(C2, Q) = 0 would force e == f. Under the sign action
    # (M_g = -1) f = (0, 7) is itself a 1-cocycle, c vanishes and e = 0.
    c2 = gc.cyclic(2)
    action = gc.cyclic_matrix_action(c2, [[-1]])
    f = [QVector.zero(1), QVector.of(7)]
    c = cs.coboundary(f, c2, action)
    e = cs.trivialize(c)
    assert e[1] != f[1]
    assert c.values[1][1] == e[0] - e[1] * action.matrices[1] - e[1]


# ---------------------------------------------------------------------------
# complements

def test_complement_frozen_c2_example():
    c = _c2_instance()
    h = cs.complement(c)
    assert h == [cs.ExtensionElement(0, QVector.zero(1)),
                 cs.ExtensionElement(1, QVector.of(Fraction(-1, 2)))]
    assert cs.extension_multiply(h[1], h[1], c) == cs.extension_identity(c)


def test_complement_zero_cocycle_is_obvious():
    c3 = gc.cyclic(3)
    zero = QVector.zero(1)
    values = tuple(tuple(zero for _ in range(3)) for _ in range(3))
    c = cs.Cocycle(c3, gc.trivial_action(c3, 1), values)
    assert cs.complement(c) == [cs.ExtensionElement(x, zero) for x in range(3)]


def test_complement_is_multiplicative_section():
    s3, action = _sign_action_s3(2)
    c = cs.random_cocycle(s3, action, seed=31)
    h = cs.complement(c)
    assert len(h) == 6
    assert len({s.x for s in h}) == 6  # injective
    for y in range(6):
        for z in range(6):
            assert cs.extension_multiply(h[y], h[z], c) == h[s3.table[y][z]]


def test_trivialize_and_complement_across_bases():
    for seed_base, (name, build) in enumerate(BASES.items()):
        b = build()
        for n in (1, 2, 3):
            for seed in (0, 1):
                c = cs.random_cocycle(b, gc.trivial_action(b, n), seed=seed_base * 10 + seed)
                h = cs.complement(c)
                assert len(h) == b.order, (name, n)


def test_random_cocycle_deterministic():
    s3, action = _sign_action_s3(2)
    c1 = cs.random_cocycle(s3, action, seed=9)
    c2 = cs.random_cocycle(s3, action, seed=9)
    c3 = cs.random_cocycle(s3, action, seed=10)
    assert c1.values == c2.values
    assert c1.values != c3.values


def test_cocycle_json_roundtrip():
    s3, action = _sign_action_s3(2)
    c = cs.random_cocycle(s3, action, seed=2)
    data = json.loads(json.dumps(c.to_json()))
    back = cs.Cocycle.from_json(data)
    assert back.values == c.values
    assert back.base.table == c.base.table
    assert cs.verify_cocycle(back) == (True, None)
