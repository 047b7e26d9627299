import json
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BAD_RATIONALS,
    QUOTED_RATIONALS,
    TOO_MANY_DIGITS,
    brute_force_cocycle,
    action_matrices,
    cocycle_check,
    cocycle_of,
    cocycle_values,
    cocycle_witness,
    companion,
    count_calls,
    cyclotomic_prime,
    extension_identity,
    fraction_vecmul,
    fraction_vecsub,
    num_den,
    perfbench_inputs,
    permutation_action,
    random_cocycle,
    trivialization_failures,
)
from orbitforge import cocycle_split as cs
from orbitforge import group_core as gc
from orbitforge.exact_linear import QMatrix, QVector, _rationals


def _c2_instance():
    """B = C2 with the trivial action on Q^1 and c(g, g) = (1), else 0."""
    c2 = gc.cyclic(2)
    action = gc.trivial_action(c2, 1)
    zero = QVector.zero(1)
    values = ((zero, zero), (zero, QVector((1,))))
    return cocycle_of(c2, action, values)


def _sign_action_s3(dim: int) -> tuple[gc.GroupTable, gc.FiniteAction]:
    """S3 acting on Q^dim through its sign quotient: odd permutations negate."""
    s3 = gc.symmetric(3)
    perms = sorted(permutations(range(3)))
    ident = QMatrix.identity(dim)
    mats = []
    for p in perms:
        inversions = sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
        mats.append(-ident if inversions % 2 else ident)
    return s3, gc.FiniteAction(s3, dim, 0, tuple(mats))


def _construction_verdict(base, action, values) -> tuple[bool, tuple[int, int, int] | None]:
    """verify_cocycle's verdict on a raw value table, as construction reports
    it: (True, None) when the Cocycle builds, (False, witness) when it raises
    CocycleError."""
    try:
        c = cocycle_of(base, action, values)
    except cs.CocycleError as exc:
        return False, exc.witness
    assert cs.verify_cocycle(c) == (True, None)
    return True, None


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
        c = cocycle_of(b, gc.trivial_action(b, 2), values)
        assert cs.verify_cocycle(c) == (True, None), name


def test_coboundaries_verify():
    for seed, (name, build) in enumerate(BASES.items()):
        b = build()
        c = random_cocycle(b, gc.trivial_action(b, 2), seed=seed)
        assert cs.verify_cocycle(c) == (True, None), name


def test_corrupted_cocycle_fails_with_witness():
    c3 = gc.cyclic(3)
    action = gc.trivial_action(c3, 1)
    zero = QVector.zero(1)
    rows = [[zero for _ in range(3)] for _ in range(3)]
    rows[1][1] = QVector((1,))  # c(g, g) = 1 is not a cocycle over C3
    values = tuple(tuple(r) for r in rows)
    with pytest.raises(cs.CocycleError, match="cocycle identity fails at triple") as info:
        cocycle_of(c3, action, values)
    x, y, z = witness = info.value.witness
    assert witness == cocycle_witness(c3, action, values, c3.generators)
    lhs = values[c3.table[x][y]][z] + values[x][y]
    rhs = values[x][c3.table[y][z]] + values[y][z]
    assert lhs != rhs


#: a rational change of basis with det 3, for an action with fractional entries
_P = QMatrix.of([[2, "1/2", 0, 0], [0, 1, "1/3", 0], [0, 0, "3/2", 1], [0, 0, 0, 1]])


def _conjugated(g: gc.GroupTable, action: gc.FiniteAction, p: QMatrix) -> gc.FiniteAction:
    """x -> P^-1 M_x P, an action isomorphic to the given one."""
    p_inv = p.inverse()
    return gc.FiniteAction(g, action.module_dim, 0, tuple(p_inv * m * p for m in action_matrices(action)))


def _small_actions():
    c6 = gc.cyclic(6)
    s3 = gc.symmetric(3)
    a4 = gc.alternating(4)
    return {
        "C6_sign": (c6, gc.cyclic_matrix_action(c6, [[-1]])),
        "S3_sign": _sign_action_s3(2),
        "S3_perm": (s3, permutation_action(s3)),
        "A4_perm": (a4, permutation_action(a4)),
        "A4_perm_rational": (a4, _conjugated(a4, permutation_action(a4), _P)),
        "A4_trivial": (a4, gc.trivial_action(a4, 1)),
    }


SMALL_ACTIONS = _small_actions()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_cocycle_matches_all_triples_oracle(data):
    # verify_cocycle checks generator middles only: its verdict must match
    # the all-triples scan, and its witness the generator-order scan, a
    # triple at which the identity fails
    name = data.draw(st.sampled_from(sorted(SMALL_ACTIONS)), label="action")
    b, action = SMALL_ACTIONS[name]
    c = random_cocycle(b, action, seed=data.draw(st.integers(0, 999), label="seed"))
    rows = [list(r) for r in cocycle_values(c)]
    cells = data.draw(st.lists(st.tuples(st.integers(1, b.order - 1), st.integers(1, b.order - 1)),
                               min_size=1, max_size=2), label="cells")
    for x, y in cells:
        bump = [Fraction(data.draw(st.integers(-3, 3), label="bump")) for _ in range(action.module_dim)]
        rows[x][y] = rows[x][y] + QVector(tuple(bump))
    values = tuple(tuple(r) for r in rows)
    ok, witness = _construction_verdict(b, action, values)
    assert ok == brute_force_cocycle(b, action, values)[0]
    assert witness == cocycle_witness(b, action, values, b.generators)
    assert ok or cocycle_check(b, action, values)(*witness)


def test_rational_action_has_matrices_over_different_denominators():
    # the common denominator E of the action is only exercised when the
    # matrices have non-integer entries, and unequal denominators
    _, action = SMALL_ACTIONS["A4_perm_rational"]
    dens = {max(e.denominator for row in m.rows for e in row) for m in action_matrices(action)}
    assert 1 in dens and len(dens) > 2


@pytest.mark.parametrize("name", sorted(SMALL_ACTIONS))
def test_trivializer_satisfies_relation_in_fractions(name):
    # c(y, z) = e(yz) - e(y) M_z - e(z) at every pair, recomputed with the
    # entry-wise Fraction oracles
    b, action = SMALL_ACTIONS[name]
    c = random_cocycle(b, action, seed=len(name))
    e = cs.trivialize(c)
    t, mats = b.table, action_matrices(action)
    for y in range(b.order):
        for z in range(b.order):
            rhs = fraction_vecsub(fraction_vecsub(e[t[y][z]], fraction_vecmul(e[y], mats[z])),
                                  e[z])
            assert cocycle_values(c)[y][z] == rhs, (y, z)


def test_every_generator_is_checked_as_a_middle():
    # on C2 x C2 (generators 1, 2) with c(2, 3) = c(3, 2) = 1, the identity
    # holds whenever y = 1 but not for every y: a check that skipped a
    # generator would accept it
    v4 = gc.elementary_abelian(2, 2)
    assert v4.generators == (1, 2)
    zero, one = QVector.zero(1), QVector((1,))
    rows = [[zero] * 4 for _ in range(4)]
    rows[2][3] = rows[3][2] = one
    action, v = gc.trivial_action(v4, 1), tuple(tuple(r) for r in rows)
    t = v4.table
    assert all(v[t[x][1]][z] + v[x][1] == v[x][t[1][z]] + v[1][z] for x in range(4) for z in range(4))
    assert not brute_force_cocycle(v4, action, v)[0]
    with pytest.raises(cs.CocycleError) as info:
        cocycle_of(v4, action, v)
    assert info.value.witness == cocycle_witness(v4, action, v, v4.generators)


def test_verify_and_trivialize_work_is_bounded_by_generators(monkeypatch):
    # one whole-array pass over (x, z) per middle, and only the generators are
    # middles of a valid cocycle: a silent return to the |B|^3 scan would make
    # 60 passes on A5. trivialize derives its relation from the identity that
    # construction proved, so it runs no Light test at all.
    a5 = gc.alternating(5)
    c = random_cocycle(a5, gc.trivial_action(a5, 2), seed=5)
    middles = []
    middle_failures = cs._middle_failures

    def counting_middle(c, y, lo, hi):
        middles.append(y)
        return middle_failures(c, y, lo, hi)

    monkeypatch.setattr(cs, "_middle_failures", counting_middle)
    assert cs.verify_cocycle(c) == (True, None)
    assert middles == list(a5.generators)
    calls = count_calls(monkeypatch, cs, "_middle_failures", "_first_failure")
    cs.trivialize(c)  # c was verified when it was built
    assert calls == {"_middle_failures": 0, "_first_failure": 0}


def test_a_corrupted_cocycle_checks_no_middle_past_its_first_failing_generator(monkeypatch):
    # c(1, 1) = 1 on A5 fails with the first generator in the middle: the
    # witness is that generator's first failure, found in one pass, with no
    # rescan of the other middles
    a5 = gc.alternating(5)
    action = gc.trivial_action(a5, 1)
    rows = [[QVector.zero(1)] * 60 for _ in range(60)]
    rows[1][1] = QVector((1,))
    expected = cocycle_witness(a5, action, rows, a5.generators)
    assert expected[1] == a5.generators[0]
    calls = []
    middle_failures = cs._middle_failures

    def counting(c, y, lo, hi):
        calls.append((y, lo, hi))
        return middle_failures(c, y, lo, hi)

    monkeypatch.setattr(cs, "_middle_failures", counting)
    with pytest.raises(cs.CocycleError) as info:
        cocycle_of(a5, action, rows)
    assert info.value.witness == expected
    assert calls == [(a5.generators[0], 0, 60)]


def test_a_failure_in_the_second_row_block_is_found_there(monkeypatch):
    # over C300 the rows x go in blocks of 256; c(280, 7) = 1 breaks the
    # identity with the one generator 1 in the middle only at x = 279 and
    # x = 280, so the first block passes and the second names the witness
    b = gc.cyclic(300)
    action = gc.trivial_action(b, 1)
    rows = [[QVector.zero(1)] * 300 for _ in range(300)]
    rows[280][7] = QVector((1,))
    calls = []
    middle_failures = cs._middle_failures

    def recording(c, y, lo, hi):
        calls.append((y, lo, hi))
        return middle_failures(c, y, lo, hi)

    monkeypatch.setattr(cs, "_middle_failures", recording)
    with pytest.raises(cs.CocycleError) as info:
        cocycle_of(b, action, rows)
    assert info.value.witness == (279, 1, 7) == cocycle_witness(b, action, rows, b.generators)
    assert cocycle_check(b, action, rows)(*info.value.witness)
    assert calls == [(1, 0, 256), (1, 256, 300)]


@pytest.mark.parametrize("field", ["base", "action", "den", "values"])
def test_a_built_cocycle_cannot_be_changed(field):
    # construction verified the identity on these fields, so none may be
    # reassigned, and the arrays, the action's included, are read-only
    c = _c2_instance()
    with pytest.raises(AttributeError):
        setattr(c, field, None)
    with pytest.raises(ValueError, match="read-only"):
        c.values[1, 1, 0] = 2
    with pytest.raises(ValueError, match="read-only"):
        c.action.matrices[1, 0, 0] = 2
    assert cocycle_values(c)[1][1] == QVector((1,))


def test_normalization_enforced_at_construction():
    c2 = gc.cyclic(2)
    one = QVector((1,))
    zero = QVector.zero(1)
    with pytest.raises(ValueError, match="normalized"):
        cocycle_of(c2, gc.trivial_action(c2, 1), ((one, zero), (zero, zero)))


def test_characteristic_zero_required():
    c2 = gc.cyclic(2)
    act = gc.trivial_action(c2, 1, characteristic=3)
    zero = QVector.zero(1)
    with pytest.raises(ValueError, match="characteristic"):
        cocycle_of(c2, act, ((zero, zero), (zero, zero)))


@pytest.mark.parametrize("k", [1, 6, 2**70], ids=["k=1", "k=6", "k=2^70"])
@pytest.mark.parametrize("name", ["A4_perm_rational", "S3_sign"])
def test_a_cocycle_over_a_multiple_of_its_denominator_builds_the_same_form(name, k):
    # the constructor puts the table in lowest terms before it picks the
    # dtype, so k * values over k * den is the same cocycle, dtype included;
    # at k = 2^70 the unreduced entries are far past int64
    b, action = SMALL_ACTIONS[name]
    c = random_cocycle(b, action, seed=5)
    assert c.den > 1 and c.values.dtype == np.int64
    scaled = c.values.astype(object) * k
    for table in (scaled, scaled.tolist()):
        same = cs.Cocycle(b, action, table, c.den * k)
        assert same.den == c.den
        assert same.values.dtype == c.values.dtype and np.array_equal(same.values, c.values)
        assert same.to_json() == c.to_json()


@pytest.mark.parametrize("bad", [True, 0.5, "1/2", Fraction(1, 2)], ids=["bool", "float", "str", "Fraction"])
def test_cocycle_entries_must_be_ints(bad):
    c2 = gc.cyclic(2)
    table = [[[0], [0]], [[0], [bad]]]
    with pytest.raises(ValueError, match=rf"^cocycle values must be integers, got {re.escape(repr(bad))}$"):
        cs.Cocycle(c2, gc.trivial_action(c2, 1), table)


def test_a_long_cocycle_entry_is_shortened_in_its_message():
    # its repr has 114 characters; quoted whole, a longer one grows the line
    c2 = gc.cyclic(2)
    table = [[[0], [0]], [[0], [Fraction(10**100, 3)]]]
    with pytest.raises(ValueError) as info:
        cs.Cocycle(c2, gc.trivial_action(c2, 1), table)
    assert str(info.value) == ("cocycle values must be integers,"
                               " got a Fraction whose repr has 114 characters (Fraction(100...)")


@pytest.mark.parametrize("table", [
    [[[0], [0]], [[0]]],
    [[[0], [0]], [[0], [0, 1]]],
    [[[0], [0]], [[0], 1]],
    [[[0], [0]], [[0], [0]], [[0], [0]]],
    np.zeros((2, 2, 2), dtype=np.int64),
], ids=["ragged row", "long value", "int value", "three rows", "array of the wrong shape"])
def test_misshapen_cocycle_table_names_the_expected_shape(table):
    c2 = gc.cyclic(2)
    with pytest.raises(ValueError, match=r"^cocycle values must be an integer table of shape \(2, 2, 1\)$"):
        cs.Cocycle(c2, gc.trivial_action(c2, 1), table)


# ---------------------------------------------------------------------------
# extension arithmetic

def test_extension_multiply_on_kernel():
    c = _c2_instance()
    a, b = QVector(("1/2",)), QVector((3,))
    prod = cs.extension_multiply(cs.ExtensionElement(0, a), cs.ExtensionElement(0, b), c)
    assert prod == cs.ExtensionElement(0, a + b)


def test_zero_cocycle_is_semidirect_law():
    s3, action = _sign_action_s3(2)
    zero = QVector.zero(2)
    values = tuple(tuple(zero for _ in range(6)) for _ in range(6))
    c = cocycle_of(s3, action, values)
    rng = random.Random(0)
    t, mats = s3.table, action_matrices(action)
    for _ in range(15):
        x, y = rng.randrange(6), rng.randrange(6)
        a = QVector((rng.randint(-5, 5), rng.randint(-5, 5)))
        b = QVector((rng.randint(-5, 5), rng.randint(-5, 5)))
        got = cs.extension_multiply(cs.ExtensionElement(x, a), cs.ExtensionElement(y, b), c)
        assert got == cs.ExtensionElement(t[x][y], a * mats[y] + b)


def test_extension_multiply_associative_for_verified_cocycle():
    s3, action = _sign_action_s3(2)
    c = random_cocycle(s3, action, seed=77)
    rng = random.Random(8)
    for _ in range(20):
        es = [
            cs.ExtensionElement(
                rng.randrange(6),
                QVector((Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                         Fraction(rng.randint(-6, 6), rng.randint(1, 4)))),
            )
            for _ in range(3)
        ]
        lhs = cs.extension_multiply(cs.extension_multiply(es[0], es[1], c), es[2], c)
        rhs = cs.extension_multiply(es[0], cs.extension_multiply(es[1], es[2], c), c)
        assert lhs == rhs


def test_extension_multiply_refuses_invalid_cocycle():
    # extension_multiply takes a Cocycle, and a failing table never becomes one
    c3 = gc.cyclic(3)
    action = gc.trivial_action(c3, 1)
    zero = QVector.zero(1)
    rows = [[zero for _ in range(3)] for _ in range(3)]
    rows[1][1] = QVector((1,))
    values = tuple(tuple(r) for r in rows)
    with pytest.raises(cs.CocycleError) as info:
        cocycle_of(c3, action, values)
    assert info.value.witness == cocycle_witness(c3, action, values, c3.generators)


# ---------------------------------------------------------------------------
# trivialization

def test_trivialize_frozen_c2_example():
    c = _c2_instance()
    e = cs.trivialize(c)
    assert e[0] == QVector.zero(1)
    assert e[1] == QVector((Fraction(-1, 2),))
    # oracle: with e(1) = 0 and the trivial action, the single unknown solves
    # c(g, g) = e(1) - 2 e(g), so e(g) = -c(g, g) / 2 exactly
    assert e[1] == QVector((-Fraction(1) / 2,))


def test_trivialize_zero_cocycle():
    c3 = gc.cyclic(3)
    zero = QVector.zero(2)
    values = tuple(tuple(zero for _ in range(3)) for _ in range(3))
    c = cocycle_of(c3, gc.trivial_action(c3, 2), values)
    assert all(v.is_zero for v in cs.trivialize(c))


def test_trivialize_satisfies_relation_independently():
    s3, action = _sign_action_s3(3)
    c = random_cocycle(s3, action, seed=123)
    e = cs.trivialize(c)
    t, mats = s3.table, action_matrices(action)
    for y in range(6):
        for z in range(6):
            assert cocycle_values(c)[y][z] == e[t[y][z]] - e[y] * mats[z] - e[z]


def test_trivialize_need_not_recover_the_cochain():
    # the averaged e trivializes, but it is a different cochain than the one
    # the coboundary was built from. Two trivializers of one cocycle differ
    # by a 1-cocycle, so this needs Z^1 != 0: under the trivial action
    # Z^1(C2, Q) = Hom(C2, Q) = 0 would force e == f. Under the sign action
    # (M_g = -1) f = (0, 7) is itself a 1-cocycle, c vanishes and e = 0.
    c2 = gc.cyclic(2)
    action = gc.cyclic_matrix_action(c2, [[-1]])
    f = [QVector.zero(1), QVector((7,))]
    c = cs.coboundary(f, c2, action)
    e = cs.trivialize(c)
    assert e[1] != f[1]
    assert cocycle_values(c)[1][1] == e[0] - e[1] * action_matrices(action)[1] - e[1]
    assert trivialization_failures(c, e) is None


# ---------------------------------------------------------------------------
# complements

def test_complement_frozen_c2_example():
    c = _c2_instance()
    h = cs.complement(c)
    assert h == [cs.ExtensionElement(0, QVector.zero(1)),
                 cs.ExtensionElement(1, QVector((Fraction(-1, 2),)))]
    assert cs.extension_multiply(h[1], h[1], c) == extension_identity(c)


def test_complement_zero_cocycle_is_obvious():
    c3 = gc.cyclic(3)
    zero = QVector.zero(1)
    values = tuple(tuple(zero for _ in range(3)) for _ in range(3))
    c = cocycle_of(c3, gc.trivial_action(c3, 1), values)
    assert cs.complement(c) == [cs.ExtensionElement(x, zero) for x in range(3)]


def test_complement_is_multiplicative_section():
    s3, action = _sign_action_s3(2)
    c = random_cocycle(s3, action, seed=31)
    h = cs.complement(c)
    assert len(h) == 6
    assert len({s.x for s in h}) == 6  # injective
    t = s3.table
    for y in range(6):
        for z in range(6):
            assert cs.extension_multiply(h[y], h[z], c) == h[t[y][z]]


def test_complement_reads_inverse_matrices_off_the_table(monkeypatch):
    # C3 acting on Q^2 by the companion matrix of 1 + x + x^2, so that
    # M_g^-1 = M_(g^2) differs from M_g; complement may not eliminate
    c3 = gc.cyclic(3)
    m = companion(cyclotomic_prime(3))
    action = gc.FiniteAction(c3, 2, 0, (QMatrix.identity(2), m, m * m))
    c = random_cocycle(c3, action, seed=4)

    def no_elimination(self):
        raise AssertionError("complement must not compute a determinant or an inverse")

    monkeypatch.setattr(QMatrix, "det", no_elimination)
    monkeypatch.setattr(QMatrix, "inverse", no_elimination)
    h = cs.complement(c)
    t = c3.table
    for y in range(3):
        for z in range(3):
            assert cs.extension_multiply(h[y], h[z], c) == h[t[y][z]]


def test_complement_multiplies_no_extension_elements(monkeypatch):
    # every property of H is proved by trivialize and the checks behind it
    s3 = gc.symmetric(3)
    c = random_cocycle(s3, gc.trivial_action(s3, 2), seed=6)
    calls = [0]
    real = cs.extension_multiply

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(cs, "extension_multiply", counting)
    cs.complement(c)
    assert calls[0] == 0


def test_trivialize_and_complement_across_bases():
    for seed_base, (name, build) in enumerate(BASES.items()):
        b = build()
        for n in (1, 2, 3):
            for seed in (0, 1):
                c = random_cocycle(b, gc.trivial_action(b, n), seed=seed_base * 10 + seed)
                h = cs.complement(c)
                assert len(h) == b.order, (name, n)
                assert trivialization_failures(c, [s.a for s in h]) is None, (name, n)


def test_random_cocycle_deterministic():
    s3, action = _sign_action_s3(2)
    c1 = random_cocycle(s3, action, seed=9)
    c2 = random_cocycle(s3, action, seed=9)
    c3 = random_cocycle(s3, action, seed=10)
    assert cocycle_values(c1) == cocycle_values(c2)
    assert cocycle_values(c1) != cocycle_values(c3)


def test_cocycle_json_roundtrip():
    s3, action = _sign_action_s3(2)
    c = random_cocycle(s3, action, seed=2)
    data = json.loads(json.dumps(c.to_json()))
    back = cs.Cocycle.from_json(data)
    assert cocycle_values(back) == cocycle_values(c)
    assert back.base.table == c.base.table
    assert cs.verify_cocycle(back) == (True, None)


# ---------------------------------------------------------------------------
# the integer form: a coboundary built from arrays, and exactness past int64

def _fraction_coboundary(f, b, action):
    """c(x, y) = f(xy) - f(x) M_y - f(y) at every pair, in the entry-wise
    Fraction oracles."""
    t, mats = b.table, action_matrices(action)
    return [[fraction_vecsub(fraction_vecsub(f[t[x][y]], fraction_vecmul(f[x], mats[y])), f[y])
             for y in range(b.order)] for x in range(b.order)]


def _fraction_trivializer(values, order):
    """e(y) = -(1/|B|) * sum_x c(x, y), summed in Fractions."""
    dim = values[0][0].dim
    return [QVector(tuple(-sum(values[x][y].entries[i] for x in range(order)) / order
                          for i in range(dim)))
            for y in range(order)]


@pytest.mark.parametrize("name", sorted(SMALL_ACTIONS))
def test_coboundary_values_match_the_fraction_oracle(name):
    b, action = SMALL_ACTIONS[name]
    rng = random.Random(len(name))
    f = [QVector.zero(action.module_dim)] + [
        QVector(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(action.module_dim)))
        for _ in range(b.order - 1)]
    c = cs.coboundary(f, b, action)
    assert [list(row) for row in cocycle_values(c)] == _fraction_coboundary(f, b, action)
    # the constructor and the JSON reader build the same integer form
    assert cocycle_of(b, action, cocycle_values(c)).to_json() == c.to_json()
    assert cocycle_values(cs.Cocycle.from_json(json.loads(json.dumps(c.to_json())))) == cocycle_values(c)


#: Distinct primes, two of them above 2^60, whose product as one common
#: denominator D is far past 2^63.
_PRIMES = (2**61 - 1, 2**31 - 1, 10**9 + 7, 10**9 + 9, 998244353, 2**89 - 1, 65537, 257)


def _past_int64_cochains():
    rng = random.Random(11)
    b, action = SMALL_ACTIONS["A4_perm_rational"]
    n = action.module_dim
    by_prime = [QVector.zero(n)] + [
        QVector(tuple(Fraction(rng.randint(-9, 9), rng.choice(_PRIMES)) for _ in range(n)))
        for _ in range(b.order - 1)]
    near_2_62 = [QVector.zero(n)] + [
        QVector(tuple(Fraction(2**62 - rng.randint(0, 99) * rng.choice((1, -1))) for _ in range(n)))
        for _ in range(b.order - 1)]
    return {"prime denominators": (b, action, by_prime), "numerators near 2^62": (b, action, near_2_62)}


def _corrupted_entry(values, rng):
    """values with one entry off the identity row and column moved by 1
    toward 0, or set to 1 if it lies strictly between -1 and 1: an integer
    entry never grows in size."""
    rows = [list(r) for r in values]
    x, y = rng.randrange(1, len(rows)), rng.randrange(1, len(rows))
    i = rng.randrange(rows[x][y].dim)
    entries = list(rows[x][y].entries)
    entries[i] = entries[i] - 1 if entries[i] >= 1 else entries[i] + 1 if entries[i] <= -1 else Fraction(1)
    rows[x][y] = QVector(tuple(entries))
    return tuple(tuple(r) for r in rows)


def _check_exact(b, action, f):
    """The cocycle of f against the Fraction oracles: it verifies, its
    trivializer is the averaged one, and a corrupted entry fails the
    all-triples scan and is reported at the witness of the generator-order
    scan."""
    c = cs.coboundary(f, b, action)
    assert cs.verify_cocycle(c) == (True, None)
    expected = _fraction_coboundary(f, b, action)
    assert [list(row) for row in cocycle_values(c)] == expected
    assert list(cs.trivialize(c)) == _fraction_trivializer(expected, b.order)
    values = _corrupted_entry(cocycle_values(c), random.Random(b.order))
    with pytest.raises(cs.CocycleError) as info:
        cocycle_of(b, action, values)
    assert not brute_force_cocycle(b, action, values)[0]
    assert info.value.witness == cocycle_witness(b, action, values, b.generators)
    return c


@pytest.mark.parametrize("name", ["prime denominators", "numerators near 2^62"])
def test_cocycles_past_int64_run_exactly_on_python_ints(name):
    b, action, f = _past_int64_cochains()[name]
    c = _check_exact(b, action, f)
    assert c.values.dtype == object


@pytest.mark.parametrize("scale, trivialize_dtype", [(1, np.int64), (2, object)],
                         ids=["both int64", "trivialize on python ints"])
def test_cocycles_just_under_the_int64_bound_stay_exact(scale, trivialize_dtype):
    # an integer cochain K * g, with K the largest for which the bound
    # |B| * max|V| of trivialize's column sums is below 2^63: verify and
    # trivialize both run on int64. At 2K only the sums' bound is past 2^63,
    # as the bound max|V| * (3E + d * m) of the checks is 4 * max|V| for A4
    # acting trivially on Q.
    b, action = SMALL_ACTIONS["A4_trivial"]
    rng = random.Random(3)
    g = [QVector.zero(1)] + [QVector([rng.randint(-9, 9)]) for _ in range(11)]
    unit = int(abs(cs.coboundary(g, b, action).values).max())
    k = scale * (2**63 - 1) // (b.order * unit)
    c = _check_exact(b, action, [QVector.from_ints([k * x for x in v.nums], 1) for v in g])
    assert c.values.dtype == np.int64
    nb_bound = b.order * int(abs(c.values).max())
    assert nb_bound == b.order * k * unit
    assert (nb_bound < 2**63 <= 2 * nb_bound) if scale == 1 else nb_bound >= 2**63
    assert cs._dtype(nb_bound) is trivialize_dtype


def _a5_constant_cochain():
    """A5 acting trivially on Q, and the cochain F = 2^59 + 12345 off the
    identity. Its coboundary is -F, or -2F where xy = 1: max|V| = 2F < 2^61,
    so the values and the identity check (bound 8F) stay on int64, but each
    column off the identity sums to -60F, past 2^63."""
    a5 = gc.alternating(5)
    return a5, gc.trivial_action(a5, 1), [QVector.zero(1)] + [QVector((2**59 + 12345,))] * 59


def test_column_sums_past_int64_of_int64_values_stay_exact():
    # a plain int64 V.sum(axis=0) wraps here; |B| * max|V| >= 2^63 sums on
    # Python ints
    b, action, f = _a5_constant_cochain()
    c = cs.coboundary(f, b, action)
    big = int(abs(c.values).max())
    assert c.values.dtype == np.int64 and big == 2 * f[1].nums[0] < 2**61 and b.order * big >= 2**63
    expected = _fraction_coboundary(f, b, action)
    assert [list(row) for row in cocycle_values(c)] == expected
    assert list(cs.trivialize(c)) == _fraction_trivializer(expected, b.order) == f


def _every_built_cocycle():
    """name -> a function that builds it, for every cocycle these tests build:
    ``SMALL_ACTIONS``, the past-int64 cochains, the A5 constant cochain, and
    the A5 and S5 random cocycles."""
    cases = {f"small {name}": (lambda b=b, action=action, seed=len(name): random_cocycle(b, action, seed=seed))
             for name, (b, action) in SMALL_ACTIONS.items()}
    for name, (b, action, f) in {**_past_int64_cochains(), "A5 constant 2^59": _a5_constant_cochain()}.items():
        cases[name] = lambda b=b, action=action, f=f: cs.coboundary(f, b, action)
    a5, s5 = gc.alternating(5), gc.symmetric(5)
    cases["A5 trivial Q^1"] = lambda: random_cocycle(a5, gc.trivial_action(a5, 1), seed=2)
    cases["A5 trivial Q^2"] = lambda: random_cocycle(a5, gc.trivial_action(a5, 2), seed=5)
    cases["S5 sign Q^2"] = lambda: random_cocycle(s5, perfbench_inputs().sign_action(s5, 2), seed=3)
    return cases


_BUILT_COCYCLES = _every_built_cocycle()


@pytest.mark.parametrize("name", sorted(_BUILT_COCYCLES))
def test_trivialize_passes_the_relation_oracle(name):
    # the relation pass that trivialize no longer runs, on every cocycle; the
    # oracle itself names a true failure of -e, which trivializes -c, not c
    c = _BUILT_COCYCLES[name]()
    e = cs.trivialize(c)
    assert trivialization_failures(c, e) is None
    wrong = [QVector.from_ints([-x for x in v.nums], v.den) for v in e]
    y, z = trivialization_failures(c, wrong)
    t, mats = c.base.table, action_matrices(c.action)
    relation = fraction_vecsub(fraction_vecsub(wrong[t[y][z]], fraction_vecmul(wrong[y], mats[z])), wrong[z])
    assert cocycle_values(c)[y][z] != relation


# ---------------------------------------------------------------------------
# the JSON table path reads entries exactly as the entry parser does

def _s3_document() -> dict:
    b, action = SMALL_ACTIONS["S3_perm"]
    return json.loads(json.dumps(random_cocycle(b, action, seed=8).to_json()))


_REJECTED = [*BAD_RATIONALS, *(bad for bad, _ in QUOTED_RATIONALS.values()), *TOO_MANY_DIGITS.values()]


@pytest.mark.parametrize("where", ["values", "action"])
@pytest.mark.parametrize("bad", _REJECTED, ids=[f"{i}:{ascii(bad)[:14]}" for i, bad in enumerate(_REJECTED)])
def test_cocycle_json_rejects_an_entry_with_the_vector_message(where, bad):
    data = _s3_document()
    if where == "values":
        data["values"][2][3][1] = bad
    else:
        data["action"][3][1][0] = bad
    with pytest.raises(ValueError) as table:
        cs.Cocycle.from_json(data)
    with pytest.raises(ValueError) as vector:
        _rationals([bad])
    assert str(table.value) == str(vector.value)


@pytest.mark.parametrize("misshape", [
    lambda values: values[4].pop(),
    lambda values: values[4][5].pop(),
    lambda values: values[4].__setitem__(5, "1/2"),
], ids=["ragged row", "short value", "string value"])
def test_misshapen_value_table_names_the_expected_shape(misshape):
    # before, these read "values table must be |B| x |B|", "every cocycle
    # value must have dimension 3" and "vector must be a list of rationals,
    # got str"
    data = _s3_document()
    misshape(data["values"])
    with pytest.raises(ValueError, match=r"^values table must be 6 x 6 lists of 3 rationals$"):
        cs.Cocycle.from_json(data)


@pytest.mark.parametrize("misshape", [
    lambda action: action[4][1].pop(),
    lambda action: action.pop(),
    lambda action: [row.append("0") for row in action[4]],
], ids=["ragged matrix", "five matrices", "3 x 4 matrix"])
def test_misshapen_action_names_the_expected_shape(misshape):
    # before, these read "matrix must be square", "need one matrix per group
    # element" and "matrix must be square"
    data = _s3_document()
    misshape(data["action"])
    with pytest.raises(ValueError, match=r"^action must be 6 lists of 3 lists of 3 rationals$"):
        cs.Cocycle.from_json(data)


def test_rational_action_round_trips_through_cocycle_json():
    # the cocycle writes each M_z from the action's integer form over E > 1;
    # it must read exactly as the input QMatrix writes itself
    b, action = SMALL_ACTIONS["A4_perm_rational"]
    p_inv = _P.inverse()
    inputs = [p_inv * m * _P for m in action_matrices(permutation_action(b))]
    assert action.den > 1
    data = random_cocycle(b, action, seed=13).to_json()
    assert data["action"] == [m.to_json() for m in inputs]
    assert cs.Cocycle.from_json(json.loads(json.dumps(data))).to_json() == data


def test_cocycle_json_names_the_first_bad_entry():
    # the action is read before the values, each in row-major order
    data = _s3_document()
    data["values"][1][2][0], data["values"][2][1][0] = "first", "second"
    with pytest.raises(ValueError, match="'first'"):
        cs.Cocycle.from_json(data)
    data["action"][4][2][2] = "action"
    with pytest.raises(ValueError, match="'action'"):
        cs.Cocycle.from_json(data)


def test_cocycle_json_of_an_s5_table_reads_in_bounded_memory():
    # 120 x 120 x 2 = 28,800 value entries. The tracemalloc peak of
    # from_json, after json.loads, read 1.43 MiB (2.50 MiB with one
    # QVector.from_json per row and the table turned back into Python lists);
    # the 2 MiB bound leaves a 40 % margin
    s5 = gc.symmetric(5)
    doc = json.dumps(random_cocycle(s5, perfbench_inputs().sign_action(s5, 2), seed=3).to_json())
    docs = [json.loads(doc)]
    tracemalloc.start()
    try:
        c = cs.Cocycle.from_json(docs.pop())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.values.shape == (120, 120, 2) and c.values.dtype == np.int64
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("entries", [
    [3, -7, 0], ["3", "-7", "0"], ["+3/4", "2/4", "-6/4"], ["007/010", "-0/5", "+0"], [3, "1/3", "-2"],
], ids=["ints", "integer strings", "signs and unreduced", "leading zeros", "mixed"])
def test_cocycle_json_reads_entries_as_the_entry_parser_does(entries):
    # C2 acting trivially on Q^3: any c(g, g) is a cocycle, and M_g is the
    # identity written entry by entry in the same forms
    data = {"base": {"order": 2, "table": [[0, 1], [1, 0]]}, "module_dim": 3,
            "action": [[["1", 0, "0/9"], [0, "2/2", 0], ["0", "0", 1]]] * 2,
            "values": [[["0"] * 3, ["0"] * 3], [["0"] * 3, entries]]}
    c = cs.Cocycle.from_json(data)
    assert cocycle_values(c)[1][1].entries == tuple(Fraction(*num_den(e)) for e in entries)
    assert action_matrices(c.action)[1] == QMatrix.identity(3)
    for where in ("values", "action"):
        bad = json.loads(json.dumps(data))
        (bad["values"][1][1] if where == "values" else bad["action"][1][0])[1] = True
        with pytest.raises(ValueError, match="invalid rational True"):
            cs.Cocycle.from_json(bad)
