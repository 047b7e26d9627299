import json
import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    action_matrices,
    brute_force_associative,
    fraction_matmul,
    independent_element_order,
    independent_order_profile,
    intercalate_loop,
    matrix_power,
    non_homomorphic_pair,
    relabeled_table,
    scalar_matrix,
)
from orbitforge import group_core as gc
from orbitforge.arith import is_prime
from orbitforge.exact_linear import QMatrix


# ---------------------------------------------------------------------------
# constructors

def test_cyclic_trivial():
    g = gc.cyclic(1)
    assert g.order == 1
    assert g.table == ((0,),)


def test_cyclic_element_orders():
    g = gc.cyclic(4)
    assert [gc.element_order(g, i) for i in range(4)] == [1, 4, 2, 4]
    assert g.labels == ("g^0", "g^1", "g^2", "g^3")
    gc.cyclic(7)  # construction itself runs the Latin/associativity checks


def test_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        gc.cyclic(0)


def test_elementary_abelian():
    assert gc.elementary_abelian(2, 1).table == gc.cyclic(2).table
    g = gc.elementary_abelian(2, 2)
    assert g.order == 4
    assert all(gc.element_order(g, i) == 2 for i in range(1, 4))
    h = gc.elementary_abelian(3, 2)
    assert h.order == 9 and gc.exponent(h) == 3
    with pytest.raises(ValueError, match="prime"):
        gc.elementary_abelian(4, 1)


def test_direct_product():
    v4 = gc.direct_product(gc.cyclic(2), gc.cyclic(2))
    assert gc.order_profile(v4) == gc.order_profile(gc.elementary_abelian(2, 2))
    g = gc.symmetric(3)
    assert gc.direct_product(gc.cyclic(1), g).table == g.table
    c6 = gc.direct_product(gc.cyclic(2), gc.cyclic(3))
    assert c6.order == 6 and c6.is_abelian
    # independent walk: some element must have order 6
    assert 6 in {independent_element_order(c6, i) for i in range(6)}


def test_size_caps():
    with pytest.raises(ValueError, match="cap"):
        gc.cyclic(5000)
    with pytest.raises(ValueError, match="cap"):
        gc.direct_product(gc.cyclic(100), gc.cyclic(100))


# ---------------------------------------------------------------------------
# the array constructors against their loop oracles

def _same(g: gc.GroupTable, oracle: gc.GroupTable) -> None:
    assert g.table == oracle.table
    assert g.labels == oracle.labels


@pytest.mark.parametrize("n", [*range(1, 65), 512])
def test_cyclic_matches_loop_oracle(n):
    _same(gc.cyclic(n), conftest.loop_cyclic(n))


@pytest.mark.parametrize("n", range(1, 65))
def test_dihedral_matches_loop_oracle(n):
    _same(gc.dihedral(n), conftest.loop_dihedral(n))


@pytest.mark.parametrize("q, k", [(q, k) for q in (2, 3, 5, 7) for k in range(1, 10)
                                  if q**k <= 729])
def test_elementary_abelian_matches_loop_oracle(q, k):
    _same(gc.elementary_abelian(q, k), conftest.loop_elementary_abelian(q, k))


def test_direct_product_matches_loop_oracle(catalog_groups):
    # every ordered pair of catalog groups up to order 128, which takes in
    # every catalog group
    groups = list(catalog_groups.values())
    for g in groups:
        for h in groups:
            if g.order * h.order <= 128:
                _same(gc.direct_product(g, h), conftest.loop_direct_product(g, h))


@pytest.mark.parametrize("n", range(1, 6))
def test_permutation_groups_match_loop_oracle(n):
    _same(gc.symmetric(n), conftest.loop_symmetric(n))
    _same(gc.alternating(n), conftest.loop_alternating(n))


def test_quaternion_matches_loop_oracle():
    _same(gc.quaternion(), conftest.loop_quaternion())


def test_finite_semidirect_matches_loop_oracle():
    c3 = gc.cyclic(3)
    cases = [(7, 1, c3, gc.cyclic_matrix_action(c3, ((2,),), characteristic=7))]  # G21
    for _, q, n, p, matrix in conftest.perfbench_inputs().SEMIDIRECT_SPECS:
        base = gc.cyclic(p)
        cases.append((q, n, base, gc.cyclic_matrix_action(base, matrix, characteristic=q)))
    for q, n, base, action in cases:
        _same(gc.finite_semidirect(q, n, action, base),
              conftest.loop_finite_semidirect(q, n, action, base))


def test_array_is_read_only_int16(catalog_groups):
    for g in [*catalog_groups.values(), gc.GroupTable([[0, 1], [1, 0]], ["e", "a"])]:
        assert g.array.dtype == np.int16
        assert not g.array.flags.writeable
        with pytest.raises(ValueError):
            g.array[0, 0] = 1


def _contiguous_frozen_int16(arr: np.ndarray) -> None:
    assert arr.dtype == np.int16
    assert arr.flags.c_contiguous
    assert not arr.flags.writeable


@pytest.mark.parametrize("n", [*range(1, 71), 512, 2048, 4096])
def test_cyclic_array_matches_the_modulo_formula(n):
    expected = conftest.modulo_cyclic_array(n)
    for arr in (gc._cyclic_array(n), gc.cyclic(n).array):
        _contiguous_frozen_int16(arr)
        assert np.array_equal(arr, expected)


_PRIME_POWERS = [(q, k) for q in range(2, 4097) if is_prime(q)
                 for k in range(1, 13) if q**k <= 4096]


@pytest.mark.parametrize("q, k", _PRIME_POWERS, ids=[f"{q}^{k}" for q, k in _PRIME_POWERS])
def test_halved_elementary_abelian_array_matches_the_folded_product(q, k):
    # (C_q)^k is built as (C_q)^(k//2) x (C_q)^(k - k//2); the table is
    # digit-wise addition mod q, so it must equal the factor-by-factor fold
    arr = gc._elementary_abelian_array(q, k)
    assert arr.dtype == np.int16
    assert arr.flags.c_contiguous
    assert np.array_equal(arr, conftest.folded_elementary_abelian_array(q, k))


@pytest.mark.parametrize("n", [*range(1, 41), 1024, 2048])
def test_dihedral_array_matches_the_modulo_formula(n):
    arr = gc.dihedral(n).array
    _contiguous_frozen_int16(arr)
    assert np.array_equal(arr, conftest.modulo_dihedral_array(n))


def test_order_4096_builds_and_queries_in_bounded_memory():
    # int16 storage with no Python rows and no whole-table temporaries: the
    # table itself is 32 MiB and the peak measured 38.4 MiB, so one more
    # table-sized copy (a sort, or an argmin of the read-only table) fails
    tracemalloc.start()
    try:
        g = gc.cyclic(4096)
        assert g.element_orders()[1] == 4096
        assert g.is_abelian
        assert gc.exponent(g) == 4096
        assert gc.is_elementary_abelian(g) == (False, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# semidirect products and actions

def _inversion_action_f3():
    c2 = gc.cyclic(2)
    return gc.cyclic_matrix_action(c2, ((2,),), characteristic=3), c2


def test_finite_semidirect_gives_s3():
    action, c2 = _inversion_action_f3()
    g = gc.finite_semidirect(3, 1, action, c2)
    # oracle: the permutation model of S3, built by composition of tuples
    assert gc.order_profile(g) == independent_order_profile(gc.symmetric(3))
    assert gc.order_profile(g) == {1: 1, 2: 3, 3: 2}


def test_finite_semidirect_order_21():
    c3 = gc.cyclic(3)
    action = gc.cyclic_matrix_action(c3, ((2,),), characteristic=7)
    g = gc.finite_semidirect(7, 1, action, c3)
    assert independent_order_profile(g) == {1: 1, 3: 14, 7: 6}
    # the element (g^1, 0-vector) sits at index 1*7 + 0 and cubes to identity
    i, t = 7, g.table
    assert t[t[i][i]][i] == 0
    assert gc.element_order(g, i) == 3


def test_finite_semidirect_trivial_action_is_direct_product():
    c2 = gc.cyclic(2)
    action = gc.trivial_action(c2, 2, characteristic=3)
    semi = gc.finite_semidirect(3, 2, action, c2)
    direct = gc.direct_product(c2, gc.elementary_abelian(3, 2))
    assert semi.table == direct.table


def test_finite_semidirect_preconditions():
    action, c2 = _inversion_action_f3()
    with pytest.raises(ValueError, match="prime"):
        gc.finite_semidirect(4, 1, action, c2)
    with pytest.raises(ValueError, match="characteristic"):
        gc.finite_semidirect(5, 1, action, c2)
    with pytest.raises(ValueError, match="base"):
        gc.finite_semidirect(3, 1, action, gc.cyclic(3))


def test_action_must_be_homomorphism():
    c2 = gc.cyclic(2)
    # g -> 2 is not an involution mod 5, so this is not a homomorphism
    with pytest.raises(ValueError, match="homomorphism"):
        gc.FiniteAction(c2, 1, 5, (((1,),), ((2,),)))
    with pytest.raises(ValueError, match="identity"):
        gc.FiniteAction(c2, 1, 5, (((2,),), ((1,),)))
    with pytest.raises(ValueError, match="homomorphism"):
        gc.FiniteAction(c2, 1, 0, (QMatrix.identity(1), QMatrix.of([[2]])))


#: Changes of basis of Q^2 for the characteristic-0 cases: with P, the
#: conjugates P^-1 M P of diag(s, 1) have a common denominator E > 1; with
#: the second, E * M has entries near 2^42, so (n + 1) * m^2 passes 2^63 and
#: the check runs on Python ints.
_CONJUGATORS = {"rational": QMatrix.of([[2, "1/2"], [0, "1/3"]]),
                "past 2^63": QMatrix.of([[2**41 + 1, 1], [3, "1/7"]])}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_non_homomorphic_action_names_the_first_failing_pair(data):
    # the check runs on generators only: it must accept exactly what the
    # all-pairs scan accepts, and name the first failure of the first
    # failing generator, a pair at which the law fails
    name = data.draw(st.sampled_from(["C6", "S3", "A4"]), label="base")
    b = {"C6": gc.cyclic(6), "S3": gc.symmetric(3), "A4": gc.alternating(4)}[name]
    q = data.draw(st.sampled_from([0, 5]), label="characteristic")
    k = data.draw(st.integers(1, b.order - 1), label="element")
    scalar = data.draw(st.sampled_from([-1, 2, 3]), label="scalar")
    if q == 0:
        mats = [QMatrix.identity(2)] * b.order
        basis = data.draw(st.sampled_from(["integer", *_CONJUGATORS]), label="basis")
        if basis == "integer":
            mats[k] = scalar_matrix(2, scalar)
        else:
            # a conjugate of diag(scalar, 1): the check must carry the factor E
            p = _CONJUGATORS[basis]
            mats[k] = p.inverse() * QMatrix.of([[scalar, 0], [0, 1]]) * p
            e = mats[k].den
            m = max(e, *(abs(x) for row in mats[k].nums for x in row))
            assert e > 1 and (3 * m * m >= 2**63) == (basis == "past 2^63")
        mul = fraction_matmul
    else:
        mats = [((1, 0), (0, 1))] * b.order
        mats[k] = ((scalar % q, 0), (0, 1))

        def mul(a, c):
            return tuple(tuple(sum(a[i][r] * c[r][j] for r in range(2)) % q for j in range(2))
                         for i in range(2))
    expected = non_homomorphic_pair(b, mats, mul, b.generators)
    assert (expected is None) == (non_homomorphic_pair(b, mats, mul, range(b.order)) is None)
    if expected is None:
        gc.FiniteAction(b, 2, q, tuple(mats))
    else:
        x, y = expected
        assert mul(mats[x], mats[y]) != mats[b.table[x][y]]
        with pytest.raises(ValueError, match=rf"homomorphism at pair \({x}, {y}\)$"):
            gc.FiniteAction(b, 2, q, tuple(mats))


def test_every_generator_is_checked_in_an_action():
    # on C2 x C2 (generators 1, 2), M = (1, 1, 2, 2) respects every product
    # with the generator 1 but not 2 * 2 = 0; a check that skipped a
    # generator would accept it
    v4 = gc.elementary_abelian(2, 2)
    assert v4.generators == (1, 2)
    mats = tuple(QMatrix.of([[k]]) for k in (1, 1, 2, 2))
    with pytest.raises(ValueError, match=r"homomorphism at pair \(2, 2\)"):
        gc.FiniteAction(v4, 1, 0, mats)
    with pytest.raises(ValueError, match=r"homomorphism at pair \(2, 2\)"):
        gc.FiniteAction(v4, 1, 5, tuple(((k,),) for k in (1, 1, 2, 2)))


def test_action_matrices_are_one_read_only_integer_array():
    # every characteristic holds M_x as matrices[x] / den: over Q, den is the
    # least common denominator, and over F_q, den is 1 and entries are
    # reduced mod q
    c3, c5 = gc.cyclic(3), gc.cyclic(5)
    companion = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))  # x^4+x^3+x^2+x+1
    rotation = QMatrix.of([[0, 1], [-1, -1]])  # order 3
    p = QMatrix.of([[2, "1/2"], [0, "1/3"]])
    rational = [matrix_power(p.inverse() * rotation * p, k) for k in range(3)]
    stretch = QMatrix.of([[2**40, 0], [0, 1]])
    wide = [stretch.inverse() * matrix_power(rotation, k) * stretch for k in range(3)]  # E = 2^40
    cases = [  # (action, input matrices over Q or None, expected dtype)
        (gc.cyclic_matrix_action(c5, companion, characteristic=2), None, np.int64),
        (gc.trivial_action(c5, 3, characteristic=7), None, np.int64),
        (gc.FiniteAction(gc.cyclic(2), 1, 3, ([[1]], [[-1]])), None, np.int64),
        (gc.trivial_action(c5, 3), [QMatrix.identity(3)] * 5, np.int64),
        (gc.cyclic_matrix_action(c3, rotation), [matrix_power(rotation, k) for k in range(3)], np.int64),
        (gc.FiniteAction(c3, 2, 0, tuple(rational)), rational, np.int64),
        (gc.FiniteAction(c3, 2, 0, tuple(wide)), wide, object),
        # integer matrices over den are reduced to the least denominator
        (gc.FiniteAction(gc.cyclic(2), 1, 0, ([[6]], [[-6]]), den=6),
         [QMatrix.identity(1), QMatrix.of([[-1]])], np.int64),
    ]
    for action, inputs, dtype in cases:
        mats, den, q = action.matrices, action.den, action.characteristic
        assert isinstance(mats, np.ndarray) and mats.dtype == dtype
        assert mats.shape == (action.domain.order, action.module_dim, action.module_dim)
        assert not mats.flags.writeable
        assert dtype is np.int64 or all(type(x) is int for x in mats.flat)
        if q:
            assert den == 1 and mats.min() >= 0 and mats.max() < q
        else:
            assert den == math.lcm(*(m.den for m in inputs))
            assert list(action_matrices(action)) == inputs
    assert gc.FiniteAction(c3, 2, 0, tuple(rational)).den > 1
    # entries are reduced in Python before they enter the array
    big = gc.cyclic_matrix_action(gc.cyclic(2), ((10**30 - 1,),), characteristic=2)
    assert big.matrices.tolist() == [[[1]], [[1]]]


@pytest.mark.parametrize("build", [
    lambda: gc.FiniteAction(gc.cyclic(2), 1, 5, (((1,),), ((4.9,),))),
    lambda: gc.cyclic_matrix_action(gc.cyclic(3), ((2.5,),), characteristic=7),
    lambda: gc.cyclic_matrix_action(gc.cyclic(2), ((True,),), characteristic=3),
    lambda: gc.FiniteAction(gc.cyclic(2), 1, 3, (((1,),), ((np.float64(2.0),),))),
], ids=["float-4.9", "float-2.5", "bool", "numpy-float"])
def test_fq_entries_must_be_exact_integers(build):
    with pytest.raises(ValueError, match="integers"):
        build()


def test_fq_characteristic_above_the_cap_is_rejected():
    q = 4099  # the least prime above MAX_ORDER
    assert gc.MAX_ORDER < q
    c2 = gc.cyclic(2)
    for build in (lambda: gc.trivial_action(c2, 1, characteristic=q),
                  lambda: gc.cyclic_matrix_action(c2, ((1,),), characteristic=q),
                  lambda: gc.FiniteAction(c2, 1, q, (((1,),), ((1,),))),
                  lambda: gc.cyclic_matrix_action(c2, ((1,),), characteristic=2**89 - 1)):
        with pytest.raises(ValueError, match="characteristic"):
            build()


@pytest.mark.parametrize("matrix", [((1, 0), (0,)), ((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (0, 0))],
                         ids=["ragged", "2x3", "3x2"])
def test_non_square_fq_generator_is_rejected(matrix):
    # the intake names the shape that the generator's row count implies
    n = len(matrix)
    with pytest.raises(ValueError, match=rf"^generator matrix must be an integer table of shape \({n}, {n}\)$"):
        gc.cyclic_matrix_action(gc.cyclic(2), matrix, characteristic=3)


def test_rational_cyclic_action_builds_each_power_in_lowest_terms():
    # M has order 2 and denominator 3, so M^k is I or M. Over the common
    # denominator 3^(n-1), the powers on cyclic(4096) grow to ~6500 bits each
    # (a 29 MiB peak), and a base check that builds a second cyclic(4096)
    # table peaks at 48 MiB; in lowest terms, with one column read, 1.8 MiB
    m = QMatrix.of([["1/3", "8/3"], ["1/3", "-1/3"]])
    assert matrix_power(m, 2) == QMatrix.identity(2)
    c = gc.cyclic(4096)
    tracemalloc.start()
    try:
        action = gc.cyclic_matrix_action(c, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert action.den == 3 and action.matrices.dtype == np.int64
    assert action.matrices.tolist() == [[[3, 0], [0, 3]], [[1, 8], [1, -1]]] * 2048


def test_cyclic_action_accepts_exactly_the_cyclic_tables(catalog_groups):
    # the base check reads one column; a group passes it exactly when its
    # table is cyclic(n)'s, the whole-table comparison it replaces
    bases = list(catalog_groups.values())
    for n in (4, 5, 6):
        table = gc.cyclic(n).table
        bases += [gc.GroupTable(relabeled_table(table, (0, *p)), range(n)) for p in permutations(range(1, n))]
    for g in bases:
        if np.array_equal(g.array, gc.cyclic(g.order).array):
            assert gc.cyclic_matrix_action(g, [[1]]).domain is g
        else:
            with pytest.raises(ValueError, match="cyclic"):
                gc.cyclic_matrix_action(g, [[1]])


def test_quaternion_and_dihedral_profiles():
    q8 = gc.quaternion()
    assert independent_order_profile(q8) == {1: 1, 2: 1, 4: 6}
    d4 = gc.dihedral(4)
    assert independent_order_profile(d4) == {1: 1, 2: 5, 4: 2}
    assert gc.symmetric(3).order == 6
    assert gc.alternating(4).order == 12


# ---------------------------------------------------------------------------
# structural queries

def test_order_profile_frozen_values(catalog_groups):
    assert gc.order_profile(catalog_groups["C4"]) == {1: 1, 2: 1, 4: 2}
    assert gc.order_profile(catalog_groups["EA_2_2"]) == {1: 1, 2: 3}
    assert gc.order_profile(catalog_groups["A5"]) == {1: 1, 2: 15, 3: 20, 5: 24}
    # cross-check A5 against cycle types of the underlying permutations
    assert independent_order_profile(catalog_groups["A5"]) == {1: 1, 2: 15, 3: 20, 5: 24}


def test_lagrange(catalog_groups):
    for g in catalog_groups.values():
        assert all(g.order % o == 0 for o in g.element_orders())


def test_derived_subgroup():
    assert gc.derived_subgroup(gc.cyclic(6)) == (0,)
    assert gc.derived_subgroup(gc.elementary_abelian(3, 2)) == (0,)
    s3 = gc.symmetric(3)
    derived = gc.derived_subgroup(s3)
    assert len(derived) == 3
    assert all(gc.element_order(s3, i) in (1, 3) for i in derived)
    a5 = gc.alternating(5)
    assert gc.derived_subgroup(a5) == tuple(range(60))  # perfect


def test_derived_subgroup_is_normal(catalog_groups):
    for name in ("S3", "D4", "Q8", "G21", "A4"):
        g = catalog_groups[name]
        derived = set(gc.derived_subgroup(g))
        for u in derived:
            for x in range(g.order):
                assert g.conjugate(u, x) in derived


def test_is_elementary_abelian():
    assert gc.is_elementary_abelian(gc.elementary_abelian(3, 2)) == (True, 3)
    assert gc.is_elementary_abelian(gc.cyclic(4)) == (False, None)
    assert gc.is_elementary_abelian(gc.symmetric(3)) == (False, None)
    assert gc.is_elementary_abelian(gc.cyclic(1)) == (True, None)
    assert gc.is_elementary_abelian(gc.cyclic(5)) == (True, 5)


def test_generators_generate_everything(catalog_groups):
    for name, g in catalog_groups.items():
        assert gc.subgroup_closure(g, g.generators) == tuple(range(g.order)), name
        assert 0 not in g.generators


def test_subgroup_closure():
    s3 = gc.symmetric(3)
    assert gc.subgroup_closure(s3, []) == (0,)
    assert len(gc.subgroup_closure(s3, [1])) in (2, 3)
    assert len(gc.subgroup_closure(s3, [1, 2, 3, 4, 5])) == 6


# ---------------------------------------------------------------------------
# table validation and JSON

def test_json_roundtrip():
    g = gc.quaternion()
    data = json.loads(json.dumps(g.to_json()))
    h = gc.GroupTable.from_json(data)
    assert h.table == g.table and h.labels == g.labels


def test_json_rejects_wrong_declared_order():
    data = gc.cyclic(3).to_json()
    data["order"] = 4
    with pytest.raises(ValueError, match="declared order"):
        gc.GroupTable.from_json(data)


def test_identity_must_be_index_zero():
    with pytest.raises(ValueError, match="identity"):
        gc.GroupTable([[1, 0], [0, 1]], ["a", "b"])


def test_latin_square_enforced():
    with pytest.raises(ValueError, match="Latin"):
        gc.GroupTable([[0, 1], [1, 1]], ["a", "b"])


def test_associativity_enforced():
    # a Latin square with identity and two-sided inverses that is not a group:
    # (1*1)*2 = 2 but 1*(1*2) = 4
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associativity"):
        gc.GroupTable(loop, list("abcde"))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_permutation_rows_accepted_iff_latin_and_associative(data):
    # a relabeled group table of order n <= 6 with some rows redrawn as random
    # permutations that keep the identity column; identity, permutation rows
    # and associativity imply a group, so the check skips the columns and the
    # inverses, and must still accept exactly the Latin associative tables
    groups = [gc.cyclic(n) for n in range(1, 7)] + [gc.elementary_abelian(2, 2), gc.symmetric(3)]
    g = data.draw(st.sampled_from(groups), label="group")
    n = g.order
    sigma = (0,) + tuple(data.draw(st.permutations(range(1, n)), label="sigma"))
    table = relabeled_table(g.table, sigma)
    for i in range(1, n):
        if data.draw(st.booleans(), label=f"redraw row {i}"):
            rest = [x for x in range(n) if x != i]
            table[i] = [i] + list(data.draw(st.permutations(rest), label=f"row {i}"))
    latin_columns = all(sorted(col) == list(range(n)) for col in zip(*table))
    try:
        gc.GroupTable(table, [str(x) for x in range(n)])
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (latin_columns and brute_force_associative(table))


def test_group_table_is_immutable():
    g = gc.cyclic(3)
    with pytest.raises(AttributeError):
        g.order = 5


def test_order_1024_loop_is_rejected():
    # 16,336 of its 1024^3 triples fail: a sampled check misses them
    with pytest.raises(ValueError, match="associativity"):
        gc.GroupTable(intercalate_loop(), [str(i) for i in range(1024)])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_small_loops_are_rejected(data):
    # swap one intercalate of a small group table (a 2x2 Latin subsquare off
    # the identity row and column, without the value 0), then relabel it so
    # the bad triples move relative to the generators. The result is a Latin
    # square with identity and inverses; brute force finds a non-associative
    # triple in every such swap of these groups, and so must the check.
    name = data.draw(st.sampled_from(["C6", "C8", "EA_2_3", "D4", "Q8", "S3", "A4"]), label="group")
    g = {"C6": gc.cyclic(6), "C8": gc.cyclic(8), "EA_2_3": gc.elementary_abelian(2, 3),
         "D4": gc.dihedral(4), "Q8": gc.quaternion(), "S3": gc.symmetric(3),
         "A4": gc.alternating(4)}[name]
    t, n = g.table, g.order
    squares = [
        (r1, c1, r2, c2)
        for r1 in range(1, n) for r2 in range(r1 + 1, n)
        for c1 in range(1, n) for c2 in range(c1 + 1, n)
        if t[r1][c1] == t[r2][c2] != 0 and t[r1][c2] == t[r2][c1] != 0
    ]
    r1, c1, r2, c2 = data.draw(st.sampled_from(squares), label="intercalate")
    swapped = [list(row) for row in t]
    swapped[r1][c1], swapped[r1][c2] = swapped[r1][c2], swapped[r1][c1]
    swapped[r2][c1], swapped[r2][c2] = swapped[r2][c2], swapped[r2][c1]
    sigma = (0,) + tuple(data.draw(st.permutations(range(1, n)), label="sigma"))
    table = relabeled_table(swapped, sigma)
    assert not brute_force_associative(table)
    with pytest.raises(ValueError, match="associativity"):
        gc.GroupTable(table, g.labels)


# ---------------------------------------------------------------------------
# the table check against the sort-first validator

def _outcome(build) -> str | None:
    """None if build() returns, else the message of its ValueError."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


_SMALL_GROUPS = [gc.cyclic(n) for n in range(1, 9)] + [
    gc.elementary_abelian(2, 2), gc.elementary_abelian(2, 3), gc.symmetric(3),
    gc.dihedral(4), gc.quaternion(),
]


@st.composite
def tables_with_identity(draw):
    """A table of order n <= 8 whose row and column 0 are the identity: a
    relabeled group with a few entries redrawn, or arbitrary entries; either
    way every row may then be made to hold a 0, so that non-Latin tables
    pass the cheap row check and reach Light's test."""
    if draw(st.booleans(), label="from a group"):
        g = draw(st.sampled_from(_SMALL_GROUPS), label="group")
        n = g.order
        sigma = (0,) + tuple(draw(st.permutations(range(1, n)), label="sigma"))
        table = relabeled_table(g.table, sigma)
        if n > 1:
            cells = st.tuples(st.integers(1, n - 1), st.integers(1, n - 1))
            for i, j in draw(st.lists(cells, max_size=3), label="redrawn cells"):
                table[i][j] = draw(st.integers(0, n - 1), label=f"entry {i}, {j}")
    else:
        n = draw(st.integers(1, 6), label="order")
        table = [list(range(n))] + [
            [i] + draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1), label=f"row {i}")
            for i in range(1, n)
        ]
    if n > 1 and draw(st.booleans(), label="a 0 in every row"):
        for row in table[1:]:
            if 0 not in row:
                row[draw(st.integers(1, n - 1), label="zero at")] = 0
    return table


@settings(max_examples=500, deadline=None)
@given(table=tables_with_identity())
@example(table=[[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 1]])  # Light's test fails
@example(table=[[0, 1, 2], [1, 0, 0], [2, 0, 1]])  # 2 > log2(3) generators
def test_table_check_matches_the_sort_first_oracle(table):
    # the same tables accepted, the same message for each rejected one, and
    # the same generators and inverses for each accepted one
    n = len(table)
    expected = _outcome(lambda: conftest.validate_table_oracle(np.array(table, dtype=np.int64)))
    assert _outcome(lambda: gc.GroupTable(table, [str(x) for x in range(n)])) == expected
    if expected is None:
        g = gc.GroupTable(table, [str(x) for x in range(n)])
        assert g.generators == conftest.validate_table_oracle(np.array(table))[1]
        assert g._inverses == tuple(row.index(0) for row in table)


def test_non_latin_table_that_fails_light_gets_the_latin_message(monkeypatch):
    # every row holds a 0, the one generator 1 reaches everything, and row 3
    # repeats 1: Light's test fails, then the rows are sorted to name it
    table = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 1]]
    calls = conftest.count_calls(monkeypatch, gc, "_first_failure", "_require_latin_rows")
    with pytest.raises(ValueError, match=r"^some row is not a permutation \(Latin square violated\)$"):
        gc.GroupTable(table, list("abcd"))
    assert calls == {"_first_failure": 1, "_require_latin_rows": 1}


def test_group_rows_are_never_sorted(monkeypatch, catalog_groups):
    calls = conftest.count_calls(monkeypatch, gc, "_require_latin_rows")
    for g in catalog_groups.values():
        gc.GroupTable(g.array, g.labels)
    assert calls == {"_require_latin_rows": 0}


def test_magma_with_more_than_log2_n_generators_skips_light(monkeypatch):
    # order 4096 with x*y = 0 for x, y != 0: every row holds a 0 but no row
    # past the first is a permutation, and each x != 0 closes only {0, x}, so
    # all 4095 elements would be generators; past floor(log2 4096) = 12 the
    # rows are sorted instead of running Light's test on each
    n = 4096
    arr = np.zeros((n, n), dtype=np.int16)
    arr[0] = arr[:, 0] = np.arange(n)
    message = "some row is not a permutation (Latin square violated)"
    assert _outcome(lambda: conftest.validate_table_oracle(arr)) == message
    found, real = [], gc._generators

    def recording(*args, **kwargs):
        found.append(real(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(gc, "_generators", recording)
    calls = conftest.count_calls(monkeypatch, gc, "_first_failure", "_require_latin_rows")
    assert _outcome(lambda: gc._validate_table(arr)) == message
    assert [len(gens) for gens in found] == [13]
    assert calls == {"_first_failure": 0, "_require_latin_rows": 1}


#: Tables with entries of each type, as factories, since generator rows are
#: used up by one read.
ENTRY_TABLES = {
    "bool": lambda: [[0, 1], [1, True]],
    "float": lambda: [[0, 1], [1, 0.0]],
    "numpy float": lambda: [[0, 1], [1, np.float64(0)]],
    "str": lambda: [[0, 1], [1, "0"]],
    "2**70": lambda: [[0, 1], [1, 2**70]],
    "ragged": lambda: [[0, 1], [1]],
    "numpy int32": lambda: [[np.int32(0), np.int32(1)], [np.int32(1), np.int32(0)]],
    "tuple rows": lambda: ((0, 1), (1, 0)),
    "generator rows": lambda: ((x ^ y for y in range(2)) for x in range(2)),
    "array rows": lambda: [np.array([0, 1]), np.array([1, 0])],
    "str row": lambda: [[0, 1], "10"],
    "int row": lambda: [[0, 1], 5],
    "float before an int row": lambda: [[0, 1.0], 5],
    "not iterable": lambda: 5,
    "empty": lambda: [],
    "not Latin": lambda: [[0, 1], [1, 1]],
}

#: The outcome of each through the one intake: the shape is checked before
#: any entry, and a table with no rows to count takes its order from the
#: labels.
_SHAPE = "table entries must be an integer table of shape (2, 2)"
ENTRY_OUTCOMES = {
    "bool": "table entries must be integers, got True",
    "float": "table entries must be integers, got 0.0",
    "numpy float": "table entries must be integers, got np.float64(0.0)",
    "str": "table entries must be integers, got '0'",
    "2**70": "table entries must be element indices",
    "ragged": _SHAPE,
    "numpy int32": None,
    "tuple rows": None,
    "generator rows": _SHAPE,
    "array rows": None,
    "str row": _SHAPE,
    "int row": _SHAPE,
    "float before an int row": _SHAPE,
    "not iterable": _SHAPE,
    "empty": "empty table",
    "not Latin": "some row is not a permutation (Latin square violated)",
}


@pytest.mark.parametrize("case", ENTRY_TABLES)
def test_table_entry_types_match_the_entry_by_entry_reader(case):
    make = ENTRY_TABLES[case]
    table = make()
    n = len(table) if isinstance(table, (list, tuple)) else 2
    expected = _outcome(lambda: conftest.validate_table_oracle(conftest.int_table_oracle(make(), n)))
    assert _outcome(lambda: gc.GroupTable(make(), ["e", "a"][:n])) == expected
    assert expected == ENTRY_OUTCOMES[case]
    if expected is None:
        assert gc.GroupTable(make(), ["e", "a"]).table == ((0, 1), (1, 0))
