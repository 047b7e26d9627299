import math
import operator
import random
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    BAD_RATIONALS,
    QUOTED_RATIONALS,
    TOO_MANY_DIGITS,
    FractionEchelon,
    bareiss_det,
    block_diag,
    companion,
    count_calls,
    cyclotomic_prime,
    fraction_matadd,
    fraction_matmul,
    fraction_matsub,
    fraction_minimal_polynomial,
    fraction_vecadd,
    fraction_vecmul,
    fraction_vecsub,
    gauss_jordan_inverse,
    is_fixed_point_free,
    matrix_power,
    num_den,
    poly_eval,
    poly_value,
    scalar_matrix,
    zero_matrix,
)
from orbitforge import cocycle_split as cs
from orbitforge import exact_linear as el
from orbitforge import group_core as gc
from orbitforge import mixed_group as mg
from orbitforge.exact_linear import (
    QMatrix,
    QVector,
    _clear,
    _insert,
    cyclic_decomposition,
    minimal_polynomial,
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


def _parsed(entries) -> QVector:
    """The vector of a list of JSON rationals, read by the bulk parser."""
    nums, den = el._rationals(list(entries))
    return QVector.from_ints(nums.tolist(), den)


def test_rat_format_parse_roundtrip():
    xs = (Fraction(0), Fraction(3), Fraction(-1, 2), Fraction(22, 7))
    v, m = QVector(xs), QMatrix([xs[:2], xs[2:]])
    assert _parsed(v.to_json()).entries == xs
    assert QMatrix.from_json(m.to_json()).rows == (xs[:2], xs[2:])
    assert v.to_json()[1] == m.to_json()[0][1] == "3/1"
    assert _parsed(["7"]).entries == (Fraction(7),)
    assert QMatrix.from_json([["7"]]).rows == ((Fraction(7),),)


@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_parse_rat_rejects_what_is_not_num_over_den(bad):
    # one entry parser behind the bulk reader and QMatrix.from_json: the same message
    with pytest.raises(ValueError, match="invalid rational") as vector:
        el._rationals([bad])
    with pytest.raises(ValueError) as matrix:
        QMatrix.from_json([[bad]])
    assert str(vector.value) == str(matrix.value)


@pytest.mark.parametrize("bad, message", list(QUOTED_RATIONALS.values()), ids=list(QUOTED_RATIONALS))
def test_parse_rat_quotes_an_entry_up_to_64_characters(bad, message):
    with pytest.raises(ValueError) as vector:
        el._rationals([bad])
    assert str(vector.value) == message + ': expected "num/den", an integer string or an int'


@pytest.mark.parametrize("bad", list(TOO_MANY_DIGITS.values()), ids=list(TOO_MANY_DIGITS))
def test_parse_rat_rejects_too_many_digits_with_its_own_message(bad):
    # int()'s own text named sys.set_int_max_str_digits(), which the CLI
    # offers no way to change
    with pytest.raises(ValueError, match="^invalid rational .*: too many digits") as vector:
        el._rationals([bad])
    with pytest.raises(ValueError) as matrix:
        QMatrix.from_json([[bad]])
    assert str(vector.value) == str(matrix.value)
    assert "set_int_max_str_digits" not in str(vector.value)
    assert len(str(vector.value)) < 200


def test_parse_rat_reads_entries_at_the_digit_limit():
    num, den = "-" + "9" * 4300, "7" * 4300
    assert _parsed([f"{num}/{den}"]).entries == (Fraction(int(num), int(den)),)


@pytest.mark.parametrize("parse, data", [
    # a string is not the list of its characters: this read as
    # [[1, 2], [3, 4]] before
    (QMatrix.from_json, ["12", "34"]),
    (QMatrix.from_json, "1"),
    (QMatrix.from_json, [["1", "2"], "34"]),
    (QMatrix.from_json, 5),
])
def test_from_json_requires_lists(parse, data):
    # was "matrix must be a list of rows of rationals"; a scalar is held to
    # the shape of [[x]]
    n = len(data) if isinstance(data, list) else 1
    with pytest.raises(ValueError) as refused:
        parse(data)
    assert str(refused.value) == f"matrix must be {n} lists of {n} rationals"


#: Lists of valid JSON rationals: signs, leading zeros, unreduced and zero
#: entries, bare integer strings, JSON ints, numbers of 18 and 19 digits (the
#: int64 read and the int() read), one past 2^63 and one of 4300 digits.
_GOOD_LISTS = {
    "forms": ["+3", "0004/0006", "-0/5", "7", 7, "-12/8", 0, "+0/1"],
    "ints": [3, -7, 0, 10**17],
    "18 digits": ["9" * 18, "-" + "9" * 18 + "/7", "1/" + "9" * 18],
    "19 digits": ["1" + "0" * 18, "-3/" + "1" * 19, "2/3"],
    "past 2^63": [str(2**63 + 1), "1/2", -(2**63 + 5)],
    "lcm past 2^63": [f"1/{2**62 + 1}", f"1/{2**62 - 1}"],
    "4300 digits": ["-" + "9" * 4300 + "/" + "7" * 4300, "+1"],
    "mixed": [1, "2", "3/4", -5, "-6/1", "007/010"],
    "one": ["5/15"],
}


@pytest.mark.parametrize("entries", list(_GOOD_LISTS.values()), ids=list(_GOOD_LISTS))
def test_bulk_parser_reads_what_the_one_entry_oracle_reads(entries):
    pairs = [num_den(e) for e in entries]
    d = math.lcm(*(den for _, den in pairs))
    given = list(entries)
    nums, den = el._rationals(given)
    expected = [num * (d // y) for num, y in pairs]
    assert den == d and nums.tolist() == expected
    assert nums.dtype == (object if max(map(abs, expected)) >= 2**63 else np.int64)
    assert given == []  # emptied once checked


@pytest.mark.parametrize("bad", [
    True, 1.0, "", "/3", "3/", "1/0", "1/00", "-1/-2", "1/2/3", " 7/2", "1_0/3", "\u0663", None,
    "1\n2", "3\n", "\n", "9" * 4301, "1/" + "9" * 4301,
])
@pytest.mark.parametrize("place", ["alone", "after good", "before bad"])
def test_bulk_parser_names_the_first_bad_entry_with_the_oracle_message(bad, place):
    # "1\n2" must not read as the two entries 1 and 2
    entries = {"alone": [bad], "after good": ["1/2", 3, "4", bad], "before bad": [bad, "x", True]}[place]
    with pytest.raises(ValueError) as oracle:
        for e in entries:
            num_den(e)
    with pytest.raises(ValueError) as bulk:
        el._rationals(list(entries))
    assert str(bulk.value) == str(oracle.value)


def test_bulk_parser_names_a_too_long_entry_before_a_later_invalid_one():
    entries = ["1/2", "9" * 4301 + "/3", "x"]
    with pytest.raises(ValueError, match=r"^invalid rational of 4303 characters .*: too many digits"):
        el._rationals(list(entries))
    with pytest.raises(ValueError, match=r"^invalid rational 'x'"):
        el._rationals(entries[::-1])


def _action_corner(x) -> Fraction:
    """x read as the corner of [[1, x], [0, -1]], an involution whatever x
    is, by the action of C_2 over Q that it generates."""
    action = gc.cyclic_matrix_action(gc.cyclic(2), [[1, x], [0, -1]])
    return Fraction(int(action.matrices[1, 0, 1]), action.den)


#: Every reader of a rational entry x of the library, each returning the
#: value it read: the entry of a vector, of a 1 x 1 matrix, and the corner
#: of a generator matrix.
_READERS = {
    "QVector": lambda x: QVector((x,)).entries[0],
    "QMatrix": lambda x: QMatrix([[x]]).rows[0][0],
    "QMatrix.of": lambda x: QMatrix.of([[x]]).rows[0][0],
    "QMatrix.from_json": lambda x: QMatrix.from_json([[x]]).rows[0][0],
    "cyclic_matrix_action": _action_corner,
}

#: Entries that the one entry rule refuses, and entries it reads, with their values.
_REFUSED = [True, 0.5, np.float64(0.5), "0.5", "1e1", " 1/2 ", "1_0"]
_ACCEPTED = [(3, 3), (np.int64(3), 3), (Fraction(1, 2), Fraction(1, 2)), ("1/2", Fraction(1, 2)), ("-7", -7)]


@pytest.mark.parametrize("read", list(_READERS.values()), ids=list(_READERS))
@pytest.mark.parametrize("bad", _REFUSED, ids=repr)
def test_every_rational_reader_refuses_what_the_entry_rule_refuses(read, bad):
    # everywhere but from_json, each was read as some value or raised an
    # AttributeError; now each reader names it as _rationals does
    with pytest.raises(ValueError) as refused:
        read(bad)
    assert str(refused.value) == f"invalid rational {bad!r}" + ': expected "num/den", an integer string or an int'


@pytest.mark.parametrize("read", list(_READERS.values()), ids=list(_READERS))
@pytest.mark.parametrize("good, value", _ACCEPTED, ids=[repr(g) for g, _ in _ACCEPTED])
def test_every_rational_reader_reads_what_the_entry_rule_reads(read, good, value):
    got = read(good)
    assert got == value and type(got) is Fraction


def test_a_float_matrix_is_refused_over_q_as_over_f_q():
    with pytest.raises(ValueError, match=r"^invalid rational -1\.0: "):
        gc.cyclic_matrix_action(gc.cyclic(2), [[-1.0]])
    with pytest.raises(ValueError, match=r"^generator matrix must be integers, got 2\.0$"):
        gc.cyclic_matrix_action(gc.cyclic(2), [[2.0]], characteristic=3)


def test_numbers_past_the_digit_limit_are_refused_as_strings_are():
    # str() of an int past sys.get_int_max_str_digits() raised its own
    # ValueError, which named a setting the CLI offers no way to change
    big = 10**5000
    for entries, kind in (([big], "int"), (["1/2", Fraction(1, big)], "Fraction")):
        with pytest.raises(ValueError) as refused:
            el._rationals(entries)
        assert str(refused.value) == (f"invalid rational of type {kind}: too many digits,"
                                      " at most 4300 in a numerator or denominator")
    assert QVector((10**4299,)).nums == (10**4299,)  # 4300 digits


def test_bulk_parser_reads_an_empty_list():
    nums, den = el._rationals([])
    assert (nums.tolist(), den) == ([], 1)
    assert _parsed([]).dim == 0 and QMatrix.from_json([]).n == 0


# ---------------------------------------------------------------------------
# vectors and matrices

def test_vector_arithmetic():
    v = QVector((1, "1/2", -3))
    w = QVector((0, 2, 1))
    assert (v + w).entries == (Fraction(1), Fraction(5, 2), Fraction(-2))
    assert (v - w).entries == (Fraction(1), Fraction(-3, 2), Fraction(-4))
    assert (QVector.zero(3) - v).entries == (Fraction(-1), Fraction(-1, 2), Fraction(3))
    assert QVector.zero(3).is_zero and not v.is_zero
    assert QVector.unit(3, 1).entries == (0, 1, 0)


def test_vector_dimension_mismatch():
    with pytest.raises(ValueError):
        QVector((1,)) + QVector((1, 2))
    with pytest.raises(ValueError):
        QVector((1, 2, 3)) * QMatrix.identity(2)


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
    assert matrix_power(m, 0) == QMatrix.identity(2)
    assert matrix_power(m, -1) == m.inverse()
    assert matrix_power(m, 3) == m * m * m


def test_matrix_json_roundtrip():
    m = QMatrix.of([[0, "-1/2"], [1, "2/3"]])
    assert QMatrix.from_json(m.to_json()) == m
    v = QVector(("5/7", -2))
    assert _parsed(v.to_json()) == v


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        QMatrix.of([[1, 2], [3]])


# ---------------------------------------------------------------------------
# polynomials

def test_poly_value_of_coefficient_tuples():
    # a polynomial is its coefficients, lowest degree first; trailing zeros add nothing
    assert poly_value((1, 2, 0, 0), 3) == poly_value((1, 2), 3) == 7
    assert poly_value((), 5) == 0
    assert poly_value((1, 1, 1), 2) == 7


def test_companion_frozen_examples():
    assert companion((1, 1)) == QMatrix.of([[-1]])
    assert companion((-1, 1)) == QMatrix.of([[1]])
    m = companion(cyclotomic_prime(3))
    assert m == QMatrix.of([[0, -1], [1, -1]])
    assert matrix_power(m, 3) == QMatrix.identity(2)
    assert m.det() == 1


def test_poly_eval_annihilates_companion():
    phi3 = cyclotomic_prime(3)
    assert poly_eval(phi3, companion(phi3)) == zero_matrix(2)
    # evaluating x - 1 at I gives 0
    assert poly_eval((-1, 1), QMatrix.identity(3)) == zero_matrix(3)


def test_minimal_polynomial_basics():
    assert minimal_polynomial(QMatrix.identity(3)) == (-1, 1)
    phi3 = cyclotomic_prime(3)
    m = companion(phi3)
    assert minimal_polynomial(m) == phi3
    twice = block_diag([m, m])
    assert minimal_polynomial(twice) == phi3


@given(
    coeffs=st.lists(st.integers(-4, 4), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_minimal_polynomial_of_companion_is_the_polynomial(coeffs):
    f = (*coeffs, 1)  # force monic, degree = len(coeffs)
    assert minimal_polynomial(companion(f)) == f


@given(coeffs=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_minimal_polynomial_of_a_rational_companion_matches_the_fraction_oracle(coeffs):
    f = (*coeffs, Fraction(1))
    m = companion(f)
    assert minimal_polynomial(m) == fraction_minimal_polynomial(m) == f
    assert type(minimal_polynomial(m)) is tuple


def test_fixed_point_free():
    assert is_fixed_point_free(QMatrix.of([[-1]]), 2)
    m = companion(cyclotomic_prime(3))
    assert is_fixed_point_free(m, 3)
    assert fraction_matsub(m, QMatrix.identity(2)).det() == 3
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
    assert matrix_power(m, p) == ident
    total = zero_matrix(p - 1)
    power = ident
    for _ in range(p):
        total = fraction_matadd(total, power)
        power = power * m
    assert total == zero_matrix(p - 1)
    assert is_fixed_point_free(m, p)
    assert is_fixed_point_free(block_diag([m, m]), p)


# ---------------------------------------------------------------------------
# cyclic decomposition

def test_cyclic_decomposition_frozen_examples():
    basis = cyclic_decomposition(QMatrix.of([[-1]]), 2, QVector((3,)))
    assert basis == QMatrix.of([[3]])

    m = companion(cyclotomic_prime(3))
    basis = cyclic_decomposition(m, 3, QVector((1, 0)))
    # the orbit block is {seed, seed*m} = {(1,0), (0,-1)}; its determinant is -1
    assert basis == QMatrix.of([[1, 0], [0, -1]])
    assert (QVector((1, 0)) * m) == QVector((0, -1))
    assert basis.det() == -1

    big = block_diag([m, m])
    basis = cyclic_decomposition(big, 3, QVector.unit(4, 0))
    # seeds are the rows 0 and p - 1 = 2
    assert [basis.rows[0], basis.rows[2]] == [QVector.unit(4, 0).entries, QVector.unit(4, 2).entries]


def test_cyclic_decomposition_change_of_basis_invertible():
    rng = random.Random(11)
    m = block_diag([companion(cyclotomic_prime(3))] * 2)
    for _ in range(20):
        seed = QVector(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)))
        if seed.is_zero:
            continue
        basis = cyclic_decomposition(m, 3, seed)
        rows = []
        for s in (QVector(basis.rows[0]), QVector(basis.rows[2])):
            w = s
            for _ in range(2):
                rows.append(w.entries)
                w = w * m
        assert basis.rows[0] == seed.entries
        assert basis == QMatrix(tuple(rows))
        assert basis.det() != 0


def test_cyclic_decomposition_errors():
    m = companion(cyclotomic_prime(3))
    with pytest.raises(ValueError, match="nonzero"):
        cyclic_decomposition(m, 3, QVector.zero(2))
    with pytest.raises(ValueError, match="match"):
        cyclic_decomposition(m, 3, QVector((1, 2, 3)))
    with pytest.raises(ValueError, match="minimal polynomial"):
        cyclic_decomposition(QMatrix.identity(2), 3, QVector((1, 0)))
    with pytest.raises(ValueError, match="divisible"):
        cyclic_decomposition(block_diag([QMatrix.of([[-1]])] * 3), 3, QVector((1, 0, 0)))


def test_cyclic_decomposition_certifies_the_seed_sum():
    # the swap has order 2: its block {(1,0), (0,1)} is independent, but
    # (1,0) * (I + m + m^2) = (2, 1), so only the seed-sum check rejects it
    swap = QMatrix.of([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="minimal polynomial"):
        cyclic_decomposition(swap, 3, QVector((1, 0)))


def test_cyclic_decomposition_certifies_the_block_left_out_of_the_echelon():
    # the seed's block passes; the greedy second seed is the last block, which
    # never enters the echelon, so only its seed sum can reject it
    x2_plus_1 = companion((1, 0, 1))
    m = block_diag([companion(cyclotomic_prime(3)), x2_plus_1])
    with pytest.raises(ValueError, match="minimal polynomial"):
        cyclic_decomposition(m, 3, QVector.unit(4, 0))
    m = block_diag([companion(cyclotomic_prime(5)), QMatrix.identity(4)])
    with pytest.raises(ValueError, match="minimal polynomial"):
        cyclic_decomposition(m, 5, QVector((1, 2, 0, -1, 0, 0, 0, 0)))


@pytest.mark.parametrize("p, t", [(19, 1), (13, 2), (5, 4)])
def test_cyclic_decomposition_echelons_only_blocks_a_later_seed_meets(monkeypatch, p, t):
    # a block is independent by its seed sum alone: t = 1 eliminates
    # nothing, and the last of t blocks is never eliminated
    spec = mg.build(p, t)
    seed = mg.random_vector(random.Random(1), spec.n, nonzero=True)
    calls = [0]
    real = el._insert

    def counting(rows, v, width):
        calls[0] += 1
        return real(rows, v, width)

    monkeypatch.setattr(el, "_insert", counting)
    basis = cyclic_decomposition(spec.action, p, seed)
    assert calls[0] == (t - 1) * (p - 1)
    assert basis.det() != 0


@pytest.mark.parametrize("p, t", [(2, 16), (3, 8), (2, 128), (3, 64)])
def test_cyclic_decomposition_resumes_its_seed_scan(monkeypatch, p, t):
    # every unit vector up to the last seed lies in the span, which only
    # grows, so each scan starts after it; rescanning from e_1 took 150 and
    # 77 eliminations at n = 16, and about n^2 / 2 at n = 128
    spec = mg.build(p, t)
    calls = count_calls(monkeypatch, el, "_clear")
    basis = cyclic_decomposition(spec.action, p, QVector.unit(spec.n, 0))
    assert calls["_clear"] <= 3 * spec.n
    # the greedy seeds of the block companion action are its blocks' first rows
    assert basis.nums[::p - 1] == tuple(QVector.unit(spec.n, i).nums for i in range(0, spec.n, p - 1))


def _p13_witness_bases():
    """The two cyclic bases of `mixed auto --p 13 --t 2 --seed 0`."""
    spec = mg.build(13, 2)
    rng = random.Random(0)
    alpha = mg.random_element(rng, spec, outside=True)
    beta = mg.random_element(rng, spec, outside=True)
    b = mg.random_vector(rng, spec.n, nonzero=True)
    c = mg.random_vector(rng, spec.n, nonzero=True)
    return (cyclic_decomposition(spec.powers[alpha.k], 13, b),
            cyclic_decomposition(spec.powers[beta.k], 13, c))


def test_inverse_of_a_witness_basis_clears_only_the_dense_block(monkeypatch):
    # _clear takes one two-argument gcd per row update, the gcd of the two
    # pivot entries; rows in input order made 492 updates on this basis
    left = _p13_witness_bases()[0]
    updates = [0]

    def gcd(*args):
        updates[0] += len(args) == 2
        return math.gcd(*args)

    monkeypatch.setattr(el, "math", SimpleNamespace(gcd=gcd, lcm=math.lcm))
    inverse = left.inverse()
    monkeypatch.undo()
    assert updates[0] <= 300
    assert inverse == gauss_jordan_inverse(left)


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction oracles in conftest

@pytest.mark.parametrize("p, t", [(p, t) for p in (2, 3, 5, 7, 13) for t in (1, 2, 4)
                                  if t * (p - 1) <= mg.MAX_DIM])
def test_qmatrix_inverse_of_witness_bases_matches_the_oracle(p, t):
    # under every P = M^k, a basis from a random seed, as inside A, and
    # from e_1, as outside A
    spec = mg.build(p, t)
    rng = random.Random(p * t)
    for k in range(1, p):
        m = spec.powers[k]
        seed = mg.random_vector(rng, spec.n, nonzero=True) if k % 2 else QVector.unit(spec.n, 0)
        basis = cyclic_decomposition(m, p, seed)
        assert basis.inverse() == gauss_jordan_inverse(basis)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_qmatrix_inverse_under_rational_conjugates_matches_the_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    t = data.draw(st.sampled_from([1, 2]), label="t")
    n = t * (p - 1)
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    q = QMatrix.of(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                      min_size=n, max_size=n), label="Q"))
    assume(q.det() != 0)
    spec = mg.build(p, m=q.inverse() * block_diag([companion(cyclotomic_prime(p))] * t) * q)
    m = spec.powers[data.draw(st.integers(1, p - 1), label="k")]
    seed = QVector(data.draw(st.lists(entries, min_size=n, max_size=n), label="seed"))
    assume(not seed.is_zero)
    basis = cyclic_decomposition(m, p, seed)
    assert basis.inverse() == gauss_jordan_inverse(basis)


#: denominators up to 10^6, and small entries that make zeros and sparsity
_ENTRIES = st.one_of(
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
)


@st.composite
def _matrices(draw, sizes=st.integers(1, 5), entries=_ENTRIES):
    """Square matrices: generic ones, ones with a zero row, and singular ones
    with a row that is a combination of two others."""
    n = draw(sizes)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["generic", "zero_row", "dependent"]))
    k = draw(st.integers(0, n - 1))
    if kind == "zero_row" or (kind == "dependent" and n == 1):
        rows[k] = [Fraction(0)] * n
    elif kind == "dependent":
        others = [i for i in range(n) if i != k]
        i, j = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        q, r = draw(entries), draw(entries)
        rows[k] = [q * x + r * y for x, y in zip(rows[i], rows[j])]
    return QMatrix(tuple(tuple(row) for row in rows))


@st.composite
def _sparse_and_dense_rows(draw):
    """Square matrices whose rows are a unit row, a row with two nonzeros or
    a dense row, shuffled, as the rows of a witness basis are."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["unit", "pair", "dense"]))
        if kind == "dense":
            rows.append([draw(_ENTRIES) for _ in range(n)])
            continue
        row = [Fraction(0)] * n
        for j in draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=1 if kind == "unit" else 2, unique=True)):
            row[j] = draw(_ENTRIES.filter(bool))
        rows.append(row)
    order = draw(st.permutations(range(n)))
    return QMatrix([rows[i] for i in order])


@given(m=st.one_of(_matrices(), _sparse_and_dense_rows()))
@settings(max_examples=250, deadline=None)
def test_det_and_inverse_match_fraction_oracles(m):
    det = bareiss_det(m)
    assert m.det() == det
    if det == 0:
        with pytest.raises(ValueError, match="singular"):
            gauss_jordan_inverse(m)
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    else:
        assert m.inverse() == gauss_jordan_inverse(m)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_products_match_fraction_oracles(data):
    a = data.draw(_matrices())
    b = data.draw(_matrices(sizes=st.just(a.n)))
    v = QVector(tuple(data.draw(_ENTRIES) for _ in range(a.n)))
    assert a * b == fraction_matmul(a, b)
    assert v * a == fraction_vecmul(v, a)
    assert QVector.zero(a.n) * a == QVector.zero(a.n)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_vector_ops_match_fraction_oracles(data):
    # one denominator per vector: sums, negation and scalar products must
    # land on the same reduced rationals as entry-wise Fraction arithmetic
    n = data.draw(st.integers(0, 5), label="dim")
    v, w = (QVector(tuple(data.draw(_ENTRIES) for _ in range(n))) for _ in range(2))
    k = data.draw(_ENTRIES, label="scalar")
    assert v + w == fraction_vecadd(v, w)
    assert v - w == fraction_vecsub(v, w)
    assert v - v == QVector.zero(n)
    assert (QVector.zero(n) - v).entries == tuple(-e for e in v.entries)
    assert v * scalar_matrix(n, k) == QVector(tuple(k * e for e in v.entries))
    for u in (v, w, v + w, v * scalar_matrix(n, k)):
        # the stored form is the unique reduced one, so equality is structural
        assert u.den > 0 and math.gcd(u.den, *u.nums) == 1
        assert QVector(u.entries) == u and hash(QVector(u.entries)) == hash(u)
        assert _parsed(u.to_json()) == u
        assert u.to_json() == [f"{e.numerator}/{e.denominator}" for e in u.entries]


def _entrywise(op, *ms: QMatrix) -> QMatrix:
    """op applied to the Fraction entries of equal-size matrices, entry by entry."""
    return QMatrix(tuple(tuple(op(*es) for es in zip(*rows)) for rows in zip(*(m.rows for m in ms))))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_matrix_ops_match_fraction_oracles(data):
    # one denominator per matrix: sums (the conftest oracles), negation and
    # scalar products must land on the same reduced rationals as entry-wise
    # Fraction arithmetic
    a = data.draw(_matrices(), label="a")
    b = data.draw(_matrices(sizes=st.just(a.n)), label="b")
    k = data.draw(_ENTRIES, label="scalar")
    assert fraction_matadd(a, b) == _entrywise(operator.add, a, b)
    assert fraction_matsub(a, b) == _entrywise(operator.sub, a, b)
    assert fraction_matsub(a, a) == zero_matrix(a.n) == QMatrix.from_json([["0"] * a.n] * a.n)
    assert -a == _entrywise(operator.neg, a)
    assert a * scalar_matrix(a.n, k) == _entrywise(lambda e: k * e, a)
    for m in (a, b, fraction_matadd(a, b), -a, a * scalar_matrix(a.n, k), a * b):
        # the stored form is the unique reduced one, so equality is structural
        assert m.den > 0 and math.gcd(m.den, *(x for row in m.nums for x in row)) == 1
        assert QMatrix(m.rows) == m and hash(QMatrix(m.rows)) == hash(m)
        assert QMatrix.from_json(m.to_json()) == m
        assert m.to_json() == [[f"{e.numerator}/{e.denominator}" for e in row] for row in m.rows]


@given(m=_matrices(), scales=st.lists(st.integers(1, 10**4), min_size=25, max_size=25))
@settings(max_examples=100, deadline=None)
def test_equal_matrices_written_differently_are_equal(m, scales):
    # each entry num/den written as (c * num)/(c * den), one c per entry
    n = m.n
    data = [[f"{e.numerator * c}/{e.denominator * c}" for e, c in zip(row, scales[i * n:])]
            for i, row in enumerate(m.rows)]
    other = QMatrix.from_json(data)
    assert other == m and hash(other) == hash(m)
    assert (other.nums, other.den) == (m.nums, m.den)


def test_matrix_canonical_form_frozen_example():
    m = QMatrix.of([["2/4", "-3/6"], [0, "10/5"]])
    assert (m.nums, m.den) == (((1, -1), (0, 4)), 2)
    for other in (QMatrix.from_json([["1/2", "-1/2"], ["0/7", "2"]]),
                  QMatrix(((Fraction(1, 2), Fraction(-1, 2)), (0, 2))),
                  m * scalar_matrix(2, 6) * scalar_matrix(2, Fraction(1, 6)),
                  fraction_matsub(fraction_matadd(m, m), m),
                  m.inverse().inverse()):
        assert other == m and hash(other) == hash(m)
    assert QMatrix.of([[4, 0], [0, 8]]).den == 1
    assert QMatrix.of([[4, 0], [0, 8]]) * scalar_matrix(2, Fraction(1, 4)) == QMatrix.of([[1, 0], [0, 2]])


def test_products_over_den_7_store_the_reduced_form():
    # a * b and a * a keep their denominators 7 and 49 (gcd 1: the rows are
    # stored as computed); a * 7I falls to den 1 and is cut into rows again
    a, b, seven = QMatrix.of([["1/7", "2/7"], ["3/7", 1]]), QMatrix.of([[1, 1], [0, 1]]), scalar_matrix(2, 7)
    for x, y, nums, den in ((a, b, ((1, 3), (3, 10)), 7), (a, a, ((7, 16), (24, 55)), 49),
                            (a, seven, ((1, 2), (3, 7)), 1)):
        m, oracle = x * y, fraction_matmul(x, y)
        assert (m.nums, m.den) == (nums, den) == (oracle.nums, oracle.den)
        assert type(m.nums) is tuple and all(type(row) is tuple for row in m.nums)


def test_lowest_terms_divides_by_the_gcd_of_den_and_every_entry():
    assert el._lowest_terms([4, -6, 0], 8) == ([2, -3, 0], 4)
    assert el._lowest_terms([3, 5], 4) == ([3, 5], 4)
    assert el._lowest_terms([0, 0], 6) == ([0, 0], 1)
    assert el._lowest_terms([4, 6], 1) == ([4, 6], 1)
    # an integer array, int64 or of Python ints, is reduced by one np.gcd pass
    for dtype in (np.int64, object):
        flat, den = el._lowest_terms(np.array([4, -6, 0], dtype), 8)
        assert (flat.tolist(), den, flat.dtype) == ([2, -3, 0], 4, dtype)
        flat, den = el._lowest_terms(np.array([3, 5], dtype), 4)
        assert (flat.tolist(), den) == ([3, 5], 4)


@given(nums=st.lists(st.integers(-60, 60), min_size=4, max_size=4), x=st.integers(-60, 60),
       den=st.integers(1, 36), k=st.integers(2, 12))
@settings(max_examples=100, deadline=None)
def test_every_exact_form_is_reduced_by_the_one_lowest_terms_step(nums, x, den, k):
    # the same rationals written over den and over k * den must give one
    # (nums, den) in a vector, a matrix, an action and a cocycle
    c2 = gc.cyclic(2)

    def forms(c):
        d, scaled = c * den, [c * y for y in nums]
        vector = QVector.from_ints(scaled, d)
        matrix = QMatrix.from_json([[f"{y}/{d}" for y in scaled[:2]], [f"{y}/{d}" for y in scaled[2:]]])
        # C2 acting on Q^2 by the involution [[1, 0], [x / den, -1]]
        action = gc.FiniteAction(c2, 2, 0, [[[d, 0], [0, d]], [[d, 0], [c * x, -d]]], d)
        cocycle = cs.Cocycle(c2, gc.trivial_action(c2, 4), [[[0] * 4] * 2, [[0] * 4, scaled]], d)
        return ((vector.nums, vector.den), (matrix.nums, matrix.den),
                (action.matrices.tolist(), action.den), (cocycle.values.tolist(), cocycle.den))

    assert forms(1) == forms(k)
    g = math.gcd(den, *nums)
    reduced = tuple(y // g for y in nums)
    assert forms(1)[0] == (reduced, den // g)
    assert forms(1)[1] == ((reduced[:2], reduced[2:]), den // g)
    assert forms(1)[3] == ([[[0] * 4] * 2, [[0] * 4, list(reduced)]], den // g)
    assert forms(1)[2][1] == den // math.gcd(den, x)


@given(
    vectors=st.lists(st.lists(_ENTRIES, min_size=4, max_size=4), max_size=7),
    combos=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), _ENTRIES), max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_echelon_matches_fraction_oracle(vectors, combos):
    # combinations of earlier vectors must be found in the span
    for i, j, q in combos:
        if i < len(vectors) and j < len(vectors):
            vectors.append([x + q * y for x, y in zip(vectors[i], vectors[j])])
    # the (pivot, row) list of _clear and _insert, as cyclic_decomposition keeps it
    rows, oracle = [], FractionEchelon()
    for v in vectors:
        w = _clear(list(QVector(v).nums), rows)[0]
        assert (_insert(rows, w, 4) is not None) == oracle.add(v)
    assert len(rows) == oracle.rank
    for i in range(4):
        unit = QVector.unit(4, i)
        assert (not any(_clear(list(unit.nums), rows)[0])) == oracle.contains(unit.entries)


@given(m=_matrices(sizes=st.integers(1, 4), entries=st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))),
       twice=st.booleans())
@settings(max_examples=60, deadline=None)
def test_minimal_polynomial_matches_fraction_oracle(m, twice):
    if twice:  # a repeated block: the minimal polynomial has degree below n
        m = block_diag([m, m])
    assert minimal_polynomial(m) == fraction_minimal_polynomial(m)


def test_kernels_on_the_p13_witness_match_fraction_oracles():
    # L of `mixed auto --p 13 --t 2 --seed 0`: its entries share a common
    # denominator of more than 500 bits, the case the primitive rows are for
    left, right = _p13_witness_bases()
    linear = left.inverse() * right
    assert linear == fraction_matmul(gauss_jordan_inverse(left), right)
    den = 1
    for row in linear.rows:
        for e in row:
            den = math.lcm(den, e.denominator)
    assert den.bit_length() > 500
    assert linear.det() == bareiss_det(linear) != 0
    assert linear.inverse() == gauss_jordan_inverse(linear)
    assert linear * linear == fraction_matmul(linear, linear)
    b = QVector(left.rows[0])  # the seed is row 0 of its basis
    assert b * linear == fraction_vecmul(b, linear)
