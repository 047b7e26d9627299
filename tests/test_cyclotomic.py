from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitforge import cyclotomic as cy
from orbitforge.exact_linear import QMatrix, QVector

# ---------------------------------------------------------------------------
# arithmetic in F = Q[x] / Phi_p against polynomial long division

def _mod_phi(coeffs, p: int) -> list:
    """coeffs (lowest degree first) reduced mod Phi_p by long division:
    x^m = -x^(m-p+1) * (1 + x + ... + x^(p-2)) for m >= p - 1."""
    c = list(coeffs)
    while len(c) > p - 1:
        top = c.pop()
        for j in range(len(c) - p + 1, len(c)):
            c[j] -= top
    return c + [0] * (p - 1 - len(c))


_F_ELEMENTS = st.lists(st.integers(-50, 50), min_size=1, max_size=18)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 13, 19]), a=_F_ELEMENTS, b=_F_ELEMENTS,
       den=st.integers(1, 30), h=st.integers(1, 18), s=st.integers(0, 40))
def test_field_kernel_matches_polynomial_division(p, a, b, den, h, s):
    a, b = _mod_phi(a, p), _mod_phi(b, p)
    product = [0] * (2 * p)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    assert cy._poly_mul(a, b) == _mod_phi(product, p)
    h = h % p or 1
    image = [0] * (h * (p - 2) + s + 1)
    for j, x in enumerate(a):
        image[h * j + s] += x
    assert cy._poly_map(a, h, s) == _mod_phi(image, p)
    if any(a):
        one = QVector.from_ints([1] + [0] * (p - 2), 1)
        elem = QVector.from_ints(a, den)
        assert cy._elem_mul(elem, cy._elem_inverse(elem)) == one


# ---------------------------------------------------------------------------
# the norm; at p = 2, F = Q and the norm of a negative element is negative

_NORM_PRIMES = [2, 3, 5, 7, 13]


@pytest.mark.parametrize("p", _NORM_PRIMES)
@settings(max_examples=30, deadline=None)
@given(a=_F_ELEMENTS, b=_F_ELEMENTS)
@example(a=[-3], b=[-2])
def test_norm_is_multiplicative(p, a, b):
    a, b = _mod_phi(a, p), _mod_phi(b, p)
    assume(any(a) and any(b))
    assert cy._norm(cy._poly_mul(a, b))[0] == cy._norm(a)[0] * cy._norm(b)[0]


@pytest.mark.parametrize("p", _NORM_PRIMES)
@settings(max_examples=30, deadline=None)
@given(a=_F_ELEMENTS, den=st.integers(1, 30))
@example(a=[-3], den=2)
def test_norm_is_the_det_of_multiplication(p, a, den):
    # u -> u * a on F = Q^(p-1): row j is x^j * a, by long division
    a = _mod_phi(a, p)
    assume(any(a))
    n, c = cy._norm(a)
    assert (n < 0) == (p == 2 and a[0] < 0)
    assert cy._poly_mul(a, c) == [n] + [0] * (p - 2)
    rows = [[Fraction(x, den) for x in _mod_phi([0] * j + a, p)] for j in range(p - 1)]
    assert QMatrix(rows).det() == Fraction(n, den ** (p - 1))
    elem = QVector.from_ints(a, den)
    assert cy._elem_mul(elem, cy._elem_inverse(elem)) == QVector.unit(p - 1, 0)
