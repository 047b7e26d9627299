"""Shared oracles and fixtures.

The oracles here recompute expected values by routes independent of the
implementation under test (full permutation search, direct table walks),
so the frozen constants in the test modules stay honest.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import math
import pathlib
import random
import sys
from bisect import insort
from fractions import Fraction
from functools import reduce
from itertools import permutations

import numpy as np
import pytest

from orbitforge import catalog
from orbitforge import cocycle_split as cs
from orbitforge import cyclotomic as cy
from orbitforge import group_core as gc
from orbitforge import mixed_group as mg
from orbitforge.arith import factorize, is_prime
from orbitforge.exact_linear import QMatrix, QVector, cyclic_decomposition, minimal_polynomial

INPUTS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def perfbench_inputs():
    """The benchmark's input module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def brute_force_automorphisms(g) -> set[tuple[int, ...]]:
    """Every automorphism of a tiny group, found by filtering all permutations
    that fix the identity. Exponential; keep the order at 8 or below."""
    assert g.order <= 8, "oracle is factorial; use small groups only"
    t = g.table
    n = g.order
    found = set()
    for rest in permutations(range(1, n)):
        perm = (0,) + rest
        if all(perm[t[i][j]] == t[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            found.add(perm)
    return found


def enumerate_automorphisms(g) -> list[tuple[int, ...]]:
    """Every automorphism of g, sorted, by generator-image backtracking.

    This is the search the package used before its stabilizer chain: the
    images of a generating set are chosen among elements of the same order,
    and each choice is closed under products over all pairs of elements with
    known images, which is O(n^2) per candidate. It lists the whole of Aut(G),
    so keep |Aut(G)| to a few tens of thousands."""
    t = g.table
    n = g.order
    orders = independent_element_orders(g)

    # the first element outside the subgroup generated so far, until it is all of g
    gens: list[int] = []
    sub = {0}
    while len(sub) < n:
        gens.append(min(x for x in range(n) if x not in sub))
        frontier = set(sub)
        while frontier:
            frontier = {t[x][s] for x in frontier for s in gens} - sub
            sub |= frontier

    by_order: dict[int, list[int]] = {}
    for i, o in enumerate(orders):
        by_order.setdefault(o, []).append(i)

    img = [-1] * n
    rev = [-1] * n
    img[0] = 0
    rev[0] = 0
    known: list[int] = [0]
    trail: list[int] = []
    found: list[tuple[int, ...]] = []

    def undo(mark: int) -> None:
        while len(trail) > mark:
            x = trail.pop()
            rev[img[x]] = -1
            img[x] = -1
            known.pop()

    def assign(x0: int, y0: int) -> bool:
        # extend the partial map with x0 -> y0 and close it under products;
        # every ordered pair inside the closure gets its product checked when
        # the later of the two elements is processed
        if img[x0] != -1:
            return img[x0] == y0
        if rev[y0] != -1:
            return False
        img[x0] = y0
        rev[y0] = x0
        trail.append(x0)
        known.append(x0)
        queue = [x0]
        while queue:
            a = queue.pop()
            fa = img[a]
            i = 0
            while i < len(known):
                b = known[i]
                i += 1
                fb = img[b]
                for u, fu in ((t[a][b], t[fa][fb]), (t[b][a], t[fb][fa])):
                    known_img = img[u]
                    if known_img == -1:
                        if rev[fu] != -1:
                            return False
                        img[u] = fu
                        rev[fu] = u
                        trail.append(u)
                        known.append(u)
                        queue.append(u)
                    elif known_img != fu:
                        return False
        return True

    def backtrack(depth: int) -> None:
        if depth == len(gens):
            found.append(tuple(img))
            return
        x = gens[depth]
        mark = len(trail)
        for y in by_order[orders[x]]:
            if assign(x, y):
                backtrack(depth + 1)
            undo(mark)

    backtrack(0)
    return sorted(found)


def orbit_classes(n: int, perms) -> set[frozenset[int]]:
    """The orbits of the group generated by the given permutations of range(n)."""
    classes = []
    seen: set[int] = set()
    for x in range(n):
        if x in seen:
            continue
        orbit = {x}
        frontier = {x}
        while frontier:
            frontier = {p[y] for y in frontier for p in perms} - orbit
            orbit |= frontier
        seen |= orbit
        classes.append(frozenset(orbit))
    return set(classes)


def gl_order(k: int, q: int) -> int:
    """|GL(k, q)| = (q^k - 1)(q^k - q)...(q^k - q^(k-1)), the order of
    Aut((C_q)^k)."""
    out = 1
    for i in range(k):
        out *= q**k - q**i
    return out


def compose_perms(a, b) -> tuple[int, ...]:
    """a after b, as permutations of range(n): x -> a[b[x]]."""
    return tuple(a[j] for j in b)


def inverse_perm(a) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def is_automorphism(g, perm) -> bool:
    """Exhaustive check of the homomorphism law on all pairs, plus bijectivity
    and fixing the identity. Deliberately independent of the search."""
    n = g.order
    if len(perm) != n or sorted(perm) != list(range(n)) or perm[0] != 0:
        return False
    t = g.table
    return all(perm[t[i][j]] == t[perm[i]][perm[j]] for i in range(n) for j in range(n))


def zero_matrix(n: int) -> QMatrix:
    return QMatrix(tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n)))


def cyclotomic_prime(p: int) -> tuple[int, ...]:
    """Phi_p = 1 + x + ... + x^(p-1) for a prime p, as its coefficients: p ones."""
    assert is_prime(p), f"{p} is not prime"
    return (1,) * p


def companion(f: tuple) -> QMatrix:
    """The companion matrix of the monic f of degree d >= 1, its int or
    Fraction coefficients lowest degree first: ones on the subdiagonal and
    -f[0], ..., -f[d-1] in the last column, so that under the row-vector
    right action its minimal polynomial is f."""
    d = len(f) - 1
    assert d >= 1 and f[-1] == 1, "a monic polynomial of degree at least 1"
    return QMatrix([[int(j == i - 1) for j in range(d - 1)] + [-f[i]] for i in range(d)])


def block_diag(blocks: list[QMatrix]) -> QMatrix:
    """The block diagonal matrix of the given square blocks, in order."""
    n, rows, off = sum(b.n for b in blocks), [], 0
    for b in blocks:
        rows += [[0] * off + list(r) + [0] * (n - off - b.n) for r in b.rows]
        off += b.n
    return QMatrix(rows)


def scalar_matrix(n: int, c) -> QMatrix:
    """c times the n x n identity: the package has no scalar product."""
    return QMatrix.of([[c if i == j else 0 for j in range(n)] for i in range(n)])


def matrix_power(m: QMatrix, k: int) -> QMatrix:
    """m^k by repeated squaring; a negative k powers the inverse."""
    base = m if k >= 0 else m.inverse()
    k = abs(k)
    result = QMatrix.identity(m.n)
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def poly_value(f: tuple, x: Fraction | int) -> Fraction:
    """f(x) at a rational x (Horner), for f its coefficients lowest degree first."""
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def random_cocycle(base, action, seed: int):
    """Seeded random coboundary; same seed, same cocycle.

    Over Q^n every cocycle of a finite group is a coboundary (that is what
    trivialize computes), so coboundaries are fully representative test
    inputs. Like every ``Cocycle``, the result is verified when it is built.
    """
    rng = random.Random(seed)
    n = action.module_dim
    f = [QVector.zero(n)]
    for _ in range(base.order - 1):
        f.append(
            QVector(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)))
        )
    return cs.coboundary(f, base, action)


def permutation_action(g) -> "gc.FiniteAction":
    """Q^d permuted through the permutation labels of symmetric() or
    alternating(): M_p[i][j] = 1 iff p(j) = i, so M_p M_q = M_pq."""
    perms = [ast.literal_eval(lab) for lab in g.labels]
    d = len(perms[0])
    mats = tuple(QMatrix.of([[1 if p[j] == i else 0 for j in range(d)] for i in range(d)])
                 for p in perms)
    return gc.FiniteAction(g, d, 0, mats)


def action_matrices(action) -> tuple[QMatrix, ...]:
    """Every M_x of an action as a QMatrix, read off its one integer form:
    matrices[x] over den."""
    return tuple(QMatrix([[Fraction(e, action.den) for e in row] for row in m])
                 for m in action.matrices.tolist())


def cocycle_of(base, action, values) -> "cs.Cocycle":
    """The Cocycle of a |B| x |B| table of QVectors, through its one
    constructor: the integer table over the lcm of their denominators."""
    d = math.lcm(*(v.den for row in values for v in row))
    return cs.Cocycle(base, action, [[[x * (d // v.den) for x in v.nums] for v in row] for row in values], d)


def cocycle_values(c) -> tuple[tuple[QVector, ...], ...]:
    """Every c(x, y) as a QVector at [x][y], read off the one integer form:
    values[x, y] over den."""
    return tuple(tuple(QVector.from_ints(v, c.den) for v in row) for row in c.values.tolist())


def extension_identity(c) -> "cs.ExtensionElement":
    return cs.ExtensionElement(0, QVector.zero(c.module_dim))


def is_fixed_point_free(m: QMatrix, p: int) -> bool:
    """True iff m generates a cyclic group of order p none of whose nontrivial
    powers fixes a nonzero rational vector.

    Realized exactly: m^p = I, m != I, and det(m^k - I) != 0 for k = 1..p-1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ident = QMatrix.identity(m.n)
    if m == ident:
        return False
    power = m
    for _ in range(1, p):
        if fraction_matsub(power, ident).det() == 0:
            return False
        power = power * m
    return power == ident


#: A rational 4 x 4 conjugator with det != 0, under which the companion
#: matrix of Phi_5 loses the shifted identity of its first three columns.
CONJUGATOR = QMatrix.of([[1, "1/2", 0, 0], [0, 1, 0, -3], [2, 0, 1, 0], [0, 0, "1/3", 1]])


def rational_action() -> QMatrix:
    """block_diag(q^-1 * C * q, C) for C the companion matrix of Phi_5 and
    q = ``CONJUGATOR``: a p = 5, t = 2 action over the denominator 24."""
    c = companion(cyclotomic_prime(5))
    return block_diag([CONJUGATOR.inverse() * c * CONJUGATOR, c])


def count_calls(monkeypatch, owner, *names: str) -> dict[str, int]:
    """Patch each named attribute of owner to count its calls, in the dict
    returned (name -> calls so far)."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _real=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


def count_eliminations(monkeypatch):
    """Count the eliminations over Q of the mixed-group code: ``det`` and
    ``inverse`` of QMatrix, and the ``cyclic_decomposition`` bases that
    ``mixed_group`` builds. The result returns the counts so far when
    called."""
    matrix = count_calls(monkeypatch, QMatrix, "det", "inverse")
    bases = count_calls(monkeypatch, mg, "cyclic_decomposition")
    return lambda: {**matrix, **bases}


def powers_sum_verdict(p: int, m: QMatrix) -> str | None:
    """The message with which an n x n action m, n a multiple of p - 1, must
    be refused, or None if it is valid: the package's earlier validity
    check, which built the p powers of m and summed them. M = I is named
    first, then M^p != I, and any other nonzero sum I + M + ... + M^(p-1)
    means that some power of m fixes a nonzero vector."""
    ident = QMatrix.identity(m.n)
    if m == ident:
        return "action matrix must not be the identity"
    powers = [ident]
    for _ in range(p - 1):
        powers.append(powers[-1] * m)
    if powers[-1] * m != ident:
        return f"action matrix does not have order {p}"
    if reduce(fraction_matadd, powers[1:], ident) != zero_matrix(m.n):
        return "I + M + ... + M^(p-1) is not zero: some power of the action fixes a nonzero vector"
    return None


def telescope(spec: "mg.MixedGroupSpec", k: int) -> QMatrix:
    """I + M^k + M^(2k) + ... + M^((p-1)k), summed from ``spec.powers``."""
    p = spec.p
    return reduce(fraction_matadd, (spec.powers[(k * j) % p] for j in range(1, p)), spec.powers[0])


def spec_checks_oracle(spec: "mg.MixedGroupSpec") -> dict:
    """The JSON that ``mg.spec_checks`` must print, with every check
    recomputed from the matrices: the minimal polynomial of M, the p - 1
    determinants det(M^k - I), M^p and each telescope. This is how the
    package derived these checks before they were read off the validity
    identity Phi_p(M) = 0."""
    p, m = spec.p, spec.action
    ident = QMatrix.identity(spec.n)
    dets = [fraction_matsub(spec.powers[k], ident).det() for k in range(1, p)]
    checks = [
        ("order_p", spec.powers[p - 1] * m == ident and m != ident, f"M^{p} == I and M != I"),
        ("minimal_polynomial", minimal_polynomial(m) == cyclotomic_prime(p),
         "minimal polynomial is 1 + x + ... + x^(p-1)"),
        ("fixed_point_free", all(d != 0 for d in dets),
         f"det(M^k - I) for k=1..{p - 1}: {[str(d) for d in dets]}"),
        ("telescoping", all(telescope(spec, k) == zero_matrix(spec.n) for k in range(1, p)),
         f"I + M^k + ... + M^((p-1)k) == 0 for k=1..{p - 1}"),
    ]
    return mg.Certificate("mixed-spec", spec.to_json(),
                          [mg.CheckResult(*c) for c in checks]).to_json()


def mixed_inverse(g: "mg.MixedElement", spec: "mg.MixedGroupSpec") -> "mg.MixedElement":
    """The inverse h^(-k) * (-(a * M^(-k))) of g = h^k * a, from the group law
    (h^k a)(h^l b) = h^(k+l) (a * M^l + b)."""
    kk = (-g.k) % spec.p
    return mg.MixedElement(kk, QVector.zero(spec.n) - g.a * spec.powers[kk])


def mixed_element_order(g: "mg.MixedElement", spec: "mg.MixedGroupSpec") -> int | float:
    """Order of an element of Q^n x| C_p: 1 for the identity, infinite inside
    A, and exactly p outside A.

    The order-p case is established by checking that the translation part is
    annihilated by the telescoping sum I + M^k + ... + M^((p-1)k) and,
    independently, by actually multiplying g with itself p times.
    """
    k = g.k % spec.p
    if k == 0:
        return 1 if g.a.is_zero else math.inf
    if not (g.a * telescope(spec, k)).is_zero:
        raise mg.SpecValidationError("telescoping annihilation failed; spec invalid")
    acc = g
    for _ in range(spec.p - 1):
        acc = mg.multiply(acc, g, spec)
    if acc != mg.identity_element(spec):
        raise mg.SpecValidationError("element outside A failed to have order p; spec invalid")
    return spec.p


def krylov_witness_linear(b: QVector, c: QVector, alpha: "mg.MixedElement",
                          beta: "mg.MixedElement", spec: "mg.MixedGroupSpec") -> QMatrix:
    """L of ``mg.build_automorphism`` by elimination over Q: B^-1 * C for the
    cyclic bases B of b under P = M^(alpha.k) and C of c under R = M^(beta.k),
    each block b_i * P^j sent to c_i * R^j."""
    p = spec.p
    pm, rm = spec.powers[alpha.k % p], spec.powers[beta.k % p]
    return cyclic_decomposition(pm, p, b).inverse() * cyclic_decomposition(rm, p, c)


def conjugation_matrix(g: "mg.MixedElement", spec: "mg.MixedGroupSpec") -> QMatrix:
    """Action of conjugation by g on A, which is M^k because A is abelian."""
    if g.a.dim != spec.n:
        raise ValueError(f"element vector has dimension {g.a.dim}, spec needs {spec.n}")
    k = g.k % spec.p
    if k == 0:
        raise ValueError("conjugation matrix is only defined for elements outside A")
    return spec.powers[k]


def field_row_times(row, x) -> list[QVector]:
    """The row of F^t times the t x t matrix X over F given by its rows."""
    out = [QVector.zero(len(row[0].nums))] * len(x[0])
    for e, xrow in zip(row, x):
        out = [y + cy._elem_mul(e, z) for y, z in zip(out, xrow)]
    return out


def compose_automorphisms(first, second, spec) -> "mg.MixedAutomorphism":
    """The map applying first, then second; anchored at first.alpha. As
    sigma_g2(sigma_g1(w * X1) * X2) = sigma_(g1*g2)(w * X1 * sigma_(g1^-1)(X2)),
    it is the witness (g1 * g2, X1 * sigma_(g1^-1)(X2)). It carries first's
    seed b to L2(c), c first's other seed, so those are its seeds; but at
    t >= 2 it sends the further rows of b's basis to the images under L2 of
    the rows of c's basis, not to the basis chosen from L2(c), so
    ``verify_automorphism`` need not derive its det. It is for
    ``apply_automorphism`` only."""
    p = spec.p
    x2 = [cy._galois_row(row, pow(first.g, -1, p)) for row in second.x]
    b, c = first.seeds
    return mg.MixedAutomorphism(
        first.g * second.g % p,
        tuple(tuple(field_row_times(row, x2)) for row in first.x),
        first.alpha,
        mg.apply_automorphism(second, first.image_of_alpha),
        (b, tuple(cy._galois_row(field_row_times(c, second.x), second.g))),
        spec,
    )


def semilinear_oracle(phi: "mg.MixedAutomorphism") -> QMatrix:
    """L' = K * L * K^-1 of the witness (g, X) of phi, entry by entry over
    Q: row (i, j), the image of x^j in entry i, is sigma_g(x^j * X_i), with
    x -> x^g taken on the exponents mod x^p - 1 and the result reduced mod
    Phi_p by x^(p-1) = -(1 + ... + x^(p-2))."""
    p, g = phi.spec.p, phi.g
    rows = []
    for xrow in phi.x:
        for j in range(p - 1):
            row = []
            for e in xrow:
                acc = [Fraction(0)] * p
                for m, coeff in enumerate(e.entries):
                    acc[g * (m + j) % p] += coeff
                row += [y - acc[p - 1] for y in acc[:p - 1]]
            rows.append(row)
    return QMatrix(rows)


def first_mismatch(field_matrix: QMatrix, p: int, a: int, b: int) -> int | None:
    """The first row at which C^a * L' and L' * C^b differ, for L' =
    K * L * K^-1 and C the block companion of Phi_p, with K * M = C * K; None
    if none does, which holds iff M^a * L == L * M^b. Row (i, j) of C^a * L'
    is row (i, j + a mod p) of L', row (i, p - 1) being minus the sum of
    block i; row (i, j) of L' * C^b has each block times x^b. This is how
    witnesses held as L' were checked, in O(n^2) and with no product over Q."""
    k, nums = p - 1, field_matrix.nums
    for i in range(0, len(nums), k):
        block = [list(row) for row in nums[i:i + k]]
        block.append([-sum(col) for col in zip(*block)])
        for j, row in enumerate(block[:k]):
            if block[(j + a) % p] != [y for s in range(0, len(row), k)
                                      for y in cy._poly_map(row[s:s + k], 1, b)]:
                return i + j
    return None


def dense_product_checks(phi: "mg.MixedAutomorphism", spec: "mg.MixedGroupSpec") -> dict[str, bool]:
    """The verdicts of ``mg._product_checks`` recomputed over Q in the
    standard basis: L = K^-1 * L' * K for L' = ``semilinear_oracle(phi)``,
    and P * L == L * R by dense products of ``spec.powers``, P and R the
    powers of M for alpha and beta. This is how every witness was checked
    before the checks moved to K's coordinates, and then to F^t."""
    p = spec.p
    a, b = phi.alpha.k % p, phi.image_of_alpha.k % p
    basis, basis_inv = spec.krylov
    linear = basis_inv * semilinear_oracle(phi) * basis
    return {"intertwining": b != 0 and spec.powers[a] * linear == linear * spec.powers[b],
            "image_order": b != 0}


def independent_element_orders(g) -> list[int]:
    """The order of every element by walking the table, written separately
    from the packaged implementation."""
    t = g.table
    orders = []
    for i in range(g.order):
        k, x = 1, i
        while x != 0:
            x = t[x][i]
            k += 1
        orders.append(k)
    return orders


def independent_element_order(g, i: int) -> int:
    return independent_element_orders(g)[i]


def independent_order_profile(g) -> dict[int, int]:
    profile: dict[int, int] = {}
    for o in independent_element_orders(g):
        profile[o] = profile.get(o, 0) + 1
    return profile


def intercalate_loop() -> list[list[int]]:
    """cyclic(1024) with one intercalate swapped: rows 3 and 515, columns 5
    and 517 hold the values 8 and 520 in a 2x2 Latin subsquare. Swapping them
    keeps the Latin property and the identity but breaks associativity on
    16,336 of the 1024^3 triples."""
    n = 1024
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    for r, c in ((3, 5), (3, 517), (515, 5), (515, 517)):
        table[r][c] = 520 if table[r][c] == 8 else 8
    return table


def relabeled_table(table, sigma) -> list[list[int]]:
    """The table with every index x renamed to sigma[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[sigma[i]][sigma[j]] = sigma[table[i][j]]
    return out


def brute_force_associative(table) -> bool:
    """Every triple of a small table, with no shortcut."""
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


# ---------------------------------------------------------------------------
# JSON rationals: the one-entry oracle of the bulk parser, and the entries it
# rejects, shared by the tests of the parser and of the cocycle table

def num_den(s: str | int) -> tuple[int, int]:
    """(num, den > 0), not reduced, of one JSON rational: "num/den", a bare
    integer string or an int; anything else, a float, a bool, a space, an
    underscore, a non-ASCII digit, a zero or signed denominator or a number
    longer than ``sys.get_int_max_str_digits()`` included, is a ValueError
    with the message the bulk parser ``exact_linear._rationals`` gives it.
    One entry at a time, by string methods and no regular expression."""
    if isinstance(s, str) and s.isascii():
        num, slash, den = s.partition("/")
        # ASCII digits only, after one optional sign on the numerator: int()
        # also reads spaces, underscores and other scripts' digits
        try:
            d = int(den) if den.isdigit() else 0 if slash else 1
            if d and (num.isdigit() or num[1:].isdigit() and num[0] in "+-"):
                return int(num), d
        except ValueError:
            # the digits are checked, so int() fails only past its length limit
            raise ValueError(
                f"invalid rational of {len(s)} characters ({s[:12]!r}...): too many digits,"
                f" at most {sys.get_int_max_str_digits()} in a numerator or denominator"
            ) from None
    elif isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    text = s if isinstance(s, str) else repr(s)
    if len(text) <= 64:
        shown = repr(s)
    elif isinstance(s, str):
        shown = f"of {len(s)} characters ({s[:12]!r}...)"
    else:
        shown = f"a {type(s).__name__} whose repr has {len(text)} characters ({text[:12]}...)"
    raise ValueError(f"invalid rational {shown}: expected \"num/den\", an integer string or an int")


def json_load_oracle(path: str, arrays):
    """The CLI's reader before its text intake: ``json.load`` of the whole
    document, which builds one Python object per entry for the constructors
    to read, and over-deep nesting as an input error. With it swapped in for
    ``cli._load_json``, a command's stdout, stderr and exit code are those
    of the tree intake alone."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


#: Entries rejected with the generic "invalid rational" message.
BAD_RATIONALS = [
    0.5, 1e30, 2.0,  # a JSON float is not an exact rational: 0.5 is not read as 1/2
    True, False,
    "1/0", "1/-2", "1/", "0.5", "1e3", "x", None, [1],
    # not rational notation, though int() reads all but the last
    "1_0/3", " 7/2", "\u0663/4", "3/\u0664", "\u00b2/1",
]

#: Entry and message, up to its ': expected ...' tail, by name: a str of up
#: to 64 characters, or anything else whose repr has up to 64, is quoted
#: whole, a longer one shortened.
QUOTED_RATIONALS = {
    "64 quoted": ("x" * 64, f"invalid rational {'x' * 64!r}"),
    "64 digits quoted": ("1/2/3" + "4" * 59, f"invalid rational {'1/2/3' + '4' * 59!r}"),
    "65 shortened": ("x" * 65, "invalid rational of 65 characters ('xxxxxxxxxxxx'...)"),
    "3005 shortened": ("1/2/3" + "4" * 3000,
                       "invalid rational of 3005 characters ('1/2/34444444'...)"),
    "repr of 64 quoted": ([10] * 16, f"invalid rational {[10] * 16!r}"),
    "repr of 67 shortened": ([10] * 16 + [1],
                             "invalid rational a list whose repr has 67 characters ([10, 10, 10,...)"),
}

#: Longer than int()'s default limit of 4300 digits per string conversion.
TOO_LONG = "9" * 5000

#: Entries with a number past that limit, by where it is.
TOO_MANY_DIGITS = {"numerator": TOO_LONG + "/7", "signed": "-" + TOO_LONG,
                   "denominator": "7/" + TOO_LONG}


def cocycle_check(base, action, values):
    """fails(x, y, z): whether the cocycle identity
    c(xy, z) + c(x, y) M_z == c(x, yz) + c(y, z) of the value table
    c = values fails at (x, y, z); in plain Fractions read off ``entries``
    and ``rows``, with no QVector arithmetic. It takes the raw table, since
    a failing one cannot be built into a ``Cocycle``."""
    t, mats = base.table, [m.rows for m in action_matrices(action)]
    v = [[list(e.entries) for e in row] for row in values]
    d = action.module_dim

    def fails(x: int, y: int, z: int) -> bool:
        moved = [sum(v[x][y][i] * mats[z][i][j] for i in range(d)) for j in range(d)]
        lhs = [a + b for a, b in zip(v[t[x][y]][z], moved)]
        return lhs != [a + b for a, b in zip(v[x][t[y][z]], v[y][z])]

    return fails


def cocycle_witness(base, action, values, middles) -> tuple[int, int, int] | None:
    """The first (x, y, z), y in middles in order and then (x, z) in
    row-major order, at which ``cocycle_check`` fails; None if there is
    none. With ``base.generators`` as the middles, this is the witness that
    the Light test ``group_core._first_failure`` names."""
    fails, n = cocycle_check(base, action, values), base.order
    return next(((x, y, z) for y in middles for x in range(n) for z in range(n) if fails(x, y, z)), None)


def brute_force_cocycle(base, action, values) -> tuple[bool, tuple[int, int, int] | None]:
    """The verdict of the cocycle identity over all |B|^3 triples, with no
    shortcut, and its first failure, middle by middle."""
    witness = cocycle_witness(base, action, values, range(base.order))
    return witness is None, witness


def trivialization_failures(c, e) -> tuple[int, int] | None:
    """The first pair (y, z) at which the cochain e fails the trivialization
    relation c(y, z) = e(yz) - e(y) * M_z - e(z), by the Light test
    ``group_core._first_failure`` with z in the middle; None if it holds at
    every pair. The relation says s_y s_z = s_yz in the extension for
    s_y = (y, e(y)), and the z at which that holds for every y are closed
    under products, as the extension of a cocycle is associative, so the
    generators z decide it. This is the pass that ``trivialize`` ran before
    it derived the relation from the cocycle identity.

    On integers, with F the common denominator of e, the relation times
    D * E * F is E * F * V[y, z] == D * (E * Fe(yz) - Fe(y) (E M_z) - E * Fe(z)),
    checked on Python ints."""
    f = math.lcm(*(v.den for v in e))
    fe = np.array([[x * (f // v.den) for x in v.nums] for v in e], dtype=object)
    v, em = c.values.astype(object), c.action.matrices.astype(object)
    big_e, arr = c.action.den, c.base.array

    def failures(z: int, lo: int, hi: int) -> np.ndarray:
        rhs = c.den * (big_e * fe[arr[lo:hi, z]] - fe[lo:hi] @ em[z] - big_e * fe[z])
        return (big_e * f * v[lo:hi, z] != rhs).any(axis=1)

    return gc._first_failure(c.base.generators, c.base.order, failures)


def non_homomorphic_pair(g, mats, mul, middles) -> tuple[int, int] | None:
    """The first (x, y), y in middles in order and then x, with
    mul(M_x, M_y) != M_xy; None if there is none. Over every y it is the
    verdict of the action law; over ``g.generators``, the witness of
    ``group_core._first_failure``."""
    t = g.table
    return next(((x, y) for y in middles for x in range(g.order)
                 if mul(mats[x], mats[y]) != mats[t[x][y]]), None)


# ---------------------------------------------------------------------------
# Fraction oracles for the integer kernels of exact_linear: the package's
# earlier implementations, which did every step in Fraction arithmetic

def fraction_vecmul(v: QVector, m: QMatrix) -> QVector:
    """v * m, accumulated entry by entry in Fractions."""
    acc = [Fraction(0)] * m.n
    for i, x in enumerate(v.entries):
        if x:
            for j, w in enumerate(m.rows[i]):
                if w:
                    acc[j] += x * w
    return QVector(tuple(acc))


def fraction_vecadd(v: QVector, w: QVector) -> QVector:
    """v + w, added entry by entry in Fractions."""
    return QVector(tuple(a + b for a, b in zip(v.entries, w.entries)))


def fraction_vecsub(v: QVector, w: QVector) -> QVector:
    """v - w, subtracted entry by entry in Fractions."""
    return QVector(tuple(a - b for a, b in zip(v.entries, w.entries)))


def fraction_matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """a * b, row by row in Fractions."""
    return QMatrix(tuple(fraction_vecmul(QVector(row), b).entries for row in a.rows))


def fraction_matadd(a: QMatrix, b: QMatrix) -> QMatrix:
    """a + b, added entry by entry in Fractions; the package has no matrix sum."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return QMatrix([[x + y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])


def fraction_matsub(a: QMatrix, b: QMatrix) -> QMatrix:
    """a - b, entry by entry in Fractions."""
    return fraction_matadd(a, -b)


def bareiss_det(m: QMatrix) -> Fraction:
    """Determinant: every entry is scaled by one global common denominator
    D, and the integer matrix is reduced by Bareiss elimination, so the
    k-th pivot carries D^k."""
    n = m.n
    if n == 0:
        return Fraction(1)
    den = 1
    for row in m.rows:
        for e in row:
            den = den * e.denominator // math.gcd(den, e.denominator)
    a = [[int(e * den) for e in row] for row in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return Fraction(0)
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return Fraction(sign * a[n - 1][n - 1], den**n)


def gauss_jordan_inverse(m: QMatrix) -> QMatrix:
    """Inverse by Gauss-Jordan elimination in Fractions; raises ValueError
    "matrix is singular"."""
    n = m.n
    a = [
        list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(m.rows)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pval = a[col][col]
        a[col] = [x / pval for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return QMatrix(tuple(tuple(row[n:]) for row in a))


class FractionEchelon:
    """Incremental row echelon form in Fractions, rows normalized to a
    leading 1 and sorted by pivot column."""

    def __init__(self) -> None:
        self._rows: list[tuple[int, list[Fraction]]] = []

    def _reduce(self, v: list[Fraction]) -> list[Fraction]:
        for piv, row in self._rows:
            f = v[piv]
            if f:
                for i in range(piv, len(v)):
                    if row[i]:
                        v[i] -= f * row[i]
        return v

    def contains(self, entries) -> bool:
        return not any(self._reduce(list(entries)))

    def add(self, entries) -> bool:
        """Insert a vector; False if it was already in the span."""
        v = self._reduce(list(entries))
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        pval = v[piv]
        insort(self._rows, (piv, [x / pval for x in v]), key=lambda r: r[0])
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)


def fraction_minimal_polynomial(m: QMatrix) -> tuple[Fraction, ...]:
    """Monic minimal polynomial, its coefficients lowest degree first, by
    Fraction elimination on the Krylov flats I, m, m^2, ..., with the
    combination of powers carried per row."""
    n = m.n
    rows: list[tuple[int, list[Fraction], list[Fraction]]] = []
    power = QMatrix.identity(n)
    for k in range(n + 1):
        vec = [e for row in power.rows for e in row]
        combo = [Fraction(0)] * k + [Fraction(1)]
        for piv, rvec, rcombo in rows:
            f = vec[piv]
            if f:
                for i in range(piv, len(vec)):
                    if rvec[i]:
                        vec[i] -= f * rvec[i]
                for i, c in enumerate(rcombo):
                    if c:
                        combo[i] -= f * c
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return tuple(combo)
        pval = vec[piv]
        insort(rows, (piv, [x / pval for x in vec], [c / pval for c in combo]),
               key=lambda r: r[0])
        power = fraction_matmul(power, m)
    raise AssertionError("powers of an n x n matrix must be dependent by degree n")


def poly_eval(f: tuple, m: QMatrix) -> QMatrix:
    """Evaluate f, its coefficients lowest degree first, at the matrix m
    (Horner), exactly."""
    acc = zero_matrix(m.n)
    for c in reversed(f):
        acc = fraction_matadd(acc * m, scalar_matrix(m.n, c))
    return acc


# ---------------------------------------------------------------------------
# oracles for table validation and import: the package's earlier code, which
# sorted every row before Light's test, and an entry-by-entry table reader

def validate_table_oracle(arr: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The table check as ``group_core._validate_table`` made it before the
    Latin property was derived: identity, then a sort of every row, then
    Light's test by 2-D fancy indexing over every generator. Returns the
    read-only int16 table and its generators, or raises the ValueError
    whose message the package must give."""
    if arr.dtype.kind not in "iu":
        raise ValueError(f"table entries must be integers, got {arr.dtype}")
    n = len(arr)
    if arr.shape != (n, n):
        raise ValueError(f"table must be square, got shape {arr.shape}")
    if n == 0:
        raise ValueError("empty table")
    if n > gc.MAX_ORDER:
        raise ValueError(f"order {n} exceeds cap {gc.MAX_ORDER}")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("table entries must be element indices")
    arr = arr.astype(np.int16)
    arr.flags.writeable = False
    idx = np.arange(n, dtype=arr.dtype)
    if not (np.array_equal(arr[0], idx) and np.array_equal(arr[:, 0], idx)):
        raise ValueError("index 0 is not a two-sided identity")
    if not np.array_equal(np.sort(arr, axis=1), np.broadcast_to(idx, (n, n))):
        raise ValueError("some row is not a permutation (Latin square violated)")
    gens = gc._generators(arr)
    for a in gens:
        right = arr[a]
        for lo in range(0, n, 256):
            block = arr[lo:lo + 256]
            lhs = arr[block[:, a]]  # (x*a)*y
            rhs = block[:, right]   # x*(a*y)
            if not np.array_equal(lhs, rhs):
                x, y = np.argwhere(lhs != rhs)[0]
                raise ValueError(
                    f"associativity fails: ({lo + x}*{a})*{y} != {lo + x}*({a}*{y})"
                )
    return arr, gens


def int_table_oracle(table, n: int) -> np.ndarray:
    """The n x n rows of a Cayley table as the one intake,
    ``exact_linear._int_table``, must read them, checked one container and
    one entry at a time: lists, tuples or arrays of n rows of n entries
    each, else the shape message; then, in row-major order, each entry an
    integer that is not a bool, else the entry message; then an int64 array,
    or the index message for an entry past int64."""
    if type(table) not in (list, tuple, np.ndarray) or len(table) != n \
            or any(type(row) not in (list, tuple, np.ndarray) or len(row) != n for row in table):
        raise ValueError(f"table entries must be an integer table of shape {(n, n)}")
    entries = []
    for row in table:
        for x in row:
            if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
                raise ValueError(f"table entries must be integers, got {x!r}")
            entries.append(int(x))
    if any(not -2**63 <= x < 2**63 for x in entries):
        raise ValueError("table entries must be element indices")
    return np.array(entries, dtype=np.int64).reshape(n, n)


def modulo_cyclic_array(n: int) -> np.ndarray:
    """The table of C_n by an n^2 modulo, as ``_cyclic_array`` built it."""
    idx = np.arange(n, dtype=np.int16)
    return (idx[:, None] + idx) % n


def folded_elementary_abelian_array(q: int, k: int) -> np.ndarray:
    """The table of (C_q)^k folded one factor at a time, (((C_q x C_q) x C_q)
    x ...), as ``_elementary_abelian_array`` built it."""
    cq = gc._cyclic_array(q)
    arr = cq
    for _ in range(k - 1):
        arr = gc._product_array(arr, cq)
    return arr


def modulo_dihedral_array(n: int) -> np.ndarray:
    """The table of the dihedral group of order 2n by its product rule
    (f1, a1)(f2, a2) = (f1 ^ f2, (-1)^f2 * a1 + a2 mod n), as ``dihedral``
    built it."""
    idx = np.arange(2 * n, dtype=np.int16)
    f, a = idx // n, idx % n
    return (f[:, None] ^ f) * n + (a[:, None] * (1 - 2 * f) + a) % n


# ---------------------------------------------------------------------------
# loop oracles for the array constructors of group_core: the package's
# earlier implementations, which filled the rows one entry at a time

def loop_cyclic(n: int) -> gc.GroupTable:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return gc.GroupTable(table, [f"g^{k}" for k in range(n)])


def _digits(v: int, q: int, k: int) -> tuple[int, ...]:
    return tuple((v // q**i) % q for i in range(k))


def loop_elementary_abelian(q: int, k: int) -> gc.GroupTable:
    n = q**k
    vecs = [_digits(v, q, k) for v in range(n)]
    powers = [q**s for s in range(k)]
    table = [
        [sum(((vi + wi) % q) * p for vi, wi, p in zip(vecs[v], vecs[w], powers)) for w in range(n)]
        for v in range(n)
    ]
    return gc.GroupTable(table, [str(v) for v in vecs])


def loop_direct_product(g: gc.GroupTable, h: gc.GroupTable) -> gc.GroupTable:
    hn, gt, ht = h.order, g.table, h.table
    table = [
        [gt[i1][j1] * hn + ht[i2][j2] for j1 in range(g.order) for j2 in range(hn)]
        for i1 in range(g.order)
        for i2 in range(hn)
    ]
    labels = [f"({g.labels[i1]}, {h.labels[i2]})" for i1 in range(g.order) for i2 in range(hn)]
    return gc.GroupTable(table, labels)


def loop_dihedral(n: int) -> gc.GroupTable:
    table = []
    for f1 in range(2):
        for a1 in range(n):
            row = []
            for f2 in range(2):
                for a2 in range(n):
                    f = f1 ^ f2
                    a = (a1 * (-1 if f2 else 1) + a2) % n
                    row.append(f * n + a)
            table.append(row)
    labels = [f"r^{a}" for a in range(n)] + [f"sr^{a}" for a in range(n)]
    return gc.GroupTable(table, labels)


_QUAT_AXIS = (
    ((0, 0), (0, 1), (0, 2), (0, 3)),
    ((0, 1), (1, 0), (0, 3), (1, 2)),
    ((0, 2), (1, 3), (1, 0), (0, 1)),
    ((0, 3), (0, 2), (1, 1), (1, 0)),
)


def loop_quaternion() -> gc.GroupTable:
    table = []
    for a1 in range(4):
        for s1 in range(2):
            row = []
            for a2 in range(4):
                for s2 in range(2):
                    s3, a3 = _QUAT_AXIS[a1][a2]
                    row.append(a3 * 2 + (s1 ^ s2 ^ s3))
            table.append(row)
    return gc.GroupTable(table, ["1", "-1", "i", "-i", "j", "-j", "k", "-k"])


def loop_perm_group(perms: list[tuple[int, ...]]) -> gc.GroupTable:
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(len(p)))] for q in perms]
        for p in perms
    ]
    return gc.GroupTable(table, [str(p) for p in perms])


def loop_symmetric(n: int) -> gc.GroupTable:
    return loop_perm_group(sorted(permutations(range(n))))


def _perm_sign(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
    return sign


def loop_alternating(n: int) -> gc.GroupTable:
    return loop_perm_group(sorted(p for p in permutations(range(n)) if _perm_sign(p) == 1))


def loop_finite_semidirect(q: int, n: int, action, b: gc.GroupTable) -> gc.GroupTable:
    qn, bt = q**n, b.table
    vecs = [_digits(v, q, n) for v in range(qn)]
    table = []
    for k in range(b.order):
        for v in vecs:
            row = []
            for l in range(b.order):
                m = action.matrices[l]
                moved = tuple(sum(v[r] * m[r][c] for r in range(n)) % q for c in range(n))
                kl = bt[k][l]
                for w in vecs:
                    combined = sum(((moved[c] + w[c]) % q) * q**c for c in range(n))
                    row.append(kl * qn + combined)
            table.append(row)
    labels = [f"({b.labels[k]}, {v})" for k in range(b.order) for v in vecs]
    return gc.GroupTable(table, labels)


def loop_pq_structure_evidence(g, p: int, q: int, nexp: int) -> dict | None:
    """The p * q^n evidence of ``classify`` by its definition, in loops over
    the table: every product and every conjugate of Q, and every nontrivial
    power of h, as the package checked it before it checked generators."""
    t, n = g.table, g.order
    inv = [row.index(0) for row in t]
    orders = independent_element_orders(g)
    qsub = [x for x in range(n) if orders[x] in (1, q)]
    if len(qsub) != q**nexp:
        return None
    qset = set(qsub)
    for a in qsub:
        for b in qsub:
            if t[a][b] not in qset:
                return None
            if t[a][b] != t[b][a]:
                return None
    for u in qsub:
        for x in range(n):
            if t[t[inv[x]][u]][x] not in qset:
                return None
    h = next((x for x in range(n) if orders[x] == p), None)
    if h is None:
        return None
    hk = h
    for _ in range(1, p):
        for u in qsub:
            if u != 0 and t[t[inv[hk]][u]][hk] == u:
                return None
        hk = t[hk][h]
    return {
        "order": n,
        "factorization": {str(r): e for r, e in sorted(factorize(n).items())},
        "p": p,
        "q": q,
        "n": nexp,
        "sylow_q": qsub,
        "p_element": h,
        "p_element_label": g.labels[h],
        "fixed_point_free": True,
    }


@pytest.fixture(scope="session")
def catalog_groups():
    """One shared instance per catalog entry so orbit caches are reused."""
    return {e.name: e.build() for e in catalog.entries()}
