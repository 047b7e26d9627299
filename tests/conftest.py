"""Shared oracles and fixtures.

The oracles here recompute expected values by routes independent of the
implementation under test (full permutation search, direct table walks),
so the frozen constants in the test modules stay honest.
"""

from __future__ import annotations

from itertools import permutations

import pytest

from orbitforge import catalog
from orbitforge.arith import is_prime
from orbitforge.exact_linear import QMatrix


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
    orders = [independent_element_order(g, i) for i in range(n)]

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


def is_fixed_point_free(m: QMatrix, p: int) -> bool:
    """True iff m generates a cyclic group of order p none of whose nontrivial
    powers fixes a nonzero rational vector.

    Realized exactly: m**p = I, m != I, and det(m**k - I) != 0 for k = 1..p-1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ident = QMatrix.identity(m.n)
    if m == ident:
        return False
    power = m
    for _ in range(1, p):
        if (power - ident).det() == 0:
            return False
        power = power * m
    return power == ident


def independent_element_order(g, i: int) -> int:
    """Order of an element by walking the table, written separately from the
    packaged implementation."""
    k, x = 1, i
    while x != 0:
        x = g.table[x][i]
        k += 1
    return k


def independent_order_profile(g) -> dict[int, int]:
    profile: dict[int, int] = {}
    for i in range(g.order):
        o = independent_element_order(g, i)
        profile[o] = profile.get(o, 0) + 1
    return profile


@pytest.fixture(scope="session")
def catalog_groups():
    """One shared instance per catalog entry so orbit caches are reused."""
    return {e.name: e.build() for e in catalog.entries()}
