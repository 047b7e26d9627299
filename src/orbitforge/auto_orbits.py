"""Automorphism groups of small finite groups as a stabilizer chain, and the
induced orbit partition.

The base of the chain is a small generating set g_1..g_d, picked greedily.
An automorphism is fixed by the images of the g_i. Images for a prefix
g_1..g_k extend to an injective homomorphism of <g_1..g_k> exactly when the
map they induce along a breadth-first spanning tree of the Cayley graph of
<g_1..g_k> respects every edge and is injective. This extension check costs
O(|<g_1..g_k>| * k); it prunes the search, and at full depth it proves that
the candidate is an automorphism. Automorphisms keep cheap invariants of
every element (its order and its number of square roots), so the check also
rejects a map that changes the invariant of any element of <g_1..g_k>.

The chain is built from the deepest level up. At level i, for each image y of
g_i (same invariants) that is not yet in the orbit of g_i under the strong
generators found so far, a search looks for one automorphism that fixes
g_1..g_(i-1) and sends g_i to y; one found joins the strong generators. When
none exists, no image in the orbit of y under the strong generators found so
far is reachable either, and those are skipped. The level orbits are the
basic orbits of the chain, so |Aut(G)| is their product (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005; Seress, *Permutation
Group Algorithms*, 2003). The orbits of Aut(G) on the elements, with a
witness automorphism for each member, come from Schreier trees over the
strong generators; only ``automorphism_group`` lists Aut(G).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .group_core import GroupTable, subgroup_closure

#: The automorphism search is only attempted up to this order.
MAX_AUT_ORDER = 512


@dataclass(frozen=True)
class Automorphism:
    """A bijection of element indices satisfying the homomorphism law."""

    perm: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.perm[i]


def is_automorphism(g: GroupTable, perm) -> bool:
    """Exhaustive check of the homomorphism law on all pairs, plus bijectivity
    and fixing the identity. Deliberately independent of the search."""
    n = g.order
    if len(perm) != n or sorted(perm) != list(range(n)) or perm[0] != 0:
        return False
    t = g.table
    return all(perm[t[i][j]] == t[perm[i]][perm[j]] for i in range(n) for j in range(n))


def _greedy_generators(g: GroupTable) -> list[int]:
    # repeatedly add the element whose addition generates the largest
    # subgroup; ties go to the lowest element index
    gens: list[int] = []
    sub: tuple[int, ...] = (0,)
    while len(sub) < g.order:
        best_size, best_e, best_sub = 0, -1, sub
        inside = set(sub)
        for e in range(1, g.order):
            if e in inside:
                continue
            cl = subgroup_closure(g, gens + [e])
            if len(cl) > best_size:
                best_size, best_e, best_sub = len(cl), e, cl
                if best_size == g.order:
                    break
        gens.append(best_e)
        sub = best_sub
    return gens


def _spanning_edges(g: GroupTable, gens: list[int]) -> tuple[list, list]:
    """The Cayley graph of <gens> as edges (x, j, x * gens[j]), split into the
    edges of a breadth-first spanning tree from the identity, in visiting
    order, and the remaining edges."""
    t = g.table
    seen = {0}
    visit = [0]
    tree, rest = [], []
    for x in visit:  # grows while it is walked
        row = t[x]
        for j, s in enumerate(gens):
            z = row[s]
            if z in seen:
                rest.append((x, j, z))
            else:
                seen.add(z)
                visit.append(z)
                tree.append((x, j, z))
    return tree, rest


class _Search:
    """Depth-first search over generator images, pruned by the extension check."""

    def __init__(self, g: GroupTable):
        self.table = g.table
        self.order = g.order
        self.base = _greedy_generators(g)
        self.edges = [_spanning_edges(g, self.base[:k]) for k in range(len(self.base) + 1)]
        # Aut-invariants of each element: its order and its number of square roots
        roots = [0] * g.order
        for x in range(g.order):
            roots[self.table[x][x]] += 1
        self.invariant = list(zip(g.element_orders(), roots))
        self.candidates = [[y for y in range(g.order) if self.invariant[y] == self.invariant[x]]
                           for x in self.base]

    def extend(self, images: list[int]) -> list[int] | None:
        """The injective homomorphism of <g_1..g_k> sending each g_j to
        images[j], as a list indexed by element (exact on the subgroup only),
        or None when the images extend to none that keeps the invariant of
        every element, as the restriction of an automorphism must."""
        t = self.table
        tree, rest = self.edges[len(images)]
        phi = [0] * self.order
        used = bytearray(self.order)
        used[0] = 1
        inv = self.invariant
        for x, j, z in tree:
            v = t[phi[x]][images[j]]
            if used[v] or inv[v] != inv[z]:
                return None
            used[v] = 1
            phi[z] = v
        for x, j, z in rest:
            if t[phi[x]][images[j]] != phi[z]:
                return None
        return phi

    def find(self, images: list[int]) -> tuple[int, ...] | None:
        """One automorphism whose generator images start with ``images``."""
        phi = self.extend(images)
        if phi is None:
            return None
        depth = len(images)
        if depth == len(self.base):
            return tuple(phi)
        for y in self.candidates[depth]:
            images.append(y)
            found = self.find(images)
            images.pop()
            if found is not None:
                return found
        return None


def _schreier_tree(point: int, perms, n: int) -> dict[int, tuple[int, ...]]:
    """The orbit of point under <perms>, each member y mapped to a product
    of perms that sends point to y."""
    reach = {point: tuple(range(n))}
    frontier = [point]
    for x in frontier:  # grows while it is walked
        w = reach[x]
        for p in perms:
            y = p[x]
            if y not in reach:
                reach[y] = tuple(p[v] for v in w)
                frontier.append(y)
    return reach


@dataclass(frozen=True)
class _Chain:
    #: strong generators, deepest level first
    strong: tuple[tuple[int, ...], ...]
    #: transversals[i] is the Schreier tree of base point i under its level's
    #: group, the pointwise stabilizer of the earlier base points
    transversals: tuple[dict[int, tuple[int, ...]], ...]


def _stabilizer_chain(g: GroupTable) -> _Chain:
    if g.order > MAX_AUT_ORDER:
        raise ValueError(f"order {g.order} exceeds automorphism search cap {MAX_AUT_ORDER}")
    search = _Search(g)
    base = search.base
    strong: list[tuple[int, ...]] = []
    transversals: list[dict] = [{}] * len(base)
    for i in reversed(range(len(base))):
        # the strong generators of deeper levels fix base[i]
        orbit = {base[i]: tuple(range(g.order))}
        # images known to be out of reach: a failed image's whole orbit under
        # the strong generators so far, which all fix base[:i]
        unreachable: set[int] = set()
        for y in search.candidates[i]:
            if y in orbit or y in unreachable:
                continue
            phi = search.find(base[:i] + [y])
            if phi is None:
                unreachable.update(_schreier_tree(y, strong, g.order))
            else:
                strong.append(phi)
                orbit = _schreier_tree(base[i], strong, g.order)
        transversals[i] = orbit
    return _Chain(tuple(strong), tuple(transversals))


def automorphism_group(g: GroupTable) -> list[Automorphism]:
    """All automorphisms of g, as explicit permutations sorted for determinism.

    Lists the whole group from the stabilizer chain, as products of one
    transversal element per level; orbit computations never need it."""
    perms = [tuple(range(g.order))]
    for transversal in reversed(_stabilizer_chain(g).transversals):
        perms = [tuple(u[x] for x in h) for u in transversal.values() for h in perms]
    return [Automorphism(p) for p in sorted(perms)]


@dataclass
class OrbitPartition:
    """Partition of the elements into automorphism orbits.

    classes are sorted by (element order, class size, least index) and each
    class is internally sorted, so output is deterministic. generators are
    the strong generators of the stabilizer chain, aut_order is |Aut(G)|,
    and witnesses maps (representative, member) to an automorphism carrying
    one to the other.
    """

    classes: tuple[tuple[int, ...], ...]
    generators: tuple[Automorphism, ...]
    aut_order: int
    witnesses: dict[tuple[int, int], Automorphism] = field(repr=False)

    @property
    def omega(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {
            "omega": self.omega,
            "classes": [list(c) for c in self.classes],
            "generators": [list(a.perm) for a in self.generators],
        }


def orbit_partition(g: GroupTable) -> OrbitPartition:
    """Aut(G)-orbits as Schreier trees over the strong generators, one from
    the least element of each orbit."""
    if g._orbit_cache is not None:
        return g._orbit_cache

    chain = _stabilizer_chain(g)
    trees: list[dict[int, tuple[int, ...]]] = []
    seen: set[int] = set()
    for x in range(g.order):
        if x not in seen:
            trees.append(_schreier_tree(x, chain.strong, g.order))
            seen.update(trees[-1])
    orders = g.element_orders()
    trees.sort(key=lambda tree: (orders[min(tree)], len(tree), min(tree)))

    witnesses: dict[tuple[int, int], Automorphism] = {}
    for tree in trees:
        rep = min(tree)
        for x in sorted(tree):
            if x != rep:
                witnesses[(rep, x)] = Automorphism(tree[x])

    part = OrbitPartition(
        classes=tuple(tuple(sorted(tree)) for tree in trees),
        generators=tuple(Automorphism(p) for p in chain.strong),
        aut_order=prod(len(t) for t in chain.transversals),
        witnesses=witnesses,
    )
    object.__setattr__(g, "_orbit_cache", part)
    return part


def omega(g: GroupTable) -> int:
    """The number of automorphism orbits."""
    return orbit_partition(g).omega
