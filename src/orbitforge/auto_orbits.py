"""Automorphism groups of small finite groups as a stabilizer chain, and the
induced orbit partition.

The base of the chain is the generating set g_1..g_d that table validation
computed, ``GroupTable.generators``, sorted by element order, largest first.
An automorphism is fixed by the images of the g_i. Images for a prefix
g_1..g_k extend to an injective homomorphism of <g_1..g_k> exactly when the
map they induce along a breadth-first spanning tree of the Cayley graph of
<g_1..g_k> respects every edge and is injective. This extension check costs
O(|<g_1..g_k>| * k); it prunes the search, and at full depth it proves that
the candidate is an automorphism. Automorphisms keep cheap invariants of
every element (its order and its number of square roots), so the check also
rejects a map that changes the invariant of any element of <g_1..g_k>. The
search reads the table through its columns, one contiguous int16 buffer
each (``cols[y][x]`` is x*y), and builds no Python rows.

The chain is built from the deepest level up. At level i, for each image y of
g_i (same invariants) that is not yet in the orbit of g_i under the strong
generators found so far, a search looks for one automorphism that fixes
g_1..g_(i-1) and sends g_i to y; one found joins the strong generators. When
none exists, no image in the orbit of y under the strong generators found so
far is reachable either, and those are skipped. The level orbits are the
basic orbits of the chain, so |Aut(G)| is their product (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005; Seress, *Permutation
Group Algorithms*, 2003). Every orbit is a plain point set, closed under
the strong generators by ``group_core._close``: a level orbit grows by one
closure step each time a strong generator joins, and each orbit of Aut(G) on
the elements is the closure of its least element. Only
``automorphism_group`` lists Aut(G). An automorphism is a plain tuple p
of element indices, sending x to p[x].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .group_core import GroupTable, _close

#: The automorphism search is only attempted up to this order.
MAX_AUT_ORDER = 512


def _spanning_edges(cols: list, gens: list[int]) -> tuple[list, list]:
    """The Cayley graph of <gens> as edges (x, j, x * gens[j]), split into the
    edges of a breadth-first spanning tree from the identity, in visiting
    order, and the remaining edges. ``cols[y][x]`` is x * y."""
    gen_cols = [cols[s] for s in gens]
    seen = {0}
    visit = [0]
    tree, rest = [], []
    for x in visit:  # grows while it is walked
        for j, col in enumerate(gen_cols):
            z = col[x]
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
        # the columns as int16 buffers, cols[y][x] = x * y; as lists of ints
        # they doubled the peak memory of the search on EA(2, 9)
        self.cols = list(map(memoryview, np.ascontiguousarray(g.array.T)))
        self.order = g.order
        orders = g.element_orders()
        # largest order first: long prefixes generate large subgroups early,
        # so the extension check prunes failed searches near the root
        self.base = sorted(g.generators, key=lambda x: -orders[x])
        self.edges = [_spanning_edges(self.cols, self.base[:k]) for k in range(len(self.base) + 1)]
        # Aut-invariants of each element: its order and its number of square roots
        roots = np.bincount(g.array.diagonal(), minlength=g.order).tolist()
        self.invariant = list(zip(orders, roots))
        self.candidates = [[y for y in range(g.order) if self.invariant[y] == self.invariant[x]]
                           for x in self.base]

    def extend(self, images: list[int]) -> list[int] | None:
        """The injective homomorphism of <g_1..g_k> sending each g_j to
        images[j], as a list indexed by element (exact on the subgroup only),
        or None when the images extend to none that keeps the invariant of
        every element, as the restriction of an automorphism must."""
        cols = self.cols
        tree, rest = self.edges[len(images)]
        phi = [0] * self.order
        used = bytearray(self.order)
        used[0] = 1
        inv = self.invariant
        for x, j, z in tree:
            v = cols[images[j]][phi[x]]
            if used[v] or inv[v] != inv[z]:
                return None
            used[v] = 1
            phi[z] = v
        for x, j, z in rest:
            if cols[images[j]][phi[x]] != phi[z]:
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


def _orbit(point: int, perms, inside: bytearray) -> list[int]:
    """The orbit of point under <perms>, skipping and flagging in inside."""
    members = [point]
    inside[point] = 1
    _close(members, inside, perms, 0)
    return members


def _stabilizer_chain(g: GroupTable) -> tuple[list[tuple[int, ...]], list[int]]:
    """The strong generators, deepest level first, and the level orbit sizes."""
    if g.order > MAX_AUT_ORDER:
        raise ValueError(f"order {g.order} exceeds automorphism search cap {MAX_AUT_ORDER}")
    search = _Search(g)
    base = search.base
    strong: list[tuple[int, ...]] = []
    sizes: list[int] = []
    for i in reversed(range(len(base))):
        # the strong generators of deeper levels fix base[i], so its orbit
        # starts as {base[i]} and grows by one closure step per new generator
        inside = bytearray(g.order)
        orbit = _orbit(base[i], strong, inside)
        # images known to be out of reach: a failed image's whole orbit under
        # the strong generators so far, which all fix base[:i]
        unreachable: set[int] = set()
        for y in search.candidates[i]:
            if inside[y] or y in unreachable:
                continue
            phi = search.find(base[:i] + [y])
            if phi is None:
                unreachable.update(_orbit(y, strong, bytearray(g.order)))
            else:
                strong.append(phi)
                _close(orbit, inside, strong, len(orbit))
        sizes.append(len(orbit))
    return strong, sizes


def automorphism_group(g: GroupTable) -> list[tuple[int, ...]]:
    """All automorphisms of g, as permutation tuples sorted for determinism.

    Lists the whole group as the closure of the identity under composition
    with the strong generators; orbit computations never need it."""
    strong, _ = _stabilizer_chain(g)
    perms = {tuple(range(g.order))}
    frontier = list(perms)
    for h in frontier:  # grows while it is walked
        for s in strong:
            p = tuple(s[x] for x in h)
            if p not in perms:
                perms.add(p)
                frontier.append(p)
    return sorted(perms)


@dataclass
class OrbitPartition:
    """Partition of the elements into automorphism orbits.

    classes are sorted by (element order, class size, least index) and each
    class is internally sorted, so output is deterministic. generators are
    the strong generators of the stabilizer chain, as permutation tuples,
    and aut_order is |Aut(G)|.
    """

    classes: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]
    aut_order: int

    @property
    def omega(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {
            "omega": self.omega,
            "classes": [list(c) for c in self.classes],
            "generators": [list(p) for p in self.generators],
        }


def orbit_partition(g: GroupTable) -> OrbitPartition:
    """Aut(G)-orbits as closures under the strong generators, one from the
    least element of each orbit."""
    strong, sizes = _stabilizer_chain(g)
    seen = bytearray(g.order)
    classes = [sorted(_orbit(x, strong, seen)) for x in range(g.order) if not seen[x]]
    orders = g.element_orders()
    classes.sort(key=lambda c: (orders[c[0]], len(c), c[0]))
    return OrbitPartition(
        classes=tuple(map(tuple, classes)),
        generators=tuple(strong),
        aut_order=prod(sizes),
    )


def omega(g: GroupTable) -> int:
    """The number of automorphism orbits."""
    return orbit_partition(g).omega
