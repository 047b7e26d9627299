import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_automorphisms,
    compose_perms,
    enumerate_automorphisms,
    gl_order,
    inverse_perm,
    orbit_classes,
)
from orbitforge import catalog
from orbitforge import group_core as gc
from orbitforge.auto_orbits import (
    Automorphism,
    automorphism_group,
    is_automorphism,
    omega,
    orbit_partition,
)


# ---------------------------------------------------------------------------
# the search against the factorial oracle

@pytest.mark.parametrize(
    "build, expected_count",
    [
        (lambda: gc.cyclic(3), 2),
        (lambda: gc.cyclic(4), 2),
        (lambda: gc.cyclic(6), 2),
        (lambda: gc.elementary_abelian(2, 2), 6),   # |GL(2, F2)|
        (lambda: gc.elementary_abelian(2, 3), 168),  # |GL(3, F2)|
        (lambda: gc.symmetric(3), 6),
        (lambda: gc.quaternion(), 24),
        (lambda: gc.dihedral(4), 8),
    ],
)
def test_search_matches_brute_force(build, expected_count):
    g = build()
    found = {a.perm for a in automorphism_group(g)}
    assert found == brute_force_automorphisms(g)
    assert len(found) == expected_count


def test_trivial_group():
    g = gc.cyclic(1)
    assert [a.perm for a in automorphism_group(g)] == [(0,)]
    part = orbit_partition(g)
    assert part.classes == ((0,),)
    assert omega(g) == 1


def test_homomorphism_law_exhaustive(catalog_groups):
    for name in ("S3", "D4", "Q8", "G21", "EA_3_2", "C8"):
        g = catalog_groups[name]
        for a in automorphism_group(g):
            assert is_automorphism(g, a.perm)


def test_closed_under_composition_and_inverse(catalog_groups):
    for name in ("S3", "Q8", "C6"):
        g = catalog_groups[name]
        autos = automorphism_group(g)
        perms = {a.perm for a in autos}
        for a in perms:
            assert inverse_perm(a) in perms
            for b in perms:
                assert compose_perms(a, b) in perms


def test_orbits_refine_order_profile(catalog_groups):
    for g in catalog_groups.values():
        orders = g.element_orders()
        for cls in orbit_partition(g).classes:
            assert len({orders[i] for i in cls}) == 1


def test_inversion_automorphism_found_for_abelian():
    for g in (gc.cyclic(5), gc.cyclic(8), gc.elementary_abelian(3, 2)):
        inv_perm = tuple(g.inv(i) for i in range(g.order))
        assert inv_perm in {a.perm for a in automorphism_group(g)}


def test_orbit_partition_c4():
    part = orbit_partition(gc.cyclic(4))
    assert part.classes == ((0,), (2,), (1, 3))
    assert part.omega == 3


def test_identity_class_is_singleton(catalog_groups):
    for g in catalog_groups.values():
        assert (0,) in orbit_partition(g).classes


def test_omega_invariant_under_trivial_factor(catalog_groups):
    for name in ("C4", "S3", "Q8", "C6"):
        g = catalog_groups[name]
        padded = gc.direct_product(gc.cyclic(1), g)
        assert omega(padded) == omega(g)


def test_witnesses_map_representative_into_class(catalog_groups):
    for name in ("S3", "Q8"):
        g = catalog_groups[name]
        part = orbit_partition(g)
        for (rep, target), a in part.witnesses.items():
            assert a.perm[rep] == target
            assert is_automorphism(g, a.perm)


def test_generators_generate_everything(catalog_groups):
    # the strong generators are automorphisms and generate all of Aut(G)
    for name, aut_order in (("Q8", 24), ("G21", 42)):
        g = catalog_groups[name]
        part = orbit_partition(g)
        assert all(is_automorphism(g, a.perm) for a in part.generators)
        full = set(enumerate_automorphisms(g))
        generated = {tuple(range(g.order))}
        frontier = list(generated)
        while frontier:
            nxt = []
            for p in frontier:
                for gen in part.generators:
                    q = tuple(gen.perm[x] for x in p)
                    if q not in generated:
                        generated.add(q)
                        nxt.append(q)
            frontier = nxt
        assert generated == full
        assert len(full) == part.aut_order == aut_order


def test_witness_certificate_json(catalog_groups):
    data = orbit_partition(catalog_groups["S3"]).to_json()
    assert data["omega"] == 3
    assert sorted(len(c) for c in data["classes"]) == [1, 2, 3]
    g = catalog_groups["S3"]
    for perm in data["generators"]:
        assert is_automorphism(g, tuple(perm))


def test_size_cap():
    big = gc.cyclic(600)
    with pytest.raises(ValueError, match="cap"):
        automorphism_group(big)


def test_omega_frozen_values(catalog_groups):
    # the established catalog values, recomputed from scratch
    assert omega(catalog_groups["C4"]) == 3
    assert omega(catalog_groups["C6"]) == 4
    assert omega(catalog_groups["Q8"]) == 3
    assert omega(catalog_groups["EA_2_2"]) == 2
    assert omega(catalog_groups["EA_3_2"]) == 2
    assert omega(catalog_groups["A4"]) == 3
    assert omega(catalog_groups["D5"]) == 3


def test_g21_has_four_orbits(catalog_groups):
    # brute force result, cross-checked by an independent generator-image
    # enumeration: no automorphism fuses the two cosets of order-3 elements
    # (conjugation by h and h^2 act on C7 by different power maps)
    g = catalog_groups["G21"]
    assert len(automorphism_group(g)) == 42
    part = orbit_partition(g)
    assert [len(c) for c in part.classes] == [1, 7, 7, 6]
    assert omega(g) == 4


# ---------------------------------------------------------------------------
# the stabilizer chain against the generator-image enumerator

#: catalog groups whose Aut(G) is too large to list: |GL(5, 2)| and
#: |GL(6, 2)| automorphisms; test_aut_order_closed_forms covers them
TOO_LARGE_TO_LIST = ("EA_2_5", "EA_2_6")


@pytest.mark.parametrize(
    "name", [e.name for e in catalog.entries() if e.name not in TOO_LARGE_TO_LIST]
)
def test_chain_matches_enumerator_on_catalog(catalog_groups, name):
    g = catalog_groups[name]
    autos = enumerate_automorphisms(g)
    assert [a.perm for a in automorphism_group(g)] == autos
    assert orbit_partition(g).aut_order == len(autos)


def _c3_squared_by_c2():
    # C2 acting on F_3^2 by -I: the generalized dihedral group of (C3)^2
    c2 = gc.cyclic(2)
    return gc.finite_semidirect(3, 2, gc.cyclic_matrix_action(c2, [[2, 0], [0, 2]], 3), c2)


@pytest.mark.parametrize(
    "build",
    [lambda: gc.dihedral(32), lambda: gc.elementary_abelian(2, 4),
     lambda: gc.elementary_abelian(3, 3), _c3_squared_by_c2,
     # many same-order elements in different orbits, so many searches fail,
     # and maps that are injective on a spanning tree but not homomorphisms
     lambda: gc.direct_product(gc.dihedral(4), gc.cyclic(4)),
     lambda: gc.direct_product(gc.quaternion(), gc.cyclic(4))],
    ids=["D32", "EA_2_4", "EA_3_3", "C3^2:C2", "D4xC4", "Q8xC4"],
)
def test_chain_classes_and_aut_order_match_enumerator(build):
    g = build()
    autos = enumerate_automorphisms(g)
    part = orbit_partition(g)
    assert [a.perm for a in automorphism_group(g)] == autos
    assert part.aut_order == len(autos)
    assert {frozenset(c) for c in part.classes} == orbit_classes(g.order, autos)


# ---------------------------------------------------------------------------
# closed forms

@pytest.mark.parametrize("q, k", [(2, 5), (2, 6), (3, 3), (7, 2)])
def test_aut_order_closed_forms(q, k):
    part = orbit_partition(gc.elementary_abelian(q, k))
    assert part.aut_order == gl_order(k, q)
    assert part.omega == 2


def test_aut_order_cyclic_and_dihedral():
    # |Aut(C_n)| = phi(n); |Aut(D_2m)| = m * phi(m) for m >= 3
    assert orbit_partition(gc.cyclic(512)).aut_order == 256
    assert orbit_partition(gc.dihedral(32)).aut_order == 512


# ---------------------------------------------------------------------------
# invariance under relabeling the table

@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_relabeling_preserves_orbits(catalog_groups, data):
    name = data.draw(st.sampled_from(sorted(catalog_groups)), label="group")
    g = catalog_groups[name]
    n = g.order
    sigma = (0,) + tuple(data.draw(st.permutations(range(1, n)), label="sigma"))
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[sigma[i]][sigma[j]] = sigma[g.table[i][j]]
    relabeled = gc.GroupTable(table, [str(x) for x in range(n)])
    part, moved = orbit_partition(g), orbit_partition(relabeled)
    assert moved.omega == part.omega
    assert moved.aut_order == part.aut_order
    assert {frozenset(c) for c in moved.classes} == {
        frozenset(sigma[x] for x in c) for c in part.classes
    }
