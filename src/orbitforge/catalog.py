"""Builtin catalog of small groups with their expected orbit counts.

Provenance tags: "theorem" marks values forced by a proved classification
(one orbit only for the trivial group, two orbits exactly for elementary
abelian groups), "computed" marks values established by the brute-force
search in this package and frozen here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import group_core as gc


def _g21() -> gc.GroupTable:
    # nonabelian group of order 21: C7 x| C3 with the generator acting as
    # multiplication by 2 (2^3 = 8 == 1 mod 7)
    base = gc.cyclic(3)
    action = gc.cyclic_matrix_action(base, ((2,),), characteristic=7)
    return gc.finite_semidirect(7, 1, action, base)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    build: Callable[[], gc.GroupTable]
    expected_omega: int | None
    provenance: str | None


_ENTRIES = [
    CatalogEntry("trivial", "the trivial group", lambda: gc.cyclic(1), 1, "theorem"),
    CatalogEntry("C2", "cyclic of order 2", lambda: gc.cyclic(2), 2, "theorem"),
    CatalogEntry("C3", "cyclic of order 3", lambda: gc.cyclic(3), 2, "theorem"),
    CatalogEntry("C4", "cyclic of order 4", lambda: gc.cyclic(4), 3, "computed"),
    CatalogEntry("C5", "cyclic of order 5", lambda: gc.cyclic(5), 2, "theorem"),
    CatalogEntry("C6", "cyclic of order 6", lambda: gc.cyclic(6), 4, "computed"),
    CatalogEntry("C7", "cyclic of order 7", lambda: gc.cyclic(7), 2, "theorem"),
    CatalogEntry("C8", "cyclic of order 8", lambda: gc.cyclic(8), 4, "computed"),
    CatalogEntry("EA_2_2", "elementary abelian (C2)^2", lambda: gc.elementary_abelian(2, 2), 2, "theorem"),
    CatalogEntry("EA_3_2", "elementary abelian (C3)^2", lambda: gc.elementary_abelian(3, 2), 2, "theorem"),
    CatalogEntry("EA_2_5", "elementary abelian (C2)^5", lambda: gc.elementary_abelian(2, 5), 2, "theorem"),
    CatalogEntry("EA_2_6", "elementary abelian (C2)^6", lambda: gc.elementary_abelian(2, 6), 2, "theorem"),
    CatalogEntry("S3", "symmetric group on 3 points", lambda: gc.symmetric(3), 3, "computed"),
    CatalogEntry("D4", "dihedral group of order 8", lambda: gc.dihedral(4), 4, "computed"),
    CatalogEntry("D5", "dihedral group of order 10", lambda: gc.dihedral(5), 3, "computed"),
    CatalogEntry("Q8", "quaternion group", gc.quaternion, 3, "computed"),
    CatalogEntry("A4", "alternating group on 4 points", lambda: gc.alternating(4), 3, "computed"),
    # brute force gives 4, not the 3 a naive reading of the p*q^n classification
    # suggests: no automorphism can fuse the two cosets of order-3 elements,
    # because conjugation by h and by h^2 act on C7 by different power maps
    CatalogEntry("G21", "nonabelian group of order 21", _g21, 4, "computed"),
    CatalogEntry("A5", "alternating group on 5 points", lambda: gc.alternating(5), 4, "computed"),
]

CATALOG: dict[str, CatalogEntry] = {e.name: e for e in _ENTRIES}


def entries() -> list[CatalogEntry]:
    return list(_ENTRIES)


def get(name: str) -> gc.GroupTable:
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown catalog group {name!r}; known: {known}")
    return CATALOG[name].build()
