"""Decide and certify which orbit-count class a small finite group falls in.

Verdicts: ``trivial`` (one orbit), ``elementary_abelian`` (two orbits),
``laffey_machale_pq`` (three orbits with the p * q^n normal elementary
abelian Sylow structure and a fixed-point-free complement),
``prime_power_unclassified`` (three orbits but prime power order, outside
the p * q^n classification), and ``other``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import factorize
from .auto_orbits import omega
from .group_core import GroupTable, _generators, is_elementary_abelian

VERDICT_TRIVIAL = "trivial"
VERDICT_ELEMENTARY_ABELIAN = "elementary_abelian"
VERDICT_LAFFEY_MACHALE = "laffey_machale_pq"
VERDICT_PRIME_POWER = "prime_power_unclassified"
VERDICT_OTHER = "other"


class TheoremContradictionError(RuntimeError):
    """Raised when computed orbit data contradicts a proved classification:
    this indicates a bug, never a property of the input group."""


@dataclass
class ClassificationReport:
    omega: int
    verdict: str
    evidence: dict

    def to_json(self) -> dict:
        return {"omega": self.omega, "verdict": self.verdict, "evidence": self.evidence}


def _pq_structure_evidence(g: GroupTable, p: int, q: int, nexp: int) -> dict | None:
    """Witnesses for |G| = p * q^n with normal elementary abelian Sylow
    q-subgroup and fixed-point-free Sylow p-action, or None if that fails.

    Q is the set of elements of order 1 or q; its generators are chosen by
    ``group_core._generators``, so their closure holds Q. Commuting elements
    of order q generate an abelian group of exponent q, which lies in Q, so
    the generators commute exactly when Q is an elementary abelian subgroup;
    it is normal, as conjugation keeps orders. h is the least element of
    order p; each h^k with 0 < k < p generates <h>, so it centralizes what h
    does: the action is fixed-point-free when h commutes with no u != 1 in Q.
    """
    orders = g.element_orders()
    qsub = [x for x in range(g.order) if orders[x] in (1, q)]
    if len(qsub) != q**nexp:
        return None
    a = g.array
    gens = _generators(a, qsub)
    commutes = a[np.ix_(gens, gens)]
    if not np.array_equal(commutes, commutes.T):
        return None
    h = next((x for x in range(g.order) if orders[x] == p), None)
    if h is None or np.count_nonzero(a[qsub, h] == a[h, qsub]) > 1:
        return None
    return {
        "order": g.order,
        "factorization": {str(r): e for r, e in sorted(factorize(g.order).items())},
        "p": p,
        "q": q,
        "n": nexp,
        "sylow_q": qsub,
        "p_element": h,
        "p_element_label": g.labels[h],
        "fixed_point_free": True,
    }


def classify_group(g: GroupTable) -> ClassificationReport:
    """Full dispatch over the orbit count, for any valid GroupTable.

    With three orbits at non-prime-power order the p * q^n structure is
    located and verified in full; three orbits without that structure would
    contradict the classification of such groups and raises.
    """
    om = omega(g)
    if om == 1:
        return ClassificationReport(1, VERDICT_TRIVIAL, {"order": g.order})
    if om == 2:
        structural, prime = is_elementary_abelian(g)
        if not structural:
            raise TheoremContradictionError("omega == 2 but not elementary abelian")
        rank = factorize(g.order)[prime]
        return ClassificationReport(
            2, VERDICT_ELEMENTARY_ABELIAN, {"order": g.order, "prime": prime, "rank": rank}
        )
    if om != 3:
        return ClassificationReport(om, VERDICT_OTHER, {"order": g.order})
    fact = factorize(g.order)
    if len(fact) == 1:
        return ClassificationReport(
            3,
            VERDICT_PRIME_POWER,
            {"order": g.order, "factorization": {str(r): e for r, e in sorted(fact.items())}},
        )
    if len(fact) == 2:
        r, s = sorted(fact)
        for p, q in ((r, s), (s, r)):
            if fact[p] == 1:
                evidence = _pq_structure_evidence(g, p, q, fact[q])
                if evidence is not None:
                    return ClassificationReport(3, VERDICT_LAFFEY_MACHALE, evidence)
    raise TheoremContradictionError(
        f"omega == 3 but no p * q^n fixed-point-free structure found (order {g.order})"
    )
