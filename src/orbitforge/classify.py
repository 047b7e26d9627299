"""Decide and certify which orbit-count class a small finite group falls in.

Verdicts: ``trivial`` (one orbit), ``elementary_abelian`` (two orbits),
``laffey_machale_pq`` (three orbits with the p * q^n normal elementary
abelian Sylow structure and a fixed-point-free complement),
``prime_power_unclassified`` (three orbits but prime power order, outside
the p * q^n classification), and ``other``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import factorize, is_prime_power
from .auto_orbits import omega
from .group_core import GroupTable, is_elementary_abelian

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
    q-subgroup and fixed-point-free Sylow p-action, or None if that fails."""
    t = g.table
    orders = g.element_orders()
    qsub = [x for x in range(g.order) if orders[x] in (1, q)]
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
        for x in range(g.order):
            if g.conjugate(u, x) not in qset:
                return None
    h = next((x for x in range(g.order) if orders[x] == p), None)
    if h is None:
        return None
    hk = h
    for _ in range(1, p):
        for u in qsub:
            if u != 0 and g.conjugate(u, hk) == u:
                return None
        hk = t[hk][h]
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


def check_laffey_machale(g: GroupTable) -> ClassificationReport:
    """Classify a group of non-prime-power order by its orbit count.

    With three orbits the p * q^n structure is located and verified in full;
    three orbits without that structure would contradict the classification
    of such groups and raises.
    """
    if is_prime_power(g.order):
        raise ValueError(f"order {g.order} is a prime power; outside this classification")
    om = omega(g)
    fact = factorize(g.order)
    base_evidence = {
        "order": g.order,
        "factorization": {str(r): e for r, e in sorted(fact.items())},
    }
    if om == 1:
        return ClassificationReport(1, VERDICT_TRIVIAL, base_evidence)
    if om == 2:
        # two orbits force elementary abelian, which has prime power order
        raise TheoremContradictionError(
            f"omega == 2 for non-prime-power order {g.order}"
        )
    if om != 3:
        return ClassificationReport(om, VERDICT_OTHER, base_evidence)

    candidates = []
    if len(fact) == 2:
        r, s = sorted(fact)
        if fact[r] == 1:
            candidates.append((r, s, fact[s]))
        if fact[s] == 1:
            candidates.append((s, r, fact[r]))
    for p, q, nexp in candidates:
        evidence = _pq_structure_evidence(g, p, q, nexp)
        if evidence is not None:
            return ClassificationReport(3, VERDICT_LAFFEY_MACHALE, evidence)
    raise TheoremContradictionError(
        f"omega == 3 but no p * q^n fixed-point-free structure found (order {g.order})"
    )


def classify_group(g: GroupTable) -> ClassificationReport:
    """Full dispatch over the orbit count, for any valid GroupTable."""
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
    if om == 3:
        if is_prime_power(g.order):
            return ClassificationReport(
                3,
                VERDICT_PRIME_POWER,
                {
                    "order": g.order,
                    "factorization": {
                        str(r): e for r, e in sorted(factorize(g.order).items())
                    },
                },
            )
        return check_laffey_machale(g)
    return ClassificationReport(om, VERDICT_OTHER, {"order": g.order})

