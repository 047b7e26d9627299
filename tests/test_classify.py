import random
import tracemalloc

import pytest

from conftest import loop_pq_structure_evidence, perfbench_inputs, relabeled_table
from orbitforge import group_core as gc
from orbitforge.arith import factorize
from orbitforge.auto_orbits import omega
from orbitforge.classify import (
    VERDICT_ELEMENTARY_ABELIAN,
    VERDICT_LAFFEY_MACHALE,
    VERDICT_OTHER,
    VERDICT_PRIME_POWER,
    VERDICT_TRIVIAL,
    _pq_structure_evidence,
    classify_group,
)


def test_omega_two_iff_elementary_abelian():
    for g, two in [
        (gc.elementary_abelian(5, 1), True),
        (gc.elementary_abelian(2, 2), True),
        (gc.cyclic(4), False),
        (gc.symmetric(3), False),
    ]:
        assert (omega(g) == 2) is two
        assert gc.is_elementary_abelian(g)[0] is two


def test_laffey_machale_s3():
    report = classify_group(gc.symmetric(3))
    assert report.omega == 3
    assert report.verdict == VERDICT_LAFFEY_MACHALE
    ev = report.evidence
    assert (ev["p"], ev["q"], ev["n"]) == (2, 3, 1)
    assert len(ev["sylow_q"]) == 3
    assert ev["fixed_point_free"] is True


def test_laffey_machale_a4_and_d5():
    a4 = classify_group(gc.alternating(4))
    assert a4.verdict == VERDICT_LAFFEY_MACHALE
    assert (a4.evidence["p"], a4.evidence["q"], a4.evidence["n"]) == (3, 2, 2)
    d5 = classify_group(gc.dihedral(5))
    assert d5.verdict == VERDICT_LAFFEY_MACHALE
    assert (d5.evidence["p"], d5.evidence["q"], d5.evidence["n"]) == (2, 5, 1)


def test_laffey_machale_sylow_evidence_is_exhaustively_fpf():
    report = classify_group(gc.alternating(4))
    g = gc.alternating(4)
    ev = report.evidence
    qset = set(ev["sylow_q"])
    h = ev["p_element"]
    t = g.table
    # re-verify the witness independently: every nontrivial power of h moves
    # every nontrivial element of Q
    hk = h
    for _ in range(1, ev["p"]):
        for u in qset:
            if u != 0:
                assert g.conjugate(u, hk) != u
        hk = t[hk][h]


def test_laffey_machale_c6_is_other():
    report = classify_group(gc.cyclic(6))
    assert report.omega == 4
    assert report.verdict == VERDICT_OTHER


def test_g21_is_not_in_the_three_orbit_family(catalog_groups):
    # omega(G21) = 4 (see the orbit tests), so the structural check reports
    # "other" even though G21 does have the p * q^n shape
    report = classify_group(catalog_groups["G21"])
    assert report.omega == 4
    assert report.verdict == VERDICT_OTHER


def test_classify_group_dispatch(catalog_groups):
    assert classify_group(catalog_groups["trivial"]).verdict == VERDICT_TRIVIAL
    ea = classify_group(catalog_groups["EA_3_2"])
    assert ea.verdict == VERDICT_ELEMENTARY_ABELIAN
    assert ea.evidence == {"order": 9, "prime": 3, "rank": 2}
    assert classify_group(catalog_groups["C4"]).verdict == VERDICT_PRIME_POWER
    assert classify_group(catalog_groups["Q8"]).verdict == VERDICT_PRIME_POWER
    assert classify_group(catalog_groups["S3"]).verdict == VERDICT_LAFFEY_MACHALE
    assert classify_group(catalog_groups["C6"]).verdict == VERDICT_OTHER
    assert classify_group(catalog_groups["A5"]).verdict == VERDICT_OTHER


def test_classify_verdict_invariants(catalog_groups):
    for g in catalog_groups.values():
        report = classify_group(g)
        assert (report.verdict == VERDICT_TRIVIAL) == (report.omega == 1)
        if report.verdict == VERDICT_ELEMENTARY_ABELIAN:
            assert report.omega == 2
        if report.verdict == VERDICT_LAFFEY_MACHALE:
            assert report.omega == 3
            p, q = report.evidence["p"], report.evidence["q"]
            assert p != q
            assert g.order == p * q ** report.evidence["n"]


def test_catalog_three_orbit_groups_all_classify(catalog_groups):
    for name, g in catalog_groups.items():
        if omega(g) == 3 and len(factorize(g.order)) > 1:
            assert classify_group(g).verdict == VERDICT_LAFFEY_MACHALE, name


def test_report_json():
    data = classify_group(gc.symmetric(3)).to_json()
    assert data["omega"] == 3
    assert data["verdict"] == VERDICT_LAFFEY_MACHALE
    assert data["evidence"]["q"] == 3


def test_exponent_of_abelian_groups():
    assert gc.exponent(gc.cyclic(4)) == 4
    assert gc.exponent(gc.elementary_abelian(3, 2)) == 3
    assert gc.exponent(gc.direct_product(gc.cyclic(2), gc.cyclic(4))) == 4


# ---------------------------------------------------------------------------
# the p * q^n evidence against the loop oracle

def _fpf_semidirect(q: int, p: int, coeffs: list[int], blocks: int) -> gc.GroupTable:
    """(C_q)^n x| C_p, C_p acting by a block diagonal of companion matrices."""
    inputs = perfbench_inputs()
    matrix = inputs._block_diag_mod([inputs._companion_mod(coeffs, q)] * blocks)
    return inputs.semidirect(q, len(coeffs) * blocks, p, matrix)


def _relabeled(g: gc.GroupTable, seed: int) -> gc.GroupTable:
    rest = list(range(1, g.order))
    random.Random(seed).shuffle(rest)
    return gc.GroupTable(relabeled_table(g.table, [0] + rest), g.labels)


def _assert_matches_oracle(g: gc.GroupTable) -> None:
    fact = factorize(g.order)
    for p in fact:
        for q in fact:
            if p != q:
                got = _pq_structure_evidence(g, p, q, fact[q])
                assert got == loop_pq_structure_evidence(g, p, q, fact[q]), (g, p, q)


def _pqn(g: gc.GroupTable) -> tuple[int, int, int]:
    """(p, q, n) for |g| = p * q^n with n > 1."""
    (p, _), (q, n) = sorted(factorize(g.order).items(), key=lambda item: item[1])
    return p, q, n


def test_evidence_matches_loop_oracle_on_catalog(catalog_groups):
    for g in catalog_groups.values():
        _assert_matches_oracle(g)


def test_evidence_matches_loop_oracle_on_semidirect_products():
    groups = [perfbench_inputs().semidirect(q, n, p, m)
              for _, q, n, p, m in perfbench_inputs().SEMIDIRECT_SPECS]
    # x^4 + x^3 + x^2 + x + 1 twice: C5 x| F_2^8, order 1280
    groups.append(_fpf_semidirect(2, 5, [1, 1, 1, 1], 2))
    for g in groups:
        assert _pq_structure_evidence(g, *_pqn(g)) is not None
        for seed in (1, 7):
            _assert_matches_oracle(_relabeled(g, seed))


@pytest.mark.parametrize(
    "build, pqn",
    [
        # count: the two 3-cycles and 1 are not 3^2 elements
        (lambda: gc.symmetric(3), (2, 3, 2)),
        # abelian: 1 and the transpositions are 2^2 elements, not a subgroup;
        # two transpositions do not commute (the oracle stops at the products)
        (lambda: gc.symmetric(3), (3, 2, 2)),
        # element of order p: (C3)^2 has none of order 2
        (lambda: gc.elementary_abelian(3, 2), (2, 3, 2)),
        # fixed point: the involution of C6 is central, so it fixes C3
        (lambda: gc.cyclic(6), (2, 3, 1)),
    ],
    ids=["count", "abelian", "p_element", "fixed_point"],
)
def test_each_check_decides_its_case(build, pqn):
    g = build()
    assert _pq_structure_evidence(g, *pqn) is None
    assert loop_pq_structure_evidence(g, *pqn) is None
    for seed in (1, 2):
        moved = _relabeled(g, seed)
        assert _pq_structure_evidence(moved, *pqn) is None


def test_evidence_on_order_3072_is_cheap():
    # x^2 + x + 1 five times: C3 x| F_2^10; checking every pair and conjugate
    # of Q took 4.6 s here, the generators take milliseconds
    g = _fpf_semidirect(2, 3, [1, 1], 5)
    tracemalloc.start()
    try:
        ev = _pq_structure_evidence(g, 3, 2, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ev["p"], ev["q"], ev["n"]) == (3, 2, 10)
    assert len(ev["sylow_q"]) == 1024
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
