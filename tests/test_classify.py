from orbitforge import group_core as gc
from orbitforge.arith import factorize
from orbitforge.auto_orbits import omega
from orbitforge.classify import (
    VERDICT_ELEMENTARY_ABELIAN,
    VERDICT_LAFFEY_MACHALE,
    VERDICT_OTHER,
    VERDICT_PRIME_POWER,
    VERDICT_TRIVIAL,
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
    # re-verify the witness independently: every nontrivial power of h moves
    # every nontrivial element of Q
    hk = h
    for _ in range(1, ev["p"]):
        for u in qset:
            if u != 0:
                assert g.conjugate(u, hk) != u
        hk = g.table[hk][h]


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
