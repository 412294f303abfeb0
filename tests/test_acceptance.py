"""End-to-end acceptance checks for the shipped catalog.

Each test freezes one headline result.  Where the published tables contain
arithmetic slips (documented per entry in the catalog notes), the tests
assert the corrected value and carry a strict-xfail companion for the printed
one, so the discrepancy stays visible without gaming the suite.
"""
from fractions import Fraction
from math import comb

import pytest

from flat4spec.classify import classify_all, id_sort_key
from flat4spec.group import sunada_tuple
from flat4spec.intlat import identity
from flat4spec.kraw import krawtchouk, trace_p
from flat4spec.lengths import length_multiplicity
from flat4spec.numspec import e_term, heat_trace_numeric, multiplicity
from flat4spec.theta import HeatTracePoly, heat_trace_poly, poly_equal

from golden_classes import (BRACKETL_EXCLUDED, BRACKETL_PAIRS, L_SETS, P0_SETS,
                            P1_SETS, P2_SETS, as_sorted_lists)
from golden_heat import ALIASES, golden
from linalg import det, mat_sub

F = Fraction


# -- 1: Krawtchouk table ----------------------------------------------------


def test_krawtchouk_table_25_values():
    table = {
        0: (1, 4, 6, 4, 1),
        1: (1, 2, 0, -2, -1),
        2: (1, 0, -2, 0, 1),
        3: (1, -2, 0, 2, -1),
        4: (1, -4, 6, -4, 1),
    }
    for j, row in table.items():
        for p, want in enumerate(row):
            assert krawtchouk(4, p, j) == want


# -- 2: trace rows across the catalog ----------------------------------------


def test_trace_rows(catalog):
    kraw_rows = {tuple(krawtchouk(4, p, j) for p in range(5)) for j in range(5)}
    extra_rows = {
        (1, 2, 2, 2, 1),    # order-4 plane plus two fixed axes
        (1, 0, 0, 0, -1),   # order-4 plane plus reflected pair
        (1, 1, 0, 1, 1),    # order 3
        (1, 1, 0, -1, -1),  # order 6
    }
    seen = set()
    for entry in catalog:
        for g in entry.group.holonomy:
            row = tuple(trace_p(g.B, p) for p in range(5))
            seen.add(row)
            assert row in kraw_rows | extra_rows, (entry.id, row)
    assert extra_rows <= seen


@pytest.mark.xfail(strict=True,
                   reason="the published order-6 row ends in +1, which violates"
                          " the alternating-sum identity sum (-1)^p tr_p ="
                          " det(Id - B) = 0; the engine produces -1")
def test_printed_order_6_row(catalog):
    rows = {tuple(g.traces()) for e in catalog for g in e.group.holonomy}
    assert (1, 1, 0, -1, 1) in rows


# -- 3: Betti numbers vs printed headers --------------------------------------


# printed (beta1, beta2) headers that contradict the trace rows printed in
# the same tables; beta_p is the holonomy average of the p-form traces, so
# the rows force the corrected values
BETTI_ERRATA = {
    "13": ((1, 0), (2, 1)), "13'": ((1, 0), (2, 1)),
    "14": ((1, 0), (2, 1)), "14'": ((1, 0), (2, 1)),
    "15": ((1, 0), (2, 1)), "15'": ((1, 0), (2, 1)),
    "22": ((1, 0), (1, 1)), "22'": ((1, 0), (1, 1)),
    "45": ((2, 1), (2, 2)), "45'": ((2, 1), (2, 2)),
    "47": ((2, 1), (2, 2)), "47'": ((2, 1), (2, 2)),
    "50": ((1, 0), (1, 1)), "51": ((0, 1), (1, 1)),
    "54": ((0, 0), (1, 0)), "64": ((1, 0), (1, 1)),
    "67": ((0, 0), (1, 0)),
}


def test_betti_against_printed_headers(catalog):
    mismatched = {e.id: (e.betti_printed, e.betti)
                  for e in catalog if e.betti != e.betti_printed}
    assert mismatched == BETTI_ERRATA
    assert catalog.get("2").betti == (3, 3)
    for gid in BETTI_ERRATA:
        assert "contradicts" in catalog.get(gid).notes


@pytest.mark.xfail(strict=True,
                   reason="seventeen printed Betti headers contradict the"
                          " trace rows printed beside them; the engine keeps"
                          " the trace-forced values")
def test_printed_betti_headers(catalog):
    assert all(e.betti == e.betti_printed for e in catalog)


# -- 4: Sunada numbers --------------------------------------------------------


def test_sunada_numbers_against_printed_rows(catalog):
    for entry in catalog:
        if not entry.diagonal:
            continue
        assert entry.sunada == sunada_tuple(entry.group)
        if entry.id == "40":
            continue
        assert entry.sunada == entry.sunada_printed, entry.id
    e40 = catalog.get("40")
    assert sum(e40.sunada) == e40.group.order - 1 == 7
    assert e40.sunada == catalog.get("35").sunada


@pytest.mark.xfail(strict=True,
                   reason="the published row for group 40 sums to 10, which"
                          " exceeds |F| - 1 = 7; the corrected row equals"
                          " group 35's")
def test_printed_sunada_row_40(catalog):
    e40 = catalog.get("40")
    assert sunada_tuple(e40.group) == e40.sunada_printed


# -- 5: heat trace polynomials and stated coincidences ------------------------


def test_heat_trace_golden_table(catalog):
    for entry in catalog:
        for p in range(5):
            order, terms = golden(entry.id, p)
            assert poly_equal(heat_trace_poly(entry.group, p),
                              HeatTracePoly.from_terms(order, terms)), \
                (entry.id, p)


def test_stated_coincidences(catalog):
    for alias, target in ALIASES.items():
        for p in range(5):
            assert poly_equal(heat_trace_poly(catalog.group(alias), p),
                              heat_trace_poly(catalog.group(target), p)), \
                (alias, target, p)


# -- 6: classification on exact heat traces -----------------------------------


def _nontrivial(catalog, mode):
    report = classify_all(catalog.groups(), mode)
    return report.nontrivial_classes()


def test_p0_classification(catalog):
    classes = _nontrivial(catalog, "p0")
    assert len(classes) == 16
    assert classes == as_sorted_lists(P0_SETS)


def test_p1_p3_classification(catalog):
    classes = _nontrivial(catalog, "p1")
    assert classes == as_sorted_lists(P1_SETS)
    nine = next(c for c in classes if "24" in c)
    assert len(nine) == 9 and "50" in nine and "51" in nine
    assert _nontrivial(catalog, "p3") == classes


def test_p2_classification(catalog):
    classes = _nontrivial(catalog, "p2")
    assert classes == as_sorted_lists(P2_SETS)
    fourteen = next(c for c in classes if "7" in c)
    assert len(fourteen) == 14


# -- 7: length set classification ---------------------------------------------


def test_L_classification(catalog):
    classes = _nontrivial(catalog, "L")
    assert len(classes) == 18
    assert classes == as_sorted_lists(L_SETS)
    as_sets = [set(c) for c in classes]
    for special in ({"25", "27"}, {"33", "43"}, {"42", "44"},
                    {"34", "38", "39", "41"}):
        assert special in as_sets


# -- 8: the order-8 nonabelian example ----------------------------------------


def _coset_order(G):
    g1, g2 = G.generators
    return (g1, g1 * g1, g1 * g1 * g1, g2, g1 * g2, g1 * g1 * g2,
            g1 * g1 * g1 * g2)


def test_e_term_rows(catalog):
    want = {
        "60": (2, 0, 2, -2, 0, -2, 0),
        "61": (2, 0, 2, -2, -4, -2, -4),
    }
    for gid, row in want.items():
        values = [e_term(g, 1) for g in _coset_order(catalog.group(gid))]
        assert tuple(values) == row, gid


def test_d4_multiplicities(catalog):
    assert multiplicity(catalog.group("60"), 0, 1) == 1
    assert multiplicity(catalog.group("61"), 0, 1) == 0
    # with the e-rows above, d_{2,1} = (1/8)(6 * 8 + 2 * (2 + 0 + 2) +
    # (-2) * (-2 + 0 - 2 + 0)) = 8 for 60 and likewise 10 for 61
    assert multiplicity(catalog.group("60"), 2, 1) == 8
    assert multiplicity(catalog.group("61"), 2, 1) == 10


@pytest.mark.xfail(strict=True,
                   reason="the published example values 6 and 4 contradict the"
                          " published e-rows, which force 8 and 10")
def test_printed_d4_multiplicities(catalog):
    assert multiplicity(catalog.group("60"), 2, 1) == 6
    assert multiplicity(catalog.group("61"), 2, 1) == 4


# -- 9: length multiplicities -------------------------------------------------


def test_quarter_length_multiplicities(catalog):
    assert length_multiplicity(catalog.group("25"), F(1, 4)) == 8
    assert length_multiplicity(catalog.group("27"), F(1, 4)) == 4


# -- 10: class-length comparison up to squared length 3 -----------------------


def test_bracketL_pairs_agree(catalog):
    report = classify_all(catalog.groups(), "bracketL", max2=3)
    assert report.nontrivial_classes() == as_sorted_lists(BRACKETL_PAIRS)


def test_bracketL_excluded_sets_disagree(catalog):
    from flat4spec.classify import bracketL_isospectral

    for pair in BRACKETL_EXCLUDED:
        a, b = sorted(pair, key=id_sort_key)
        assert not bracketL_isospectral(
            catalog.group(a), catalog.group(b), max2=3
        ), pair


# -- 11: oracle equivalence ---------------------------------------------------


SAMPLES = [("1", 0), ("2", 1), ("8", 2), ("24", 0), ("29'", 3), ("47", 1),
           ("57", 2), ("58", 2), ("60", 4), ("67", 0)]


@pytest.mark.parametrize("gid, p", SAMPLES)
def test_exact_vs_numeric_heat_trace(catalog, gid, p):
    G = catalog.group(gid)
    exact = heat_trace_poly(G, p).eval_numeric(0.08, terms=60)
    series = heat_trace_numeric(G, p, 0.08, 40)
    assert abs(exact - series) < 1e-8


# -- 12: property suites ------------------------------------------------------


def test_supersymmetry(catalog):
    for entry in catalog:
        for mu in range(1, 26):
            assert sum((-1) ** p * multiplicity(entry.group, p, mu)
                       for p in range(5)) == 0, (entry.id, mu)


def test_poincare_duality(catalog):
    for entry in catalog:
        if not entry.orientable:
            continue
        for mu in range(8):
            for p in range(5):
                assert multiplicity(entry.group, p, mu) == \
                    multiplicity(entry.group, 4 - p, mu), (entry.id, p, mu)


def test_krawtchouk_identities_up_to_8():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                v = krawtchouk(n, k, j)
                assert v == (-1) ** j * krawtchouk(n, n - k, j)
                assert v == (-1) ** k * krawtchouk(n, k, n - j)
                assert comb(n, j) * v == comb(n, k) * krawtchouk(n, j, k)


def test_alternating_trace_identity(catalog):
    for entry in catalog:
        for g in entry.group.nontrivial():
            alt = sum((-1) ** p * g.traces()[p] for p in range(5))
            assert alt == det(mat_sub(identity(4), g.B)) == 0, entry.id


def test_orientability_iff_even_monomials(catalog):
    for entry in catalog:
        poly = heat_trace_poly(entry.group, 0)
        even = all(sum(e for _, e in mono) % 2 == 0 for mono in poly.support())
        assert even == entry.orientable, entry.id
