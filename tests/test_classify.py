import json
from fractions import Fraction

import pytest

from flat4spec import classify
from flat4spec.classify import (MODES, classify_all, id_sort_key,
                                p_isospectral, sunada_isospectral,
                                L_isospectral, bracketL_isospectral)
from flat4spec.group import GroupError
from flat4spec.theta import heat_trace_poly, poly_equal

from golden_classes import (BRACKETL_PAIRS, L_SETS, P0_SETS, P1_SETS, P2_SETS,
                            as_sorted_lists)

# pairs with equal 0-form supports and equal length sets of different holonomy
# orders: no relation puts them together
CROSS_ORDER_L_PAIRS = [("5", "24"), ("5", "26"), ("19'", "42"), ("19'", "44"),
                       ("21", "42"), ("21", "44")]


def test_id_sort_key():
    names = ["10", "2''", "9'", "2", "3", "2'", "10'"]
    assert sorted(names, key=id_sort_key) == \
        ["2", "2'", "2''", "3", "9'", "10", "10'"]


def test_unknown_mode(catalog):
    with pytest.raises(ValueError):
        classify_all(catalog.groups(), "p5")


def _nontrivial(report):
    return [set(cls) for cls in report.nontrivial_classes()]


def test_p0_classes(catalog):
    report = classify_all(catalog.groups(), "p0")
    assert _nontrivial(report) == [set(c) for c in as_sorted_lists(P0_SETS)]
    assert report.errors == {}


def test_p1_classes(catalog):
    report = classify_all(catalog.groups(), "p1")
    assert _nontrivial(report) == [set(c) for c in as_sorted_lists(P1_SETS)]


def test_p2_classes(catalog):
    report = classify_all(catalog.groups(), "p2")
    assert _nontrivial(report) == [set(c) for c in as_sorted_lists(P2_SETS)]


def test_p3_matches_p1_and_p4_matches_p0(catalog):
    groups = catalog.groups()
    assert classify_all(groups, "p3").classes == classify_all(groups, "p1").classes
    assert classify_all(groups, "p4").classes == classify_all(groups, "p0").classes


def test_all_p_equals_p0(catalog):
    # coincidence of all five traces happens exactly when Z_0 agrees
    groups = catalog.groups()
    assert classify_all(groups, "all-p").classes == \
        classify_all(groups, "p0").classes


def _class_of(report):
    return {gid: k for k, cls in enumerate(report.classes) for gid in cls}


def _all_pairs(groups):
    """Every unordered pair of distinct groups, of any orders."""
    return [(a, b) for i, a in enumerate(groups) for b in groups[i + 1:]]


def _pairwise_classes(groups, same, by_order):
    """Classes of an equivalence `same`; with by_order, only groups of equal order meet."""
    classes = []
    for G in groups:
        for cls in classes:
            if (not by_order or cls[0].order == G.order) and same(cls[0], G):
                cls.append(G)
                break
        else:
            classes.append([G])
    return sorted(sorted(G.name for G in cls) for cls in classes)


@pytest.mark.parametrize("mode", ["p0", "p1", "p2", "p3", "p4", "all-p", "L"])
def test_integer_signatures_match_heat_trace_polynomials(catalog, mode):
    # classify_all compares integer trace sums; the oracle compares the
    # exact heat-trace polynomials with poly_equal (or their supports for L).
    # Equal heat traces force equal |F| (only the identity's monomial has four
    # fixed dimensions), so the p oracle compares groups of any orders; equal
    # supports do not, and L relates only groups of equal order.
    groups = catalog.groups()
    degrees = range(5) if mode == "all-p" else [0] if mode == "L" else [int(mode[1])]
    polys = {(G, p): heat_trace_poly(G, p) for G in groups for p in degrees}
    if mode == "L":
        def same(a, b):
            return polys[a, 0].support() == polys[b, 0].support()
    else:
        def same(a, b):
            return all(poly_equal(polys[a, p], polys[b, p]) for p in degrees)
    report = classify_all(groups, mode)
    assert report.errors == {}
    assert sorted(sorted(cls) for cls in report.classes) == \
        _pairwise_classes(groups, same, by_order=mode == "L")
    if mode in ("p0", "p1", "p2", "p3", "p4"):
        class_of = _class_of(report)
        for a, b in _all_pairs(groups):
            assert p_isospectral(a, b, int(mode[1])) == \
                (class_of[a.name] == class_of[b.name]), (a.name, b.name)


def test_L_classes(catalog):
    report = classify_all(catalog.groups(), "L")
    assert _nontrivial(report) == [set(c) for c in as_sorted_lists(L_SETS)]
    assert report.errors == {}


def test_L_isospectral_agrees_with_L_classes(catalog):
    # 23/24 and 12/12' share a length set up to max2 = 4 but not a support
    groups = catalog.groups()
    class_of = _class_of(classify_all(groups, "L"))
    for a, b in _all_pairs(groups):
        assert L_isospectral(a, b) == (class_of[a.name] == class_of[b.name]), (a.name, b.name)
    assert not L_isospectral(catalog.group("23"), catalog.group("24"))
    assert not L_isospectral(catalog.group("12"), catalog.group("12'"))
    # equal supports and length sets, but different holonomy orders
    for a, b in CROSS_ORDER_L_PAIRS:
        assert not L_isospectral(catalog.group(a), catalog.group(b))


def test_bracketL_classes(catalog):
    report = classify_all(catalog.groups(), "bracketL", max2=3)
    assert _nontrivial(report) == \
        [set(c) for c in as_sorted_lists(BRACKETL_PAIRS)]
    # only the non-closing entry cannot be compared
    assert set(report.errors) == {"29'"}
    assert report.params == {"max_squared_length": "3"}


def test_bracketL_errors_do_not_depend_on_bound(catalog):
    # 29' has no squared length <= 1/16; it must still be reported rather
    # than classified by an empty signature
    report = classify_all(catalog.groups(), "bracketL", max2=Fraction(1, 16))
    assert set(report.errors) == {"29'"}


def test_bracketL_refines_L(catalog):
    for pair in BRACKETL_PAIRS:
        a, b = sorted(pair, key=id_sort_key)
        assert L_isospectral(catalog.group(a), catalog.group(b))
        assert bracketL_isospectral(catalog.group(a), catalog.group(b))


def test_bracketL_isospectral_agrees_with_bracketL_classes(catalog):
    groups = [G for G in catalog.groups() if G.name != "29'"]
    # each group's key once; classify_all groups by it
    keys = {G.name: classify.signature(G, "bracketL", 3) for G in groups}
    class_of = _class_of(classify_all(groups, "bracketL", max2=3))
    for a, b in _all_pairs(groups):
        assert (keys[a.name] == keys[b.name]) == (class_of[a.name] == class_of[b.name])
    # no class has a squared length <= 1/16, so only the orders tell groups apart
    tiny = Fraction(1, 16)
    assert bracketL_isospectral(catalog.group("2"), catalog.group("5"), tiny)
    assert not bracketL_isospectral(catalog.group("1"), catalog.group("2"), tiny)
    for a, b in CROSS_ORDER_L_PAIRS:
        assert not bracketL_isospectral(catalog.group(a), catalog.group(b))


def test_sunada_isospectral_agrees_with_sunada_classes(catalog):
    groups = catalog.groups()
    diagonal = {e.id for e in catalog if e.diagonal}
    class_of = _class_of(classify_all(groups, "sunada"))
    for a, b in _all_pairs(groups):
        if {a.name, b.name} <= diagonal:
            assert sunada_isospectral(a, b) == (class_of[a.name] == class_of[b.name])
        else:
            with pytest.raises(GroupError):
                sunada_isospectral(a, b)


def test_pairwise_comparators(catalog):
    g57, g58, g24 = (catalog.group(i) for i in ("57", "58", "24"))
    for p in range(5):
        assert p_isospectral(g57, g58, p)
        assert not p_isospectral(g57, g24, p)
    for p in (-1, 5, 10):
        with pytest.raises(ValueError):
            p_isospectral(g57, g58, p)
    assert sunada_isospectral(catalog.group("35"), catalog.group("40"))
    assert not sunada_isospectral(catalog.group("35"), catalog.group("42"))


def test_sunada_mode_reports_nondiagonal_errors(catalog):
    report = classify_all(catalog.groups(), "sunada")
    diagonal_ids = {e.id for e in catalog if e.diagonal}
    classified = {gid for cls in report.classes for gid in cls}
    assert classified == diagonal_ids
    assert set(report.errors) == {e.id for e in catalog if not e.diagonal}


def test_report_json_schema(catalog):
    report = classify_all(catalog.groups(), "p1")
    data = json.loads(report.to_json())
    assert set(data) == {"mode", "params", "classes", "errors"}
    assert data["mode"] == "p1"
    assert data["params"] == {"p": 1}
    assert all(isinstance(cls, list) for cls in data["classes"])
    assert sum(len(cls) for cls in data["classes"]) == len(catalog)


def test_classes_partition_catalog(catalog):
    for mode in MODES:
        report = classify_all(catalog.groups(), mode)
        names = [gid for cls in report.classes for gid in cls]
        assert len(names) == len(set(names))
        assert set(names) | set(report.errors) == set(catalog.ids())
