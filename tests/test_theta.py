from fractions import Fraction
from math import exp, fsum, pi, sqrt

import pytest

from flat4spec.qfield import QuadNumber
from flat4spec.theta import (HeatTracePoly, heat_trace_poly, monomial_str, poly_equal,
                             theta_value, var_name)

from golden_heat import ALIASES, TABLE, golden
from oracle import ThetaError, fold_offset, monomial


def test_fold_offset():
    assert fold_offset(Fraction(3, 4)) == Fraction(1, 4)
    assert fold_offset(Fraction(5, 4)) == Fraction(1, 4)
    assert fold_offset(Fraction(-1, 3)) == Fraction(1, 3)
    assert fold_offset(Fraction(1, 2)) == Fraction(1, 2)
    assert fold_offset(2) == 0


def test_monomial_folds_and_merges():
    a = monomial([((1, Fraction(3, 4)), 1), ((1, Fraction(1, 4)), 1)])
    b = monomial([((1, Fraction(1, 4)), 2)])
    assert a == b
    assert monomial([((2, 0), 0)]) == ()
    with pytest.raises(ThetaError):
        monomial([((5, 0), 1)])


def test_element_monomial_matches_monomial(catalog):
    # the p-independent monomial each element caches, against monomial()
    for entry in catalog:
        for g in entry.group.holonomy:
            want = monomial(((d, r), 1) for d, r in g.translation_offsets())
            assert g.theta_monomial() == want, (entry.id, g.B)
            assert all(fold_offset(r) == r for (_, r), _ in want)


def test_var_names_and_rendering():
    assert var_name(1, Fraction(0)) == "x"
    assert var_name(1, Fraction(1, 2)) == "y"
    assert var_name(2, Fraction(1, 4)) == "z[2,1/4]"
    m = monomial([((1, 0), 3), ((1, Fraction(1, 2)), 1)])
    assert monomial_str(m) == "x^3*y"
    assert monomial_str(()) == "1"


def test_poly_equal_across_scales():
    x4 = monomial([((1, 0), 4)])
    xy = monomial([((1, 0), 1), ((1, Fraction(1, 2)), 1)])
    a = HeatTracePoly.from_terms(2, [(x4, 2), (xy, 4)])
    b = HeatTracePoly.from_terms(4, [(x4, 4), (xy, 8)])
    c = HeatTracePoly.from_terms(4, [(x4, 4), (xy, 6)])
    assert poly_equal(a, b)
    assert not poly_equal(a, c)


def test_render_torus(catalog):
    poly = heat_trace_poly(catalog.group("1"), 0)
    assert poly.render() == "1*Z_p = (1) x^4"
    zero = heat_trace_poly(catalog.group("1"), 0)
    assert zero.order == 1


@pytest.mark.parametrize("p", range(5))
def test_golden_heat_traces(catalog, p):
    """Every catalog entry matches its frozen reference polynomial."""
    for entry in catalog:
        order, terms = golden(entry.id, p)
        ref = HeatTracePoly.from_terms(order, terms)
        got = heat_trace_poly(entry.group, p)
        assert poly_equal(got, ref), (entry.id, p)


@pytest.mark.parametrize("alias, target", sorted(ALIASES.items()))
def test_stated_coincidences(catalog, alias, target):
    for p in range(5):
        assert poly_equal(heat_trace_poly(catalog.group(alias), p),
                          heat_trace_poly(catalog.group(target), p)), p


def test_group_29_prime_poly(catalog):
    # the sqrt2 coefficient splits in half between z[2,0] and z[2,1/2]
    poly = heat_trace_poly(catalog.group("29'"), 0)
    y = (1, Fraction(1, 2))
    half_rt2 = QuadNumber(0, Fraction(1, 2))
    want = {
        monomial([((1, 0), 4)]): QuadNumber(1),
        monomial([((1, 0), 1), (y, 1)]): QuadNumber(1),
        monomial([(y, 1), ((2, 0), 1)]): half_rt2,
        monomial([(y, 1), ((2, Fraction(1, 2)), 1)]): half_rt2,
    }
    assert poly.order == 4
    assert dict(poly.coeffs) == want


def _theta_1d(shift, s, terms):
    return fsum(exp(-s * (m + shift) ** 2) for m in range(-terms, terms + 1))


def _theta_2d(t, s, terms):
    """Double-index lattice sum over Z^2 with t half-shifted coordinates."""
    shifts = [0.5 if j < t else 0.0 for j in range(2)]
    return fsum(
        exp(-s * ((m + shifts[0]) ** 2 + (k + shifts[1]) ** 2))
        for m in range(-terms, terms + 1)
        for k in range(-terms, terms + 1)
    )


def test_theta_product_splitting():
    # theta_{2,t}(s) = theta_0^{2-t} theta_1^t where theta_0, theta_1 are the
    # one-dimensional sums with shift 0 and 1/2
    M = 60
    for s in (0.5, 1.0, 2.0):
        th0 = _theta_1d(0.0, s, M)
        th1 = _theta_1d(0.5, s, M)
        for t in range(3):
            direct = _theta_2d(t, s, M)
            assert abs(direct - th0 ** (2 - t) * th1 ** t) < 1e-12


def test_theta_value_matches_direct_sum():
    # z_{d,r}(s) = (4 pi s)^{-1/2} sum_m exp(-(m+r)^2 / (4 d s))
    for d in (1, 2, 3, 4):
        for r in (0, Fraction(1, 4), Fraction(1, 2)):
            for s in (0.05, 0.1, 0.3):
                direct = sum(
                    exp(-((m + float(r)) ** 2 / d) / (4.0 * s))
                    for m in range(-80, 81)
                ) / sqrt(4.0 * pi * s)
                assert abs(theta_value(d, r, s, terms=80) - direct) < 1e-12


def test_eval_numeric_torus(catalog):
    # the torus 0-form trace is x^4 = theta(Z^4), matching the direct sum
    s = 0.05
    poly = heat_trace_poly(catalog.group("1"), 0)
    got = poly.eval_numeric(s, terms=60)
    want = theta_value(1, 0, s, terms=60) ** 4
    assert got == pytest.approx(want, rel=1e-12)


def test_golden_table_covers_catalog(catalog):
    ids = set(catalog.ids())
    assert set(TABLE) | set(ALIASES) == ids


def test_memoised_theta_values_are_exact(catalog):
    # crosscheck's bytes rest on eval_numeric: with the memo it must give the
    # same float as the unmemoised series summed in the same order.  The
    # settings alternate, and the last differs from the first only in terms
    # (the |m| = 3 term is seen at s = 0.08), so a memo keyed without s or
    # terms fails here.
    assert theta_value.cache_info().maxsize is not None
    raw = theta_value.__wrapped__
    for entry in catalog:
        for p in range(5):
            poly = heat_trace_poly(entry.group, p)
            for s, terms in ((0.08, 60), (0.3, 20), (0.08, 2)):
                want = 0.0
                for mono, coef in poly.coeffs:
                    val = float(coef)
                    for (d, r), e in mono:
                        val *= raw(d, r, s, terms) ** e
                    want += val
                assert poly.eval_numeric(s, terms) == want / poly.order, (entry.id, p, s)
