"""The engine in other dimensions: products with a circle, and n = 1, 2.

The engine reads n from the holonomy codes, so two oracles check it outside
the catalog's n = 4.  Ten catalog entries split off a circle, M = M3 x S^1:
their heat traces, eigenvalue multiplicities, length sets and class counts
follow from those of the 3-dimensional factor M3, built by deleting the split
axis.  And the circle, the 2-torus and the Klein bottle have classical
spectra that are written here by hand.
"""
from fractions import Fraction
from math import comb, isqrt

import pytest

from flat4spec.group import (AffineIsometry, betti, build_group, is_diagonal_type,
                             is_orientable, sunada_numbers)
from flat4spec.intlat import identity
from flat4spec.lengths import length_set, length_spectrum
from flat4spec.numspec import multiplicities
from flat4spec.qfield import QuadNumber
from flat4spec.theta import HeatTracePoly, heat_trace_poly

from oracle import monomial

F = Fraction
SPLIT_IDS = ["1", "2", "2'", "3", "3''", "5", "7", "8", "26", "45"]
X = ((1, 0, 1), 1)  # the int theta key of x = z_{1,0}


def _split_axis(G):
    """The first axis a with B[a][a] = 1 and b[a] = 0 in every holonomy representative."""
    return next((a for a in range(4) if all(g.B[a][a] == 1 and g.b[a] == 0
                                            for g in G.holonomy)), None)


def _factor(G, a):
    """M3: the group generated by the holonomy representatives with axis a deleted."""
    keep = [i for i in range(4) if i != a]
    return build_group([AffineIsometry(tuple(tuple(g.B[i][j] for j in keep) for i in keep),
                                       tuple(g.b[i] for i in keep))
                        for g in G.holonomy], name=f"{G.name} / axis {a}")


def _r2(mu):
    """Representations of mu as a sum of two squares."""
    return sum(1 for a in range(-isqrt(mu), isqrt(mu) + 1)
               for b in range(-isqrt(mu), isqrt(mu) + 1) if a * a + b * b == mu)


def test_split_entries_are_the_ten_products(catalog):
    assert [e.id for e in catalog if _split_axis(e.group) is not None] == SPLIT_IDS


@pytest.mark.parametrize("gid", SPLIT_IDS)
def test_product_with_a_circle(catalog, gid):
    M = catalog.group(gid)
    M3 = _factor(M, _split_axis(M))
    assert M3.order == M.order and M3.holonomy[0].B == identity(3)
    # Z_p(M) = x (Z_p(M3) + Z_{p-1}(M3)); x = z_{1,0} sorts first in a key
    want = {}
    for key, tr in M3.trace_table.items():
        times_x = ((X[0], key[0][1] + 1),) + key[1:] if key and key[0][0] == X[0] else (X,) + key
        want[times_x] = tuple(c + d for c, d in zip(tr + (0,), (0,) + tr))
    assert M.trace_table == want
    # d_{p,mu}(M) = sum over k in Z with k^2 <= mu of d_{p,mu-k^2} + d_{p-1,mu-k^2} of M3
    mu_max = 40
    d3 = [[0] * (mu_max + 1)] + [multiplicities(M3, p, mu_max) for p in range(4)] \
        + [[0] * (mu_max + 1)]
    for p in range(5):
        assert multiplicities(M, p, mu_max) == [
            sum(d3[p][mu - k * k] + d3[p + 1][mu - k * k]
                for k in range(-isqrt(mu), isqrt(mu) + 1))
            for mu in range(mu_max + 1)], (gid, p)
    # squared lengths l + k^2 over l in L(M3) or 0 and k in Z
    lengths3 = length_set(M3, 12) | {0}
    assert length_set(M, 12) == {l + k * k for l in lengths3 for k in range(-3, 4)
                                 if 0 < l + k * k <= 12}
    # class counts convolve the same way, with the one class of length 0 in M3
    n3 = {**length_spectrum(M3, 6), F(0): 1}
    want = {}
    for l, n in n3.items():
        for k in range(-2, 3):
            if 0 < l + k * k <= 6:
                want[l + k * k] = want.get(l + k * k, 0) + n
    assert length_spectrum(M, 6) == dict(sorted(want.items()))


def test_circle():
    S1 = build_group([AffineIsometry.identity(1)])
    squares = [1 if mu == 0 else 2 * (isqrt(mu) ** 2 == mu) for mu in range(26)]
    assert squares[:5] == [1, 2, 0, 0, 2]
    for p in (0, 1):
        assert multiplicities(S1, p, 25) == squares
    assert length_spectrum(S1, 25) == {F(m * m): 2 for m in range(1, 6)}
    assert (betti(S1, 0), betti(S1, 1), is_orientable(S1)) == (1, 1, True)


def test_two_torus():
    T2 = build_group([AffineIsometry.identity(2)])
    for p in range(3):
        assert multiplicities(T2, p, 30) == [comb(2, p) * _r2(mu) for mu in range(31)]
    assert length_spectrum(T2, 30) == {F(l): _r2(l) for l in range(1, 31) if _r2(l)}


def test_klein_bottle():
    K = build_group([AffineIsometry(((1, 0), (0, -1)), (F(1, 2), 0))])
    assert K.order == 2
    assert [betti(K, p) for p in range(3)] == [1, 1, 0]
    assert (is_orientable(K), is_diagonal_type(K)) == (False, True)
    # the glide fixes one axis, translated by 1/2 along it
    assert sunada_numbers(K) == {(d, t): int((d, t) == (1, 1))
                                 for d in (1, 2) for t in range(d + 1)}
    # 2 Z_0 = x^2 + y, 2 Z_1 = 2 x^2, 2 Z_2 = x^2 - y
    x2, y = monomial([((1, 0), 2)]), monomial([((1, F(1, 2)), 1)])
    for p, cx, cy in ((0, 1, 1), (1, 2, 0), (2, 1, -1)):
        terms = [(x2, QuadNumber(cx)), (y, QuadNumber(cy))]
        assert heat_trace_poly(K, p) == HeatTracePoly.from_terms(2, terms), p
    # theta_{1,1/2}(q) = sum_n (-1)^n q^(n^2) gives t(mu)
    t = [1] + [2 * (-1) ** isqrt(mu) if isqrt(mu) ** 2 == mu else 0 for mu in range(1, 31)]
    r2 = [_r2(mu) for mu in range(31)]
    assert multiplicities(K, 0, 30) == [(r + s) // 2 for r, s in zip(r2, t)]
    assert multiplicities(K, 1, 30) == r2
    assert multiplicities(K, 2, 30) == [(r - s) // 2 for r, s in zip(r2, t)]
    assert length_spectrum(K, F(9, 4)) == {F(1, 4): 4, F(1): 3, F(2): 2, F(9, 4): 4}

