import cmath
from collections import Counter
from fractions import Fraction
from math import comb, cos, exp, gcd, lcm, pi

import pytest

from flat4spec import group, numspec
from flat4spec.group import AffineIsometry, BieberbachGroup, build_group
from flat4spec.intlat import code_cycles, identity, signed_code
from flat4spec.kraw import cycle_charpoly
from flat4spec.numspec import (e_term, heat_trace_numeric, lattice_shell,
                               multiplicities, multiplicity)

from linalg import mat_vec

# representation numbers r4(mu) of four squares, mu = 0..10
R4 = (1, 8, 24, 32, 24, 48, 96, 64, 24, 104, 144)


def test_lattice_shell_counts():
    for mu, want in enumerate(R4):
        shell = lattice_shell(mu)
        assert len(shell) == want
        assert len(set(shell)) == want
        assert all(sum(x * x for x in v) == mu for v in shell)


def test_lattice_shell_rejects_negative():
    with pytest.raises(ValueError):
        lattice_shell(-1)


_HALF = Fraction(1, 2)
# cos(2 pi k / L) for k = 0, ..., L - 1, for the denominators L where it is rational
_COSINES = {
    1: (1,),
    2: (1, -1),
    3: (1, -_HALF, -_HALF),
    4: (1, 0, -1, 0),
    6: (1, _HALF, -_HALF, -1, -_HALF, _HALF),
}


def _e_term_shell(g, mu):
    """The e-sum as a count of fixed shell vectors per phase, weighted by cosines.

    It tests B v = v on every vector of the shell, so it does not rely on the
    fixed decomposition or the offsets that `e_term` reads.
    """
    L = lcm(*(x.denominator for x in g.b))
    lb = [x.numerator * (L // x.denominator) for x in g.b]
    # (B v)_i = s v_j for the one nonzero entry s = B[i][j]; rows with
    # B[i][i] = 1 hold for every v
    moved = [(i, j, s) for i, row in enumerate(g.B) for j, s in enumerate(row)
             if s and (i != j or s != 1)]
    counts = [0] * L
    for v in lattice_shell(mu):
        for i, j, s in moved:
            if v[i] != s * v[j]:
                break
        else:
            counts[(v[0] * lb[0] + v[1] * lb[1] + v[2] * lb[2] + v[3] * lb[3]) % L] += 1
    total = 0
    for k, count in enumerate(counts):
        if count:
            d = gcd(k, L)
            total += count * _COSINES[L // d][k // d]
    return total


@pytest.fixture(scope="module")
def shell_e_terms(catalog):
    """_e_term_shell(g, mu) for mu <= 25 and every distinct catalog element."""
    elements = {(g.B, g.b): g for entry in catalog for g in entry.group.holonomy}
    return {key: [_e_term_shell(g, mu) for mu in range(26)]
            for key, g in elements.items()}


def test_e_term_matches_shell_counts(catalog, shell_e_terms):
    assert len(shell_e_terms) == 150
    for entry in catalog:
        for g in entry.group.holonomy:
            want = shell_e_terms[g.B, g.b]
            assert [e_term(g, mu) for mu in range(26)] == want, (entry.id, g)


def test_multiplicities_match_shell_counts(catalog, shell_e_terms):
    for entry in catalog:
        G = entry.group
        for p in range(5):
            sums = [sum(g.traces()[p] * shell_e_terms[g.B, g.b][mu] for g in G.holonomy)
                    for mu in range(26)]
            oracle = [Fraction(total, G.order) for total in sums]
            assert multiplicities(G, p, 25) == oracle, (entry.id, p)
            assert multiplicity(G, p, 25) == oracle[25], (entry.id, p)


def test_torus_multiplicities(catalog):
    G = catalog.group("1")
    for mu, r in enumerate(R4):
        for p in range(5):
            assert multiplicity(G, p, mu) == comb(4, p) * r


def test_multiplicity_does_not_depend_on_object_identity(catalog):
    # the group built right after a freed one usually takes its address (and
    # so its id); results must follow the group's value, not its address
    torus, two = catalog.group("1"), catalog.group("2")
    for _ in range(50):
        G = BieberbachGroup(torus.name, torus.generators, torus.holonomy,
                            torus.translation_consistent)
        assert multiplicity(G, 0, 1) == 8
        del G
        G = BieberbachGroup(two.name, two.generators, two.holonomy, two.translation_consistent)
        assert multiplicity(G, 0, 1) == 5


def test_e_term_torus_identity(catalog):
    g = catalog.group("1").holonomy[0]
    assert e_term(g, 2) == 24


def _e_term_float(g, mu):
    """The e-sum as a complex exponential sum over shell vectors with B v = v."""
    total = 0j
    for v in lattice_shell(mu):
        if mat_vec(g.B, v) == v:
            phase = sum(Fraction(x) * bi for x, bi in zip(v, g.b))
            total += cmath.exp(-2j * pi * float(phase))
    return total


def test_e_term_matches_exponential_sum(catalog):
    elements = {(g.B, g.b): g for entry in catalog for g in entry.group.holonomy}
    for g in elements.values():
        for mu in range(13):
            exact = e_term(g, mu)
            assert isinstance(exact, (int, Fraction))
            assert abs(_e_term_float(g, mu) - exact) < 1e-9, (g, mu)


def test_e_term_phase_cosines():
    # a pure translation by (k/L, 0, 0, 0) sums cos(2 pi k v_0 / L) over the
    # shell; on the 1-shell that is 6 + 2 cos(2 pi k / L), an integer here
    for L in (1, 2, 3, 4, 6):
        for k in range(L):
            g = AffineIsometry.make(identity(4), (Fraction(k, L), 0, 0, 0))
            assert e_term(g, 1) == 6 + round(2 * cos(2 * pi * k / L)), (k, L)


def test_e_term_refuses_irrational_phases():
    # cos(2 pi / 8) = sqrt(2)/2 is not rational
    g = AffineIsometry.make(identity(4), (Fraction(1, 8), 0, 0, 0))
    with pytest.raises(ArithmeticError):
        e_term(g, 1)


def test_multiplicity_with_rational_phases_off_the_fixed_space():
    # a valid group whose translation has denominator 8; the 1/8 lies off the
    # fixed space (fixed vectors have v_1 = 0), so every phase lies in (1/2)Z
    # and the e-sums are exact
    gen = AffineIsometry.make(((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0),
                               (0, 0, 0, 1)), (Fraction(1, 2), Fraction(1, 8), 0, 0))
    G = build_group([gen], name="eighth")
    assert G.order == 2
    for p in range(5):
        for mu in range(7):
            oracle = sum(g.traces()[p] * _e_term_float(g, mu)
                         for g in G.holonomy) / G.order
            assert abs(multiplicity(G, p, mu) - oracle) < 1e-9, (p, mu)


def test_multiplicity_refuses_nonintegral_sums(catalog, monkeypatch):
    G = catalog.group("2")
    assert G.order == 2
    # _series receives each element's int theta key
    identity, other = (g._theta_key for g in G.holonomy)
    assert identity != other

    def series(e_identity, e_other):
        # the q^1 coefficients of the two elements' series
        return lambda key, N: (0, e_identity if key == identity else e_other)

    monkeypatch.setattr(numspec, "_series", series(1, 0))
    with pytest.raises(ArithmeticError, match="not integral"):
        multiplicity(G, 0, 1)
    monkeypatch.setattr(numspec, "_series", series(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ArithmeticError, match="not integral"):
        multiplicity(G, 0, 1)
    monkeypatch.setattr(numspec, "_series", series(-2, 0))
    with pytest.raises(ArithmeticError, match="negative"):
        multiplicity(G, 0, 1)


def test_traces_computed_once_per_element(catalog, monkeypatch):
    # traces come from each element's signed cycles, which determine B
    calls = Counter()

    def counting(cycles):
        calls[tuple(cycles)] += 1
        return cycle_charpoly(cycles)

    monkeypatch.setattr(group, "cycle_charpoly", counting)
    # from a cleared memo, fresh builds compute the traces once per distinct code
    group._code_invariants.cache_clear()
    want = set()
    for gid in ("2", "42", "60"):
        G = build_group(catalog.group(gid).generators, name=f"fresh {gid}")
        for p in range(5):
            for mu in range(6):
                multiplicity(G, p, mu)
        want |= {tuple(code_cycles(signed_code(g.B))) for g in G.holonomy}
    assert sorted(calls) == sorted(want)
    assert set(calls.values()) == {1}


def test_supersymmetry(catalog):
    # the alternating sum of p-form multiplicities vanishes for mu >= 1
    for entry in catalog:
        for mu in range(1, 26):
            alt = sum((-1) ** p * multiplicity(entry.group, p, mu)
                      for p in range(5))
            assert alt == 0, (entry.id, mu)


def test_zero_mode_multiplicities_are_betti(catalog):
    from flat4spec.group import betti

    for entry in catalog:
        for p in range(5):
            assert multiplicity(entry.group, p, 0) == betti(entry.group, p)


def test_poincare_duality(catalog):
    for entry in catalog:
        if not entry.orientable:
            continue
        for mu in range(0, 8):
            for p in range(5):
                assert multiplicity(entry.group, p, mu) == \
                    multiplicity(entry.group, 4 - p, mu), (entry.id, p, mu)


def test_form_degree_range(catalog):
    with pytest.raises(ValueError):
        multiplicity(catalog.group("1"), 5, 0)


def test_negative_shell_index(catalog):
    G = catalog.group("2")
    for call in (lambda: multiplicity(G, 0, -1), lambda: multiplicities(G, 0, -1),
                 lambda: e_term(G.holonomy[1], -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            call()


def test_heat_trace_numeric_is_weighted_sum(catalog):
    G = catalog.group("25")
    s = 0.1
    want = sum(multiplicity(G, 1, mu) * exp(-4 * pi * pi * mu * s)
               for mu in range(6))
    assert heat_trace_numeric(G, 1, s, 5) == pytest.approx(want, rel=1e-14)


def test_multiplicities_against_exact_polynomials(catalog):
    # spectral sums and exact theta polynomials agree to high accuracy
    from flat4spec.theta import heat_trace_poly

    s = 0.08
    for gid in ("2", "24", "29'", "47", "57", "60", "64", "67"):
        G = catalog.group(gid)
        for p in range(5):
            exact = heat_trace_poly(G, p).eval_numeric(s, terms=60)
            series = heat_trace_numeric(G, p, s, 40)
            assert abs(exact - series) < 1e-8, (gid, p)
