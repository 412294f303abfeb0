from dataclasses import replace
from math import comb, exp, pi

import pytest

from flat4spec.group import BieberbachGroup
from flat4spec.numspec import (e_term, heat_trace_numeric, lattice_shell,
                               multiplicity)

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
        G = replace(torus)
        assert multiplicity(G, 0, 1) == 8
        del G
        G = BieberbachGroup(two.name, two.generators, two.holonomy, two.metadata)
        assert multiplicity(G, 0, 1) == 5


def test_e_term_torus_identity(catalog):
    g = catalog.group("1").holonomy[0]
    assert e_term(g, 2) == pytest.approx(24)


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
