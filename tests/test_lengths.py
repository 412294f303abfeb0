from fractions import Fraction
from itertools import permutations, product

import pytest

from flat4spec import lengths
from flat4spec.group import GroupError, is_abelian_holonomy
from flat4spec.intlat import (identity, mat_sub, mat_vec, signed_cycles,
                              smith_normal_form, transpose)
from flat4spec.lengths import (LengthError, _canonical_state, coset_geometry,
                               length_multiplicity, length_set, length_spectrum)

F = Fraction


def test_torus_lengths(catalog):
    G = catalog.group("1")
    assert length_set(G, 3) == {F(1), F(2), F(3)}
    # with trivial holonomy every lattice vector is its own conjugacy class
    assert length_spectrum(G, 3) == {F(1): 8, F(2): 24, F(3): 32}


def test_group_2_length_set(catalog):
    G = catalog.group("2")
    assert length_set(G, 1) == {F(1, 4), F(1)}
    assert length_set(G, F(9, 4)) == {F(1, 4), F(1), F(5, 4), F(2), F(9, 4)}


def test_quarter_length_multiplicities(catalog):
    assert length_multiplicity(catalog.group("25"), F(1, 4)) == 8
    assert length_multiplicity(catalog.group("27"), F(1, 4)) == 4


def test_multiplicity_rejects_nonpositive(catalog):
    with pytest.raises(ValueError):
        length_multiplicity(catalog.group("1"), 0)


def test_nonabelian_holonomy_is_refused(catalog):
    for gid in ("54", "60", "67"):
        with pytest.raises(GroupError):
            length_multiplicity(catalog.group(gid), 1)


def test_inconsistent_translations_are_refused(catalog):
    # 29' does not close over the lattice, so rep conjugation leaves Z^4;
    # this is refused even below its shortest length
    for max2 in (2, F(1, 100)):
        with pytest.raises(LengthError):
            length_spectrum(catalog.group("29'"), max2)


LENGTHS = (F(1, 4), F(1), F(2), F(3))


def test_multiplicity_matches_spectrum(catalog):
    for entry in catalog:
        G = entry.group
        if not is_abelian_holonomy(G):
            continue
        for l2 in LENGTHS:
            if entry.id == "29'":
                # refused at every length, by both
                for count in (length_multiplicity, length_spectrum):
                    with pytest.raises(LengthError):
                        count(G, l2)
                continue
            assert length_multiplicity(G, l2) == length_spectrum(G, l2).get(l2, 0), \
                (entry.id, l2)


def test_multiplicity_counts_orbits_only_at_its_length(catalog, monkeypatch):
    seen = set()
    count = lengths._count_orbits

    def spy(states, geo, maps):
        for state in states:
            # the state's +1 cycle coordinates are the k_j of its solution
            ks = [x for x, (_, eps) in zip(state, geo.cycles) if eps == 1]
            seen.add(sum((k + s) ** 2 / d for k, s, d in zip(ks, geo.s, geo.ds)))
        return count(states, geo, maps)

    monkeypatch.setattr(lengths, "_count_orbits", spy)
    for gid in ("1", "2", "25", "33"):
        for l2 in LENGTHS:
            found = length_multiplicity(catalog.group(gid), l2)
            assert seen == ({l2} if found else set()), (gid, l2)
            seen.clear()


def test_reps_order_invariance(catalog):
    G = catalog.group("25")
    reps = [(g.B, g.b) for g in G.nontrivial()]
    for l2 in (F(1, 4), F(1), F(2)):
        want = length_multiplicity(G, l2)
        assert length_multiplicity(G, l2, reps=list(reversed(reps))) == want


def test_reps_lattice_shift_invariance(catalog):
    # the multiplicity only depends on the cosets B L_{b + Z^4}
    import random

    rng = random.Random(7)
    for gid in ("2", "25", "33"):
        G = catalog.group(gid)
        reps = [(g.B, g.b) for g in G.nontrivial()]
        shifted = [
            (B, tuple(x + rng.randint(-2, 2) for x in b)) for B, b in reps
        ]
        for l2 in (F(1, 4), F(1), F(2)):
            assert length_multiplicity(G, l2, reps=shifted) == \
                length_multiplicity(G, l2), (gid, l2)


def test_length_set_matches_heat_trace_support(catalog):
    # squared lengths <= max2 are exactly the exponents sum (k+r)^2/d realized
    # by the monomial support of the 0-form heat trace
    from flat4spec.theta import heat_trace_poly

    max2 = F(3)
    for gid in ("2", "24", "25", "27", "29'", "47", "57", "64"):
        G = catalog.group(gid)
        support = heat_trace_poly(G, 0).support()
        values = set()
        for mono in support:
            def spread(vars_left, acc):
                if acc > max2:
                    return
                if not vars_left:
                    if acc > 0:
                        values.add(acc)
                    return
                ((d, r), e), rest = vars_left[0], vars_left[1:]
                expanded = rest if e == 1 else [((d, r), e - 1)] + list(rest)
                k = 0
                while True:
                    terms = [F(k + r) ** 2 / d, F(-k - 1 + r) ** 2 / d]
                    if min(terms) + acc > max2:
                        break
                    for t in terms:
                        spread(expanded, acc + t)
                    k += 1
            spread(list(mono), F(0))
        assert values == length_set(G, max2), gid


def test_coset_geometry_components(catalog):
    g = catalog.group("2").generators[0]
    geo = coset_geometry(g.B, g.b)
    assert len(geo.units) == len(geo.ds) == len(geo.s)
    # one state coordinate per signed cycle: Z for each fixed component,
    # Z/2 for each cycle with sign product -1
    assert len(geo.cycles) == len(geo.units) + sum(1 for _, eps in geo.cycles if eps == -1)
    assert [len(orbit) for orbit, eps in geo.cycles if eps == 1] == list(geo.ds)


def test_cycle_state_matches_smith_coordinates():
    # Z^4 / (B^T - Id) Z^4 read off two ways: the per-cycle state, and the
    # coordinates (U lam)_i mod D_ii (kept whole where D_ii = 0) from the
    # Smith form U (B^T - Id) V = D; each must determine the other
    for perm in permutations(range(4)):
        for signs in product((1, -1), repeat=4):
            B = tuple(tuple(signs[i] if perm[i] == j else 0 for j in range(4))
                      for i in range(4))
            U, D, _ = smith_normal_form(mat_sub(transpose(B), identity(4)))
            cycles = signed_cycles(B)
            pairs = set()
            for lam in product(range(-2, 3), repeat=4):
                coords = tuple(x % D[i][i] if D[i][i] else x
                               for i, x in enumerate(mat_vec(U, lam)))
                pairs.add((_canonical_state(cycles, lam), coords))
            states = {s for s, _ in pairs}
            assert len(states) == len({c for _, c in pairs}) == len(pairs), B
            # the Smith form has a 0 per +1 cycle and a 2 per -1 cycle
            n_twisted = sum(1 for _, eps in cycles if eps == -1)
            assert sorted(D[i][i] for i in range(4) if D[i][i] != 1) == \
                [0] * (len(cycles) - n_twisted) + [2] * n_twisted, B
