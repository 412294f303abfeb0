from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple

import pytest

from flat4spec import intlat, lengths
from flat4spec.group import is_abelian_holonomy
from flat4spec.intlat import (code_cycles, decompose_fixed, identity, signed_code,
                              smith_normal_form)
from flat4spec.lengths import (LengthError, _canonical_state, coset_geometry,
                               length_multiplicity, length_set, length_spectrum)

from oracle import (affine_inverse, affine_product, mat_mul, mat_sub, mat_vec,
                    signed_perm_matrices, transpose)

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


def test_multiplicity_rejects_nonpositive(catalog):
    with pytest.raises(ValueError):
        length_multiplicity(catalog.group("1"), 0)


def _conjugacy_oracle(G, max2, window=2):
    """Classes of G per squared length <= max2, by union-find over conjugation.

    The elements are (B, b + lambda) with lambda in [-window, window]^4, under
    the product (A, a)(B, b) = (A B, B^T a + b), and translations are kept as
    integers over their common denominator D.  The squared length of (B, c)
    is |p_B(c)|^2 for p_B(c) = (1/m) sum_{k<m} B^k c, m the order of B.  Two
    elements are joined when conjugation by a holonomy rep or by a lattice
    translation +-e_i maps one onto the other.
    """
    D = lcm(*(x.denominator for g in G.holonomy for x in g.b))
    length2 = {}
    for g in G.holonomy:
        powers = [identity(4)]
        while (nxt := mat_mul(powers[-1], g.B)) != identity(4):
            powers.append(nxt)
        P = tuple(tuple(sum(M[i][j] for M in powers) for j in range(4)) for i in range(4))
        for lam in product(range(-window, window + 1), repeat=4):
            c = tuple(int(D * (x + y)) for x, y in zip(g.b, lam))
            l2 = F(sum(x * x for x in mat_vec(P, c)), (len(powers) * D) ** 2)
            if 0 < l2 <= max2:
                length2[(g.B, c)] = l2
    parent = {x: x for x in length2}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    conjugators = [(g.B, tuple(int(D * x) for x in g.b)) for g in G.nontrivial()]
    conjugators += [(identity(4), tuple(s * D * x for x in e)) for e in identity(4) for s in (1, -1)]
    zero = (0,) * 4
    # h (B, c) h^{-1} = (M, A c + w) for h = (A, a) and (M, w) = h (B, 0) h^{-1}
    conjugations = {(g.B, h): affine_product(affine_product(h, (g.B, zero)),
                                             affine_inverse(h))
                    for g in G.holonomy for h in conjugators}
    for (B, c) in length2:
        for h in conjugators:
            M, w = conjugations[B, h]
            y = (M, tuple(p + q for p, q in zip(mat_vec(h[0], c), w)))
            if y in length2:
                parent[find((B, c))] = find(y)
    return dict(sorted(Counter(l2 for x, l2 in length2.items() if find(x) == x).items()))


@pytest.mark.parametrize("gid", ["54", "56", "60", "61", "62", "67", "2", "25", "33", "42"])
def test_class_counts_match_conjugacy_oracle(catalog, gid):
    # nonabelian holonomy is counted over each holonomy class's centralizer
    G = catalog.group(gid)
    want = _conjugacy_oracle(G, 1)
    assert want and length_spectrum(G, 1) == want
    for l2, n in want.items():
        assert length_multiplicity(G, l2) == n, l2


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


def test_length_set_matches_heat_trace_support(catalog):
    # squared lengths <= max2 are exactly the exponents sum (k+r)^2/d realized
    # by the monomial support of the 0-form heat trace
    from flat4spec.theta import heat_trace_poly

    max2 = F(4)
    for G in catalog.groups():
        gid = G.name
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


def test_equal_heat_trace_supports_give_equal_length_sets(catalog):
    # the theorem behind L_isospectral, checked for groups of any orders:
    # equal 0-form supports give equal length sets
    from flat4spec.theta import heat_trace_poly

    by_support = {}
    for G in catalog.groups():
        by_support.setdefault(heat_trace_poly(G, 0).support(), []).append(G)
    pairs = [(a, b) for same in by_support.values()
             for i, a in enumerate(same) for b in same[i + 1:]]
    assert (len(pairs), sum(a.order != b.order for a, b in pairs)) == (29, 6)
    for a, b in pairs:
        assert length_set(a, 6) == length_set(b, 6), (a.name, b.name)


def test_coset_geometry_components(catalog):
    g = catalog.group("2").generators[0]
    geo = coset_geometry(g)
    assert len(g.decomposition().components) == len(geo.ds) == len(geo.sD)
    # one state coordinate per signed cycle: Z for each fixed component,
    # Z/2 for each cycle with sign product -1
    assert len(geo.cycles) == len(geo.ds) + sum(1 for _, eps in geo.cycles if eps == -1)
    assert [len(orbit) for orbit, eps in geo.cycles if eps == 1] == list(geo.ds)


def test_cycle_state_matches_smith_coordinates():
    # Z^4 / (B^T - Id) Z^4 read off two ways: the per-cycle state, and the
    # coordinates (U lam)_i mod D_ii (kept whole where D_ii = 0) from the
    # Smith form U (B^T - Id) V = D; each must determine the other
    for B in signed_perm_matrices(4):
        U, D, _ = smith_normal_form(mat_sub(transpose(B), identity(4)))
        cycles = code_cycles(signed_code(B))
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


def test_one_cycle_walk_per_coset(catalog, monkeypatch):
    calls = Counter()
    walk = intlat.code_cycles

    def counting(code):
        calls[code] += 1
        return walk(code)

    # every signed-cycle walk goes through intlat.code_cycles; each holonomy
    # element's cycles were walked once, when its group was loaded, and the
    # cosets read them from the element
    monkeypatch.setattr(intlat, "code_cycles", counting)
    G = catalog.group("33")
    assert G.order == 8
    length_set(G, 4)
    length_spectrum(G, 4)
    assert not calls


@pytest.mark.parametrize("gid, order", [("2", 2), ("25", 4), ("33", 8)])
def test_one_signed_permutation_check_per_coset(catalog, monkeypatch, gid, order):
    calls = []
    check = intlat.signed_code

    def counting(M):
        calls.append(M)
        return check(M)

    # each holonomy matrix was checked once, when its group was loaded; the
    # cosets and the conjugation maps reuse the elements' codes
    monkeypatch.setattr(intlat, "signed_code", counting)
    G = catalog.group(gid)
    assert G.order == order
    length_set(G, 4)
    length_spectrum(G, 4)
    assert not calls


# -- Fraction oracle ---------------------------------------------------------
# A coset's geometry rebuilt from a bare (B, b), the squared-length
# enumeration on Fractions and the orbit walk on lattice vectors (generic
# matrix arithmetic) that the integer path replaced; kept to check it.


class _GeometryOracle(NamedTuple):
    B: tuple
    b: tuple
    units: tuple
    ds: tuple
    s: tuple       # raw offsets b.u_j as Fractions
    cycles: tuple


def _coset_geometry_oracle(B, b):
    """The coset B L_{b + Z^4} from decompose_fixed(B) and Fraction dot products."""
    b = tuple(F(x) for x in b)
    comps = decompose_fixed(B).components
    units = tuple(c.vector for c in comps)
    s = tuple(sum(x * u for x, u in zip(b, unit)) for unit in units)
    return _GeometryOracle(B, b, units, tuple(c.d for c in comps), s,
                           code_cycles(signed_code(B)))


def _component_scan(d, s, budget):
    """Yield (k, (k + s)^2 / d) for all integers k with the term <= budget."""
    if budget < 0:
        return
    center = -(s.numerator // s.denominator)  # ceil(-s)
    for start, step in ((center, 1), (center - 1, -1)):
        k = start
        while True:
            term = F(k + s) ** 2 / d
            if term > budget:
                break
            yield k, term
            k += step


def _solutions_oracle(geo, max2):
    sols = {}

    def recurse(j, acc, ks):
        if j == len(geo.units):
            if acc > 0:
                sols.setdefault(acc, []).append(ks)
            return
        for k, term in _component_scan(geo.ds[j], geo.s[j], max2 - acc):
            recurse(j + 1, acc + term, ks + (k,))

    recurse(0, F(0), ())
    return sols


def _conjugation_maps_oracle(geo, reps):
    maps = []
    for Bj, bj in reps:
        part1 = mat_vec(mat_sub(Bj, identity(4)), geo.b)
        part2 = mat_vec(Bj, tuple(x - y for x, y in zip(mat_vec(transpose(geo.B), bj), bj)))
        v = tuple(F(a + b) for a, b in zip(part1, part2))
        if any(x.denominator != 1 for x in v):
            raise LengthError("conjugation by a representative is not integral")
        maps.append((Bj, tuple(int(x) for x in v)))
    return maps


def _count_orbits_oracle(states, geo, maps):
    unseen = set(states)
    orbits = 0
    while unseen:
        frontier = [unseen.pop()]
        orbits += 1
        while frontier:
            # the state's vector puts each coordinate on its cycle's first axis
            lam = [0] * 4
            for (orbit, _), x in zip(geo.cycles, frontier.pop()):
                lam[orbit[0][0]] = x
            for Bj, v in maps:
                nxt = _canonical_state(geo.cycles,
                                       [x + y for x, y in zip(mat_vec(Bj, lam), v)])
                assert nxt in states
                if nxt in unseen:
                    unseen.remove(nxt)
                    frontier.append(nxt)
    return orbits


def _class_counts_oracle(G, max2):
    reps = [(g.B, g.b) for g in G.nontrivial()]
    counts = {}
    for g in G.holonomy:
        geo = _coset_geometry_oracle(g.B, g.b)
        maps = _conjugation_maps_oracle(geo, reps)
        for l2, sols in _solutions_oracle(geo, F(max2)).items():
            states = {state for ks in sols for state in lengths._states(geo, ks)}
            counts[l2] = counts.get(l2, 0) + _count_orbits_oracle(states, geo, maps)
    return dict(sorted(counts.items()))


ORACLE_BOUNDS = (F(1, 16), F(1, 2), F(1), F(7, 3), F(3), F(4), F(21, 2))


def test_solutions_match_fraction_oracle(catalog):
    for entry in catalog:
        G = entry.group
        wants = [{l2: sorted(ks) for l2, ks in
                  _solutions_oracle(_coset_geometry_oracle(g.B, g.b), max(ORACLE_BOUNDS)).items()}
                 for g in G.holonomy]
        for max2 in ORACLE_BOUNDS:
            for g, want in zip(G.holonomy, wants):
                got = lengths._solutions(coset_geometry(g), max2)
                assert {l2: sorted(ks) for l2, ks in got.items()} == \
                    {l2: ks for l2, ks in want.items() if l2 <= max2}, (entry.id, g.B, max2)
            assert length_set(G, max2) == {l2 for want in wants for l2 in want if l2 <= max2}, \
                (entry.id, max2)


def test_class_counts_match_orbit_walk_oracle(catalog):
    for entry in catalog:
        G = entry.group
        if not is_abelian_holonomy(G):
            continue
        if entry.id == "29'":
            for count in (_class_counts_oracle, length_spectrum):
                with pytest.raises(LengthError):
                    count(G, 4)
            continue
        want = _class_counts_oracle(G, 4)
        for max2 in (F(1, 4), F(1), F(3), F(4)):
            assert length_spectrum(G, max2) == \
                {l2: n for l2, n in want.items() if l2 <= max2}, (entry.id, max2)


def test_coset_geometry_matches_oracle(catalog):
    # the integer sums and translation read from each holonomy element agree
    # with the Fraction geometry rebuilt from its bare (B, b); D is the
    # group's closure denominator, the lcm of the generators' denominators
    for entry in catalog:
        D = lcm(*(x.denominator for h in entry.group.generators for x in h.b))
        for g in entry.group.holonomy:
            geo, want = coset_geometry(g), _coset_geometry_oracle(g.B, g.b)
            assert geo.D == D and all(0 <= x < D for x in geo.t), (entry.id, g.B)
            assert [F(x, geo.D) for x in geo.sD] == list(want.s), (entry.id, g.B)
            assert [F(x, geo.D) for x in geo.t] == list(want.b), (entry.id, g.B)
            # d_j is the length of the j-th cycle with sign product +1
            assert (geo.code, geo.ds, geo.cycles) == \
                (signed_code(g.B), want.ds, want.cycles), (entry.id, g.B)
