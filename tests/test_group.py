from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flat4spec.group import (AffineIsometry, GroupError, betti, build_group,
                             is_abelian_holonomy, is_diagonal_type,
                             is_orientable, sunada_numbers, sunada_tuple)
from flat4spec.intlat import det, identity, kernel_basis, mat_sub

quarters = st.fractions(min_value=0, max_value=1, max_denominator=4)
signed_perms = st.builds(
    lambda perm, signs: tuple(
        tuple(signs[i] if perm[i] == j else 0 for j in range(4))
        for i in range(4)
    ),
    st.permutations(range(4)),
    st.tuples(*(st.sampled_from((1, -1)) for _ in range(4))),
)
isometries = st.builds(
    AffineIsometry,
    signed_perms,
    st.tuples(quarters, quarters, quarters, quarters),
)


def iso(rows, b):
    return AffineIsometry.make(rows, b)


def diag(*entries):
    return tuple(tuple(entries[i] if i == j else 0 for j in range(4))
                 for i in range(4))


@given(isometries, isometries, isometries)
def test_composition_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(isometries)
def test_inverse_and_identity(g):
    e = AffineIsometry.identity(4)
    assert g * e == g and e * g == g
    assert g * g.inverse() == e
    assert g.inverse() * g == e


@given(isometries, st.tuples(quarters, quarters, quarters, quarters))
def test_apply_matches_composition_with_translations(g, x):
    # gamma acts by x -> B x + B b; composing with the pure translation L_x
    # must move the origin to gamma(x)
    lx = AffineIsometry(identity(4), x)
    moved = (g * lx).apply((0, 0, 0, 0))
    direct = g.apply(x)
    # translation parts are normalized mod Z^4, so compare modulo the lattice
    assert all((a - b).denominator == 1 for a, b in zip(moved, direct))


def test_matrix_part_must_be_orthogonal():
    with pytest.raises(GroupError):
        AffineIsometry.make([[1, 1, 0, 0], [0, 1, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]], [0, 0, 0, 0])


def test_translation_is_normalized():
    g = iso(identity(4), [Fraction(5, 4), Fraction(-1, 2), 3, 0])
    assert g.b == (Fraction(1, 4), Fraction(1, 2), 0, 0)


def test_torsion_is_rejected():
    # a point reflection with no translation fixes the origin
    with pytest.raises(GroupError, match="torsion"):
        build_group([iso(diag(-1, 1, 1, 1), [0, 0, 0, 0])])
    # offsets on the rotated part alone do not remove the fixed point
    with pytest.raises(GroupError, match="torsion"):
        build_group([iso(diag(-1, 1, 1, 1), [Fraction(1, 2), 0, 0, 0])])


def test_closure_bound():
    four_cycle = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))
    with pytest.raises(GroupError, match="closure"):
        build_group([iso(four_cycle, [0, 0, 0, 0]),
                     iso(diag(-1, 1, 1, 1), [0, 0, 0, 0])])


def test_klein_type_group():
    G = build_group([iso(diag(1, 1, 1, -1), [Fraction(1, 2), 0, 0, 0])],
                    name="k")
    assert G.order == 2
    assert G.holonomy[0] == AffineIsometry.identity(4)
    # the cached hash is by value: a separately built equal group matches
    again = build_group([iso(diag(1, 1, 1, -1), [Fraction(1, 2), 0, 0, 0])],
                        name=G.name)
    assert again is not G and again == G and hash(again) == hash(G)
    assert not is_orientable(G)
    assert is_diagonal_type(G) and is_abelian_holonomy(G)
    assert [betti(G, p) for p in range(5)] == [1, 3, 3, 1, 0]


def lambda_p_matrix(B, p):
    """Matrix of B acting on p-forms in the wedge basis, via p x p minors."""
    idx = list(combinations(range(4), p))
    rows = []
    for I in idx:
        row = []
        for J in idx:
            sub = tuple(tuple(B[i][j] for j in J) for i in I)
            row.append(det(sub) if p else 1)
        rows.append(tuple(row))
    return tuple(rows)


def invariant_dimension(mats, p):
    """dim of the simultaneous fixed space of the p-form action."""
    size = len(list(combinations(range(4), p)))
    stacked = []
    for B in mats:
        stacked.extend(mat_sub(lambda_p_matrix(B, p), identity(size)))
    return len(kernel_basis(tuple(stacked)))


@pytest.mark.parametrize("p", range(5))
def test_betti_equals_invariant_form_dimension(catalog, p):
    for entry in catalog:
        G = entry.group
        mats = [g.B for g in G.holonomy]
        assert betti(G, p) == invariant_dimension(mats, p), entry.id


def test_betti_duality_and_catalog_values(catalog):
    for entry in catalog:
        G = entry.group
        assert betti(G, 0) == 1
        assert (betti(G, 4) == 1) == is_orientable(G)
        assert entry.betti == (betti(G, 1), betti(G, 2))


def test_translation_consistency_flags(catalog):
    for entry in catalog:
        flag = entry.group.metadata["translation_consistent"]
        assert flag == (entry.id != "29'"), entry.id


def test_sunada_needs_diagonal_type(catalog):
    G = catalog.group("60")
    assert not is_diagonal_type(G)
    with pytest.raises(GroupError):
        sunada_numbers(G)


def test_sunada_counts_add_up(catalog):
    for entry in catalog:
        if not entry.diagonal:
            continue
        G = entry.group
        counts = sunada_numbers(G)
        assert sum(counts.values()) == G.order - 1, entry.id
        assert sum(sunada_tuple(G)) <= G.order - 1


def test_sunada_example(catalog):
    # both generators of group 25 translate along their full fixed axes
    assert sunada_tuple(catalog.group("25")) == (0, 2, 1, 0, 0, 0)


def test_holonomy_orders(catalog):
    orders = {entry.id: entry.group.order for entry in catalog}
    assert orders["1"] == 1
    assert orders["2"] == 2
    assert orders["24"] == 4
    assert orders["47"] == 3
    assert orders["64"] == 6
    assert orders["57"] == 8
    assert max(orders.values()) == 8


def test_volume_uses_component_norms():
    g = iso(((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0)),
            [Fraction(1, 3), 0, 0, 0])
    dec = g.decomposition()
    assert float(dec.volume()) == pytest.approx(3 ** 0.5)
    assert g.translation_offsets() == ((1, Fraction(1, 3)), (3, Fraction(0)))
