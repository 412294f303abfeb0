import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flat4spec import group, intlat, kraw
from flat4spec.group import (MAX_HOLONOMY_ORDER, AffineIsometry, BieberbachGroup,
                             GroupError, betti, build_group, is_abelian_holonomy,
                             is_diagonal_type, is_orientable, sunada_numbers,
                             sunada_tuple)
from flat4spec.intlat import identity
from flat4spec.qfield import QuadNumber
from flat4spec.theta import heat_trace_poly

from oracle import (affine_inverse, affine_product, det, diag, element_fields, element_oracle,
                    kernel_basis, lambda_p_matrix, mat_sub, mat_vec, signed_perm_matrices)

ALL_SIGNED_PERMS = signed_perm_matrices(4)
quarters = st.fractions(min_value=0, max_value=1, max_denominator=4)
signed_perms = st.sampled_from(ALL_SIGNED_PERMS)
isometries = st.builds(
    AffineIsometry,
    signed_perms,
    st.tuples(quarters, quarters, quarters, quarters),
)
FOUR_CYCLE = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))


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
        AffineIsometry([[1, 1, 0, 0], [0, 1, 0, 0],
                        [0, 0, 1, 0], [0, 0, 0, 1]], [0, 0, 0, 0])


def test_constructor_refuses_inexact_entries():
    half = (0, 0, 0, "1/2")
    with pytest.raises(GroupError, match="matrix entries must be integers"):
        AffineIsometry(((1.5, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1.9)), half)
    # integral values of another type are read as ints
    g = AffineIsometry(((1.0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), half)
    assert g == AffineIsometry(identity(4), half)
    assert all(type(x) is int for row in g.B for x in row)
    # 0.1 is a binary fraction near 1/10, not 1/10: a float is refused
    with pytest.raises(GroupError):
        AffineIsometry(identity(4), (0.1, 0, 0, 0))


twelfths = st.fractions(min_value=0, max_value=1, max_denominator=12)


@given(st.builds(AffineIsometry, signed_perms, st.tuples(twelfths, twelfths, twelfths, twelfths)),
       st.integers(2, 12))
def test_element_does_not_depend_on_its_denominator(g, k):
    # the same (B, b) kept as ints over k*D
    h = AffineIsometry._from_code(g._code, tuple(k * x for x in g._t), k * g._D)
    assert h == g and hash(h) == hash(g)
    assert (h.b, h.translation_offsets(), h.theta_monomial(), h.is_fixed_point_free()) == \
        (g.b, g.translation_offsets(), g.theta_monomial(), g.is_fixed_point_free())


def test_trace_table_of_elements_with_mixed_denominators(catalog):
    # rebuilt by hand, each element keeps the D of its own b: the identity
    # D = 1, the others 1, 2, 3, 4 or 6, so every group but the torus mixes them
    for entry in catalog:
        G = entry.group
        H = BieberbachGroup(G.name, G.generators,
                            tuple(AffineIsometry(h.B, h.b) for h in G.holonomy))
        assert H == G
        assert H.trace_table == G.trace_table, entry.id


def test_translation_is_normalized():
    g = AffineIsometry(identity(4), [Fraction(5, 4), Fraction(-1, 2), 3, 0])
    assert g.b == (Fraction(1, 4), Fraction(1, 2), 0, 0)


def test_torsion_is_rejected():
    # a point reflection with no translation fixes the origin, and offsets on
    # the rotated part alone, or integral ones, do not remove the fixed point
    for b in ([0, 0, 0, 0], [Fraction(1, 2), 0, 0, 0], [0, 3, 0, 0]):
        gens = [AffineIsometry(diag(-1, 1, 1, 1), b)]
        with pytest.raises(GroupError, match="torsion"):
            build_group(gens)
        assert _closure(gens) == _closure_oracle(gens) == (
            "not torsion-free: element with matrix ((-1, 0, 0, 0), (0, 1, 0, 0), "
            "(0, 0, 1, 0), (0, 0, 0, 1)) fixes a point")


@pytest.mark.parametrize("n", (3, 4))
def test_pure_translation_is_fixed_point_free(n):
    # a nonintegral translation moves every point, in any dimension; an
    # integral one is the identity mod Z^n and fixes every point
    half = (Fraction(1, 2),) + (Fraction(0),) * (n - 1)
    g = AffineIsometry(identity(n), half)
    assert g.is_fixed_point_free()
    assert element_fields(g) == element_oracle(identity(n), half)
    assert not AffineIsometry(identity(n), (1,) + (0,) * (n - 1)).is_fixed_point_free()
    assert not AffineIsometry.identity(n).is_fixed_point_free()


@st.composite
def shaped_elements(draw):
    """An n x n signed permutation, n in 1..5, and 0..6 translation entries (often n)."""
    n = draw(st.integers(1, 5))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    size = draw(st.just(n) | st.integers(0, 6))
    b = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=12),
                      min_size=size, max_size=size))
    return tuple(tuple(signs[i] if perm[i] == j else 0 for j in range(n)) for i in range(n)), b


@given(shaped_elements())
def test_element_shapes_match_oracle(element):
    # refused exactly when b has not one entry per row; complete when made otherwise
    B, b = element
    n = len(B)
    if len(b) != n:
        with pytest.raises(GroupError, match=rf"^a {n}x{n} matrix needs {n} translation "
                                             rf"entries, not {len(b)}$"):
            AffineIsometry(B, b)
    else:
        assert element_fields(AffineIsometry(B, b)) == element_oracle(B, b)


def test_closure_bound():
    # B4 has order 384 > MAX_HOLONOMY_ORDER
    gens = [AffineIsometry(FOUR_CYCLE, [0, 0, 0, 0]),
            AffineIsometry(diag(-1, 1, 1, 1), [0, 0, 0, 0])]
    with pytest.raises(GroupError, match="closure"):
        build_group(gens)
    assert _closure(gens) == _closure_oracle(gens) == "holonomy closure exceeded bound 48"


def _generic_product(x, y):
    """(A, a) * (B, b) = (A B, B^T a + b mod 1) with generic matrix arithmetic."""
    AB, c = affine_product(x, y)
    return AB, tuple(u % 1 for u in c)


def test_product_matches_generic_formula():
    rng = random.Random(384)
    rights = (identity(4), diag(-1, 1, 1, -1), FOUR_CYCLE,
              ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)))

    def translation():
        return tuple(Fraction(rng.randrange(-30, 30), rng.choice((1, 2, 3, 5, 8, 12)))
                     for _ in range(4))

    assert len(set(ALL_SIGNED_PERMS)) == 384
    for A in ALL_SIGNED_PERMS:
        for B in rights:
            a, b = translation(), translation()
            got = AffineIsometry(A, a) * AffineIsometry(B, b)
            assert (got.B, got.b) == _generic_product((A, a), (B, b)), (A, a, B, b)


def test_holonomy_order_matches_repeated_products():
    # the least k >= 1 with code^k = identity, by repeated code products
    unit = intlat.signed_code(identity(4))
    for B in ALL_SIGNED_PERMS:
        code = intlat.signed_code(B)
        power, k = code, 1
        while power != unit:
            power, k = intlat.code_product(power, code), k + 1
        assert AffineIsometry(B, (0,) * 4).holonomy_order() == k, B


def test_code_arithmetic_matches_matrix_oracle(catalog):
    # products, inverses and the action on points run on signed-permutation
    # codes and integer translations; check them, and every field of the
    # result, on every pair of holonomy elements of every group
    products = inverses = 0
    for entry in catalog:
        for g in entry.group.holonomy:
            inv = g.inverse()
            A, a = affine_inverse((g.B, g.b))
            assert (inv.B, inv.b) == (A, tuple(x % 1 for x in a))
            assert element_fields(inv) == element_oracle(inv.B, inv.b), (entry.id, g)
            inverses += 1
            for h in entry.group.holonomy:
                got = g * h
                assert (got.B, got.b) == _generic_product((g.B, g.b), (h.B, h.b)), (g, h)
                assert element_fields(got) == element_oracle(got.B, got.b), (entry.id, g, h)
                assert g.apply(h.b) == mat_vec(g.B, tuple(x + y for x, y in zip(h.b, g.b)))
                products += 1
    assert products == sum(entry.group.order ** 2 for entry in catalog) == 2011
    assert inverses == 359


@given(data=st.data())
def test_products_and_inverses_match_oracle_on_random_generators(data):
    # each generator has its own denominator D <= 12, so a product of two
    # scales both translations to the lcm of their D
    def translation(den):
        return st.tuples(*(st.integers(-2 * den, 2 * den).map(lambda k: Fraction(k, den))
                           for _ in range(4)))

    gens = data.draw(st.lists(st.builds(AffineIsometry, signed_perms,
                                        st.integers(1, 12).flatmap(translation)),
                              min_size=1, max_size=3))
    for g in gens:
        assert element_fields(g) == element_oracle(g.B, g.b), g
        inv = g.inverse()
        assert element_fields(inv) == element_oracle(*affine_inverse((g.B, g.b))), g
        for h in gens:
            assert element_fields(g * h) == \
                element_oracle(*_generic_product((g.B, g.b), (h.B, h.b))), (g, h)


def test_products_and_inverses_make_no_matrix_check(catalog, monkeypatch):
    # their codes come from the product rule, so no matrix is checked again
    calls = []
    check = intlat.signed_code

    def counting(M):
        calls.append(M)
        return check(M)

    monkeypatch.setattr(intlat, "signed_code", counting)
    products = inverses = 0
    for entry in catalog:
        for g in entry.group.holonomy:
            g.inverse()
            inverses += 1
            for h in entry.group.holonomy:
                g * h
                products += 1
    assert (products, inverses, len(calls)) == (2011, 359, 0)


def _closure_oracle(generators, two_sided=True):
    """build_group's breadth-first closure, with generic Fraction arithmetic.

    Returns the holonomy as (B, b) pairs (identity first, then sorted) and
    the translation_consistent flag, or the GroupError message.  With
    two_sided=False it multiplies by the generators on the right only.  The
    dimension n is that of the generators, 4 if there are none.
    """
    n = len(generators[0].B) if generators else 4
    ident = (identity(n), (Fraction(0),) * n)
    gens = [(g.B, g.b) for g in generators]
    elements = {ident[0]: ident}
    consistent = True
    frontier = [ident]
    while frontier:
        cur = frontier.pop(0)
        for g in gens:
            products = (_generic_product(cur, g), _generic_product(g, cur))
            for nxt in products if two_sided else products[:1]:
                if nxt[0] not in elements:
                    if len(elements) >= MAX_HOLONOMY_ORDER:
                        return f"holonomy closure exceeded bound {MAX_HOLONOMY_ORDER}"
                    elements[nxt[0]] = nxt
                    frontier.append(nxt)
                elif elements[nxt[0]][1] != nxt[1]:
                    consistent = False
    rest = sorted(x for x in elements.values() if x != ident)
    for B, b in rest:
        if not element_oracle(B, b)[-1]:
            return f"not torsion-free: element with matrix {B} fixes a point"
    return (ident, *rest), consistent


def _closure(generators):
    try:
        G = build_group(generators)
    except GroupError as exc:
        return str(exc)
    return tuple((g.B, g.b) for g in G.holonomy), G.translation_consistent


def test_closure_matches_oracle_on_catalog(catalog):
    for entry in catalog:
        got = _closure(entry.group.generators)
        assert got == _closure_oracle(entry.group.generators), entry.id
        assert got == (tuple((g.B, g.b) for g in entry.group.holonomy),
                       entry.id != "29'"), entry.id


def test_element_fields_match_fraction_oracle(catalog):
    elements = 0
    for entry in catalog:
        for g in entry.group.holonomy:
            assert element_fields(g) == element_oracle(g.B, g.b), (entry.id, g)
            elements += 1
    assert elements == 359


@pytest.mark.parametrize("den", (12, 5))
@given(data=st.data())
def test_closure_matches_oracle_on_random_generators(den, data):
    n = data.draw(st.integers(1, 4))
    translations = st.tuples(*(st.integers(0, den - 1).map(lambda k: Fraction(k, den))
                               for _ in range(n)))
    perms = st.sampled_from(signed_perm_matrices(n))
    gens = data.draw(st.lists(st.builds(AffineIsometry, perms, translations),
                              min_size=1, max_size=3))
    assert _closure(gens) == _closure_oracle(gens)
    try:
        G = build_group(gens)
    except GroupError:
        return
    for g in G.holonomy:
        assert element_fields(g) == element_oracle(g.B, g.b), g


# Generator sets, as (signed-permutation code, 5*b) pairs, on which a closure
# that multiplies by the generators on the right only keeps other first
# representatives than the two-sided one (the first three) or reaches
# another torsion verdict (the last three); from a seeded random sweep of
# one to three generators with translations in (1/5)Z^4.
ONE_SIDED_DIFFERS = [
    [((3, -4, -2, 1), (4, 4, 4, 0)), ((-4, -1, 3, 2), (2, 3, 1, 1))],
    [((2, -4, 3, -1), (2, 0, 4, 3)), ((-4, -1, 3, -2), (2, 2, 1, 2))],
    [((1, 3, -4, -2), (1, 0, 3, 3)), ((-1, 4, 2, 3), (0, 3, 4, 1))],
    # torsion-free two-sided, a fixed point one-sided
    [((2, 4, 1, 3), (1, 0, 1, 2)), ((2, -3, 4, -1), (4, 1, 0, 2))],
    # torsion either way, first found at different matrices
    [((-2, -1, -3, -4), (0, 2, 1, 3)), ((-4, 2, -3, 1), (1, 2, 4, 2))],
    [((4, -1, 2, -3), (0, 0, 3, 3)), ((3, 4, 2, 1), (0, 4, 2, 3))],
]


@pytest.mark.parametrize("pairs", ONE_SIDED_DIFFERS)
def test_closure_multiplies_on_both_sides(pairs):
    gens = [AffineIsometry(intlat.code_matrix(code), [Fraction(k, 5) for k in t])
            for code, t in pairs]
    assert _closure_oracle(gens, two_sided=False) != _closure_oracle(gens) == _closure(gens)


def test_generators_of_mixed_dimensions_are_refused():
    gens = [AffineIsometry.identity(3), AffineIsometry(identity(4), [Fraction(1, 2), 0, 0, 0])]
    with pytest.raises(GroupError, match=r"^generators of mixed dimensions \[3, 4\]$"):
        build_group(gens)


@pytest.mark.parametrize("gens, order", [
    ([], 1),  # the trivial group: lcm() is 1; no generators give the 4-torus
    ([AffineIsometry(identity(4), [1, 0, -2, 0])], 1),
    ([AffineIsometry(diag(1, 1, 1, -1), [Fraction(1, 2), 0, 0, 0]),
      AffineIsometry(identity(4), [0, 3, 0, 0])], 2),
    ([AffineIsometry(diag(1, 1, 1, -1), [Fraction(3, 2), 0, 0, 0])], 2),
])
def test_closure_with_trivial_or_integral_translations(gens, order):
    holonomy, consistent = got = _closure(gens)
    assert got == _closure_oracle(gens)
    assert len(holonomy) == order and consistent
    assert holonomy[0] == (identity(4), (0, 0, 0, 0))


def test_closure_with_a_large_denominator():
    # the translation table holds the residues in use, not all k/D for k < D
    D = 100003
    gens = [AffineIsometry(diag(1, 1, 1, -1), [Fraction(1, 2), 0, 0, Fraction(1, D)])]
    tracemalloc.start()
    try:
        holonomy, consistent = _closure(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    assert holonomy[1][1] == (Fraction(1, 2), 0, 0, Fraction(1, D)) and consistent
    assert (holonomy, consistent) == _closure_oracle(gens)


def test_klein_type_group():
    G = build_group([AffineIsometry(diag(1, 1, 1, -1), [Fraction(1, 2), 0, 0, 0])],
                    name="k")
    assert G.order == 2
    assert G.holonomy[0] == AffineIsometry.identity(4)
    # the hash is by value: a separately built equal group matches
    again = build_group([AffineIsometry(diag(1, 1, 1, -1), [Fraction(1, 2), 0, 0, 0])],
                        name=G.name)
    assert again is not G and again == G and hash(again) == hash(G)
    assert not is_orientable(G)
    assert is_diagonal_type(G) and is_abelian_holonomy(G)
    assert [betti(G, p) for p in range(5)] == [1, 3, 3, 1, 0]


def invariant_dimension(mats, p):
    """dim of the simultaneous fixed space of the p-form action."""
    stacked = []
    for B in mats:
        L = lambda_p_matrix(B, p)
        stacked.extend(mat_sub(L, identity(len(L))))
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


def test_orientability_matches_determinants(catalog):
    # is_orientable reads det B = tr_4(B); the cofactor det is the oracle
    for entry in catalog:
        G = entry.group
        assert is_orientable(G) == all(det(g.B) == 1 for g in G.holonomy), entry.id


def test_one_cycle_walk_per_element(catalog, monkeypatch):
    calls = Counter()
    walk = intlat.code_cycles

    def counting(code):
        calls[code] += 1
        return walk(code)

    # the walk behind every signed-cycle invariant; intlat.decompose_fixed and
    # kraw.charpoly_coeffs call it too, so a second walk anywhere is counted
    monkeypatch.setattr(intlat, "code_cycles", counting)
    # from a cleared memo, fresh builds of three groups walk each distinct
    # code once between them; the identity, at least, is shared
    group._code_invariants.cache_clear()
    codes, uncached = set(), Counter()
    for gid in ("2", "42", "60"):
        G = build_group(catalog.group(gid).generators, name=f"fresh {gid}")
        for p in range(5):
            betti(G, p)
            heat_trace_poly(G, p)
            kraw.charpoly_coeffs(G.holonomy[-1].B)
        is_orientable(G)
        for g in G.holonomy:
            g.translation_offsets()
        codes |= {intlat.signed_code(g.B) for g in G.holonomy}
        uncached[intlat.signed_code(G.holonomy[-1].B)] += 5
    assert calls == Counter(codes) + uncached
    assert len(codes) < sum(catalog.group(gid).order for gid in ("2", "42", "60"))


def test_translation_consistency_flags(catalog):
    for entry in catalog:
        flag = entry.group.translation_consistent
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
        # keys d = 1..4; d = 4 counts 0, since only the identity fixes all of Z^4
        assert counts.keys() == {(d, t) for d in range(1, 5) for t in range(d + 1)}
        assert all(counts[4, t] == 0 for t in range(5)), entry.id
        assert sum(counts.values()) == G.order - 1, entry.id
        assert sum(sunada_tuple(G)) <= G.order - 1


def test_sunada_numbers_in_any_dimension():
    # (d, t) runs over d in 1..n; the tuple is the paper's six counts, n = 4 only
    five_torus = build_group([AffineIsometry.identity(5)])
    assert sunada_numbers(five_torus) == {(d, t): 0 for d in range(1, 6) for t in range(d + 1)}
    G = build_group([AffineIsometry(diag(1, 1, 1, 1, 1, -1), (Fraction(1, 2), 0, 0, 0, 0, 0))])
    counts = sunada_numbers(G)
    assert counts.keys() == {(d, t) for d in range(1, 7) for t in range(d + 1)}
    assert {k: c for k, c in counts.items() if c} == {(5, 1): 1}
    klein = build_group([AffineIsometry(((1, 0), (0, -1)), (Fraction(1, 2), 0))])
    with pytest.raises(GroupError, match="n = 4"):
        sunada_tuple(klein)


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


def test_volume_uses_component_norms(catalog):
    g = AffineIsometry(((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0)),
                       [Fraction(1, 3), 0, 0, 0])
    dec = g.decomposition()
    assert float(dec.volume()) == pytest.approx(3 ** 0.5)
    assert g.translation_offsets() == ((1, Fraction(1, 3)), (3, Fraction(0)))
    # the volume sqrt(prod d) is the product of the component norms sqrt(d)
    for entry in catalog:
        for h in entry.group.holonomy:
            dec, want = h.decomposition(), QuadNumber(1)
            for comp in dec.components:
                want = want * QuadNumber.sqrt_int(comp.d)
            assert dec.volume() == want, (entry.id, h.B)
