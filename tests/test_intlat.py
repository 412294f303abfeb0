from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flat4spec.group import AffineIsometry
from flat4spec.intlat import (LatticeError, decompose_fixed, identity, signed_code,
                              smith_normal_form)

from linalg import (det, element_fields, element_oracle, fixed_lattice_basis, kernel_basis,
                    mat_mul, mat_sub, mat_vec, raw_offsets_oracle, transpose)

small_matrices = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
    min_size=3, max_size=3,
).map(lambda rows: tuple(tuple(r) for r in rows))

rect_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        ).map(lambda m: tuple(tuple(r) for r in m))
    )
)


@given(rect_matrices)
def test_smith_normal_form_properties(M):
    U, D, V = smith_normal_form(M)
    assert mat_mul(mat_mul(U, M), V) == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    rows, cols = len(M), len(M[0])
    diag = [D[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert D[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


@given(small_matrices)
def test_kernel_basis_spans_kernel(M):
    basis = kernel_basis(M)
    for v in basis:
        assert all(x == 0 for x in mat_vec(M, v))
    U, D, V = smith_normal_form(M)
    rank = sum(1 for i in range(3) if D[i][i] != 0)
    assert len(basis) == 3 - rank


def test_det_examples():
    assert det(identity(4)) == 1
    assert det(((2, 0), (0, 3))) == 6
    assert det(((0, 1), (1, 0))) == -1


# all 384 signed 4x4 permutation matrices
SIGNED_PERMS_4 = [
    tuple(tuple(signs[i] if perm[i] == j else 0 for j in range(4))
          for i in range(4))
    for perm in permutations(range(4))
    for signs in product((1, -1), repeat=4)
]


@pytest.mark.parametrize("B", SIGNED_PERMS_4)
def test_decompose_fixed_matches_kernel(B):
    dec = decompose_fixed(B)
    assert dec.rank == len(fixed_lattice_basis(B))
    for comp in dec.components:
        assert mat_vec(B, comp.vector) == comp.vector
        assert sum(x * x for x in comp.vector) == comp.d
    # components come ordered by their smallest support index
    firsts = [next(i for i, x in enumerate(c.vector) if x) for c in dec.components]
    assert firsts == sorted(firsts)


def test_decompose_fixed_rejects_general_matrices():
    with pytest.raises(LatticeError):
        decompose_fixed(((1, 1, 0, 0), (0, 1, 0, 0),
                         (0, 0, 1, 0), (0, 0, 0, 1)))


def test_project_fixed_folds_offsets():
    B = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    dec = decompose_fixed(B)
    assert [c.d for c in dec.components] == [1, 1, 2]
    v = (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4), Fraction(1, 2))
    g = AffineIsometry(B, v)
    assert element_fields(g)[2] == raw_offsets_oracle(v, dec) == \
        (Fraction(3, 4), Fraction(1, 2), Fraction(3, 4))
    # folding sends 3/4 to 1/4 and the pair sum 3/4 to 1/4
    assert g.translation_offsets() == \
        ((1, Fraction(1, 4)), (1, Fraction(1, 2)), (2, Fraction(1, 4)))


def test_volume_of_components():
    B = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0))
    dec = decompose_fixed(B)
    assert [c.d for c in dec.components] == [1, 3]
    assert float(dec.volume()) == pytest.approx(3 ** 0.5)


def test_fixed_lattice_is_saturated():
    # kernel basis of B - Id must generate all integral fixed vectors
    B = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
    basis = fixed_lattice_basis(B)
    assert len(basis) == 2
    U, D, V = smith_normal_form(mat_sub(B, identity(4)))
    assert all(D[i][i] in (0, 1, 2) for i in range(4))


# -- oracles for the one-pass and scaled-integer fast paths -----------------


def _is_signed_permutation_oracle(M):
    """The generic check: square, one +-1 per row and one nonzero per column."""
    n = len(M)
    if any(len(row) != n for row in M):
        return False
    for row in M:
        if sum(1 for x in row if x in (1, -1)) != 1 or any(x not in (-1, 0, 1) for x in row):
            return False
    return all(sum(1 for x in col if x != 0) == 1 for col in transpose(M))


def test_signed_permutation_check_accepts_all_384():
    assert len(set(SIGNED_PERMS_4)) == 384
    for B in SIGNED_PERMS_4:
        assert signed_code(B) is not None and _is_signed_permutation_oracle(B)


square_or_ragged = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=max(n - 1, 0), max_size=n + 1),
    min_size=n, max_size=n))
one_per_row = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, max(n - 1, 0)), st.sampled_from((-2, -1, 1, 2))),
    min_size=n, max_size=n).map(lambda picks: tuple(
        tuple(x if j == col else 0 for j in range(n)) for col, x in picks)))
near_permutations = st.sampled_from(SIGNED_PERMS_4).flatmap(lambda B: st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)),
    max_size=2).map(lambda edits: _edit(B, edits)))


def _edit(B, edits):
    rows = [list(r) for r in B]
    for i, j, x in edits:
        rows[i][j] = x
    return tuple(tuple(r) for r in rows)


@given(st.one_of(square_or_ragged, one_per_row, near_permutations))
def test_signed_permutation_check_matches_oracle(M):
    assert (signed_code(M) is not None) == _is_signed_permutation_oracle(M)


@pytest.mark.parametrize("den", (12, 5))
@settings(max_examples=settings().max_examples // 5)  # each example checks all 384 matrices
@given(data=st.data())
def test_raw_offsets_match_fraction_oracle(den, data):
    v = data.draw(st.tuples(*(st.integers(-2 * den, 2 * den).map(
        lambda k: Fraction(k, den)) for _ in range(4))))
    for B in SIGNED_PERMS_4:
        dec = decompose_fixed(B)
        want = raw_offsets_oracle(v, dec)
        g = AffineIsometry(B, v)
        assert element_fields(g)[2] == want, (B, v)
        assert g.translation_offsets() == \
            tuple((c.d, min(r, 1 - r)) for c, r in zip(dec.components, want)), (B, v)
        # an element made on its own: every field from its own scaled translation
        assert element_fields(g) == element_oracle(B, v), (B, v)
