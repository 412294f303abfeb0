from itertools import product
from math import comb

import pytest

from flat4spec.intlat import identity
from flat4spec.kraw import charpoly_coeffs, krawtchouk, trace_p

from oracle import det, diag, lambda_p_matrix, mat_sub, signed_perm_matrices


# the 25 values K_p^4(j) for p, j in 0..4, rows indexed by j
KRAW4 = {
    0: (1, 4, 6, 4, 1),
    1: (1, 2, 0, -2, -1),
    2: (1, 0, -2, 0, 1),
    3: (1, -2, 0, 2, -1),
    4: (1, -4, 6, -4, 1),
}


def test_krawtchouk_table():
    for j, row in KRAW4.items():
        assert tuple(krawtchouk(4, p, j) for p in range(5)) == row


def test_krawtchouk_range_check():
    with pytest.raises(ValueError):
        krawtchouk(4, 5, 0)
    with pytest.raises(ValueError):
        krawtchouk(4, 0, -1)


def test_generating_function():
    # sum_p K_p^n(j) t^p = (1 + t)^(n-j) (1 - t)^j, checked at small integers
    for n in range(1, 9):
        for j in range(n + 1):
            for t in (-2, -1, 0, 1, 2, 3):
                lhs = sum(krawtchouk(n, p, j) * t ** p for p in range(n + 1))
                assert lhs == (1 + t) ** (n - j) * (1 - t) ** j


def test_symmetry_identities():
    # K_k^n(j) = (-1)^j K_{n-k}^n(j) = (-1)^k K_k^n(n-j) for 1 <= k, j <= n <= 8
    for n in range(1, 9):
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                v = krawtchouk(n, k, j)
                assert v == (-1) ** j * krawtchouk(n, n - k, j)
                assert v == (-1) ** k * krawtchouk(n, k, n - j)


def test_reciprocity_identity():
    # binom(n,j) K_k^n(j) = binom(n,k) K_j^n(k)
    for n in range(1, 9):
        for k in range(n + 1):
            for j in range(n + 1):
                assert comb(n, j) * krawtchouk(n, k, j) == \
                    comb(n, k) * krawtchouk(n, j, k)


def test_middle_vanishing():
    # n even: K_{n/2}^n(j) = 0 for odd j, and K_k^n(n/2) = 0 for odd k
    for n in (2, 4, 6, 8):
        for j in range(1, n + 1, 2):
            assert krawtchouk(n, n // 2, j) == 0
            assert krawtchouk(n, j, n // 2) == 0


def test_diagonal_traces_are_krawtchouk():
    for signs in product((1, -1), repeat=4):
        j = signs.count(-1)
        B = diag(*signs)
        assert charpoly_coeffs(B) == tuple(krawtchouk(4, p, j) for p in range(5))


def test_trace_p_matches_minor_sums():
    # tr_p(B) is the sum of the principal p x p minors of B
    for B in signed_perm_matrices(4):
        for p in range(5):
            L = lambda_p_matrix(B, p)
            assert trace_p(B, p) == sum(L[i][i] for i in range(len(L))), (B, p)


def test_alternating_sum_is_det_of_difference():
    # sum_p (-1)^p tr_p(B) = det(Id - B)
    for B in signed_perm_matrices(4):
        alt = sum((-1) ** p * trace_p(B, p) for p in range(5))
        assert alt == det(mat_sub(identity(4), B)), B


def test_special_rows():
    J = ((0, 1), (-1, 0))
    # one rotation plane, two fixed axes
    B = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert charpoly_coeffs(B) == (1, 2, 2, 2, 1)
    # one rotation plane, one fixed and one reflected axis
    B = ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    assert charpoly_coeffs(B) == (1, 0, 0, 0, -1)
    # 3-cycle and a fixed axis (order 3)
    B = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0))
    assert charpoly_coeffs(B) == (1, 1, 0, 1, 1)
    # negated 3-cycle and a fixed axis (order 6)
    B = ((1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1), (0, -1, 0, 0))
    assert charpoly_coeffs(B) == (1, 1, 0, -1, -1)
