"""Reference implementations shared by the test modules.

Generic matrix, affine and Fraction arithmetic that the integer engine in
flat4spec replaced, kept to check it.  A reference implementation lives here
once two or more test modules use it; one that a single module uses stays in
that module.
"""
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Sequence

from flat4spec.intlat import IntMatrix, IntVector, decompose_fixed, identity, smith_normal_form
from flat4spec.theta import Monomial


def signed_perm_matrices(n: int) -> list[IntMatrix]:
    """All n x n signed permutation matrices, by permutation, then signs."""
    return [tuple(tuple(signs[i] if perm[i] == j else 0 for j in range(n)) for i in range(n))
            for perm in permutations(range(n)) for signs in product((1, -1), repeat=n)]


def diag(*entries) -> IntMatrix:
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


class ThetaError(ValueError):
    pass


def fold_offset(r) -> Fraction:
    f = Fraction(r)
    f = f - (f.numerator // f.denominator)
    return min(f, 1 - f)


def monomial(vars_with_exp) -> Monomial:
    """Canonical monomial from ((d, r), exponent) pairs, d in 1..4; offsets get folded."""
    acc: dict[tuple[int, Fraction], int] = {}
    for (d, r), e in vars_with_exp:
        if e == 0:
            continue
        if d not in (1, 2, 3, 4):
            raise ThetaError(f"unsupported theta dimension {d}")
        key = (d, fold_offset(r))
        acc[key] = acc.get(key, 0) + e
    return tuple(sorted(acc.items()))


def transpose(M: IntMatrix) -> IntMatrix:
    return tuple(zip(*M))


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def mat_vec(M: IntMatrix, v: Sequence) -> tuple:
    return tuple(sum(M[i][k] * v[k] for k in range(len(v))) for i in range(len(M)))


def mat_sub(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def det(M: IntMatrix) -> int:
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = tuple(tuple(row[k] for k in range(n) if k != j) for row in M[1:])
        total += (-1) ** j * M[0][j] * det(minor)
    return total


def lambda_p_matrix(B: IntMatrix, p: int) -> IntMatrix:
    """Matrix of B acting on p-forms in the wedge basis, via p x p minors.

    Its trace, the sum of the principal p x p minors, is tr_p(B).
    """
    idx = list(combinations(range(len(B)), p))
    return tuple(tuple(det(tuple(tuple(B[i][j] for j in J) for i in I)) if p else 1
                       for J in idx) for I in idx)


def affine_product(x, y) -> tuple:
    """(A, a) * (B, b) = (A B, B^T a + b) on matrices, translation not reduced."""
    (A, a), (B, b) = x, y
    return mat_mul(A, B), tuple(u + v for u, v in zip(mat_vec(transpose(B), a), b))


def affine_inverse(x) -> tuple:
    """(A, a)^-1 = (A^T, -A a), translation not reduced."""
    A, a = x
    return transpose(A), tuple(-u for u in mat_vec(A, a))


def kernel_basis(M: IntMatrix) -> tuple[IntVector, ...]:
    """Saturated basis of the integer kernel {v : M v = 0}."""
    U, D, V = smith_normal_form(M)
    cols = len(M[0])
    rank = sum(1 for i in range(min(len(M), cols)) if D[i][i] != 0)
    Vt = transpose(V)
    return tuple(Vt[j] for j in range(rank, cols))


def fixed_lattice_basis(B: IntMatrix) -> tuple[IntVector, ...]:
    """Saturated basis of the fixed lattice ker(B - Id), via Smith reduction."""
    return kernel_basis(mat_sub(B, identity(len(B))))


def raw_offsets_oracle(v: Sequence, dec) -> tuple[Fraction, ...]:
    """(v . u_i) mod 1 as Fraction dot products over all coordinates."""
    v = tuple(Fraction(x) for x in v)
    out = []
    for comp in dec.components:
        dot = sum(v[i] * comp.vector[i] for i in range(len(v)))
        out.append(dot - (dot.numerator // dot.denominator))
    return tuple(out)


def element_oracle(B: IntMatrix, b: Sequence) -> tuple:
    """The per-element invariants of (B, b) on Fractions, b taken mod 1.

    (b mod 1, unreduced sums b . u_i, raw offsets, folded offsets, theta
    monomial as sorted ((d, r), exponent) pairs, fixed-point free) from
    decompose_fixed(B), in any dimension.
    """
    b = tuple(Fraction(x) % 1 for x in b)
    dec = decompose_fixed(B)
    raw = raw_offsets_oracle(b, dec)
    folded = tuple((c.d, min(r, 1 - r)) for c, r in zip(dec.components, raw))
    return (b, tuple(sum(x * u for x, u in zip(b, c.vector)) for c in dec.components), raw,
            folded, tuple(sorted(Counter(folded).items())), any(raw))


def element_fields(g) -> tuple:
    """The fields an element keeps, as element_oracle states them.

    Also checks that b = t/D for the element's ints t in [0, D)^n.  The raw
    offsets are its kept sums s_j reduced: (s_j mod D) / D.
    """
    D, t = g._D, g._t
    assert all(0 <= x < D for x in t) and g.b == tuple(Fraction(x, D) for x in t), g
    return (g.b, tuple(Fraction(s, D) for s in g._sums),
            tuple(Fraction(s % D, D) for s in g._sums),
            g.translation_offsets(), g.theta_monomial(), g.is_fixed_point_free())
