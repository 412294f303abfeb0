"""Generic matrix and Fraction arithmetic: oracles for the integer engine in flat4spec."""
from fractions import Fraction
from math import lcm
from typing import Sequence

from flat4spec.intlat import IntMatrix, IntVector, decompose_fixed, identity, smith_normal_form
from flat4spec.theta import monomial


def dim(M: IntMatrix) -> int:
    return len(M)


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


def kernel_basis(M: IntMatrix) -> tuple[IntVector, ...]:
    """Saturated basis of the integer kernel {v : M v = 0}."""
    U, D, V = smith_normal_form(M)
    cols = len(M[0])
    rank = sum(1 for i in range(min(len(M), cols)) if D[i][i] != 0)
    Vt = transpose(V)
    return tuple(Vt[j] for j in range(rank, cols))


def fixed_lattice_basis(B: IntMatrix) -> tuple[IntVector, ...]:
    """Saturated basis of the fixed lattice ker(B - Id), via Smith reduction."""
    return kernel_basis(mat_sub(B, identity(dim(B))))


def raw_offsets_oracle(v: Sequence, dec) -> tuple[Fraction, ...]:
    """(v . u_i) mod 1 as Fraction dot products over all coordinates."""
    v = tuple(Fraction(x) for x in v)
    out = []
    for comp in dec.components:
        dot = sum(v[i] * comp.vector[i] for i in range(len(v)))
        out.append(dot - (dot.numerator // dot.denominator))
    return tuple(out)


def element_oracle(B: IntMatrix, b: Sequence) -> tuple:
    """The per-element invariants of (B, b), b in [0, 1)^4, on Fractions.

    ((D, D*b), raw offsets, folded offsets, theta monomial, fixed-point free)
    with D the lcm of the denominators of b, from decompose_fixed(B).
    """
    b = tuple(Fraction(x) for x in b)
    D = lcm(*(x.denominator for x in b))
    dec = decompose_fixed(B)
    raw = raw_offsets_oracle(b, dec)
    return ((D, tuple(int(x * D) for x in b)), raw,
            tuple((c.d, min(r, 1 - r)) for c, r in zip(dec.components, raw)),
            monomial(((c.d, r), 1) for c, r in zip(dec.components, raw)),
            B != identity(len(B)) and any(raw))
