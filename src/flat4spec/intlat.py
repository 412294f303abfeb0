"""Signed-permutation codes and fixed lattices on Z^n, n the length of a code.

Matrices are tuples of tuples of ints (row major); rational vectors are tuples
of Fraction.  Holonomy matrices are signed permutations, and everything here
runs on their codes.  `signed_code` checks a matrix in one pass and returns
row i as s*(j+1) for its nonzero entry s = B[i][j]; `checked_code` raises
instead of returning None, and `code_matrix` goes back.  `code_product` is the
one product rule, row i of A B being s times row j of B; with a vector v in
place of B it gives A v.  `code_compose` multiplies affine pairs with it and
`code_inverse` transposes.  `code_cycles` is the one walk over the cycles of a
code.  A cycle of length k with sign product eps contributes the factor
1 - eps*(-t)^k to det(Id + t*B) (see kraw.charpoly_coeffs) and, when eps = +1,
one fixed component of support size k (see decompose_fixed).  It also
contributes Z (eps = +1) or Z/2 (eps = -1) to the quotient
Z^n / (B^{-1} - Id) Z^n that labels conjugacy classes within a coset (see
lengths).  `smith_normal_form` (plain gcd elimination with
unimodular bookkeeping) is the one generic routine left; no engine path calls
it, and the benchmark's tracer counts its calls.  qfield is imported only
inside `FixedDecomposition.volume`, the one place here that makes a
QuadNumber, so a command that never asks for a volume never loads it.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from .qfield import QuadNumber

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
RatVector = tuple[Fraction, ...]
Cycles = tuple[tuple[tuple[tuple[int, int], ...], int], ...]  # see code_cycles


class LatticeError(ValueError):
    pass


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def signed_code(M: IntMatrix) -> IntVector | None:
    """Row i as s*(j+1) for its nonzero s = M[i][j] = +-1; None unless a signed permutation."""
    n = len(M)
    code = []
    for row in M:
        s = 1 if 1 in row else -1
        if len(row) != n or row.count(0) != n - 1 or s not in row:
            return None
        code.append(s * (row.index(s) + 1))
    return tuple(code) if len({abs(c) for c in code}) == n else None


def checked_code(M: IntMatrix) -> IntVector:
    """`signed_code` of M; LatticeError unless M is a signed permutation."""
    if (code := signed_code(M)) is None:
        raise LatticeError("expected a signed permutation matrix")
    return code


def code_matrix(code: Sequence[int]) -> IntMatrix:
    """The signed permutation matrix with this `signed_code`."""
    zeros = (0,) * len(code)
    return tuple(zeros[:abs(c) - 1] + (1 if c > 0 else -1,) + zeros[abs(c):] for c in code)


def code_product(A: Sequence[int], B: Sequence) -> tuple:
    """Code of A B, row i being s * B[j] for s = A[i][j]; with a vector v for B, A v."""
    return tuple([B[c - 1] if c > 0 else -B[-c - 1] for c in A])


def code_compose(A: IntVector, a: Sequence, B: IntVector, b: Sequence) -> tuple[IntVector, list]:
    """(A, a) * (B, b) = (A B, B^T a + b) for signed-permutation codes A and B.

    Each entry s = B[i][j] adds s * a_i to coordinate j of B^T a.  The
    translation part is not reduced mod the lattice.
    """
    t = list(b)
    for x, c in zip(a, B):
        if c > 0:
            t[c - 1] += x
        else:
            t[-c - 1] -= x
    return code_product(A, B), t


def code_inverse(code: Sequence[int]) -> IntVector:
    """Code of B^{-1} = B^T: the entry s = B[i][j] is B^T[j][i]."""
    inv = [0] * len(code)
    for i, c in enumerate(code, 1):
        inv[abs(c) - 1] = i if c > 0 else -i
    return tuple(inv)


# -- Smith normal form ---------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _apply_left_2x2(A, U, i, m):
    for target in (A, U):
        ri = [m[0][0] * a + m[0][1] * b for a, b in zip(target[i], target[i + 1])]
        rj = [m[1][0] * a + m[1][1] * b for a, b in zip(target[i], target[i + 1])]
        target[i], target[i + 1] = ri, rj


def _apply_right_2x2(A, V, i, m):
    for target in (A, V):
        for row in target:
            ci = m[0][0] * row[i] + m[1][0] * row[i + 1]
            cj = m[0][1] * row[i] + m[1][1] * row[i + 1]
            row[i], row[i + 1] = ci, cj


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (U, V) and diagonal D with U*M*V = D.

    Diagonal entries are nonnegative and satisfy the divisibility chain.
    Works for any rectangular integer matrix.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [list(row) for row in M]
    U = [list(row) for row in identity(rows)]
    V = [list(row) for row in identity(cols)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row_dst += k * row_src
        A[dst] = [a + k * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, k):
        for row in A:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(rows, cols):
        # move a nonzero pivot of minimal magnitude to (t, t)
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        if A[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1} with exact 2x2 transforms:
    # diag(a, b) = U2^{-1} diag(g, ab/g) V2^{-1} for g = gcd(a, b) = x a + y b
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a == 0:
                continue
            g, x, y = _xgcd(a, b)
            u2 = ((x, y), (-b // g, a // g))
            v2 = ((1, -y * b // g), (1, x * a // g))
            _apply_left_2x2(A, U, i, u2)
            _apply_right_2x2(A, V, i, v2)
            changed = True
    return (
        tuple(tuple(row) for row in U),
        tuple(tuple(row) for row in A),
        tuple(tuple(row) for row in V),
    )


# -- fixed lattices of signed permutations --------------------------------


class FixedComponent(NamedTuple):
    vector: IntVector  # entries in {-1, 0, 1}
    d: int             # support size, equal to |vector|^2


class FixedDecomposition(NamedTuple):
    components: tuple[FixedComponent, ...]

    @property
    def rank(self) -> int:
        return len(self.components)

    def volume(self) -> QuadNumber:
        """Covolume of the fixed lattice, sqrt(prod d) over the orthogonal components."""
        from .qfield import QuadNumber
        return QuadNumber.sqrt_int(prod([c.d for c in self.components]))


def code_cycles(code: Sequence[int]) -> Cycles:
    """Cycles of the signed permutation B with this (unchecked) code, by smallest axis.

    A cycle (orbit, eps) starts at its smallest axis a and lists (axis, sign)
    with B^k e_a = sign * e_axis for k = 0, ..., len - 1; eps is the product of
    the signs along the cycle, so B^len e_a = eps * e_a.
    """
    image = [None] * len(code)
    for j, c in enumerate(code):
        image[abs(c) - 1] = (j, 1 if c > 0 else -1)  # B e_i = sign * e_j
    seen = set()
    cycles = []
    for start in range(len(code)):
        if start in seen:
            continue
        orbit = []
        axis, sign = start, 1
        while axis not in seen:
            seen.add(axis)
            orbit.append((axis, sign))
            axis, s = image[axis]
            sign *= s
        cycles.append((tuple(orbit), sign))
    return tuple(cycles)


def decompose_fixed(B: IntMatrix) -> FixedDecomposition:
    """Fixed lattice of a signed permutation as disjoint-support {-1,0,1} vectors."""
    return cycle_decomposition(code_cycles(checked_code(B)))


def cycle_decomposition(cycles) -> FixedDecomposition:
    """The fixed components of the signed permutation with these signed cycles.

    Each cycle with sign product +1 contributes the fixed vector
    sum_k B^k e_a supported on the cycle; cycles with product -1 fix nothing.
    """
    n = sum(len(orbit) for orbit, _ in cycles)
    comps = []
    for orbit, eps in cycles:
        if eps == 1:
            vec = [0] * n
            for axis, sign in orbit:
                vec[axis] = sign
            comps.append(FixedComponent(tuple(vec), len(orbit)))
    return FixedDecomposition(tuple(comps))

