"""Length spectra of closed geodesics, with and without multiplicities.

Closed geodesics of R^4/Gamma correspond to conjugacy classes of Gamma.  The
element gamma L_lambda with gamma = B L_b has squared length

    |p_B(b + lambda)|^2 = sum_j (k_j + s_j)^2 / d_j,

where (u_j, d_j) are the fixed-lattice components of B, s_j = b.u_j, and
k_j = lambda.u_j ranges over Z.  Two elements of the same coset are conjugate
iff they are related by lattice conjugation

    lambda ~ lambda + (B^{-1} - Id) mu,   mu in Z^4,

together with conjugation by the coset representatives; for abelian holonomy
the latter acts by

    lambda -> B_j lambda + (B_j - Id) b_i + B_j (B_i^{-1} - Id) b_j.

Conjugacy classes of a coset with a given length are therefore orbits of a
finite state set: the solution tuples k plus a torsion coordinate in the
finite quotient (Z^4 intersect ker p_B) / (B^{-1} - Id) Z^4.  Nonabelian
holonomy is not supported here (the conjugation action no longer preserves
single cosets).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt

from . import intlat
from .group import BieberbachGroup, GroupError, is_abelian_holonomy
from .intlat import IntMatrix, IntVector, mat_sub, mat_vec, transpose
from .numspec import lattice_shell

RatVec = tuple[Fraction, ...]


class LengthError(ValueError):
    pass


def _frac_vec(v) -> RatVec:
    return tuple(Fraction(x) for x in v)


def _solve_coords(basis: tuple[IntVector, ...], w: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Coordinates of w in the given independent integer basis (exact)."""
    k = len(basis)
    if k == 0:
        if any(x != 0 for x in w):
            raise LengthError("vector outside the zero lattice")
        return ()
    # solve via the Gram system: G t = basis^T w
    gram = [[Fraction(sum(a * b for a, b in zip(basis[i], basis[j]))) for j in range(k)]
            for i in range(k)]
    rhs = [Fraction(sum(basis[i][r] * w[r] for r in range(len(w)))) for i in range(k)]
    # gaussian elimination
    for col in range(k):
        piv = next(r for r in range(col, k) if gram[r][col] != 0)
        gram[col], gram[piv] = gram[piv], gram[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / gram[col][col]
        gram[col] = [x * inv for x in gram[col]]
        rhs[col] *= inv
        for r in range(k):
            if r != col and gram[r][col] != 0:
                f = gram[r][col]
                gram[r] = [x - f * y for x, y in zip(gram[r], gram[col])]
                rhs[r] -= f * rhs[col]
    return tuple(rhs)


def _int_inverse(M: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix."""
    n = len(M)
    cols = []
    basis = tuple(tuple(M[i][j] for i in range(n)) for j in range(n))
    for j in range(n):
        e = tuple(Fraction(1) if i == j else Fraction(0) for i in range(n))
        col = _solve_coords(basis, e)
        assert all(c.denominator == 1 for c in col)
        cols.append(tuple(int(c) for c in col))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


@dataclass
class CosetGeometry:
    """Precomputed data for one nontrivial coset B L_{b + Z^4}."""

    B: IntMatrix
    b: RatVec
    units: tuple[IntVector, ...]      # disjoint-support fixed components u_j
    ds: tuple[int, ...]               # component norms d_j
    s: tuple[Fraction, ...]           # raw offsets b.u_j
    anchors: tuple[tuple[int, int], ...]  # (index, sign) realizing lambda.u_j = k_j
    torsion_basis: tuple[IntVector, ...]  # adapted basis of W = Z^4 cap ker p_B
    torsion_divisors: tuple[int, ...]     # N = sum q_i * torsion_basis_i


def coset_geometry(B: IntMatrix, b) -> CosetGeometry:
    b = _frac_vec(b)
    dec = intlat.decompose_fixed(B)
    units = tuple(c.vector for c in dec.components)
    ds = tuple(c.d for c in dec.components)
    if not units:
        raise LengthError("element with empty fixed lattice is not torsion-free")
    s = tuple(sum(bi * ui for bi, ui in zip(b, u)) for u in units)
    anchors = []
    for u in units:
        i = next(j for j, x in enumerate(u) if x != 0)
        anchors.append((i, u[i]))
    wb = intlat.kernel_basis(tuple(units))
    k = len(wb)
    if k == 0:
        torsion_basis: tuple[IntVector, ...] = ()
        divisors: tuple[int, ...] = ()
    else:
        # rows of the transpose are the columns of B^{-1} - Id
        n_gens = transpose(mat_sub(transpose(B), intlat.identity(4)))
        x_rows = []
        for gen in n_gens:
            coords = _solve_coords(wb, _frac_vec(gen))
            if any(c.denominator != 1 for c in coords):
                raise LengthError("conjugation lattice is not inside the complement")
            x_rows.append(tuple(int(c) for c in coords))
        X = tuple(zip(*x_rows))  # k x 4, columns are the generators in W coordinates
        U, D, _ = intlat.smith_normal_form(X)
        divisors = tuple(D[i][i] for i in range(k))
        if any(q == 0 for q in divisors):
            raise LengthError("conjugation lattice has unexpected rank")
        uinv = _int_inverse(U)
        torsion_basis = tuple(
            tuple(sum(wb[r][i] * uinv[r][j] for r in range(k)) for i in range(4))
            for j in range(k)
        )
    return CosetGeometry(B, b, units, ds, s, tuple(anchors), torsion_basis, divisors)


# -- squared length values -------------------------------------------------


def _component_scan(d: int, s: Fraction, budget: Fraction):
    """Yield (k, (k + s)^2 / d) for all integers k with the term <= budget."""
    if budget < 0:
        return
    # (k + s)^2 is unimodal in k with vertex at -s: scan outward from there
    center = -(s.numerator // s.denominator)  # ceil(-s)
    for start, step in ((center, 1), (center - 1, -1)):
        k = start
        while True:
            term = Fraction(k + s) ** 2 / d
            if term > budget:
                break
            yield k, term
            k += step


def _coset_values(geo: CosetGeometry, max2: Fraction) -> set[Fraction]:
    values: set[Fraction] = set()

    def recurse(j: int, acc: Fraction):
        if j == len(geo.units):
            if acc > 0:
                values.add(acc)
            return
        for _, term in _component_scan(geo.ds[j], geo.s[j], max2 - acc):
            recurse(j + 1, acc + term)

    recurse(0, Fraction(0))
    return values


def length_set(G: BieberbachGroup, max2) -> set[Fraction]:
    """All squared lengths of closed geodesics up to max2 (exact rationals)."""
    max2 = Fraction(max2)
    values = {Fraction(n) for n in range(1, int(max2) + 1)}
    for g in G.nontrivial():
        geo = coset_geometry(g.B, g.b)
        values |= _coset_values(geo, max2)
    return values


def _solutions(geo: CosetGeometry, l2: Fraction) -> list[tuple[int, ...]]:
    sols: list[tuple[int, ...]] = []

    def recurse(j: int, acc: Fraction, ks: list[int]):
        if j == len(geo.units):
            if acc == l2:
                sols.append(tuple(ks))
            return
        for k, term in _component_scan(geo.ds[j], geo.s[j], l2 - acc):
            recurse(j + 1, acc + term, ks + [k])

    recurse(0, Fraction(0), [])
    return sols


# -- conjugacy class counting ----------------------------------------------


def _anchor_vector(geo: CosetGeometry, ks) -> list[Fraction]:
    lam = [Fraction(0)] * 4
    for (i, sign), k in zip(geo.anchors, ks):
        lam[i] = Fraction(sign * k)
    return lam


def _canonical_state(geo: CosetGeometry, lam: RatVec) -> tuple:
    if any(x.denominator != 1 for x in lam):
        raise LengthError("conjugation produced a non-lattice translation")
    ks = tuple(int(sum(x * u for x, u in zip(lam, unit))) for unit in geo.units)
    base = _anchor_vector(geo, ks)
    w = tuple(x - y for x, y in zip(lam, base))
    coords = _solve_coords(geo.torsion_basis, w)
    if any(c.denominator != 1 for c in coords):
        raise LengthError("complement coordinates are not integral")
    tor = tuple(int(c) % q for c, q in zip(coords, geo.torsion_divisors))
    return ks, tor


def _states_for(geo: CosetGeometry, l2: Fraction) -> set[tuple]:
    states = set()
    box = [range(q) for q in geo.torsion_divisors]
    for ks in _solutions(geo, l2):
        base = _anchor_vector(geo, ks)
        for tor in product(*box):
            lam = list(base)
            for t, vec in zip(tor, geo.torsion_basis):
                for i in range(4):
                    lam[i] += t * vec[i]
            states.add(_canonical_state(geo, tuple(lam)))
    return states


def _state_vector(geo: CosetGeometry, state) -> RatVec:
    ks, tor = state
    lam = _anchor_vector(geo, ks)
    for t, vec in zip(tor, geo.torsion_basis):
        for i in range(4):
            lam[i] += t * vec[i]
    return tuple(lam)


def _conjugation_maps(geo: CosetGeometry, reps: list[tuple[IntMatrix, RatVec]]):
    """Affine maps lambda -> B_j lambda + v implementing rep conjugation."""
    maps = []
    binv = transpose(geo.B)
    for Bj, bj in reps:
        part1 = mat_vec(mat_sub(Bj, intlat.identity(4)), geo.b)
        part2 = mat_vec(Bj, tuple(x - y for x, y in zip(mat_vec(binv, bj), bj)))
        v = tuple(Fraction(a + b) for a, b in zip(part1, part2))
        if any(x.denominator != 1 for x in v):
            raise LengthError("conjugation by a representative is not integral")
        maps.append((Bj, v))
    return maps


def _count_orbits(states: set[tuple], geo: CosetGeometry, maps) -> int:
    unseen = set(states)
    orbits = 0
    while unseen:
        seed = unseen.pop()
        orbits += 1
        frontier = [seed]
        while frontier:
            state = frontier.pop()
            lam = _state_vector(geo, state)
            for Bj, v in maps:
                img = tuple(x + y for x, y in zip(mat_vec(Bj, lam), v))
                nxt = _canonical_state(geo, img)
                if nxt not in states:
                    raise LengthError("conjugation left the solution set")
                if nxt in unseen:
                    unseen.remove(nxt)
                    frontier.append(nxt)
    return orbits


def _require_abelian(G: BieberbachGroup) -> None:
    if not is_abelian_holonomy(G):
        raise GroupError("nonabelian holonomy unsupported for length multiplicities")


def length_multiplicity(G: BieberbachGroup, l2,
                        reps: list[tuple[IntMatrix, RatVec]] | None = None) -> int:
    """Number of conjugacy classes of G with squared length l2."""
    l2 = Fraction(l2)
    if l2 <= 0:
        raise ValueError("squared length must be positive")
    _require_abelian(G)
    if reps is None:
        reps = [(g.B, g.b) for g in G.nontrivial()]
    total = 0
    # pure translations: orbits of the lattice shell under the holonomy action
    if l2.denominator == 1:
        shell = set(lattice_shell(int(l2)))
        mats = [g.B for g in G.holonomy]
        while shell:
            seed = shell.pop()
            total += 1
            frontier = [seed]
            while frontier:
                v = frontier.pop()
                for B in mats:
                    w = mat_vec(B, v)
                    if w in shell:
                        shell.remove(w)
                        frontier.append(w)
    # twisted cosets
    for B, b in reps:
        geo = coset_geometry(B, _frac_vec(b))
        states = _states_for(geo, l2)
        if not states:
            continue
        maps = _conjugation_maps(geo, reps)
        total += _count_orbits(states, geo, maps)
    return total


def length_spectrum(G: BieberbachGroup, max2) -> dict[Fraction, int]:
    """Map from squared length to class multiplicity, up to max2."""
    _require_abelian(G)  # even when no length is <= max2
    return {l2: length_multiplicity(G, l2) for l2 in sorted(length_set(G, max2))}
