"""Length spectra of closed geodesics, with and without multiplicities.

Closed geodesics of R^4/Gamma correspond to conjugacy classes of Gamma.  The
element gamma L_lambda with gamma = B L_b has squared length

    |p_B(b + lambda)|^2 = sum_j (k_j + s_j)^2 / d_j,

where (u_j, d_j) are the fixed-lattice components of B, s_j = b.u_j, and
k_j = lambda.u_j ranges over Z.  The pure translations form the identity coset
B = Id, b = 0.  Two elements of the same coset are conjugate iff they are
related by lattice conjugation

    lambda ~ lambda + (B^{-1} - Id) mu,   mu in Z^4,

together with conjugation by the coset representatives; for abelian holonomy
the latter acts by

    lambda -> B_j lambda + (B_j - Id) b_i + B_j (B_i^{-1} - Id) b_j.

The quotient Z^4 / (B^{-1} - Id) Z^4 splits along the signed cycles of B
(intlat.signed_cycles) as Z^{#(+1 cycles)} x (Z/2)^{#(-1 cycles)}: a cycle
with eps = +1 contributes the integer lambda.u_j = k_j, and a cycle with
eps = -1 the sum of lambda over its axes mod 2.  A state is one integer per
cycle, represented by the vector that puts it on the cycle's first axis, and
the conjugacy classes of a coset with a given length are the orbits of its
states under the maps above.  Nonabelian holonomy is not supported here (the
conjugation action no longer preserves single cosets).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import intlat
from .group import BieberbachGroup, GroupError, is_abelian_holonomy
from .intlat import IntMatrix, IntVector, mat_sub, mat_vec, transpose

RatVec = tuple[Fraction, ...]
Cycles = tuple[tuple[tuple[tuple[int, int], ...], int], ...]


class LengthError(ValueError):
    pass


@dataclass
class CosetGeometry:
    """Precomputed data for one coset B L_{b + Z^4}."""

    B: IntMatrix
    b: RatVec
    units: tuple[IntVector, ...]      # disjoint-support fixed components u_j
    ds: tuple[int, ...]               # component norms d_j
    s: tuple[Fraction, ...]           # raw offsets b.u_j
    cycles: Cycles                    # signed cycles of B, one state coordinate each


def coset_geometry(B: IntMatrix, b) -> CosetGeometry:
    b = tuple(Fraction(x) for x in b)
    comps = intlat.decompose_fixed(B).components
    if not comps:
        raise LengthError("element with empty fixed lattice is not torsion-free")
    units = tuple(c.vector for c in comps)
    ds = tuple(c.d for c in comps)
    s = tuple(sum(bi * ui for bi, ui in zip(b, u)) for u in units)
    return CosetGeometry(B, b, units, ds, s, tuple(intlat.signed_cycles(B)))


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


def _solutions(geo: CosetGeometry, max2: Fraction) -> dict[Fraction, list[tuple[int, ...]]]:
    """Map each squared length 0 < l2 <= max2 of the coset to its tuples k."""
    sols: dict[Fraction, list[tuple[int, ...]]] = {}

    def recurse(j: int, acc: Fraction, ks: tuple[int, ...]):
        if j == len(geo.units):
            if acc > 0:
                sols.setdefault(acc, []).append(ks)
            return
        for k, term in _component_scan(geo.ds[j], geo.s[j], max2 - acc):
            recurse(j + 1, acc + term, ks + (k,))

    recurse(0, Fraction(0), ())
    return sols


def length_set(G: BieberbachGroup, max2) -> set[Fraction]:
    """All squared lengths of closed geodesics up to max2 (exact rationals)."""
    max2 = Fraction(max2)
    values: set[Fraction] = set()
    for g in G.holonomy:
        values.update(_solutions(coset_geometry(g.B, g.b), max2))
    return values


# -- conjugacy class counting ----------------------------------------------


def _canonical_state(cycles: Cycles, lam) -> tuple[int, ...]:
    """Coordinates of the integer vector lam in Z^4 / (B^{-1} - Id) Z^4."""
    state = []
    for orbit, eps in cycles:
        x = sum(sign * lam[axis] for axis, sign in orbit)
        state.append(x if eps == 1 else x % 2)
    return tuple(state)


def _state_vector(cycles: Cycles, state) -> list[int]:
    # each orbit starts at its first axis with sign +1
    lam = [0] * 4
    for (orbit, _), x in zip(cycles, state):
        lam[orbit[0][0]] = x
    return lam


def _states(geo: CosetGeometry, ks: tuple[int, ...]):
    """The states over one solution k: each eps = -1 cycle adds a Z/2 bit."""
    k_iter = iter(ks)
    return product(*[(next(k_iter),) if eps == 1 else (0, 1) for _, eps in geo.cycles])


def _conjugation_maps(geo: CosetGeometry, reps: list[tuple[IntMatrix, RatVec]]):
    """Affine maps lambda -> B_j lambda + v implementing rep conjugation."""
    maps = []
    binv = transpose(geo.B)
    for Bj, bj in reps:
        part1 = mat_vec(mat_sub(Bj, intlat.identity(4)), geo.b)
        part2 = mat_vec(Bj, tuple(x - y for x, y in zip(mat_vec(binv, bj), bj)))
        v = tuple(a + b for a, b in zip(part1, part2))  # geo.b is rational
        if any(x.denominator != 1 for x in v):
            raise LengthError("conjugation by a representative is not integral")
        maps.append((Bj, tuple(int(x) for x in v)))
    return maps


def _count_orbits(states: set[tuple[int, ...]], geo: CosetGeometry, maps) -> int:
    unseen = set(states)
    orbits = 0
    while unseen:
        frontier = [unseen.pop()]
        orbits += 1
        while frontier:
            lam = _state_vector(geo.cycles, frontier.pop())
            for Bj, v in maps:
                img = [x + y for x, y in zip(mat_vec(Bj, lam), v)]
                nxt = _canonical_state(geo.cycles, img)
                if nxt not in states:
                    raise LengthError("conjugation left the solution set")
                if nxt in unseen:
                    unseen.remove(nxt)
                    frontier.append(nxt)
    return orbits


def _class_counts(G: BieberbachGroup, max2,
                  reps: list[tuple[IntMatrix, RatVec]] | None = None,
                  exact: bool = False) -> dict[Fraction, int]:
    """Number of conjugacy classes of G per squared length 0 < l2 <= max2.

    With exact=True only the classes of squared length max2 are counted.
    """
    if not is_abelian_holonomy(G):
        raise GroupError("nonabelian holonomy unsupported for length multiplicities")
    if reps is None:
        reps = [(g.B, g.b) for g in G.nontrivial()]
    max2 = Fraction(max2)
    counts: dict[Fraction, int] = {}
    for B, b in [(intlat.identity(4), (0,) * 4), *reps]:
        geo = coset_geometry(B, b)
        # built before the enumeration, so a refusal does not depend on max2
        maps = _conjugation_maps(geo, reps)
        for l2, sols in _solutions(geo, max2).items():
            if exact and l2 != max2:
                continue
            states = {state for ks in sols for state in _states(geo, ks)}
            counts[l2] = counts.get(l2, 0) + _count_orbits(states, geo, maps)
    return dict(sorted(counts.items()))


def length_multiplicity(G: BieberbachGroup, l2,
                        reps: list[tuple[IntMatrix, RatVec]] | None = None) -> int:
    """Number of conjugacy classes of G with squared length l2."""
    l2 = Fraction(l2)
    if l2 <= 0:
        raise ValueError("squared length must be positive")
    return _class_counts(G, l2, reps, exact=True).get(l2, 0)


def length_spectrum(G: BieberbachGroup, max2) -> dict[Fraction, int]:
    """Map from squared length to class multiplicity, up to max2."""
    return _class_counts(G, max2)
