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
(intlat.code_cycles) as Z^{#(+1 cycles)} x (Z/2)^{#(-1 cycles)}: a cycle
with eps = +1 contributes the integer lambda.u_j = k_j, and a cycle with
eps = -1 the sum of lambda over its axes mod 2.  A state is one integer per
cycle, and the conjugacy classes of a coset with a given length are the orbits
of its states under the maps above, each an affine map on states built once
per coset.  Nonabelian holonomy is not supported here (the conjugation action
no longer preserves single cosets).

Everything runs on ints: squared lengths times W D^2 (D the common
denominator of the s_j, W the lcm of the d_j) and translations times their
common denominator.  Only the returned squared lengths become Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from typing import NamedTuple

from . import intlat
from .group import BieberbachGroup, GroupError, is_abelian_holonomy
from .intlat import IntMatrix, IntVector, code_compose, code_product

RatVec = tuple[Fraction, ...]
Cycles = tuple[tuple[tuple[tuple[int, int], ...], int], ...]
_AXES = intlat.identity(4)  # the unit vectors e_a


class LengthError(ValueError):
    pass


class CosetGeometry(NamedTuple):
    """Precomputed data for one coset B L_{b + Z^4}."""

    B: IntMatrix
    code: IntVector                   # intlat.signed_code of B
    b: RatVec
    units: tuple[IntVector, ...]      # disjoint-support fixed components u_j
    ds: tuple[int, ...]               # component norms d_j
    s: tuple[Fraction, ...]           # raw offsets b.u_j
    cycles: Cycles                    # signed cycles of B, one state coordinate each


def coset_geometry(B: IntMatrix, b) -> CosetGeometry:
    b = tuple(Fraction(x) for x in b)
    code = intlat.checked_code(B)
    cycles = tuple(intlat.code_cycles(code))
    comps = intlat.cycle_decomposition(cycles).components
    if not comps:
        raise LengthError("element with empty fixed lattice is not torsion-free")
    units = tuple(c.vector for c in comps)
    ds = tuple(c.d for c in comps)
    s = tuple(sum(bi * ui for bi, ui in zip(b, u)) for u in units)
    return CosetGeometry(B, code, b, units, ds, s, cycles)


# -- squared length values -------------------------------------------------


def _solutions(geo: CosetGeometry, max2: Fraction) -> dict[Fraction, list[tuple[int, ...]]]:
    """Map each squared length 0 < l2 <= max2 of the coset to its tuples k.

    W D^2 l2 is the integer sum_j (W / d_j) (k_j D + s_j D)^2.
    """
    D = lcm(*(x.denominator for x in geo.s))
    W = lcm(*geo.ds)
    den = W * D * D
    top = max2.numerator * den // max2.denominator
    partial = [(0, ())] if top >= 0 else []
    for s, d in zip(geo.s, geo.ds):
        sD, w = s.numerator * (D // s.denominator), W // d
        grown = []
        for acc, ks in partial:
            # w x^2 <= top - acc for x = k D + sD iff |x| <= r
            r = isqrt((top - acc) // w)
            for k in range(-((r + sD) // D), (r - sD) // D + 1):
                x = k * D + sD
                grown.append((acc + w * x * x, ks + (k,)))
        partial = grown
    sols: dict[int, list[tuple[int, ...]]] = {}
    for n, ks in partial:
        sols.setdefault(n, []).append(ks)
    return {Fraction(n, den): ks for n, ks in sols.items() if n}


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


def _states(geo: CosetGeometry, ks: tuple[int, ...]):
    """The states over one solution k: each eps = -1 cycle adds a Z/2 bit."""
    k_iter = iter(ks)
    return product(*[(next(k_iter),) if eps == 1 else (0, 1) for _, eps in geo.cycles])


def _conjugation_maps(geo: CosetGeometry, reps: list[CosetGeometry]):
    """Affine maps x -> shift + sum_c x_c e(c) on states implementing rep conjugation.

    The rep g_j = (B_j, b_j) gives g_j g = (B_j B, B^T b_j + b), so conjugation
    maps lambda to B_j lambda + v for the integral v = B_j (B^T b_j + b - b_j) - b
    (on codes and translations scaled by D).  shift is the state of v and
    e(c), one signed unit stored as (index, sign), the state of B_j e_a for
    the first axis a of cycle c.
    """
    maps = []
    for rep in reps:
        D = lcm(*(x.denominator for x in (*geo.b, *rep.b)))
        b, t = ([x.numerator * (D // x.denominator) for x in v] for v in (geo.b, rep.b))
        _, u = code_compose(rep.code, t, geo.code, [x - y for x, y in zip(b, t)])
        v = [x - y for x, y in zip(code_product(rep.code, u), b)]
        if any(x % D for x in v):
            raise LengthError("conjugation by a representative is not integral")
        moves = []
        for orbit, _ in geo.cycles:
            image = _canonical_state(geo.cycles, code_product(rep.code, _AXES[orbit[0][0]]))
            moves.append(next((i, y) for i, y in enumerate(image) if y))
        maps.append((_canonical_state(geo.cycles, [x // D for x in v]), moves))
    return maps


def _count_orbits(states: set[tuple[int, ...]], geo: CosetGeometry, maps) -> int:
    twisted = [i for i, (_, eps) in enumerate(geo.cycles) if eps == -1]
    unseen = set(states)
    orbits = 0
    while unseen:
        frontier = [unseen.pop()]
        orbits += 1
        while frontier:
            state = frontier.pop()
            for shift, moves in maps:
                img = list(shift)
                for x, (i, y) in zip(state, moves):
                    img[i] += x * y
                for i in twisted:
                    img[i] %= 2
                nxt = tuple(img)
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
    # every rep matrix is checked once, before any map is built from it
    geos = [coset_geometry(B, b) for B, b in [(intlat.identity(4), (0,) * 4), *reps]]
    for geo in geos:
        # built before the enumeration, so a refusal does not depend on max2
        maps = _conjugation_maps(geo, geos[1:])
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
