"""Length spectra of closed geodesics, with and without multiplicities.

Closed geodesics of R^n/Gamma correspond to conjugacy classes of Gamma.  The
element gamma L_lambda with gamma = B L_b has squared length

    |p_B(b + lambda)|^2 = sum_j (k_j + s_j)^2 / d_j,

where (u_j, d_j) are the fixed-lattice components of B, s_j = b.u_j, and
k_j = lambda.u_j ranges over Z.  The pure translations form the identity coset
B = Id, b = 0.  The lattice classes of a coset, its elements up to

    lambda ~ lambda + (B^{-1} - Id) mu,   mu in Z^n,

are permuted by F = Gamma/Z^n acting by conjugation.  So the Gamma-classes in
the cosets of one holonomy conjugacy class are the orbits of the centralizer
Z_F(B) on the lattice classes of its first coset B.

The quotient Z^n / (B^{-1} - Id) Z^n splits along the signed cycles of B
(intlat.code_cycles) as Z^{#(+1 cycles)} x (Z/2)^{#(-1 cycles)}: a cycle
with eps = +1 contributes the integer lambda.u_j = k_j, and a cycle with
eps = -1 the sum of lambda over its axes mod 2.  A state is one integer per
cycle, and each element of Z_F(B) acts on states by an affine map built once
per coset.  By Burnside's lemma the classes of a given length are the states
of that length each element fixes, averaged over Z_F(B); abelian holonomy is
the case Z_F(B) = F.

A coset's geometry is read from its holonomy element (group.AffineIsometry):
its code and signed cycles, the closure's integer translation D*b (D the
group's closure denominator) and the per-cycle sums s_j D = D*b . u_j, with
d_j the length of the j-th cycle of sign product +1.  Everything runs on
ints: squared lengths times W D^2 (W the lcm of the d_j) and translations
times D, the same D for every coset of a group.  Only the returned squared
lengths become Fractions.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import isqrt, lcm

from .group import AffineIsometry, BieberbachGroup
from .intlat import Cycles, IntVector, code_compose, code_inverse, code_product, identity


class LengthError(ValueError):
    pass


# The data of one coset B L_{b + Z^n}, translations scaled by D: code is
# intlat.signed_code of B, D the group's closure denominator, t = D*b, ds the
# component norms d_j, sD the per-cycle sums D*b . u_j (unreduced) and cycles
# the signed cycles of B, one state coordinate each.
CosetGeometry = namedtuple("CosetGeometry", ["code", "D", "t", "ds", "sD", "cycles"])


def coset_geometry(g: AffineIsometry) -> CosetGeometry:
    """The coset of the holonomy element g, read from its fields."""
    sums, cycles = g._sums, g.cycles()
    if not sums:
        raise LengthError("element with empty fixed lattice is not torsion-free")
    return CosetGeometry(g._code, g._D, g._t, tuple([d for d, _ in g._offsets]), sums, cycles)


# -- squared length values -------------------------------------------------


def _solutions(geo: CosetGeometry, max2: Fraction) -> dict[Fraction, list[tuple[int, ...]]]:
    """Map each squared length 0 < l2 <= max2 of the coset to its tuples k.

    W D^2 l2 is the integer sum_j (W / d_j) (k_j D + s_j D)^2.
    """
    D, W = geo.D, lcm(*geo.ds)
    den = W * D * D
    top = max2.numerator * den // max2.denominator
    partial = [(0, ())] if top >= 0 else []
    for sD, d in zip(geo.sD, geo.ds):
        w = W // d
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
        values.update(_solutions(coset_geometry(g), max2))
    return values


# -- conjugacy class counting ----------------------------------------------


def _canonical_state(cycles: Cycles, lam) -> tuple[int, ...]:
    """Coordinates of the integer vector lam in Z^n / (B^{-1} - Id) Z^n."""
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
    """Affine maps x -> shift + sum_c x_c e(c) on states, one per rep commuting with B.

    As B_j B = B B_j, the rep g_j = (B_j, b_j) maps lambda to B_j lambda + v for the
    integral v = B_j (B^T b_j + b - b_j) - b (codes, translations scaled by the
    group's D, which every coset shares); shift is the state of v, e(c) =
    (index, sign) that of B_j e_{first axis of c}.
    """
    D, b, maps = geo.D, geo.t, []
    axes = identity(len(b))  # the unit vectors e_a
    for rep in reps:
        if code_product(rep.code, geo.code) != code_product(geo.code, rep.code):
            continue
        _, u = code_compose(rep.code, rep.t, geo.code, [x - y for x, y in zip(b, rep.t)])
        v = [x - y for x, y in zip(code_product(rep.code, u), b)]
        if any(x % D for x in v):
            raise LengthError("conjugation by a representative is not integral")
        moves = []
        for orbit, _ in geo.cycles:
            image = _canonical_state(geo.cycles, code_product(rep.code, axes[orbit[0][0]]))
            moves.append(next((i, y) for i, y in enumerate(image) if y))
        maps.append((_canonical_state(geo.cycles, [x // D for x in v]), moves))
    return maps


def _count_orbits(states: set[tuple[int, ...]], geo: CosetGeometry, maps) -> int:
    """Orbits of the maps and the identity on states, by Burnside's lemma."""
    twisted = [i for i, (_, eps) in enumerate(geo.cycles) if eps == -1]
    fixed = len(states)
    for shift, moves in maps:
        for state in states:
            img = list(shift)
            for x, (i, y) in zip(state, moves):
                img[i] += x * y
            for i in twisted:
                img[i] %= 2
            img = tuple(img)
            if img not in states:
                raise LengthError("conjugation left the solution set")
            fixed += img == state
    orbits, rest = divmod(fixed, len(maps) + 1)
    if rest:
        raise LengthError("Burnside count is not integral")
    return orbits


def length_spectrum(G: BieberbachGroup, max2) -> dict[Fraction, int]:
    """Map from squared length 0 < l2 <= max2 to its number of conjugacy classes."""
    max2 = Fraction(max2)
    counts: dict[Fraction, int] = {}
    geos = [coset_geometry(g) for g in G.holonomy]  # the identity coset first
    seen: set[IntVector] = set()
    for geo in geos:
        if geo.code in seen:
            continue
        seen.update(code_product(code_product(r.code, geo.code), code_inverse(r.code))
                    for r in geos)
        # built before the enumeration, so a refusal does not depend on max2
        maps = _conjugation_maps(geo, geos[1:])
        for l2, sols in _solutions(geo, max2).items():
            states = {state for ks in sols for state in _states(geo, ks)}
            counts[l2] = counts.get(l2, 0) + _count_orbits(states, geo, maps)
    return dict(sorted(counts.items()))


def length_multiplicity(G: BieberbachGroup, l2) -> int:
    """Number of conjugacy classes of squared length l2; kept for __all__ and bench/tracer.py."""
    l2 = Fraction(l2)
    if l2 <= 0:
        raise ValueError("squared length must be positive")
    return length_spectrum(G, l2).get(l2, 0)
