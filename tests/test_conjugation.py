"""Invariants are unchanged by affine conjugation.

Conjugating every element by phi(x) = P x + t, with P a signed permutation
and t rational, maps a Bieberbach group with lattice Z^4 to an isomorphic
flat manifold with the same lattice, so every invariant must be the same.
A seeded sample of (P, t), t in (1/24)Z^4, per catalog group; the
translations of the conjugates lie on D = 24 or a divisor of it.  Each
conjugate is built twice: from the conjugated generators, and from another
generating set of the same group (shuffled, with g1 sometimes replaced by
g1 g2 or a product of two generators appended).
"""
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from flat4spec.group import AffineIsometry, betti, build_group
from flat4spec.lengths import LengthError, length_set, length_spectrum
from flat4spec.numspec import multiplicities

from linalg import mat_mul, mat_vec, transpose

SIGNED_PERMS = [
    tuple(tuple(signs[i] if perm[i] == j else 0 for j in range(4)) for i in range(4))
    for perm in permutations(range(4)) for signs in product((1, -1), repeat=4)
]
PER_GROUP = 8


def conjugate(g: AffineIsometry, P, t) -> AffineIsometry:
    """phi g phi^{-1} for phi(x) = P x + t, read off its action (apply) at 0."""
    B = mat_mul(mat_mul(P, g.B), transpose(P))
    # phi g phi^{-1}(0) = P g(-P^T t) + t, and an element sends 0 to B b
    image = tuple(x + s for x, s in
                  zip(mat_vec(P, g.apply(mat_vec(transpose(P), [-s for s in t]))), t))
    b = mat_vec(transpose(B), image)
    # elements act by x -> B (x + b), so b goes to P b + B^T t - t
    assert b == tuple(x + y - s for x, y, s in
                      zip(mat_vec(P, g.b), mat_vec(transpose(B), t), t))
    return AffineIsometry(B, b)


def change_generators(gens, rng) -> list[AffineIsometry]:
    """Another generating set of the group the generators generate."""
    gens = list(gens)
    rng.shuffle(gens)
    move = rng.randrange(3)
    if move == 1 and len(gens) > 1:
        gens[0] = gens[0] * gens[1]
    elif move and gens:
        gens.append(rng.choice(gens) * rng.choice(gens))
    return gens


def invariants(G):
    return (G.trace_table, [betti(G, p) for p in range(5)], length_set(G, 4),
            [multiplicities(G, p, 10) for p in range(5)])


def test_invariants_survive_conjugation(catalog):
    rng, regen = random.Random(24), random.Random(25)
    trials = 0
    for entry in catalog:
        G = entry.group
        want = invariants(G)
        for _ in range(PER_GROUP):
            P = rng.choice(SIGNED_PERMS)
            t = tuple(Fraction(rng.randrange(-24, 24), 24) for _ in range(4))
            conj = [conjugate(g, P, t) for g in G.generators]
            for gens in (conj, change_generators(conj, regen)):
                H = build_group(gens, name=G.name)
                assert H.order == G.order, (entry.id, P, t, gens)
                assert invariants(H) == want, (entry.id, P, t, gens)
                if entry.id == "29'":
                    # the printed generators do not close over Z^4, in any
                    # frame and from any generating set
                    assert not H.translation_consistent
                    with pytest.raises(LengthError, match="not integral"):
                        length_spectrum(H, 2)
            trials += 1
    assert trials == PER_GROUP * 77
