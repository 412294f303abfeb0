"""Exact spectrum: eigenvalue multiplicities and truncated heat traces.

The Laplacian on p-forms of R^4/Gamma has eigenvalues 4 pi^2 mu for integers
mu >= 0 (the dual lattice of Z^4 is Z^4), with multiplicity

    d_{p,mu} = (1/|F|) sum_gamma tr_p(B) e_{mu,gamma},
    e_{mu,gamma} = sum over v in the mu-shell with B v = v of exp(-2 pi i v.b).

If L is the common denominator of b, the phase v.b lies in (1/L)Z, so the
e-sum is a count of fixed shell vectors per residue k = L v.b mod L weighted
by cos(2 pi k / L) (v and -v are both fixed, so the sines cancel).  That
cosine is rational exactly when k/L in lowest terms has denominator 1, 2, 3,
4 or 6, which covers every catalog translation; a fixed vector with any
other phase denominator is refused rather than approximated.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import exp, gcd, isqrt, lcm, pi

from .group import BieberbachGroup

_HALF = Fraction(1, 2)
# cos(2 pi k / L) for k = 0, ..., L - 1, for the denominators L where it is rational
_COSINES = {
    1: (1,),
    2: (1, -1),
    3: (1, -_HALF, -_HALF),
    4: (1, 0, -1, 0),
    6: (1, _HALF, -_HALF, -1, -_HALF, _HALF),
}


@lru_cache(maxsize=None)
def lattice_shell(mu: int) -> tuple[tuple[int, int, int, int], ...]:
    """All integer vectors of squared norm mu."""
    if mu < 0:
        raise ValueError("shell index must be nonnegative")
    out = []
    top = isqrt(mu)
    for a in range(-top, top + 1):
        ra = mu - a * a
        ta = isqrt(ra)
        for b in range(-ta, ta + 1):
            rb = ra - b * b
            tb = isqrt(rb)
            for c in range(-tb, tb + 1):
                rc = rb - c * c
                d = isqrt(rc)
                if d * d == rc:
                    if d == 0:
                        out.append((a, b, c, 0))
                    else:
                        out.append((a, b, c, d))
                        out.append((a, b, c, -d))
    return tuple(out)


def e_term(g, mu: int) -> int | Fraction:
    """Exact sum of exp(-2 pi i v.b) over shell vectors fixed by the matrix part."""
    L = lcm(*(x.denominator for x in g.b))
    lb = [x.numerator * (L // x.denominator) for x in g.b]
    # (B v)_i = s v_j for the one nonzero entry s = B[i][j]; rows with
    # B[i][i] = 1 hold for every v
    moved = [(i, j, s) for i, row in enumerate(g.B) for j, s in enumerate(row)
             if s and (i != j or s != 1)]
    counts = [0] * L
    for v in lattice_shell(mu):
        for i, j, s in moved:
            if v[i] != s * v[j]:
                break
        else:
            counts[(v[0] * lb[0] + v[1] * lb[1] + v[2] * lb[2] + v[3] * lb[3]) % L] += 1
    total = 0
    for k, count in enumerate(counts):
        if count:
            # the phase k/L in lowest terms; b off the fixed space can make L
            # larger than the phase denominators that occur
            d = gcd(k, L)
            cosines = _COSINES.get(L // d)
            if cosines is None:
                raise ArithmeticError(
                    f"phase denominator {L // d}: cos(2 pi {k // d}/{L // d}) is not rational")
            total += count * cosines[k // d]
    return total.numerator if total.denominator == 1 else total


@lru_cache(maxsize=None)
def _e_terms(G: BieberbachGroup, mu: int) -> tuple[int | Fraction, ...]:
    # keyed by group value: every degree p reuses the same e-sums
    return tuple(e_term(g, mu) for g in G.holonomy)


def multiplicity(G: BieberbachGroup, p: int, mu: int) -> int:
    """Multiplicity of the eigenvalue 4 pi^2 mu of the p-form Laplacian."""
    if not 0 <= p <= 4:
        raise ValueError("form degree out of range")
    total = sum(g.traces()[p] * e for g, e in zip(G.holonomy, _e_terms(G, mu)))
    value = Fraction(total, G.order)
    if value.denominator != 1:
        raise ArithmeticError(f"multiplicity not integral: {value}")
    if value < 0:
        raise ArithmeticError(f"negative multiplicity {value}")
    return value.numerator


def heat_trace_numeric(G: BieberbachGroup, p: int, s: float, mu_max: int) -> float:
    """Truncated spectral heat trace sum_{mu <= mu_max} d_{p,mu} e^{-4 pi^2 mu s}."""
    return sum(
        multiplicity(G, p, mu) * exp(-4.0 * pi * pi * mu * s)
        for mu in range(mu_max + 1)
    )
