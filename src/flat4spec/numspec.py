"""Numeric spectrum: eigenvalue multiplicities and truncated heat traces.

The Laplacian on p-forms of R^4/Gamma has eigenvalues 4 pi^2 mu for integers
mu >= 0 (the dual lattice of Z^4 is Z^4), with multiplicity

    d_{p,mu} = (1/|F|) sum_gamma tr_p(B) e_{mu,gamma},
    e_{mu,gamma} = sum over v in the mu-shell with B v = v of exp(-2 pi i v.b).

The e-sums are real in every case handled here, but are accumulated as
complex and checked.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import exp, isqrt, pi

from .group import BieberbachGroup
from .intlat import mat_vec

_TWO_PI = 2.0 * pi


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


def e_term(g, mu: int) -> complex:
    """Sum of exp(-2 pi i v.b) over shell vectors fixed by the matrix part."""
    total = 0 + 0j
    for v in lattice_shell(mu):
        if mat_vec(g.B, v) != v:
            continue
        phase = float(sum(Fraction(x) * bi for x, bi in zip(v, g.b)))
        total += cmath.exp(-1j * _TWO_PI * phase)
    return total


@lru_cache(maxsize=None)
def _e_terms(G: BieberbachGroup, mu: int) -> tuple[complex, ...]:
    # keyed by group value: every degree p reuses the same e-sums
    return tuple(e_term(g, mu) for g in G.holonomy)


def multiplicity(G: BieberbachGroup, p: int, mu: int) -> int:
    """Multiplicity of the eigenvalue 4 pi^2 mu of the p-form Laplacian."""
    if not 0 <= p <= 4:
        raise ValueError("form degree out of range")
    total = 0 + 0j
    for g, e in zip(G.holonomy, _e_terms(G, mu)):
        total += g.traces()[p] * e
    value = total / G.order
    if abs(value.imag) > 1e-7 or abs(value.real - round(value.real)) > 1e-7:
        raise ArithmeticError(f"multiplicity not integral: {value}")
    result = round(value.real)
    if result < 0:
        raise ArithmeticError(f"negative multiplicity {result}")
    return result


def heat_trace_numeric(G: BieberbachGroup, p: int, s: float, mu_max: int) -> float:
    """Truncated spectral heat trace sum_{mu <= mu_max} d_{p,mu} e^{-4 pi^2 mu s}."""
    return sum(
        multiplicity(G, p, mu) * exp(-4.0 * pi * pi * mu * s)
        for mu in range(mu_max + 1)
    )
