"""Exact spectrum: eigenvalue multiplicities and truncated heat traces.

The p-form Laplacian of R^n/Gamma has eigenvalues 4 pi^2 mu, mu >= 0 an
integer, and their multiplicities d_{p,mu} are the Poisson dual of the heat
trace polynomial of `theta`.  With q = exp(-4 pi^2 s), z_{d,r}(s) = sqrt(d) theta_{d,r}(q),

    theta_{d,r}(q) = sum_n cos(2 pi n r) q^{d n^2} = 1 + sum_{n>=1} 2 cos(2 pi n r) q^{d n^2},

and the sqrt(d_i) cancel an element's factor 1/vol = 1/sqrt(prod_i d_i), so
sum_mu d_{p,mu} q^mu = (1/|F|) sum_m c_{p,m} prod_{(d,r)^e in m} theta_{d,r}(q)^e
with c_{p,m} the integer trace sums of `theta.trace_sums`, read on their int
keys ((d, num, den), e): n r has denominator den / gcd(n num, den).  One element's q^mu
coefficient is its e-sum, the sum of exp(-2 pi i v.b) over v in Z^n with
|v|^2 = mu and B v = v; those v are the sums n_i u_i over the fixed components.

For k/L in lowest terms, 2 cos(2 pi k / L) is an integer exactly when L is
1, 2, 3, 4 or 6, and then depends on L alone (`_TWO_COS`); that covers every
catalog offset.  So every coefficient is an integer, the division by |F| is
checked, and the result is exact; other phase denominators are refused.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import exp, gcd, isqrt, pi

from .group import BieberbachGroup
from .theta import trace_sums

# 2 cos(2 pi k / L) for k prime to L, for the denominators L where it is an integer
_TWO_COS = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}


@lru_cache(maxsize=None)
def lattice_shell(mu: int) -> tuple[tuple[int, int, int, int], ...]:
    """All vectors in Z^4 (4-tuples) of squared norm mu; the engine never calls it."""
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


@lru_cache(maxsize=None)
def _series(key: tuple, N: int) -> tuple[int, ...]:
    """Coefficients of q^0, ..., q^N in prod theta_{d,r}(q)^e, r = num/den, over a theta key."""
    out = [1] + [0] * N
    for (d, num, den), e in key:
        terms = []  # (d n^2, 2 cos(2 pi n r)) for the nonzero terms with n >= 1
        for n in range(1, isqrt(N // d) + 1):
            c = _TWO_COS.get(den // gcd(n * num, den))  # the denominator of n r
            if c is None:
                raise ArithmeticError(f"cos(2 pi {Fraction(n * num, den)}) is not rational")
            if c:
                terms.append((d * n * n, c))
        for _ in range(e):
            new = out[:]
            for t, c in terms:
                for mu in range(t, N + 1):
                    new[mu] += c * out[mu - t]
            out = new
    return tuple(out)


def e_term(g, mu: int) -> int:
    """Exact sum of exp(-2 pi i v.b) over shell vectors B fixes; kept for bench/tracer.py."""
    if mu < 0:
        raise ValueError("shell index must be nonnegative")
    return _series(g._theta_key, mu)[mu]


def multiplicities(G: BieberbachGroup, p: int, mu_max: int) -> list[int]:
    """Multiplicities of the eigenvalues 4 pi^2 mu, mu = 0..mu_max, of the p-form Laplacian."""
    if mu_max < 0:
        raise ValueError("shell index must be nonnegative")
    totals = [0] * (mu_max + 1)
    for key, tr in trace_sums(G, p).items():
        for mu, c in enumerate(_series(key, mu_max)):
            totals[mu] += tr * c
    for total in totals:
        if total % G.order:
            raise ArithmeticError(f"multiplicity not integral: {Fraction(total, G.order)}")
        if total < 0:
            raise ArithmeticError(f"negative multiplicity {total // G.order}")
    return [total // G.order for total in totals]


def multiplicity(G: BieberbachGroup, p: int, mu: int) -> int:
    """Multiplicity of the p-form eigenvalue 4 pi^2 mu; kept for __all__ and bench/tracer.py."""
    return multiplicities(G, p, mu)[mu]


def heat_trace_numeric(G: BieberbachGroup, p: int, s: float, mu_max: int) -> float:
    """Truncated spectral heat trace sum_{mu <= mu_max} d_{p,mu} e^{-4 pi^2 mu s}."""
    return sum(d * exp(-4.0 * pi * pi * mu * s)
               for mu, d in enumerate(multiplicities(G, p, mu_max)))
