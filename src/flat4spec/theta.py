"""Heat trace polynomials in one-dimensional theta functions.

The p-form heat trace of a flat manifold R^n/Gamma is a polynomial with
coefficients in Q(sqrt2, sqrt3) (for n <= 4) in the functions

    z_{d,r}(s) = (4 pi s)^{-1/2} * sum_m exp(-((m + r)^2 / d) / (4 s))

for d in 1..n and a rational offset r folded into [0, 1/2].  The two
classical variables are x = z_{1,0} and y = z_{1,1/2}.  Each holonomy
representative gamma = B L_b contributes

    tr_p(B) / vol(fixed lattice) * prod_i z_{d_i, r_i}

where (d_i, r_i) come from the component decomposition of the fixed lattice
of B and the offsets of b.  Polynomials keep the holonomy order |F| as an
explicit scale, so stored coefficients are |F| times the true ones.

A monomial m fixes the product D of its dimensions, so its coefficient is
sqrt(D)/D times the integer trace sum c_{p,m} over the elements with that
monomial.  The group keeps these sums in one table (BieberbachGroup.trace_table,
built once per group) keyed on ints ((d, num, den), e) with r = num/den;
`trace_sums` reads it on those keys, and at equal order two heat traces are
equal exactly when their nonzero sums are.  Only `heat_trace_poly` makes
`Fraction` monomials, one per key.  `theta_value` is memoised per process,
with a bound, so `crosscheck` sums each variable once per (s, terms).

qfield is imported only where a QuadNumber is made (`_coefficient` and
`HeatTracePoly.from_terms`), so `trace_sums`, which classify and numspec read,
does not load it.

The engine never calls `monomial` or `fold_offset`.  They stay public because
tests/golden_heat.py builds the golden polynomials with them, and the
benchmark's output checks import golden_heat, `HeatTracePoly.from_terms` and
`monomial_str` from the checkout they measure.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .group import BieberbachGroup, _fraction_monomial

if TYPE_CHECKING:
    from .qfield import QuadNumber

Monomial = tuple[tuple[tuple[int, Fraction], int], ...]  # ((d, r), exponent), sorted


class ThetaError(ValueError):
    pass


def fold_offset(r) -> Fraction:
    f = Fraction(r)
    f = f - (f.numerator // f.denominator)
    return min(f, 1 - f)


def var_name(d: int, r: Fraction) -> str:
    if d == 1 and r == 0:
        return "x"
    if d == 1 and r == Fraction(1, 2):
        return "y"
    return f"z[{d},{r}]"


def monomial(vars_with_exp) -> Monomial:
    """Canonical monomial from ((d, r), exponent) pairs, d in 1..4; offsets get folded."""
    acc: dict[tuple[int, Fraction], int] = {}
    for (d, r), e in vars_with_exp:
        if e == 0:
            continue
        if d not in (1, 2, 3, 4):
            raise ThetaError(f"unsupported theta dimension {d}")
        key = (d, fold_offset(r))
        acc[key] = acc.get(key, 0) + e
    return tuple(sorted(acc.items()))


def monomial_str(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for (d, r), e in m:
        name = var_name(d, r)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


class HeatTracePoly(NamedTuple):
    """|F|-scaled heat trace polynomial: true value is sum(coeffs)/order."""

    order: int
    coeffs: tuple[tuple[Monomial, QuadNumber], ...]

    @classmethod
    def from_terms(cls, order: int, terms) -> "HeatTracePoly":
        from .qfield import QuadNumber
        acc: dict[Monomial, QuadNumber] = {}
        for mono, coef in terms:
            acc[mono] = acc.get(mono, QuadNumber()) + coef
        kept = [kv for kv in acc.items() if not kv[1].is_zero()]
        return cls(order, tuple(sorted(kept, key=lambda kv: _mono_key(kv[0]))))

    def coeff_dict(self) -> dict[Monomial, QuadNumber]:
        return dict(self.coeffs)

    def unscaled(self) -> dict[Monomial, QuadNumber]:
        inv = Fraction(1, self.order)
        return {m: c * inv for m, c in self.coeffs}

    def support(self) -> frozenset[Monomial]:
        return frozenset(m for m, _ in self.coeffs)

    def render(self) -> str:
        if not self.coeffs:
            return f"{self.order}*Z_p = 0"
        parts = [f"({c}) {monomial_str(m)}" for m, c in self.coeffs]
        return f"{self.order}*Z_p = " + " + ".join(parts)

    def eval_numeric(self, s: float, terms: int = 40) -> float:
        total = 0.0
        for mono, coef in self.coeffs:
            val = float(coef)
            for var, e in mono:
                val *= theta_value(*var, s, terms) ** e
            total += val
        return total / self.order


def _mono_key(m: Monomial):
    deg = sum(e for _, e in m)
    return (-deg, m)


def poly_equal(a: HeatTracePoly, b: HeatTracePoly) -> bool:
    """Exact equality of the underlying (unscaled) polynomials."""
    if a.order == b.order:
        return a.coeffs == b.coeffs
    return a.unscaled() == b.unscaled()


@lru_cache(maxsize=1024)  # the catalog's 8 variables (d, r) at 128 (s, terms) settings
def theta_value(d: int, r, s: float, terms: int = 40) -> float:
    """Numeric z_{d,r}(s) with the sum truncated at |m| <= terms."""
    r = float(Fraction(r))
    quarter = 1.0 / (4.0 * s)
    total = 0.0
    for m in range(-terms, terms + 1):
        total += math.exp(-((m + r) ** 2 / d) * quarter)
    return total / math.sqrt(4.0 * math.pi * s)


def trace_sums(G: BieberbachGroup, p: int) -> dict[tuple, int]:
    """c_{p,m}, p = 0..n: the sum of tr_p(B) over the holonomy elements with theta key m.

    Read from the group's trace-sum table, keyed like it on ints
    ((d, num, den), e); keys whose sum is 0 are dropped.
    """
    if not 0 <= p <= len(G.holonomy[0]._code):
        raise ValueError("form degree out of range")
    return {mono: sums[p] for mono, sums in G.trace_table.items() if sums[p]}


@lru_cache(maxsize=None)
def _coefficient(D: int, tr: int) -> QuadNumber:
    """tr/vol = tr sqrt(D)/D: a monomial fixes the product D of its dimensions d."""
    from .qfield import QuadNumber
    return QuadNumber.sqrt_int(D) * Fraction(tr, D)


def heat_trace_poly(G: BieberbachGroup, p: int) -> HeatTracePoly:
    """Exact p-form heat trace of R^n/G as a theta polynomial."""
    # trace_sums has distinct keys and nonzero sums: nothing to accumulate
    terms = [(_fraction_monomial(key), _coefficient(math.prod(d ** e for (d, _, _), e in key), tr))
             for key, tr in trace_sums(G, p).items()]
    return HeatTracePoly(G.order, tuple(sorted(terms, key=lambda kv: _mono_key(kv[0]))))
