"""Krawtchouk polynomials and exterior-power traces of integral orthogonal matrices.

For a signed permutation matrix B acting on R^n, the trace of the induced
action on p-forms is the coefficient of t^p in det(Id + t*B).  That
determinant is a product over the cycles of B (intlat.code_cycles): a cycle
of length k whose signs multiply to eps contributes 1 - eps*(-t)^k.  When B is
diagonal with j entries equal to -1, every cycle has length 1 and the trace is
the Krawtchouk value K_p^n(j), the t^p coefficient of (1 + t)^(n-j) (1 - t)^j.
"""
from __future__ import annotations

from math import comb

from . import intlat


def krawtchouk(n: int, p: int, j: int) -> int:
    """K_p^n(j) = sum_t (-1)^t C(j, t) C(n - j, p - t)."""
    if not (0 <= p <= n and 0 <= j <= n):
        raise ValueError("krawtchouk arguments out of range")
    return sum((-1) ** t * comb(j, t) * comb(n - j, p - t) for t in range(p + 1))


def charpoly_coeffs(B: intlat.IntMatrix) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_n) of det(Id + t*B), so c_p = tr_p(B)."""
    return cycle_charpoly(intlat.code_cycles(intlat.checked_code(B)))


def cycle_charpoly(cycles) -> tuple[int, ...]:
    """det(Id + t*B) for the signed permutation B with these signed cycles."""
    coeffs = [1] + [0] * sum(len(orbit) for orbit, _ in cycles)
    for orbit, eps in cycles:
        # multiply by the cycle factor 1 - eps*(-t)^k in place, top degree first
        k = len(orbit)
        lead = -eps * (-1) ** k
        for i in range(len(coeffs) - 1, k - 1, -1):
            coeffs[i] += lead * coeffs[i - k]
    return tuple(coeffs)


def trace_p(B: intlat.IntMatrix, p: int) -> int:
    """Trace of B acting on p-forms."""
    n = len(B)
    if not 0 <= p <= n:
        raise ValueError("form degree out of range")
    return charpoly_coeffs(B)[p]
