"""Exact arithmetic in the real field Q(sqrt2, sqrt3).

Every value is stored as a + b*sqrt2 + c*sqrt3 + d*sqrt6 with rational
coordinates, which is a canonical form since {1, sqrt2, sqrt3, sqrt6} is a
Q-basis.  This is enough to express every coefficient that shows up in the
heat trace polynomials: the only irrationalities are 1/sqrt(k) for the
component volumes k in {1, 2, 3, 4, 6}.
"""
from __future__ import annotations

import math
from fractions import Fraction

Rat = int | Fraction


class UnrepresentableRadical(ValueError):
    """sqrt of an integer whose squarefree part is not 1, 2, 3 or 6."""


class QuadNumber:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Rat = 0, b: Rat = 0, c: Rat = 0, d: Rat = 0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "d", Fraction(d))

    def __setattr__(self, name, value):
        raise AttributeError("QuadNumber is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def coerce(cls, value: "QuadNumber | Rat") -> "QuadNumber":
        if isinstance(value, QuadNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to QuadNumber")

    @classmethod
    def sqrt_int(cls, n: int) -> "QuadNumber":
        """Exact square root of a positive integer n = f s^2 with f in 1, 2, 3, 6: s sqrt(f)."""
        if n <= 0:
            raise ValueError("sqrt_int needs a positive integer")
        for i, f in enumerate((1, 2, 3, 6)):
            s = math.isqrt(n // f)
            if f * s * s == n:
                return cls(*[s if j == i else 0 for j in range(4)])
        raise UnrepresentableRadical(f"sqrt({n}) is not in Q(sqrt2, sqrt3)")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        o = QuadNumber.coerce(other)
        return QuadNumber(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadNumber(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        return self + (-QuadNumber.coerce(other))

    def __rsub__(self, other):
        return QuadNumber.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational factor scales each coordinate
            return QuadNumber(self.a * other, self.b * other, self.c * other, self.d * other)
        o = QuadNumber.coerce(other)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return QuadNumber(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def _conj2(self):
        # Galois automorphism sqrt2 -> -sqrt2
        return QuadNumber(self.a, -self.b, self.c, -self.d)

    def _conj3(self):
        # Galois automorphism sqrt3 -> -sqrt3
        return QuadNumber(self.a, self.b, -self.c, -self.d)

    def inverse(self) -> "QuadNumber":
        if self.is_zero():
            raise ZeroDivisionError("QuadNumber division by zero")
        partial = self._conj2() * self._conj3() * self._conj2()._conj3()
        norm = self * partial
        assert norm.b == 0 and norm.c == 0 and norm.d == 0, "field norm must be rational"
        return QuadNumber(
            partial.a / norm.a, partial.b / norm.a, partial.c / norm.a, partial.d / norm.a
        )

    def __truediv__(self, other):
        return self * QuadNumber.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QuadNumber.coerce(other) * self.inverse()

    # -- predicates and conversions -----------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            o = QuadNumber.coerce(other)
        except TypeError:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def to_float(self) -> float:
        return (
            float(self.a)
            + float(self.b) * math.sqrt(2.0)
            + float(self.c) * math.sqrt(3.0)
            + float(self.d) * math.sqrt(6.0)
        )

    __float__ = to_float

    def __repr__(self):
        return f"QuadNumber({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self):
        parts = []
        for coef, tag in ((self.a, ""), (self.b, "sqrt2"), (self.c, "sqrt3"), (self.d, "sqrt6")):
            if coef == 0:
                continue
            if tag == "":
                text = str(coef)
            elif coef == 1:
                text = tag
            elif coef == -1:
                text = f"-{tag}"
            else:
                text = f"{coef}*{tag}"
            if parts and not text.startswith("-"):
                parts.append("+ " + text)
            elif parts:
                parts.append("- " + text[1:])
            else:
                parts.append(text)
        return " ".join(parts) if parts else "0"

