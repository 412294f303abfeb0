"""Bieberbach groups with translation lattice Z^4.

A group is generated by affine isometries gamma = B L_b acting by
x -> B x + B b, with B a signed permutation matrix and b rational.  Elements
are normalized so b lies in [0, 1)^4; the holonomy group is the finite set of
coset representatives mod the lattice.  Composition follows from the action:

    (B, b) * (B', b') = (B B', B'^T b + b')      (translation part mod Z^4)

Each element keeps the signed-permutation code of B (intlat.signed_code);
products, inverses and the action on points run on it through the one
product rule, intlat.code_compose.  `build_group` closes the generators on
codes and on translations scaled by D, the lcm of their denominators, reduced
mod D.  Only the final holonomy elements become `AffineIsometry` objects,
built from the codes the closure holds and from one table of the fractions
k/D in use.  It refuses generators that are not 4x4 with 4 translation
entries.

An element built from a matrix checks it once, on construction; products,
inverses and `build_group` construct elements from codes they already know,
without a second check.  The matrix, the p-form traces, the fixed
decomposition and the signed cycles of a code come from one walk over its
cycles (intlat.code_cycles), computed once per code by `_code_invariants`: a
pure function of the code, memoised for all |B4| = 384 signed permutations.
Each element keeps them, with its translation on integers (D, D*b) for D the
lcm of the denominators of b, the raw and folded component offsets of b (one
integer dot product per component) and the p-independent theta monomial.
Torsion-freeness, Betti numbers, orientability (det B = tr_4 B) and the
length spectra (lengths) read these values.  A group keeps one
trace-sum table, {theta monomial: (sum tr_0, ..., sum tr_4)} over its
holonomy, built in one pass; heat traces and classification read it.

`AffineIsometry` and `BieberbachGroup` are hand-written read-only classes:
`__init__` (and `AffineIsometry._from_code`) set the fields through
object.__setattr__, assignment and deletion raise AttributeError, and
equality and hash read only the fields (B, b) or (name, generators,
holonomy).  The cached values above, the code, a group's trace-sum table and
its cached hash are kept in the instance dict, outside the compared and
hashed fields; cached_property writes that dict directly.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Sequence

from . import intlat
from .intlat import (Cycles, FixedDecomposition, IntMatrix, IntVector, RatVector,
                     code_compose, code_inverse, code_product)
from .kraw import cycle_charpoly

MAX_HOLONOMY_ORDER = 48
_HALF = Fraction(1, 2)
_IDENTITY_CODE = (1, 2, 3, 4)  # intlat.signed_code of the 4x4 identity


class GroupError(ValueError):
    pass


def _norm_vec(v: Sequence) -> RatVector:
    out = []
    for x in v:
        f = x if isinstance(x, Fraction) else Fraction(x)
        floor = f.numerator // f.denominator
        out.append(f - floor if floor else f)
    return tuple(out)


@lru_cache(maxsize=384)  # |B4|: every 4x4 signed permutation fits
def _code_invariants(code: IntVector) -> tuple[IntMatrix, tuple[tuple[int, ...], FixedDecomposition, Cycles]]:
    """(B, (p-form traces, fixed decomposition, signed cycles)) of the signed permutation.

    One walk over the cycles of the code.  The value depends on the code
    alone and is immutable, so sharing it between elements and groups
    changes no result.
    """
    cycles = intlat.code_cycles(code)
    return (intlat.code_matrix(code),
            (cycle_charpoly(cycles), intlat.cycle_decomposition(cycles), cycles))


class _Frozen:
    """Read-only attributes; __init__ and cached_property write the instance dict."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AffineIsometry(_Frozen):
    """gamma = B L_b; compared and hashed by (B, b), b normalized to [0, 1)^4."""

    def __init__(self, B: IntMatrix, b: RatVector):
        code = intlat.signed_code(B)
        if code is None:
            raise GroupError("matrix part must be a signed permutation")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", _norm_vec(b))
        # kept in the instance dict, outside the compared and hashed fields
        object.__setattr__(self, "_code", code)

    @classmethod
    def _from_code(cls, code: IntVector, b: RatVector) -> "AffineIsometry":
        """The element (B, b) for a valid code of B and b already in [0, 1)^4."""
        self = object.__new__(cls)
        B, invariants = _code_invariants(code)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_code", code)
        object.__setattr__(self, "_cycle_invariants", invariants)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.B, self.b) == (other.B, other.b)

    def __hash__(self) -> int:
        return hash((self.B, self.b))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(B={self.B!r}, b={self.b!r})"

    @classmethod
    def make(cls, B: Sequence[Sequence[int]], b: Sequence) -> "AffineIsometry":
        return cls(tuple(tuple(int(x) for x in row) for row in B), tuple(Fraction(x) for x in b))

    @classmethod
    def identity(cls, n: int = 4) -> "AffineIsometry":
        return cls(intlat.identity(n), (Fraction(0),) * n)

    def __mul__(self, other: "AffineIsometry") -> "AffineIsometry":
        M, t = code_compose(self._code, self.b, other._code, other.b)
        return AffineIsometry._from_code(M, _norm_vec(t))

    def inverse(self) -> "AffineIsometry":
        # (B^T, -B b)
        newb = _norm_vec([-x for x in code_product(self._code, self.b)])
        return AffineIsometry._from_code(code_inverse(self._code), newb)

    def is_identity_matrix(self) -> bool:
        return self._code == _IDENTITY_CODE

    def apply(self, x: Sequence[Fraction]) -> RatVector:
        shifted = tuple(Fraction(xi) + bi for xi, bi in zip(x, self.b))
        return code_product(self._code, shifted)

    # -- invariants ----------------------------------------------------
    # Computed once per code (_code_invariants) and kept in the instance
    # dict (not in the compared and hashed fields).

    @cached_property
    def _cycle_invariants(self) -> tuple[tuple[int, ...], FixedDecomposition, Cycles]:
        return _code_invariants(self._code)[1]

    @cached_property
    def _scaled_b(self) -> tuple[int, IntVector]:
        """(D, D*b) for D the lcm of the denominators of b."""
        D = lcm(*(x.denominator for x in self.b))
        return D, tuple([x.numerator * (D // x.denominator) for x in self.b])

    @cached_property
    def _raw_offsets(self) -> tuple[Fraction, ...]:
        """Component offsets (b . u_i) mod 1 without folding, on the integers D*b."""
        D, t = self._scaled_b
        return tuple(Fraction(sum([x * u for x, u in zip(t, comp.vector) if u]) % D, D)
                     for comp in self.decomposition().components)

    @cached_property
    def _offsets(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((comp.d, min(r, 1 - r)) for comp, r in
                     zip(self.decomposition().components, self._raw_offsets))

    @cached_property
    def _theta_monomial(self) -> tuple[tuple[tuple[int, Fraction], int], ...]:
        return tuple(sorted(Counter(self._offsets).items()))

    def decomposition(self) -> FixedDecomposition:
        return self._cycle_invariants[1]

    def traces(self) -> tuple[int, ...]:
        return self._cycle_invariants[0]

    def cycles(self) -> Cycles:
        """The signed cycles of B (intlat.code_cycles)."""
        return self._cycle_invariants[2]

    def translation_offsets(self) -> tuple[tuple[int, Fraction], ...]:
        """Pairs (d_i, r_i): component support size and folded offset of b.

        r_i = (b . u_i) mod 1 folded into [0, 1/2]; r and 1 - r give the same
        theta value and the same squared length set.
        """
        return self._offsets

    def theta_monomial(self) -> tuple[tuple[tuple[int, Fraction], int], ...]:
        """The sorted ((d, r), exponent) pairs of prod_i z_{d_i, r_i}.

        It does not depend on the form degree p; it equals
        theta.monomial(((d, r), 1) for d, r in self.translation_offsets()).
        """
        return self._theta_monomial

    def is_fixed_point_free(self) -> bool:
        """True when no translate B L_{b + lambda} fixes a point of R^4.

        Equivalent to some component offset of b being nonintegral, i.e. the
        minimal squared displacement on the fixed space is positive.
        """
        if self.is_identity_matrix():
            return False
        return any(r != 0 for r in self._raw_offsets)


class BieberbachGroup(_Frozen):
    """Compared and hashed by (name, generators, holonomy); metadata is not."""

    def __init__(self, name: str, generators: tuple[AffineIsometry, ...],
                 holonomy: tuple[AffineIsometry, ...],  # identity first, then sorted
                 metadata: dict | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "holonomy", holonomy)
        object.__setattr__(self, "metadata", {} if metadata is None else metadata)

    @cached_property
    def _value_hash(self) -> int:
        return hash((self.name, self.generators, self.holonomy))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.generators, self.holonomy)
                == (other.name, other.generators, other.holonomy))

    def __hash__(self) -> int:
        # hashed by value, once: per-group caches key on the group
        return self._value_hash

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(name={self.name!r}, "
                f"generators={self.generators!r}, holonomy={self.holonomy!r}, "
                f"metadata={self.metadata!r})")

    @property
    def order(self) -> int:
        return len(self.holonomy)

    @cached_property
    def trace_table(self) -> dict[tuple, tuple[int, ...]]:
        """{theta monomial m: (c_{0,m}, ..., c_{4,m})}, built in one pass; read only.

        c_{p,m} is the sum of tr_p(B) over the holonomy elements with theta
        monomial m.  Every c_{0,m} counts elements, so it is positive.
        """
        table: dict[tuple, tuple[int, ...]] = {}
        for g in self.holonomy:
            mono, tr = g.theta_monomial(), g.traces()
            cur = table.get(mono)
            table[mono] = tr if cur is None else tuple([x + y for x, y in zip(cur, tr)])
        return table

    def nontrivial(self) -> tuple[AffineIsometry, ...]:
        return self.holonomy[1:]


def build_group(generators: Sequence[AffineIsometry], name: str = "",
                metadata: dict | None = None) -> BieberbachGroup:
    """Close the generators modulo Z^4 and validate the Bieberbach conditions."""
    gens = tuple(generators)
    for k, g in enumerate(gens, 1):
        if len(g.B) != 4 or len(g.b) != 4:
            raise GroupError(f"generator {k} has a {len(g.B)}x{len(g.B)} matrix and "
                             f"{len(g.b)} translation entries; expected 4x4 and 4")
    D = lcm(*(x.denominator for g in gens for x in g.b))
    scaled = [(g._code, tuple(x.numerator * (D // x.denominator) for x in g.b))
              for g in gens]
    # code -> D * translation mod D of the first representative found
    elements = {_IDENTITY_CODE: (0,) * 4}
    consistent = True
    frontier = [_IDENTITY_CODE]
    while frontier:
        cur = frontier.pop(0)
        a = elements[cur]
        for B, b in scaled:
            for M, t in (code_compose(cur, a, B, b), code_compose(B, b, cur, a)):
                t = tuple([x % D for x in t])
                first = elements.get(M)
                if first is None:
                    if len(elements) >= MAX_HOLONOMY_ORDER:
                        raise GroupError("holonomy closure exceeded bound 48")
                    elements[M] = t
                    frontier.append(M)
                elif first != t:
                    # The products do not close over Z^4; one catalog entry
                    # (29') has this defect as printed.  Keep the first
                    # representative found per matrix (breadth-first, hence
                    # deterministic) and record the inconsistency.
                    consistent = False
    # one Fraction per residue in use, not per k < D: D comes from outside
    fractions = {x: Fraction(x, D) for t in elements.values() for x in t}
    # identity first, then sorted by matrix (each matrix occurs once)
    codes = sorted(elements, key=lambda M: _code_invariants(M)[0])
    codes.remove(_IDENTITY_CODE)
    holonomy = [AffineIsometry._from_code(M, tuple([fractions[x] for x in elements[M]]))
                for M in [_IDENTITY_CODE, *codes]]
    for g in holonomy[1:]:
        if not g.is_fixed_point_free():
            raise GroupError(f"not torsion-free: element with matrix {g.B} fixes a point")
    meta = dict(metadata or {})
    meta.setdefault("translation_consistent", consistent)
    return BieberbachGroup(name, gens, tuple(holonomy), meta)


# -- group level invariants ------------------------------------------------


def is_orientable(G: BieberbachGroup) -> bool:
    # det B = tr_4(B), the top coefficient of det(Id + t*B)
    return all(g.traces()[4] == 1 for g in G.holonomy)


def is_diagonal_type(G: BieberbachGroup) -> bool:
    # a signed permutation is diagonal iff no diagonal entry is zero
    return all(g.B[0][0] and g.B[1][1] and g.B[2][2] and g.B[3][3]
               for g in G.holonomy)


def is_abelian_holonomy(G: BieberbachGroup) -> bool:
    codes = [g._code for g in G.holonomy]
    return all(code_product(a, b) == code_product(b, a) for a in codes for b in codes)


def betti(G: BieberbachGroup, p: int) -> int:
    """p-th Betti number, the average of p-form traces over the holonomy."""
    if not 0 <= p <= 4:
        raise ValueError("form degree out of range")
    total = sum(g.traces()[p] for g in G.holonomy)
    if total % G.order != 0:
        raise GroupError("trace average is not integral")
    return total // G.order


def sunada_numbers(G: BieberbachGroup) -> dict[tuple[int, int], int]:
    """Counts c_{d,t} of nontrivial elements by (fixed rank, half offsets).

    Only defined for diagonal type: d is the number of +1 diagonal entries of
    B and t the number of fixed axes whose translation coordinate is 1/2.
    """
    if not is_diagonal_type(G):
        raise GroupError("Sunada numbers need a diagonal-type group")
    counts = {(d, t): 0 for d in range(1, 5) for t in range(0, d + 1)}
    for g in G.nontrivial():
        fixed = [i for i in range(4) if g.B[i][i] == 1]
        d = len(fixed)
        t = sum(1 for i in fixed if g.b[i] == _HALF)
        if any(g.b[i] not in (0, _HALF) for i in fixed):
            raise GroupError("diagonal group with offsets outside {0, 1/2}")
        counts[(d, t)] += 1
    return counts


def sunada_tuple(G: BieberbachGroup) -> tuple[int, ...]:
    """(c_{1,1}, c_{2,1}, c_{2,2}, c_{3,1}, c_{3,2}, c_{3,3})."""
    c = sunada_numbers(G)
    return (c[1, 1], c[2, 1], c[2, 2], c[3, 1], c[3, 2], c[3, 3])

