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
mod D: each product, on both sides of every element reached, updates a copy
of its integer translation in place.  It refuses generators that are not 4x4
with 4 translation entries.

`build_group` turns the closure's residues t = D*b into per-element
invariants on ints: one dot product r_j = (t . u_j) mod D per fixed
component u_j (a nontrivial element fixes a point iff every r_j is 0), the
folded offsets min(r_j, D - r_j) counted into the theta monomial, and
(D, D*b) in lowest terms.  They become `Fraction`s last, through one table
of k/D per group.  An element made on its own derives the same fields
lazily from its own (D, D*b).

An element built from a matrix checks it once, on construction; products,
inverses and `build_group` construct elements from codes they already know,
without a second check.  The matrix, the p-form traces, the fixed
decomposition and the signed cycles of a code come from one walk over its
cycles (intlat.code_cycles), computed once per code by `_code_invariants`: a
pure function of the code, memoised for all |B4| = 384 signed permutations.
Each element keeps them with the fields above.  Betti numbers, orientability
(det B = tr_4 B), Sunada numbers and the length spectra (lengths) read these
values.  A group keeps one trace-sum table, {theta monomial: (sum tr_0, ...,
sum tr_4)} over its holonomy, built in one pass; heat traces and
classification read it.

`AffineIsometry` and `BieberbachGroup` are hand-written read-only classes:
`__init__` (and `AffineIsometry._from_code`) set the fields through
object.__setattr__, assignment and deletion raise AttributeError, and
equality and hash read only the fields (B, b) or (name, generators,
holonomy).  The cached values above, the code, a group's trace-sum table and
its cached hash are kept in the instance dict, outside the compared and
hashed fields; cached_property and build_group write that dict directly.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Sequence

from . import intlat
from .intlat import (Cycles, FixedDecomposition, IntMatrix, IntVector, RatVector,
                     code_compose, code_inverse, code_product)
from .kraw import cycle_charpoly

MAX_HOLONOMY_ORDER = 48
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


class _Fractions(dict):
    """k -> Fraction(k, D) and (d, k) -> (d, Fraction(k, D)), each made on first use.

    Made for the residues in use, not for every k < D: D comes from outside.
    """

    def __init__(self, D: int):
        super().__init__()
        self.D = D

    def __missing__(self, key):
        value = self[key] = (Fraction(key, self.D) if type(key) is int
                             else (key[0], self[key[1]]))
        return value


def _element_fields(cycles: Cycles, t: Sequence[int], fractions: _Fractions) -> dict:
    """The fields _scaled_b, _raw_offsets, _offsets, _theta_monomial of b = t/D.

    D is fractions.D.  r_j = (t . u_j) mod D for the fixed component u_j of
    each signed cycle with sign product +1, folded to min(r_j, D - r_j); the
    folded pairs (d_j, r_j) sort on ints as their fractions would.
    """
    D = fractions.D
    raw, pairs = [], []
    for orbit, eps in cycles:
        if eps == 1:
            r = sum([t[a] if s > 0 else -t[a] for a, s in orbit]) % D
            raw.append(fractions[r])
            pairs.append((len(orbit), min(r, D - r)))
    ordered = sorted(pairs)
    k = gcd(D, *t)
    return {"_scaled_b": (D // k, tuple([x // k for x in t])),
            "_raw_offsets": tuple(raw),
            "_offsets": tuple([fractions[p] for p in pairs]),
            "_theta_monomial": tuple([(fractions[p], ordered.count(p))
                                      for p in dict.fromkeys(ordered)])}


class _Frozen:
    """Read-only attributes; __init__, cached_property and build_group write vars(self)."""

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
        object.__setattr__(self, "_cycle_invariants", _code_invariants(code)[1])

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
    # __init__ and _from_code keep the code's traces, fixed decomposition and
    # signed cycles (_code_invariants) as _cycle_invariants.  build_group
    # sets _scaled_b = (D, D*b) for D the lcm of the denominators of b, the
    # unfolded component offsets _raw_offsets, and _offsets and
    # _theta_monomial from the closure's integers; an element made on its
    # own derives all four from b on first use

    def _fields_from_b(self) -> dict:
        D = lcm(*(x.denominator for x in self.b))
        fields = _element_fields(self.cycles(), [x.numerator * (D // x.denominator)
                                                 for x in self.b], _Fractions(D))
        vars(self).update(fields)
        return fields

    _scaled_b = cached_property(lambda self: self._fields_from_b()["_scaled_b"])
    _raw_offsets = cached_property(lambda self: self._fields_from_b()["_raw_offsets"])
    _offsets = cached_property(lambda self: self._fields_from_b()["_offsets"])
    _theta_monomial = cached_property(lambda self: self._fields_from_b()["_theta_monomial"])

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
        return not self.is_identity_matrix() and any(self._raw_offsets)


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
    scaled = [(g._code, [x.numerator * (D // x.denominator) for x in g.b]) for g in gens]
    # code -> D * translation mod D of the first representative found
    elements = {_IDENTITY_CODE: [0] * 4}
    consistent = True
    frontier = [_IDENTITY_CODE]
    for cur in frontier:  # breadth-first: the loop reaches what it appends
        a = elements[cur]
        for B, b in scaled:
            # cur * g, then g * cur: (L, x) * (R, y) = (L R, R^T x + y)
            for L, x, R, y in ((cur, a, B, b), (B, b, cur, a)):
                t = y.copy()
                for xi, c in zip(x, R):
                    if c > 0:
                        t[c - 1] = (t[c - 1] + xi) % D
                    else:
                        t[-c - 1] = (t[-c - 1] - xi) % D
                M = code_product(L, R)
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
    fractions = _Fractions(D)
    # identity first, then sorted by matrix (each matrix occurs once)
    codes = sorted(elements, key=lambda M: _code_invariants(M)[0])
    codes.remove(_IDENTITY_CODE)
    holonomy = []
    for M in [_IDENTITY_CODE, *codes]:
        t = elements[M]
        g = AffineIsometry._from_code(M, tuple([fractions[x] for x in t]))
        fields = _element_fields(g.cycles(), t, fractions)
        # a nontrivial element is fixed-point free iff some component offset
        # of b is nonintegral
        if M != _IDENTITY_CODE and not any(fields["_raw_offsets"]):
            raise GroupError(f"not torsion-free: element with matrix {g.B} fixes a point")
        vars(g).update(fields)
        holonomy.append(g)
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
        D, t = g._scaled_b
        fixed = [2 * t[i] for i in range(4) if g.B[i][i] == 1]  # 2*D*b_i: 0 or D
        if any(x not in (0, D) for x in fixed):
            raise GroupError("diagonal group with offsets outside {0, 1/2}")
        counts[(len(fixed), fixed.count(D))] += 1
    return counts


def sunada_tuple(G: BieberbachGroup) -> tuple[int, ...]:
    """(c_{1,1}, c_{2,1}, c_{2,2}, c_{3,1}, c_{3,2}, c_{3,3})."""
    c = sunada_numbers(G)
    return (c[1, 1], c[2, 1], c[2, 2], c[3, 1], c[3, 2], c[3, 3])

