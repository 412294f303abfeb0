"""Bieberbach groups with translation lattice Z^n.

A group is generated by affine isometries gamma = B L_b acting by
x -> B x + B b, with B a signed permutation matrix and b rational.  The
holonomy group is the finite set of coset representatives mod the lattice.
Composition follows from the action:

    (B, b) * (B', b') = (B B', B'^T b + b')      (translation part mod Z^n)

Every element is set up in one place, `AffineIsometry._set`, from the
signed-permutation code of B (intlat.signed_code) and ints t in [0, D)^n with
b = t/D.  `__init__` (the one public constructor) checks the matrix and that b
has one exact entry (no float) per row, then turns b into ints, D the lcm of
its denominators; `_from_code` skips the checks for a known code.  Products
and inverses run on codes and ints through intlat.code_compose, and so does
`build_group`: it closes the generators under that one rule, mod D the lcm of
theirs, and gives every holonomy element that D.  An element's n is the length
of its code, and a group's that of its identity; only the catalog requires
n = 4 (no generators give the 4-torus).

`_set` also computes every other per-element field from the ints, so an
element is complete when it is made: the sum s_j = t . u_j per fixed
component u_j (a nontrivial element fixes a point iff every s_j is 0 mod D),
the folded offsets min(r_j, D - r_j) of r_j = s_j mod D, and the theta
monomial they count into, keyed on ((d, num, den), exponent) in lowest terms
so that it does not depend on D.  An element keeps no `Fraction`: b, the
offsets and the theta monomial become `Fraction`s in the methods returning them.

The matrix, the p-form traces, the fixed decomposition, the signed cycles and
the order of a code come from one walk over its cycles (intlat.code_cycles),
memoised per code by `_code_invariants` for all |B4| = 384 signed
permutations; Betti numbers, orientability (det B = tr_n B), Sunada numbers,
holonomy labels and length spectra (lengths) read them.  A group's
one trace-sum table, {theta key: (sum tr_0, ..., sum tr_n)} over its holonomy,
adds traces on the int keys; heat traces, classification and the eigenvalue
series read it, and only theta.heat_trace_poly makes `Fraction` monomials.

`AffineIsometry` and `BieberbachGroup` are read-only: assignment and deletion
raise AttributeError, and equality and hash read only (B, b) or (name,
generators, holonomy).  The code, the ints, the fields above, a group's
translation-consistency flag and its trace-sum table are kept in the
instance, outside the compared and hashed fields.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from . import intlat
from .intlat import (Cycles, FixedDecomposition, IntMatrix, IntVector, RatVector,
                     code_compose, code_inverse, code_product)
from .kraw import cycle_charpoly

MAX_HOLONOMY_ORDER = 48


class GroupError(ValueError):
    pass


@lru_cache(maxsize=384)  # |B4|: every 4x4 signed permutation fits; other n evict
def _code_invariants(code: IntVector) -> tuple[IntMatrix, tuple]:
    """(B, (p-form traces, fixed decomposition, signed cycles, order)) of the signed permutation.

    One walk over the cycles of the code; the order is the lcm of len, or
    2*len if eps = -1.  The value depends on the code alone and is
    immutable, so sharing it between elements and groups changes no result.
    """
    cycles = intlat.code_cycles(code)
    order = lcm(*[len(orbit) if eps == 1 else 2 * len(orbit) for orbit, eps in cycles])
    return (intlat.code_matrix(code),
            (cycle_charpoly(cycles), intlat.cycle_decomposition(cycles), cycles, order))


def _fraction_monomial(key: tuple) -> tuple[tuple[tuple[int, Fraction], int], ...]:
    """The theta monomial ((d, r), e) of an int key ((d, num, den), e)."""
    return tuple([((d, Fraction(n, den)), e) for (d, n, den), e in key])


def _exact(x) -> Fraction:
    """A translation entry as a Fraction; a float is refused, as 0.1 is not 1/10."""
    if isinstance(x, float):
        raise GroupError(f"translation entries must be exact, not the float {x!r}")
    return Fraction(x)


class _Frozen:
    """Read-only attributes, set through object.__setattr__ (`trace_table` writes vars(self))."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AffineIsometry(_Frozen):
    """gamma = B L_b; compared and hashed by (B, b), b normalized to [0, 1)^n."""

    def __init__(self, B: IntMatrix, b: RatVector):
        code = intlat.signed_code(B)  # reads 1.0 and True as 1
        if code is None:
            if any(x % 1 for row in B for x in row):
                raise GroupError("matrix entries must be integers")
            raise GroupError("matrix part must be a signed permutation")
        b = [x if isinstance(x, Fraction) else _exact(x) for x in b]
        if len(b) != len(B):
            raise GroupError(f"a {len(B)}x{len(B)} matrix needs {len(B)} translation "
                             f"entries, not {len(b)}")
        D = lcm(*[x.denominator for x in b])
        self._set(code, tuple([x.numerator * (D // x.denominator) % D for x in b]), D)

    @classmethod
    def _from_code(cls, code: IntVector, t: IntVector, D: int) -> "AffineIsometry":
        """The element (B, t/D) for a valid code of B and t in [0, D)^n."""
        self = object.__new__(cls)
        self._set(code, t, D)
        return self

    def _set(self, code: IntVector, t: IntVector, D: int) -> None:
        B, invariants = _code_invariants(code)
        # s_j = t . u_j per signed cycle of sign product +1; the folded pairs
        # (d_j, min(r_j, D - r_j)) sort on ints as their fractions would
        sums, pairs = [], []
        for orbit, eps in invariants[2]:
            if eps == 1:
                sums.append(sum([t[a] if s > 0 else -t[a] for a, s in orbit]))
                r = sums[-1] % D
                pairs.append((len(orbit), min(r, D - r)))
        ordered = sorted(pairs)
        theta = []
        for d, k in dict.fromkeys(ordered):
            g = gcd(k, D)
            theta.append(((d, k // g, D // g), ordered.count((d, k))))
        # the field B, then what is kept outside the compared and hashed fields
        for name, value in (("B", B), ("_code", code), ("_t", t), ("_D", D),
                            ("_cycle_invariants", invariants), ("_sums", tuple(sums)),
                            ("_offsets", tuple(pairs)), ("_theta_key", tuple(theta))):
            object.__setattr__(self, name, value)

    @property
    def b(self) -> RatVector:
        D = self._D
        return tuple([Fraction(x, D) for x in self._t])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.B, self.b) == (other.B, other.b)

    def __hash__(self) -> int:
        return hash((self.B, self.b))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(B={self.B!r}, b={self.b!r})"

    @classmethod
    def identity(cls, n: int = 4) -> "AffineIsometry":
        """The identity of R^n, 4-dimensional unless n is given."""
        return cls(intlat.identity(n), (Fraction(0),) * n)

    def __mul__(self, other: "AffineIsometry") -> "AffineIsometry":
        E, F = self._D, other._D
        D = lcm(E, F)
        M, t = code_compose(self._code, [x * (D // E) for x in self._t],
                            other._code, [x * (D // F) for x in other._t])
        return AffineIsometry._from_code(M, tuple([x % D for x in t]), D)

    def inverse(self) -> "AffineIsometry":
        # (B^T, -B b)
        D = self._D
        t = tuple([-x % D for x in code_product(self._code, self._t)])
        return AffineIsometry._from_code(code_inverse(self._code), t, D)

    def apply(self, x: RatVector) -> RatVector:
        shifted = tuple(Fraction(xi) + bi for xi, bi in zip(x, self.b))
        return code_product(self._code, shifted)

    # -- invariants ----------------------------------------------------

    def decomposition(self) -> FixedDecomposition:
        return self._cycle_invariants[1]

    def traces(self) -> tuple[int, ...]:
        return self._cycle_invariants[0]

    def cycles(self) -> Cycles:
        """The signed cycles of B (intlat.code_cycles)."""
        return self._cycle_invariants[2]

    def holonomy_order(self) -> int:
        """The order of B: the least k >= 1 with B^k = Id."""
        return self._cycle_invariants[3]

    def translation_offsets(self) -> tuple[tuple[int, Fraction], ...]:
        """Pairs (d_i, r_i): component support size and folded offset of b.

        r_i = (b . u_i) mod 1 folded into [0, 1/2]; r and 1 - r give the same
        theta value and the same squared length set.
        """
        D = self._D
        return tuple([(d, Fraction(k, D)) for d, k in self._offsets])

    def theta_monomial(self) -> tuple[tuple[tuple[int, Fraction], int], ...]:
        """The sorted ((d, r), exponent) pairs of prod_i z_{d_i, r_i}.

        It does not depend on the form degree p: each pair (d, r) of
        translation_offsets() counts once into the exponent of z_{d,r}.
        """
        return _fraction_monomial(self._theta_key)

    def is_fixed_point_free(self) -> bool:
        """True when no translate B L_{b + lambda} fixes a point of R^n.

        Equivalent to some component offset of b being nonintegral, i.e. the
        minimal squared displacement on the fixed space is positive.
        """
        D = self._D
        return any(s % D for s in self._sums)


class BieberbachGroup(_Frozen):
    """Compared and hashed by (name, generators, holonomy), not by the read-only flag
    translation_consistent: whether the generators' products close over Z^n."""

    def __init__(self, name: str, generators: tuple[AffineIsometry, ...],
                 holonomy: tuple[AffineIsometry, ...],  # identity first, then sorted
                 translation_consistent: bool = True):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "holonomy", holonomy)
        object.__setattr__(self, "translation_consistent", translation_consistent)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.generators, self.holonomy)
                == (other.name, other.generators, other.holonomy))

    def __hash__(self) -> int:
        return hash((self.name, self.generators, self.holonomy))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(name={self.name!r}, "
                f"generators={self.generators!r}, holonomy={self.holonomy!r}, "
                f"translation_consistent={self.translation_consistent!r})")

    @property
    def order(self) -> int:
        return len(self.holonomy)

    @cached_property
    def trace_table(self) -> dict[tuple, tuple[int, ...]]:
        """{theta key m: (c_{0,m}, ..., c_{n,m})}, built in one pass; read only.

        m is an element's int key ((d, num, den), e), and c_{p,m} the sum of
        tr_p(B) over the elements with key m.  Every c_{0,m} is positive.
        """
        table: dict[tuple, tuple[int, ...]] = {}
        for g in self.holonomy:
            key, tr = g._theta_key, g.traces()
            cur = table.get(key)
            table[key] = tr if cur is None else tuple([x + y for x, y in zip(cur, tr)])
        return table

    def nontrivial(self) -> tuple[AffineIsometry, ...]:
        return self.holonomy[1:]


def build_group(generators: tuple[AffineIsometry, ...] | list[AffineIsometry],
                name: str = "") -> BieberbachGroup:
    """Close the n x n generators modulo Z^n and validate the Bieberbach conditions."""
    gens = tuple(generators)
    dims = {len(g._code) for g in gens} or {4}  # no generators: the 4-torus
    if len(dims) > 1:
        raise GroupError(f"generators of mixed dimensions {sorted(dims)}")
    unit = tuple(range(1, dims.pop() + 1))  # the identity's code
    D = lcm(*(g._D for g in gens))
    scaled = [(g._code, [x * (D // g._D) for x in g._t]) for g in gens]
    # code -> D * translation mod D of the first representative found
    elements = {unit: [0] * len(unit)}
    consistent = True
    frontier = [unit]
    for cur in frontier:  # breadth-first: the loop reaches what it appends
        a = elements[cur]
        for B, b in scaled:
            # cur * g, then g * cur
            for M, t in (code_compose(cur, a, B, b), code_compose(B, b, cur, a)):
                t = [x % D for x in t]
                first = elements.get(M)
                if first is None:
                    if len(elements) >= MAX_HOLONOMY_ORDER:
                        raise GroupError("holonomy closure exceeded bound 48")
                    elements[M] = t
                    frontier.append(M)
                elif first != t:
                    # The products do not close over Z^n; one catalog entry
                    # (29') has this defect as printed.  Keep the first
                    # representative found per matrix (breadth-first, hence
                    # deterministic) and record the inconsistency.
                    consistent = False
    # identity first, then sorted by matrix (each matrix occurs once)
    codes = sorted(elements, key=lambda M: _code_invariants(M)[0])
    codes.remove(unit)
    holonomy = []
    for M in [unit, *codes]:
        g = AffineIsometry._from_code(M, tuple(elements[M]), D)
        if M != unit and not g.is_fixed_point_free():
            raise GroupError(f"not torsion-free: element with matrix {g.B} fixes a point")
        holonomy.append(g)
    return BieberbachGroup(name, gens, tuple(holonomy), consistent)


# -- group level invariants ------------------------------------------------


def is_orientable(G: BieberbachGroup) -> bool:
    # det B = tr_n(B), the top coefficient of det(Id + t*B)
    return all(g.traces()[-1] == 1 for g in G.holonomy)


def is_diagonal_type(G: BieberbachGroup) -> bool:
    # a signed permutation is diagonal iff row i of its code is +-i
    return all(abs(c) == i for g in G.holonomy for i, c in enumerate(g._code, 1))


def is_abelian_holonomy(G: BieberbachGroup) -> bool:
    """Whether the holonomy group commutes; kept for flat4spec.__all__."""
    codes = [g._code for g in G.holonomy]
    return all(code_product(a, b) == code_product(b, a) for a in codes for b in codes)


def betti(G: BieberbachGroup, p: int) -> int:
    """p-th Betti number, p = 0..n, the average of p-form traces over the holonomy."""
    if not 0 <= p <= len(G.holonomy[0]._code):
        raise ValueError("form degree out of range")
    total = sum(g.traces()[p] for g in G.holonomy)
    if total % G.order != 0:
        raise GroupError("trace average is not integral")
    return total // G.order


def sunada_numbers(G: BieberbachGroup) -> dict[tuple[int, int], int]:
    """Counts c_{d,t} of nontrivial elements by (fixed rank, half offsets), d = 1..n.

    Only defined for diagonal type: d is the number of +1 diagonal entries of B
    and t the number of fixed axes whose translation coordinate is 1/2.
    """
    if not is_diagonal_type(G):
        raise GroupError("Sunada numbers need a diagonal-type group")
    counts = {(d, t): 0 for d in range(1, len(G.holonomy[0]._code) + 1) for t in range(d + 1)}
    for g in G.nontrivial():
        # one d = 1 component per +1 diagonal entry; its folded offset k/D is 0 or 1/2
        D, ks = g._D, [k for _, k in g._offsets]
        if any(2 * k % D for k in ks):
            raise GroupError("diagonal group with offsets outside {0, 1/2}")
        counts[(len(ks), sum(1 for k in ks if k))] += 1
    return counts


def sunada_tuple(G: BieberbachGroup) -> tuple[int, ...]:
    """(c_{1,1}, c_{2,1}, c_{2,2}, c_{3,1}, c_{3,2}, c_{3,3}): the paper's invariant, n = 4."""
    if len(G.holonomy[0]._code) != 4:
        raise GroupError("the Sunada tuple needs n = 4")
    c = sunada_numbers(G)
    return (c[1, 1], c[2, 1], c[2, 2], c[3, 1], c[3, 2], c[3, 3])

