"""Isospectrality comparators and batch classification.

Comparisons are only meaningful (and only performed) between groups with the
same holonomy order; the batch driver buckets by order first.  bracketL counts
classes by Burnside over each holonomy class's centralizer (lengths), for every
holonomy group.  Comparator failures for one group (nondiagonal type for sunada,
non-closing translations for class counts) are reported per entry, not raised.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .group import BieberbachGroup, GroupError, sunada_tuple
from .lengths import length_set, length_spectrum
from .theta import heat_trace_poly, poly_equal, trace_sums

MODES = ("p0", "p1", "p2", "p3", "p4", "all-p", "sunada", "L", "bracketL")


def p_isospectral(a: BieberbachGroup, b: BieberbachGroup, p: int) -> bool:
    """Equality of the exact p-form heat traces."""
    return poly_equal(heat_trace_poly(a, p), heat_trace_poly(b, p))


def sunada_isospectral(a: BieberbachGroup, b: BieberbachGroup) -> bool:
    """Equality of the Sunada numbers (diagonal-type groups only)."""
    return a.order == b.order and sunada_tuple(a) == sunada_tuple(b)


def L_isospectral(a: BieberbachGroup, b: BieberbachGroup, max2=4) -> bool:
    """Equality of the monomial supports of the 0-form heat traces.

    This is the relation `classify_all(..., "L")` groups by.  Equal supports
    give equal length sets, which are compared up to max2 as a one-way
    cross-check.  The converse fails: 23 and 24 have different supports and
    the same length set.
    """
    same_support = heat_trace_poly(a, 0).support() == heat_trace_poly(b, 0).support()
    if same_support and length_set(a, max2) != length_set(b, max2):
        raise GroupError("equal heat trace supports but different length sets")
    return same_support


def bracketL_signature(G: BieberbachGroup, max2) -> tuple:
    """Sorted (squared length, class count) pairs up to max2."""
    return tuple(sorted(length_spectrum(G, max2).items()))


def bracketL_isospectral(a: BieberbachGroup, b: BieberbachGroup, max2=3) -> bool:
    """Equality of class-length multiplicities for all squared lengths <= max2.

    Missing values count as multiplicity zero, so comparing the two signature
    maps directly covers the union of the length sets.
    """
    return bracketL_signature(a, max2) == bracketL_signature(b, max2)


# -- batch classification ---------------------------------------------------


_ID_RE = re.compile(r"^(\d+)('*)$")


def id_sort_key(name: str):
    m = _ID_RE.match(name)
    if not m:
        return (1 << 30, name)
    return (int(m.group(1)), len(m.group(2)))


class ClassificationReport:
    def __init__(self, mode: str, params: dict, classes: list[list[str]],
                 errors: dict[str, str] | None = None):
        self.mode = mode
        self.params = params
        self.classes = classes
        self.errors = {} if errors is None else errors

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode,
                "params": self.params,
                "classes": self.classes,
                "errors": self.errors,
            },
            indent=2,
        )

    def nontrivial_classes(self) -> list[list[str]]:
        return [cls for cls in self.classes if len(cls) > 1]


def classify_all(groups: list[BieberbachGroup], mode: str, max2=3) -> ClassificationReport:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    params: dict = {}
    errors: dict[str, str] = {}

    # The heat-trace modes compare integer trace sums per theta monomial: a
    # monomial fixes its coefficient's factor sqrt(D)/D, so at equal order the
    # sums are equal exactly when the heat traces are (theta.trace_sums).
    if mode == "sunada":
        def signature(G):
            return ("sunada", G.order, sunada_tuple(G))
    elif mode == "L":
        def signature(G):
            return ("L", G.order, frozenset(trace_sums(G, 0)))
    elif mode == "bracketL":
        params["max_squared_length"] = str(Fraction(max2))

        def signature(G):
            return ("bracketL", G.order, bracketL_signature(G, max2))
    elif mode == "all-p":
        def signature(G):
            return ("all-p", G.order, frozenset(G.trace_table.items()))
    else:
        p = int(mode[1])
        params["p"] = p

        def signature(G):
            return ("p", p, G.order, frozenset(trace_sums(G, p).items()))

    buckets: dict = {}
    for G in groups:
        try:
            sig = signature(G)
        except (GroupError, ValueError) as exc:
            errors[G.name] = str(exc)
            continue
        buckets.setdefault(sig, []).append(G.name)

    classes = [sorted(names, key=id_sort_key) for names in buckets.values()]
    classes.sort(key=lambda cls: id_sort_key(cls[0]))
    return ClassificationReport(mode, params, classes, errors)
