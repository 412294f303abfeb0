"""Isospectrality relations and batch classification.

Every relation is equality of one key, `signature(G, mode)`: the holonomy
order |F| and the mode's invariant, so only groups of equal order are ever
related.  `classify_all` buckets by the key, and each comparator compares it.
The heat-trace modes key on the integer trace sums per theta monomial, equal
at equal order exactly when the heat traces are (theta.trace_sums); L on the
monomial support of the 0-form heat trace; bracketL on class counts by squared
length (lengths).  A key that cannot be computed (nondiagonal type for sunada,
non-closing translations for class counts) is a per-entry error in
`classify_all` and an exception in the comparators.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from . import MODES
from .group import BieberbachGroup, sunada_tuple
from .theta import trace_sums
# not called here; kept importable: bench/test_bench.py wraps it in this module
from .theta import heat_trace_poly  # noqa: F401


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")


def signature(G: BieberbachGroup, mode: str, max2=3) -> tuple:
    """The key of G in this mode: (|F|, the mode's invariant); max2 is bracketL's bound."""
    _check_mode(mode)
    if mode == "sunada":
        return G.order, sunada_tuple(G)
    if mode == "L":
        return G.order, frozenset(trace_sums(G, 0))
    if mode == "bracketL":
        return G.order, bracketL_signature(G, max2)
    if mode == "all-p":
        return G.order, frozenset(G.trace_table.items())
    return G.order, frozenset(trace_sums(G, int(mode[1])).items())


def p_isospectral(a: BieberbachGroup, b: BieberbachGroup, p: int) -> bool:
    """Equality of the exact p-form heat traces, for p in 0..4."""
    return signature(a, f"p{p}") == signature(b, f"p{p}")


def sunada_isospectral(a: BieberbachGroup, b: BieberbachGroup) -> bool:
    """Equality of the Sunada numbers (diagonal-type groups only)."""
    return signature(a, "sunada") == signature(b, "sunada")


def L_isospectral(a: BieberbachGroup, b: BieberbachGroup) -> bool:
    """Equality of the monomial supports of the 0-form heat traces.

    Equal supports give equal length sets (tests/test_lengths.py); the
    converse fails: 23 and 24 have different supports, the same length set.
    """
    return signature(a, "L") == signature(b, "L")


def bracketL_signature(G: BieberbachGroup, max2) -> tuple:
    """Sorted (squared length, class count) pairs up to max2."""
    from .lengths import length_spectrum  # imported here: no other mode needs it
    return tuple(sorted(length_spectrum(G, max2).items()))


def bracketL_isospectral(a: BieberbachGroup, b: BieberbachGroup, max2=3) -> bool:
    """Equality of class-length multiplicities for all squared lengths <= max2.

    Missing values count as multiplicity zero, so comparing the two signature
    maps directly covers the union of the length sets.
    """
    return signature(a, "bracketL", max2) == signature(b, "bracketL", max2)


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
    _check_mode(mode)
    params: dict = {}
    if mode == "bracketL":
        params["max_squared_length"] = str(Fraction(max2))
    elif mode[0] == "p":
        params["p"] = int(mode[1])
    errors: dict[str, str] = {}
    buckets: dict = {}
    for G in groups:
        try:
            key = signature(G, mode, max2)
        except ValueError as exc:  # GroupError included
            errors[G.name] = str(exc)
            continue
        buckets.setdefault(key, []).append(G.name)

    classes = [sorted(names, key=id_sort_key) for names in buckets.values()]
    classes.sort(key=lambda cls: id_sort_key(cls[0]))
    return ClassificationReport(mode, params, classes, errors)
