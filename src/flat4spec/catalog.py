"""Packaged catalog of the flat 4-manifold groups with lattice Z^4.

The default catalog ships as data/catalog.json (77 entries: the torus plus
76 nontrivial groups).  Set the environment variable FLAT4SPEC_CATALOG to the
path of an alternative JSON file to override it.

Loading checks the whole document (readable JSON, an entries list, string ids
without duplicates, a matching count), then revalidates each entry it keeps:
all of them by default, or only those named in `ids`.  So `validate`,
`classify` and `invariants`/`crosscheck` without ids revalidate all 77
entries, while `zeta`, `spectrum`, `lengths` and `invariants`/`crosscheck`
with ids revalidate only the entries they read.  The generators must be 4x4
with 4 translation entries (the engine takes n x n; only the catalog requires
n = 4) and close to a torsion-free group, and the stored Betti numbers,
orientability, diagonal-type flag, translation-consistency flag (absent means
true), Sunada numbers and holonomy label (by its count of elements of each
order, `AffineIsometry.holonomy_order`) must match recomputation.  The three
flags must be JSON booleans, and only a diagonal-type entry may store Sunada
numbers, computed or printed.
Validation failures raise CatalogError listing the offending entry ids.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .group import (AffineIsometry, BieberbachGroup, betti, build_group, is_diagonal_type,
                    is_orientable, sunada_tuple)

ENV_VAR = "FLAT4SPEC_CATALOG"
EXPECTED_COUNT = 77
# holonomy label -> {element order: number of holonomy elements of that order}
_ORDER_COUNTS = {
    "1": {1: 1}, "Z2": {1: 1, 2: 1}, "Z3": {1: 1, 3: 2}, "Z4": {1: 1, 2: 1, 4: 2},
    "Z2^2": {1: 1, 2: 3}, "Z6": {1: 1, 2: 1, 3: 2, 6: 2}, "D3": {1: 1, 2: 3, 3: 2},
    "Z2^3": {1: 1, 2: 7}, "Z2xZ4": {1: 1, 2: 3, 4: 4}, "D4": {1: 1, 2: 5, 4: 2},
}


class CatalogError(ValueError):
    pass


class CatalogEntry(NamedTuple):
    id: str
    table: str
    holonomy: str
    group: BieberbachGroup
    betti: tuple[int, int]
    betti_printed: tuple[int, int]
    orientable: bool
    diagonal: bool
    sunada: tuple[int, ...] | None = None
    sunada_printed: tuple[int, ...] | None = None
    notes: str = ""


class Catalog:
    def __init__(self, source: str, entries: list[CatalogEntry] | None = None):
        self.source = source
        self.entries = [] if entries is None else entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def ids(self) -> list[str]:
        return [e.id for e in self.entries]

    def get(self, gid: str) -> CatalogEntry:
        for e in self.entries:
            if e.id == gid:
                return e
        raise KeyError(f"no group {gid!r} in catalog {self.source}")

    def group(self, gid: str) -> BieberbachGroup:
        return self.get(gid).group

    def groups(self) -> list[BieberbachGroup]:
        return [e.group for e in self.entries]


def _translation_entry(x, k: int, parsed: dict[str, Fraction]) -> Fraction:
    """Translation entry x of generator k: an int or a fraction string, read exactly."""
    if type(x) is str:
        f = parsed.get(x)
        if f is None:
            try:
                f = parsed[x] = Fraction(x)
            except ZeroDivisionError:
                raise CatalogError(f"generator {k} translation entry {x!r} "
                                   "has a zero denominator") from None
        return f
    if isinstance(x, (bool, float)):  # a float is not exact; bool is an int subclass
        raise CatalogError(f"generator {k} translation entries must be integers or "
                           f"strings, not {x!r}")
    return Fraction(x)  # an int; another JSON type raises TypeError


def _entry_group(raw: dict, parsed: dict[str, Fraction]) -> BieberbachGroup:
    """The entry's group; `parsed` maps each translation string read so far to its value."""
    gens = []
    for k, g in enumerate(raw["generators"], 1):
        matrix = tuple(tuple(row) for row in g["matrix"])
        for row in matrix:
            for x in row:
                if type(x) is not int:  # bool is an int subclass; a float is not exact
                    raise CatalogError(f"generator {k} matrix entries must be integers, "
                                       f"not {x!r}")
        translation = [_translation_entry(x, k, parsed) for x in g["translation"]]
        if len(matrix) != 4 or len(translation) != 4:
            raise CatalogError(f"generator {k} has a {len(matrix)}x{len(matrix)} matrix and "
                               f"{len(translation)} translation entries; expected 4x4 and 4")
        gens.append(AffineIsometry(matrix, translation))
    return build_group(gens, name=raw["id"])


def _validate_entry(raw: dict, parsed: dict[str, Fraction]) -> CatalogEntry:
    for key in ("id", "holonomy", "generators", "betti", "orientable", "diagonal"):
        if key not in raw:
            raise CatalogError(f"missing field {key!r}")
    flags = {"orientable": raw["orientable"], "diagonal": raw["diagonal"],
             "translation_consistent": raw.get("translation_consistent", True)}
    for key, value in flags.items():
        if type(value) is not bool:
            raise CatalogError(f"{key} must be a JSON boolean, not {value!r}")
    G = _entry_group(raw, parsed)
    computed_beta = (betti(G, 1), betti(G, 2))
    if computed_beta != tuple(raw["betti"]):
        raise CatalogError(
            f"betti mismatch: stored {raw['betti']}, computed {list(computed_beta)}"
        )
    if is_orientable(G) != flags["orientable"]:
        raise CatalogError("orientability mismatch")
    diagonal = is_diagonal_type(G)
    if diagonal != flags["diagonal"]:
        raise CatalogError("diagonal-type mismatch")
    if G.translation_consistent != flags["translation_consistent"]:
        raise CatalogError("translation-consistency mismatch")
    sunada = sunada_printed = None
    if not diagonal and ("sunada" in raw or "sunada_printed" in raw):
        raise CatalogError("Sunada numbers stored for a nondiagonal group")
    if diagonal:
        sunada = sunada_tuple(G)
        if "sunada" in raw and tuple(raw["sunada"]) != sunada:
            raise CatalogError(
                f"sunada mismatch: stored {raw['sunada']}, computed {list(sunada)}"
            )
        if "sunada_printed" in raw:
            sunada_printed = tuple(raw["sunada_printed"])
    label, orders = raw["holonomy"], {}
    if type(label) is not str or label not in _ORDER_COUNTS:
        raise CatalogError(f"unknown holonomy {label!r}; known: {', '.join(_ORDER_COUNTS)}")
    for g in G.holonomy:
        order = g.holonomy_order()
        orders[order] = orders.get(order, 0) + 1
    if orders != _ORDER_COUNTS[label]:
        raise CatalogError(f"holonomy mismatch: stored {label}, computed element orders "
                           f"{dict(sorted(orders.items()))}")
    return CatalogEntry(
        id=raw["id"],
        table=raw.get("table", ""),
        holonomy=raw["holonomy"],
        group=G,
        betti=computed_beta,
        betti_printed=tuple(raw.get("betti_printed", raw["betti"])),
        orientable=flags["orientable"],
        diagonal=diagonal,
        sunada=sunada,
        sunada_printed=sunada_printed,
        notes=raw.get("notes", ""),
    )


def catalog_path() -> str:
    """Path of the catalog file that load_catalog() will read."""
    override = os.environ.get(ENV_VAR)
    if override:
        return override
    return str(Path(__file__).with_name("data") / "catalog.json")


def load_catalog(path: str | None = None, ids: list[str] | None = None) -> Catalog:
    """Load and validate a catalog (default: packaged file or $FLAT4SPEC_CATALOG).

    With `ids`, the catalog keeps and validates only the entries with those ids;
    Catalog.get reports an id the file lacks.  An entry without an id is always
    validated, so it fails the load.
    """
    src = path if path is not None else catalog_path()
    try:
        data = json.loads(Path(src).read_text())
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {src}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog {src} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise CatalogError(f"catalog {src} has no 'entries' list")
    declared = data.get("count")
    if declared is not None and type(declared) is not int:  # bool is an int subclass
        raise CatalogError(f"catalog count must be an integer, not {declared!r}")

    entries = []
    parsed: dict[str, Fraction] = {}  # the catalog repeats a few translation strings
    bad: dict[str, str] = {}
    seen: set[str] = set()
    for i, raw in enumerate(data["entries"]):
        named = isinstance(raw, dict) and "id" in raw
        gid = raw["id"] if named else f"<entry {i}>"
        if not isinstance(gid, str):
            bad[f"<entry {i}>"] = f"id must be a string, not {gid!r}"
            continue
        if gid in seen:
            bad[gid] = "duplicate id"
            continue
        seen.add(gid)
        if named and ids is not None and gid not in ids:
            continue
        try:
            entries.append(_validate_entry(raw, parsed))
        except (ValueError, KeyError, TypeError) as exc:  # incl. CatalogError, GroupError
            bad[gid] = str(exc)
    if bad:
        listing = "; ".join(f"{gid}: {msg}" for gid, msg in sorted(bad.items()))
        raise CatalogError(f"invalid catalog entries: {listing}")

    if declared is not None and declared != len(seen):
        raise CatalogError(f"catalog declares {declared} entries but contains {len(seen)}")
    return Catalog(source=src, entries=entries)
