import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import flat4spec
from flat4spec.catalog import Catalog, CatalogEntry
from flat4spec.classify import ClassificationReport
from flat4spec.group import AffineIsometry, BieberbachGroup

SRC = str(Path(flat4spec.__file__).resolve().parent.parent)


def _modules_after(statement: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_cli_import_does_not_load_dataclasses_or_inspect():
    # compared with a bare interpreter, so site hooks that load either do
    # not count against the package
    added = _modules_after("import flat4spec.cli") - _modules_after("pass")
    assert "flat4spec.cli" in added
    assert not {"dataclasses", "inspect"} & added


def _iso(B, b):
    return AffineIsometry.make(B, b)


SWAP = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))


def test_affine_isometry_equality_and_hash_after_normalization():
    g = _iso(SWAP, (Fraction(1, 2), 0, 0, 0))
    h = _iso(SWAP, (Fraction(-1, 2), 1, 2, 0))
    assert g == h and hash(g) == hash((g.B, g.b))
    assert hash(g) == hash(h)
    assert g != _iso(SWAP, (0, 0, 0, 0))
    assert g != (g.B, g.b)
    assert g.b == (Fraction(1, 2), 0, 0, 0)
    assert repr(g) == f"AffineIsometry(B={g.B!r}, b={g.b!r})"


def test_bieberbach_group_ignores_metadata(catalog):
    G = catalog.group("2")
    H = BieberbachGroup(G.name, G.generators, G.holonomy, {"other": True})
    assert H == G and hash(H) == hash(G)
    assert H.metadata == {"other": True}
    assert BieberbachGroup(G.name, G.generators, G.holonomy).metadata == {}
    assert H != BieberbachGroup("2'", G.generators, G.holonomy)


@pytest.mark.parametrize("field", ["B", "b", "_code"])
def test_affine_isometry_fields_are_read_only(field):
    g = AffineIsometry.identity()
    with pytest.raises(AttributeError):
        setattr(g, field, None)
    with pytest.raises(AttributeError):
        delattr(g, field)


@pytest.mark.parametrize("field", ["name", "generators", "holonomy", "metadata"])
def test_bieberbach_group_fields_are_read_only(catalog, field):
    # a copy, so that a failure cannot corrupt the shared catalog
    G = catalog.group("2")
    G = BieberbachGroup(G.name, G.generators, G.holonomy, dict(G.metadata))
    with pytest.raises(AttributeError):
        setattr(G, field, None)
    with pytest.raises(AttributeError):
        delattr(G, field)


def test_per_element_caches_live_in_the_instance_dict(catalog):
    g = catalog.group("2").holonomy[1]
    g.traces()
    g.theta_monomial()
    assert {"_code", "_cycle_invariants", "_theta_monomial"} <= set(vars(g))
    hash(catalog.group("2"))
    assert "_value_hash" in vars(catalog.group("2"))


def test_default_containers_are_not_shared():
    a, b = Catalog("a"), Catalog("b")
    a.entries.append("x")
    assert b.entries == []
    r, s = ClassificationReport("p0", {}, []), ClassificationReport("p0", {}, [])
    r.errors["1"] = "boom"
    assert s.errors == {}


def test_catalog_entry_defaults(catalog):
    G = catalog.group("1")
    e = CatalogEntry("1", "", "1", G, (4, 6), (4, 6), True, True)
    assert (e.sunada, e.sunada_printed, e.notes) == (None, None, "")
