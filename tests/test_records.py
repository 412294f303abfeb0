import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import flat4spec
from flat4spec.catalog import Catalog, CatalogEntry
from flat4spec.classify import ClassificationReport
from flat4spec.group import AffineIsometry, BieberbachGroup, _fraction_monomial
from flat4spec.theta import trace_sums

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


def _package_modules_after(statement: str) -> set[str]:
    return {name.removeprefix("flat4spec.")
            for name in _modules_after(statement) if name.startswith("flat4spec")}


def _quiet_main(*argv: str) -> str:
    return ("import contextlib, io\nfrom flat4spec.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()): main({list(argv)!r})")


EVERY_COMMAND = {"flat4spec", "catalog", "cli", "group", "intlat", "kraw", "theta"}


def test_package_import_loads_no_submodule():
    assert _package_modules_after("import flat4spec") == {"flat4spec"}
    # a submodule name resolves on first use, and loads only what it imports
    assert _package_modules_after("import flat4spec; flat4spec.kraw") == {
        "flat4spec", "intlat", "kraw"}


def test_cli_import_loads_neither_lengths_nor_numspec():
    assert _package_modules_after("import flat4spec.cli") == EVERY_COMMAND


# qfield loads only where a QuadNumber is made: heat-trace coefficients and
# fixed-lattice volumes (invariants of a group other than the torus, id 1)
@pytest.mark.parametrize("argv, deferred", [
    (("validate",), set()),
    (("invariants", "1"), set()),
    (("invariants", "42"), {"qfield"}),
    (("zeta", "1"), {"qfield"}),
    (("classify", "--mode", "p0"), {"classify"}),
    (("classify", "--mode", "bracketL", "--bound", "1/2"), {"classify", "lengths"}),
    (("lengths", "1", "--max-len2", "2"), {"lengths"}),
    (("spectrum", "1", "--max-mu", "3"), {"numspec"}),
    (("crosscheck", "1", "-p", "0"), {"numspec", "qfield"}),
], ids=["validate", "invariants-torus", "invariants-42", "zeta", "classify-p0",
        "classify-bracketL", "lengths", "spectrum", "crosscheck"])
def test_command_loads_only_the_deferred_layers_it_runs(argv, deferred):
    assert _package_modules_after(_quiet_main(*argv)) == EVERY_COMMAND | deferred


# flat4spec.__all__ before its names were loaded lazily; the set must stay
PUBLIC_NAMES = {
    "AffineIsometry", "BieberbachGroup", "Catalog", "CatalogEntry",
    "CatalogError", "ClassificationReport", "GroupError", "HeatTracePoly",
    "L_isospectral", "MODES", "QuadNumber", "UnrepresentableRadical", "betti",
    "bracketL_isospectral", "build_group", "catalog_path", "classify_all",
    "heat_trace_numeric", "heat_trace_poly", "is_abelian_holonomy",
    "is_diagonal_type", "is_orientable", "krawtchouk", "lattice_shell",
    "length_multiplicity", "length_set", "length_spectrum", "load_catalog",
    "multiplicities", "multiplicity", "p_isospectral", "poly_equal",
    "sunada_isospectral", "sunada_numbers", "sunada_tuple", "theta_value",
    "trace_p",
}


def test_public_names_are_unchanged():
    assert sorted(flat4spec.__all__) == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_public_name_is_its_home_modules_object(name):
    value = getattr(flat4spec, name)
    # MODES, a tuple defined in the package and re-exported by classify, is
    # the one public name without a __module__
    home = importlib.import_module(getattr(value, "__module__", "flat4spec.classify"))
    assert home.__name__.startswith("flat4spec.")
    assert getattr(home, name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from flat4spec import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == PUBLIC_NAMES
    assert all(value is getattr(flat4spec, name) for name, value in namespace.items())


def test_dir_lists_public_names_and_submodules():
    listed = set(dir(flat4spec))
    assert {"__all__", "__version__"} | PUBLIC_NAMES <= listed
    assert {"cli", "intlat", "lengths", "numspec", "theta"} <= listed


def test_submodule_attribute_is_the_module():
    assert flat4spec.lengths is importlib.import_module("flat4spec.lengths")
    assert flat4spec.intlat is importlib.import_module("flat4spec.intlat")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        flat4spec.no_such_name
    assert not hasattr(flat4spec, "no_such_name")
    assert "no_such_name" not in dir(flat4spec)


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
    # the translation-consistency flag is kept, and shown, but not compared
    G = catalog.group("2")
    H = BieberbachGroup(G.name, G.generators, G.holonomy, False)
    assert H == G and hash(H) == hash(G)
    assert H.translation_consistent is False and G.translation_consistent is True
    assert BieberbachGroup(G.name, G.generators, G.holonomy).translation_consistent is True
    assert repr(H).endswith(", translation_consistent=False)")
    assert H != BieberbachGroup("2'", G.generators, G.holonomy)


@pytest.mark.parametrize("field", ["B", "b", "_code"])
def test_affine_isometry_fields_are_read_only(field):
    g = AffineIsometry.identity()
    with pytest.raises(AttributeError):
        setattr(g, field, None)
    with pytest.raises(AttributeError):
        delattr(g, field)


@pytest.mark.parametrize("field", ["name", "generators", "holonomy",
                                   "translation_consistent"])
def test_bieberbach_group_fields_are_read_only(catalog, field):
    # a copy, so that a failure cannot corrupt the shared catalog
    G = catalog.group("2")
    G = BieberbachGroup(G.name, G.generators, G.holonomy, G.translation_consistent)
    with pytest.raises(AttributeError):
        setattr(G, field, None)
    with pytest.raises(AttributeError):
        delattr(G, field)


def _leaves(value):
    if isinstance(value, tuple):  # named tuples included
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_per_element_caches_live_in_the_instance_dict(catalog):
    # every field is set when the element is made, before any read, and each
    # is made of ints: b, the offsets and the theta monomial become Fractions
    # only when a method returns them
    h = catalog.group("2").holonomy[1]
    g = AffineIsometry(h.B, h.b)
    assert set(vars(g)) == {"B", "_code", "_t", "_D", "_cycle_invariants", "_sums",
                            "_offsets", "_theta_key"}
    assert all(type(x) is int for value in vars(g).values() for x in _leaves(value))
    assert g.theta_monomial() == tuple(((d, Fraction(n, den)), e)
                                       for (d, n, den), e in vars(g)["_theta_key"])


def test_trace_keys_stay_ints(catalog):
    # the trace-sum table and the trace sums keep the elements' int keys;
    # theta monomials are made of Fractions only by _fraction_monomial
    for entry in catalog:
        G = entry.group
        tables = [G.trace_table, *(trace_sums(G, p) for p in range(5))]
        for table in tables:
            assert all(type(x) is int for key in table for x in _leaves(key)), entry.id
        assert ({_fraction_monomial(key) for key in G.trace_table}
                == {g.theta_monomial() for g in G.holonomy}), entry.id


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
