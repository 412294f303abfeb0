import json
from fractions import Fraction
from pathlib import Path

import pytest

from flat4spec import catalog as catalog_module
from flat4spec import cli, group, intlat
from flat4spec.catalog import (ENV_VAR, EXPECTED_COUNT, CatalogError,
                               catalog_path, load_catalog)


def test_catalog_size_and_ids(catalog):
    assert len(catalog) == EXPECTED_COUNT == 77
    ids = catalog.ids()
    assert len(set(ids)) == 77
    assert "1" in ids and "29'" in ids and "10''" in ids and "3'''" in ids


def test_get_and_group(catalog):
    entry = catalog.get("24")
    assert entry.id == "24"
    assert catalog.group("24") is entry.group
    with pytest.raises(KeyError):
        catalog.get("999")


def test_load_keeps_only_the_named_entries(catalog):
    # in file order, each once; an id the file lacks is reported when read
    cat = load_catalog(ids=["24", "1", "24", "999"])
    assert cat.ids() == ["1", "24"]
    assert cat.get("24")._replace(group=None) == catalog.get("24")._replace(group=None)
    with pytest.raises(KeyError, match="no group '999'"):
        cat.get("999")


def test_env_var_override(tmp_path, monkeypatch):
    target = tmp_path / "alt.json"
    data = json.loads(Path(catalog_path()).read_text())
    data["entries"] = [e for e in data["entries"] if e["id"] in ("1", "2")]
    data["count"] = 2
    target.write_text(json.dumps(data))
    monkeypatch.setenv(ENV_VAR, str(target))
    cat = load_catalog()
    assert cat.source == str(target)
    assert cat.ids() == ["1", "2"]


def test_missing_file(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "nope.json"))
    with pytest.raises(CatalogError, match="cannot read"):
        load_catalog()


def test_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CatalogError, match="not valid JSON"):
        load_catalog(str(bad))


def _base_data():
    return json.loads(Path(catalog_path()).read_text())


def _write(tmp_path, data):
    f = tmp_path / "cat.json"
    f.write_text(json.dumps(data))
    return str(f)


def test_corrupted_betti_is_reported(tmp_path):
    data = _base_data()
    entry = next(e for e in data["entries"] if e["id"] == "24")
    entry["betti"] = [3, 3]
    data.pop("count", None)
    with pytest.raises(CatalogError, match=r"24.*betti mismatch"):
        load_catalog(_write(tmp_path, data))


def test_corrupted_translation_is_reported(tmp_path):
    data = _base_data()
    entry = next(e for e in data["entries"] if e["id"] == "2")
    entry["generators"][0]["translation"] = ["0", "0", "0", "0"]
    data.pop("count", None)
    with pytest.raises(CatalogError, match="2.*torsion"):
        load_catalog(_write(tmp_path, data))


@pytest.mark.parametrize("gid, label, message", [
    ("7", "Z2", "holonomy mismatch: stored Z2, computed element orders {1: 1, 2: 3}"),
    # Z4 and Z2^2 have the same order; their element orders differ
    ("7", "Z4", "holonomy mismatch: stored Z4, computed element orders {1: 1, 2: 3}"),
    ("45", "Z2^2", "holonomy mismatch: stored Z2^2, computed element orders "
                   "{1: 1, 2: 1, 4: 2}"),
    ("2", "Q8", "unknown holonomy 'Q8'; known: 1, Z2, Z3, Z4, Z2^2, Z6, D3, Z2^3, Z2xZ4, D4"),
    ("2", ["Z2"], "unknown holonomy ['Z2']; known: 1, Z2, Z3, Z4, Z2^2, Z6, D3, Z2^3, Z2xZ4, D4"),
])
def test_wrong_holonomy_label_is_reported(tmp_path, capsys, gid, label, message):
    data = _base_data()
    entry = next(e for e in data["entries"] if e["id"] == gid)
    entry["holonomy"] = label
    path = _write(tmp_path, data)
    with pytest.raises(CatalogError) as exc:
        load_catalog(path)
    assert str(exc.value) == f"invalid catalog entries: {gid}: {message}"
    assert cli.main(["--catalog", path, "validate"]) == 1
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


# what loading recomputes from the generators, each with a wrong but well-typed value
_DERIVED = {
    "betti": lambda v: [v[0] + 1, v[1]],
    "orientable": lambda v: not v,
    "diagonal": lambda v: not v,
    "sunada": lambda v: [x + 1 for x in v],
    "holonomy": lambda v: "Z2" if v == "Z3" else "Z3",
    "translation_consistent": lambda v: not v,
}
# what the paper prints, kept as stored
_PRINTED = {
    "betti_printed": lambda v: [x + 1 for x in v],
    "sunada_printed": lambda v: [x + 1 for x in v],
    "notes": lambda v: v + " (edited)",
    "table": lambda v: v + " (edited)",
}


# id and generators define an entry; every other stored key is derived from
# them or printed
@pytest.mark.parametrize("key", sorted({k for e in _base_data()["entries"] for k in e}
                                       - {"id", "generators"}))
def test_every_stored_key_is_revalidated_or_printed_only(tmp_path, capsys, key):
    assert key in _DERIVED or key in _PRINTED, f"{key!r} is neither revalidated nor printed"
    data = _base_data()
    entry = next(e for e in data["entries"] if key in e)
    entry[key] = {**_DERIVED, **_PRINTED}[key](entry[key])
    path = _write(tmp_path, data)
    if key in _PRINTED:
        assert cli.main(["--catalog", path, "validate"]) == 0
        assert capsys.readouterr().out == f"catalog {path}: 77 entries ok\n"
    else:
        assert cli.main(["--catalog", path, "validate"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: invalid catalog entries: {entry['id']}: ")


@pytest.mark.parametrize("gid, key, value, message", [
    # JSON booleans only: bool() read a string or an int as true
    ("1", "orientable", "false", "orientable must be a JSON boolean, not 'false'"),
    ("1", "diagonal", "no", "diagonal must be a JSON boolean, not 'no'"),
    ("1", "orientable", 1, "orientable must be a JSON boolean, not 1"),
    ("29'", "translation_consistent", 0,
     "translation_consistent must be a JSON boolean, not 0"),
    # the stored flag is checked, absent meaning true
    ("29'", "translation_consistent", True, "translation-consistency mismatch"),
    ("2", "translation_consistent", False, "translation-consistency mismatch"),
    # Sunada numbers exist only for diagonal type
    ("3", "sunada", [9] * 6, "Sunada numbers stored for a nondiagonal group"),
    ("3", "sunada_printed", [9] * 6, "Sunada numbers stored for a nondiagonal group"),
])
def test_false_or_malformed_stored_invariants_are_reported(tmp_path, capsys, gid, key, value,
                                                           message):
    data = _base_data()
    next(e for e in data["entries"] if e["id"] == gid)[key] = value
    path = _write(tmp_path, data)
    with pytest.raises(CatalogError) as exc:
        load_catalog(path)
    assert str(exc.value) == f"invalid catalog entries: {gid}: {message}"
    assert cli.main(["--catalog", path, "validate"]) == 1
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


def test_every_catalog_label_has_its_own_element_orders(catalog):
    # the check tells every pair of labels apart, so it cannot pass a swap
    profiles = catalog_module._ORDER_COUNTS
    assert len({tuple(sorted(c.items())) for c in profiles.values()}) == len(profiles) == 10
    assert {e.holonomy for e in catalog} == set(profiles)
    for entry in catalog:
        assert sum(profiles[entry.holonomy].values()) == entry.group.order, entry.id


def test_duplicate_ids_are_reported(tmp_path):
    data = _base_data()
    data["entries"].append(dict(data["entries"][1]))
    data.pop("count", None)
    with pytest.raises(CatalogError, match="duplicate id"):
        load_catalog(_write(tmp_path, data))


@pytest.mark.parametrize("data, message", [
    ({"entries": 5}, "has no 'entries' list"),
    ({"entries": None}, "has no 'entries' list"),
    ({"entries": [{"id": ["x"]}]}, "<entry 0>: id must be a string, not ['x']"),
    ({"entries": [{"id": 5}]}, "<entry 0>: id must be a string, not 5"),
])
def test_malformed_entries_are_reported(tmp_path, capsys, data, message):
    path = _write(tmp_path, data)
    with pytest.raises(CatalogError) as exc:
        load_catalog(path)
    assert message in str(exc.value)
    # the CLI reports it on one line, without a traceback
    assert cli.main(["--catalog", path, "validate"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {exc.value}\n")


def test_declared_count_mismatch(tmp_path):
    data = _base_data()
    data["count"] = 78
    with pytest.raises(CatalogError, match="declares 78"):
        load_catalog(_write(tmp_path, data))


@pytest.mark.parametrize("count", ["77", True])
def test_declared_count_must_be_an_int(tmp_path, count):
    data = _base_data()
    data["count"] = count
    with pytest.raises(CatalogError) as exc:
        load_catalog(_write(tmp_path, data))
    assert str(exc.value) == f"catalog count must be an integer, not {count!r}"


def test_declared_count_matching_int_loads(tmp_path):
    data = _base_data()
    data["count"] = 77
    assert len(load_catalog(_write(tmp_path, data))) == 77


def test_printed_errata_fields(catalog):
    # recomputed invariants win; the printed values are kept alongside
    e67 = catalog.get("67")
    assert e67.betti == (1, 0)
    assert e67.betti_printed == (0, 0)
    e40 = catalog.get("40")
    assert e40.sunada == (1, 3, 0, 1, 1, 1)
    assert e40.sunada_printed is not None
    assert e40.sunada != e40.sunada_printed
    assert sum(e40.sunada) == 7


def test_repaired_entry_is_annotated(catalog):
    assert "not isospectral" in catalog.get("58").notes
    assert catalog.get("58").betti == (1, 1)


def test_entry_flags_match_group(catalog):
    from flat4spec.group import is_diagonal_type, is_orientable

    for entry in catalog:
        assert entry.orientable == is_orientable(entry.group)
        assert entry.diagonal == is_diagonal_type(entry.group)
        assert entry.group.name == entry.id


def test_one_signed_permutation_check_per_matrix(monkeypatch):
    calls = []
    check = intlat.signed_code

    def counting(M):
        calls.append(M)
        return check(M)

    # the one-pass check; checked_code calls it too
    monkeypatch.setattr(intlat, "signed_code", counting)
    cat = load_catalog()
    elements = sum(e.group.order for e in cat)
    generators = sum(len(e.group.generators) for e in cat)
    assert (elements, generators) == (359, 145)
    assert len(calls) <= elements + generators


def test_one_cycle_walk_per_distinct_code(monkeypatch):
    calls = []
    walk = intlat.code_cycles

    def counting(code):
        calls.append(code)
        return walk(code)

    # elements that share a code share its matrix, traces and decomposition:
    # from a cleared memo, validating the catalog walks each code once
    monkeypatch.setattr(intlat, "code_cycles", counting)
    group._code_invariants.cache_clear()
    cat = load_catalog()
    codes = {intlat.signed_code(g.B) for e in cat for g in e.group.holonomy}
    assert sorted(calls) == sorted(codes)
    assert (len(calls), sum(e.group.order for e in cat)) == (38, 359)


@pytest.mark.parametrize("field, value, shape", [
    ("matrix", [[1, 0, 0], [0, 1, 0], [0, 0, -1]], "3x3 matrix and 4"),
    ("matrix", [[1 if i == j else 0 for j in range(5)] for i in range(5)],
     "5x5 matrix and 4"),
    ("translation", ["0", "0", "1/2"], "4x4 matrix and 3"),
])
def test_malformed_generator_shapes_are_reported(tmp_path, field, value, shape):
    data = _base_data()
    entry = next(e for e in data["entries"] if e["id"] == "2")
    entry["generators"][0][field] = value
    data.pop("count", None)
    with pytest.raises(CatalogError) as exc:
        load_catalog(_write(tmp_path, data))
    assert str(exc.value) == (
        f"invalid catalog entries: 2: generator 1 has a {shape} translation "
        "entries; expected 4x4 and 4")


@pytest.mark.parametrize("field, value, message", [
    # JSON integers only: a float, a bool or a string used to pass as int(x)
    ("matrix", 1.7, "generator 1 matrix entries must be integers, not 1.7"),
    ("matrix", True, "generator 1 matrix entries must be integers, not True"),
    ("matrix", "1", "generator 1 matrix entries must be integers, not '1'"),
    # exact input: ints or fraction strings; a float or a bool is refused
    ("translation", 1.5, "generator 1 translation entries must be integers or strings, not 1.5"),
    ("translation", True, "generator 1 translation entries must be integers or strings, not True"),
    # once a ZeroDivisionError that escaped the per-entry report
    ("translation", "1/0", "generator 1 translation entry '1/0' has a zero denominator"),
    ("translation", "abc", "Invalid literal for Fraction: 'abc'"),
    ("translation", None, "argument should be a string or a Rational instance"),
    ("translation", [1], "argument should be a string or a Rational instance"),
])
def test_inexact_or_malformed_generator_entries_are_reported(tmp_path, capsys, field, value,
                                                             message):
    data = _base_data()
    entry = next(e for e in data["entries"] if e["id"] == "2")
    gen = entry["generators"][0]
    if field == "matrix":
        gen["matrix"][0][0] = value
    else:
        gen["translation"][0] = value
    # a second bad entry is listed too
    next(e for e in data["entries"] if e["id"] == "24")["betti"] = [3, 3]
    data.pop("count", None)
    path = _write(tmp_path, data)
    with pytest.raises(CatalogError) as exc:
        load_catalog(path)
    assert str(exc.value) == (f"invalid catalog entries: 2: {message}; "
                              "24: betti mismatch: stored [3, 3], computed [1, 0]")
    assert cli.main(["--catalog", path, "validate"]) == 1
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


def test_integer_translation_entries_load(tmp_path):
    data = _base_data()
    entry = next(e for e in data["entries"] if e["id"] == "2")
    entry["generators"][0]["translation"] = [0 if x == "0" else x
                                             for x in entry["generators"][0]["translation"]]
    assert load_catalog(_write(tmp_path, data)).group("2") == load_catalog().group("2")


def test_each_translation_string_is_parsed_once_per_load(monkeypatch):
    parsed = []

    def counting(*args):
        if isinstance(args[0], str):
            parsed.append(args[0])
        return Fraction(*args)

    monkeypatch.setattr(catalog_module, "Fraction", counting)
    for _ in range(2):
        load_catalog()
    # 580 translation entries, five distinct strings, two loads
    assert sorted(parsed) == sorted(["0", "1/2", "1/4", "1/3", "1/6"] * 2)
