import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flat4spec import catalog as catalog_module
from flat4spec.catalog import catalog_path
from flat4spec.cli import MIN_HEAT_TIME, main
from flat4spec.theta import HeatTracePoly

SRC = str(Path(catalog_module.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "77 entries ok" in out


def test_validate_bad_catalog(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    code, _, err = run(capsys, "--catalog", str(bad), "validate")
    assert code == 1
    assert "error:" in err


def test_validate_malformed_generator(capsys, tmp_path):
    data = json.loads(Path(catalog_path()).read_text())
    entry = next(e for e in data["entries"] if e["id"] == "2")
    entry["generators"][0]["matrix"] = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "--catalog", str(bad), "validate")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: invalid catalog entries: 2: generator 1 has a 3x3 matrix "
        "and 4 translation entries; expected 4x4 and 4"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--mode", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["lengths", "25", "--max-len2", "abc"],
    ["lengths", "25", "--max-len2", "-1"],
    ["lengths", "25", "--max-len2", "0"],
    ["classify", "--mode", "bracketL", "--bound", "0"],
    ["spectrum", "2", "--max-mu", "-3"],
    ["crosscheck", "2", "-s", "-1"],
    ["crosscheck", "2", "-s", "nan"],
    ["crosscheck", "2", "--mu-max", "-1"],
    ["crosscheck", "2", "--trunc", "1.5"],
    ["crosscheck", "2", "--tol", "nan"],
    ["crosscheck", "2", "--tol", "-1"],
    ["crosscheck", "2", "--tol", "inf"],
    # below MIN_HEAT_TIME: theta_value is nan at 1e-320, and at 1e-300 a
    # power of it overflows
    ["crosscheck", "2", "-s", "1e-320"],
    ["crosscheck", "2", "-s", "1e-300"],
])
def test_bad_option_values_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "--json", "24", "67")
    assert code == 0
    rows = json.loads(out)
    assert [r["id"] for r in rows] == ["24", "67"]
    assert rows[0]["betti"] == [1, 1, 0, 1, 1]
    assert rows[1]["orientable"] is True
    assert rows[0]["sunada"] == [0, 3, 0, 0, 0, 0]
    assert rows[1]["sunada"] is None


def test_closed_stdout_ends_quietly_with_exit_1():
    # the JSON of every group (about 300 KB) outgrows a pipe buffer, so the
    # command is still writing when the reader goes away, as with `| head -1`
    argv = [sys.executable, "-m", "flat4spec.cli", "invariants", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=SRC)) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert b"Traceback" not in err
    assert (proc.returncode, err) == (1, b"")


def test_invariants_unknown_id(capsys):
    # the bare message, not the repr of the KeyError that carries it, and
    # no output before it, not even the rows of the ids that exist
    for argv in (["invariants", "999"], ["zeta", "999"], ["spectrum", "999"],
                 ["lengths", "999"], ["crosscheck", "999"], ["crosscheck", "1", "999"],
                 ["invariants", "1", "999"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: no group '999' in catalog {catalog_path()}\n"


def test_zeta(capsys):
    code, out, _ = run(capsys, "zeta", "2", "-p", "0")
    assert code == 0
    assert "group 2, p=0:" in out
    assert "x^4" in out and "x^2*y" in out


def test_spectrum(capsys):
    code, out, _ = run(capsys, "spectrum", "1", "-p", "0", "--max-mu", "4")
    assert code == 0
    assert "[1, 8, 24, 32, 24]" in out


def test_lengths(capsys):
    code, out, _ = run(capsys, "lengths", "2", "--max-len2", "1")
    assert code == 0
    assert "length^2 = 1/4" in out and "length^2 = 1" in out
    code, out, _ = run(capsys, "lengths", "25", "--max-len2", "1/4", "--mult")
    assert code == 0
    assert "length^2 = 1/4: 8 classes" in out


def test_lengths_mult_nonabelian(capsys):
    code, out, err = run(capsys, "lengths", "54", "--max-len2", "1", "--mult")
    assert (code, err) == (0, "")
    counts = [int(line.split(": ")[1].split()[0]) for line in out.splitlines()
              if line.startswith("length^2 = ")]
    assert counts and all(n > 0 for n in counts)


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--mode", "p0", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "p0"
    assert ["57", "58"] in report["classes"]
    assert report["errors"] == {}


def test_classify_bracketL_text(capsys):
    code, out, _ = run(capsys, "classify", "--mode", "bracketL")
    assert code == 0
    assert "{57, 58}" in out
    assert "[error] 29':" in out
    assert "[error] 60" not in out


def test_classify_json_to_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "--mode", "L", "--json", str(target))
    assert code == 0
    report = json.loads(target.read_text())
    assert report["mode"] == "L"
    assert ["25", "27"] in report["classes"]


def test_classify_json_to_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "classify", "--mode", "p0", "--json", str(target))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write report to {target}: ")
    assert not target.exists()


def test_crosscheck(capsys):
    code, out, _ = run(capsys, "crosscheck", "24", "57", "-s", "0.08",
                       "--mu-max", "40")
    assert code == 0
    assert "MISMATCH" not in out
    code, out, err = run(capsys, "crosscheck", "24", "-p", "0", "-s", "0.08",
                         "--mu-max", "1", "--tol", "1e-12")
    assert code == 1
    assert "MISMATCH" in out and "mismatches" in err


def test_crosscheck_nan_is_a_mismatch(capsys, monkeypatch):
    # nan compares false both ways against the tolerance
    monkeypatch.setattr(HeatTracePoly, "eval_numeric", lambda self, s, terms: math.nan)
    code, out, err = run(capsys, "crosscheck", "1", "-p", "0", "--mu-max", "2")
    assert code == 1
    assert "exact=nan" in out and out.rstrip().endswith("MISMATCH")
    assert err == "1 mismatches above tolerance 1e-08\n"


def test_crosscheck_at_the_smallest_heat_time(capsys):
    # every catalog polynomial is finite at the floor; the truncated series
    # is far off there, which is a mismatch, not an error
    code, out, err = run(capsys, "crosscheck", "-s", str(MIN_HEAT_TIME), "--mu-max", "0")
    rows = out.splitlines()
    assert len(rows) == 77 * 5
    for row in rows:
        exact = float(row.split("exact=")[1].split()[0])
        assert math.isfinite(exact) and exact >= 0, row
    assert code == 1
    assert err == f"{len(rows)} mismatches above tolerance 1e-08\n"


def _catalog_copy(tmp_path, change) -> str:
    data = json.loads(Path(catalog_path()).read_text())
    change(data)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(data))
    return str(path)


def _corrupt_betti_24(data):
    entry = next(e for e in data["entries"] if e["id"] == "24")
    entry["betti"] = [entry["betti"][0] + 1, entry["betti"][1]]


@pytest.fixture(scope="module")
def bad_24(tmp_path_factory):
    return _catalog_copy(tmp_path_factory.mktemp("bad_24"), _corrupt_betti_24)


@pytest.mark.parametrize("argv", [
    ["validate"], ["classify", "--mode", "p0"], ["invariants"],
    ["crosscheck", "-p", "0"], ["zeta", "24"], ["lengths", "24", "--max-len2", "2"],
    ["invariants", "1", "24"],
], ids=" ".join)
def test_corrupt_entry_is_reported_by_every_command_that_reads_it(capsys, bad_24, argv):
    code, out, err = run(capsys, "--catalog", bad_24, *argv)
    assert (code, out) == (1, "")
    assert err == "error: invalid catalog entries: 24: betti mismatch: stored [2, 0], computed [1, 0]\n"


@pytest.mark.parametrize("argv", [
    ["zeta", "1"], ["spectrum", "1", "--max-mu", "3"], ["lengths", "1", "--max-len2", "2"],
], ids=" ".join)
def test_corrupt_entry_leaves_commands_that_do_not_read_it(capsys, bad_24, argv):
    expected = run(capsys, *argv)
    assert expected[0] == 0
    assert run(capsys, "--catalog", bad_24, *argv) == expected


@pytest.mark.parametrize("change, message", [
    (lambda data: data["entries"].append(dict(data["entries"][1])),
     "invalid catalog entries: 2: duplicate id"),
    (lambda data: data["entries"][3].update(id=5),
     "invalid catalog entries: <entry 3>: id must be a string, not 5"),
    (lambda data: data["entries"][3].pop("id"),
     "invalid catalog entries: <entry 3>: missing field 'id'"),
    (lambda data: data.update(count=78), "declares 78 entries but contains 77"),
    (lambda data: data.pop("entries"), "has no 'entries' list"),
], ids=["duplicate id", "non-string id", "no id", "wrong count", "no entries list"])
def test_document_defects_fail_a_command_that_reads_one_entry(capsys, tmp_path, change,
                                                               message):
    path = _catalog_copy(tmp_path, change)
    code, out, err = run(capsys, "--catalog", path, "zeta", "1")
    assert (code, out) == (1, "")
    assert message in err
    assert err == run(capsys, "--catalog", path, "validate")[2]


@pytest.mark.parametrize("argv, builds", [
    (["zeta", "1"], 1),
    (["lengths", "1", "--max-len2", "2"], 1),
    (["crosscheck", "1", "2", "3", "4", "24", "57", "67", "-p", "0", "-s", "0.3",
      "--trunc", "20", "--mu-max", "12"], 7),
    (["validate"], 77),
    (["classify", "--mode", "p0"], 77),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_a_command_builds_only_the_groups_it_reads(capsys, monkeypatch, argv, builds):
    calls = []
    build = catalog_module.build_group

    def counting(*args, **kwargs):
        calls.append(kwargs["name"])
        return build(*args, **kwargs)

    monkeypatch.setattr(catalog_module, "build_group", counting)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == len(set(calls)) == builds
