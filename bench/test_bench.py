"""Tests of the benchmark itself: every output check rejects a wrong output.

    python3 -m pytest bench -q

Correct outputs come from the engine in fresh processes (the same runner the
benchmark uses); each test then corrupts one output and expects the check to
report it.  The slow commands (bracketL, crosscheck) are not run here.
"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

import checks
import run
import tracer
import workloads


@pytest.fixture(scope="module")
def oracles():
    return checks.Oracles(run.ROOT)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    runner = run.Runner(run.ROOT, tmp_path_factory.mktemp("engine"))

    def output(*argv):
        outcome = runner.run(list(argv))
        assert outcome.code == 0, outcome.err
        return outcome.out
    return output


def problems(oracles, argv, out, code=0):
    return checks.check(oracles, list(argv), code, out)


def test_benchmark_json_names_match_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_draw_is_seeded_and_stratified():
    entries = workloads.catalog_entries(run.ROOT)
    assert workloads.draw(7, entries) == workloads.draw(7, entries)
    assert any(workloads.draw(s, entries) != workloads.draw(7, entries) for s in range(8))
    order = {e["id"]: workloads.HOLONOMY[e["holonomy"]] for e in entries}
    k = workloads.MULT_PER_STRATUM
    for seed in range(50):
        ids = workloads.draw(seed, entries)
        for key, picks in ids.items():
            per = k if key == "lengths_mult" else 1
            assert [s for gid in picks for s, orders in enumerate(workloads.STRATA)
                    if order[gid][0] in orders] == sorted(list(range(3)) * per)
        assert all(order[gid][1] and gid != "29'" for gid in ids["lengths_mult"])
        assert len(set(ids["lengths_mult"])) == 3 * k


def test_exit_code_and_garbage_are_failures(oracles, engine):
    out = engine("validate")
    assert problems(oracles, ["validate"], out) == []
    assert problems(oracles, ["validate"], out, code=1)
    assert problems(oracles, ["validate"], out.replace("77", "76"))
    assert problems(oracles, ["zeta", "2"], "not a polynomial\n")
    assert problems(oracles, ["nonsense"], "")


def test_classify_golden_recorded_and_errors(oracles, engine):
    argv = ["classify", "--json", "--mode", "p0"]
    report = json.loads(engine(*argv))
    report["provenance"] = {"version": "x"}  # added keys are not failures
    assert problems(oracles, argv, json.dumps(report)) == []
    moved = json.loads(json.dumps(report))
    pair = next(c for c in moved["classes"] if c == ["57", "58"])
    pair.remove("58")
    moved["classes"].append(["58"])
    found = problems(oracles, argv, json.dumps(moved))
    assert any("golden" in p for p in found)

    argv = ["classify", "--json", "--mode", "p3"]  # no golden table
    report = json.loads(engine(*argv))
    assert problems(oracles, argv, json.dumps(report)) == []
    singles = [c for c in report["classes"] if len(c) == 1]
    report["classes"].remove(singles[1])
    singles[0].extend(singles[1])
    assert any("recorded" in p for p in problems(oracles, argv, json.dumps(report)))

    argv = ["classify", "--json", "--mode", "sunada"]  # per-entry errors
    report = json.loads(engine(*argv))
    assert report["errors"] and problems(oracles, argv, json.dumps(report)) == []
    gid = sorted(report["errors"])[0]
    del report["errors"][gid]
    report["classes"].append([gid])
    assert any("errors" in p for p in problems(oracles, argv, json.dumps(report)))


def test_zeta_against_golden_heat(oracles, engine):
    out = engine("zeta", "57")
    assert problems(oracles, ["zeta", "57"], out) == []
    assert problems(oracles, ["zeta", "57"], out.replace("(1) x^4", "(2) x^4", 1))
    assert problems(oracles, ["zeta", "57"], out.replace("z[1,1/4]", "z[1,1/3]", 1))
    assert problems(oracles, ["zeta", "60"], out.replace("group 57", "group 60"))
    assert problems(oracles, ["zeta", "60"], out)


def test_invariants_against_catalog_data(oracles, engine):
    argv = ["invariants", "24", "67", "--json"]
    rows = json.loads(engine(*argv))
    assert problems(oracles, argv, json.dumps(rows)) == []
    rows[0]["betti"][2] += 1
    assert problems(oracles, argv, json.dumps(rows))
    rows = json.loads(engine(*argv))
    rows[1]["elements"][0]["traces"][1] += 2
    assert any("average" in p for p in problems(oracles, argv, json.dumps(rows)))


def _bump(out: str, p: int, mu: int, delta: int) -> str:
    lines = out.splitlines()
    head, values = lines[p].split("[")
    row = [int(x) for x in values.rstrip("]").split(", ")]
    row[mu] += delta
    lines[p] = f"{head}[{', '.join(map(str, row))}]"
    return "\n".join(lines) + "\n"


def test_spectrum_identities_and_recorded_lists(oracles, engine):
    argv = ["spectrum", "24", "--max-mu", "25"]
    out = engine(*argv)
    assert problems(oracles, argv, out) == []
    assert any("Betti" in p for p in problems(oracles, argv, _bump(out, 2, 0, 1)))
    assert any("alternating" in p for p in problems(oracles, argv, _bump(out, 0, 3, 1)))
    # shifts that keep the alternating sum: duality (24 is orientable) fails
    dual = _bump(_bump(out, 0, 5, 1), 1, 5, 1)
    assert any("duality" in p for p in problems(oracles, argv, dual))
    # keeps every identity: only the recorded lists catch it
    both = _bump(_bump(_bump(out, 1, 7, 1), 2, 7, 2), 3, 7, 1)
    assert problems(oracles, argv, both) == ["spectrum 24 differs from the recorded lists"]


def test_lengths_recorded(oracles, engine):
    argv = ["lengths", "25", "--max-len2", "4"]
    out = engine(*argv)
    assert problems(oracles, argv, out) == []
    lines = out.splitlines()
    assert problems(oracles, argv, "\n".join(lines[1:]) + "\n")
    argv = [*argv, "--mult"]
    out = engine(*argv)
    assert problems(oracles, argv, out) == []
    assert problems(oracles, argv, out.replace(": 8 classes", ": 9 classes", 1))


def _crosscheck_output(oracles, status=lambda gid, p: "ok"):
    return "".join(
        f"group {gid:>5} p={p}: exact=1.000000000000 series=1.000000000000 "
        f"|diff|=0.00e+00 {status(gid, p)}\n"
        for gid in oracles.entries for p in range(5))


def test_crosscheck_every_line_ok(oracles):
    argv = ["crosscheck", "--mu-max", "20"]
    out = _crosscheck_output(oracles)
    assert problems(oracles, argv, out) == []
    chunk = ["crosscheck", "57", "58", "--mu-max", "20"]
    assert problems(oracles, chunk, out)
    assert problems(oracles, chunk, "".join(
        line for line in out.splitlines(True) if line.split()[1] in ("57", "58"))) == []
    bad = _crosscheck_output(
        oracles, lambda gid, p: "MISMATCH" if (gid, p) == ("57", 2) else "ok")
    assert problems(oracles, argv, bad)
    assert problems(oracles, argv, "".join(out.splitlines(True)[:-1]))
    assert problems(oracles, argv, out, code=1)


def test_tracer_wraps_every_binding_and_reports_missing():
    code = """
import sys
sys.path.insert(0, 'bench')
import tracer
tracer.SPANS = {"theta.heat_trace_poly": ["theta:heat_trace_poly"],
                "theta.gone": ["theta:no_such_function"]}
tracer.COUNTS = {}
import flat4spec, flat4spec.classify, flat4spec.cli, flat4spec.theta
t = tracer.Tracer()
tracer.install(t)
homes = [flat4spec, flat4spec.classify, flat4spec.cli, flat4spec.theta]
wrapped = {hasattr(m.heat_trace_poly, "__wrapped__") for m in homes}
print(wrapped == {True}, sorted(t.missing))
"""
    env = dict(run.Runner(run.ROOT, run.ROOT).env)
    done = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["True", "['theta.gone']"]


def test_missing_layer_is_reported_not_zero():
    data = {"wall": 1.0, "counts": {}, "missing": {"numspec.e_term": "gone"},
            "spans": [["cli.import", 0.0, 0.1, -1], ["cli.main", 0.1, 0.95, -1]]}
    outcome = run.Outcome(["spectrum", "1"], 0, "", "", 1.0, 1.0, 17.0, 0.1, 0.1,
                          tracer.summarize(data), data["missing"])
    metrics = run.layer_metrics([outcome], {"wall_s": 0.9})
    assert metrics["numspec.e_term.s"] == {"value": None, "unit": "s", "missing": "gone"}
    assert metrics["numspec.shell_vectors"]["value"] is None
    assert metrics["numspec.multiplicity.calls"] == {"value": 0, "unit": "count"}
    assert metrics["trace.coverage"]["value"] == pytest.approx(0.95)


def test_pass_times_are_scaled_to_reference_speed():
    def outcome(wall, ref):
        return run.Outcome(["validate"], 0, "", "", wall, wall, 17.0, ref, ref)
    # the same work on a machine running at half speed reads the same
    fast = run.pass_totals([outcome(1.0, 0.1), outcome(3.0, 0.1)])
    slow = run.pass_totals([outcome(2.0, 0.2), outcome(6.0, 0.2)])
    assert fast["wall_s"] == pytest.approx(4.0 * run.REF_S / 0.1)
    assert slow["wall_s"] == pytest.approx(fast["wall_s"])
    assert slow["cpu_s"] == pytest.approx(fast["cpu_s"])
    assert slow["measured_wall_s"] == 8.0


def test_known_failure_must_fail(oracles, tmp_path):
    outcome = run.Runner(run.ROOT, tmp_path).run(workloads.KNOWN_FAILURE)
    assert outcome.code == 1 and "not integral" in outcome.err
    assert problems(oracles, workloads.KNOWN_FAILURE, outcome.out, code=1) == []
    assert problems(oracles, workloads.KNOWN_FAILURE, "", code=0)


def test_shell_vector_count_is_len_lattice_shell(oracles):
    from flat4spec.numspec import lattice_shell
    assert [tracer.r4(n) for n in range(41)] == [len(lattice_shell(n)) for n in range(41)]
