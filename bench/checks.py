"""Output checks for every command the benchmark runs.

Each check parses the command's standard output and compares content, not
bytes, so JSON keys added later (``provenance``, ``stats``) do not count as
failures.  The oracles are independent of the code measured wherever one
exists:

* ``classify`` classes for p0, p1, p2, L and bracketL (bound 3) against the
  frozen tables in ``tests/golden_classes.py``;
* each ``zeta`` line against ``tests/golden_heat.golden(id, p)``;
* ``invariants`` and ``spectrum`` against the Betti numbers, orientability,
  diagonal flag and Sunada numbers stored in ``data/catalog.json``, plus
  three spectral identities: d_{p,0} is the p-th Betti number, the
  alternating sum over p vanishes for mu >= 1, and d_{p,mu} = d_{4-p,mu} for
  orientable groups;
* ``crosscheck`` must exit 0 with a line ``ok`` for every group asked
  for (all 77 without ids) and p = 0..4;
* ``workloads.KNOWN_FAILURE`` (29', which does not close over Z^4 as
  printed) must exit 1.

Where no golden table exists (p3, p4, all-p, sunada, per-entry errors, the
``lengths`` and ``spectrum`` lists) the parsed output is compared with
``expected.json``, recorded from this engine by ``record.py``.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from workloads import HOLONOMY, KNOWN_FAILURE

GOLDEN_MODES = {"p0": "P0_SETS", "p1": "P1_SETS", "p2": "P2_SETS",
                "L": "L_SETS", "bracketL": "BRACKETL_PAIRS"}

_ZETA = re.compile(r"^group (\S+), p=(\d): (\d+)\*Z_p = (.*)$")
_TERM = re.compile(r"\(([^()]*)\) (\S+)")
_SPECTRUM = re.compile(r"^group (\S+), p=(\d): d_mu for mu=0\.\.(\d+): \[(.*)\]$")
_LENGTH = re.compile(r"^length\^2 = ([0-9/]+)(?:: (\d+) classes)?$")
_CROSS = re.compile(r"^group\s+(\S+) p=(\d): exact=(\S+) series=(\S+) "
                    r"\|diff\|=(\S+) (ok|MISMATCH)$")
_VALIDATE = re.compile(r"^catalog (.+): (\d+) entries ok$")
_SQRT = {"": 0, "sqrt2": 1, "sqrt3": 2, "sqrt6": 3}


class CheckError(Exception):
    pass


def parse_quad(text: str) -> tuple[Fraction, ...]:
    """Coordinates (a, b, c, d) of 'a + b*sqrt2 + c*sqrt3 + d*sqrt6'."""
    coords = [Fraction(0)] * 4
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "sqrt" in term:
            coef, _, tag = term.rpartition("*")
            value = Fraction(coef) if coef else Fraction(1)
        else:
            tag, value = "", Fraction(term)
        if tag not in _SQRT:
            raise CheckError(f"unknown radical {tag!r} in {text!r}")
        coords[_SQRT[tag]] += sign * value
    return tuple(coords)


def parse_zeta(out: str, gid: str) -> dict[int, tuple[int, dict]]:
    """p -> (order, {monomial: coordinates})."""
    polys = {}
    for line in out.splitlines():
        m = _ZETA.match(line)
        if not m or m.group(1) != gid:
            raise CheckError(f"unparsed zeta line {line!r}")
        body = m.group(4)
        terms = {} if body == "0" else {
            mono: parse_quad(coef) for coef, mono in _TERM.findall(body)}
        polys[int(m.group(2))] = (int(m.group(3)), terms)
    return polys


def parse_spectrum(out: str, gid: str) -> list[list[int]]:
    rows = []
    for p, line in enumerate(out.splitlines()):
        m = _SPECTRUM.match(line)
        if not m or m.group(1) != gid or int(m.group(2)) != p:
            raise CheckError(f"unparsed spectrum line {line!r}")
        rows.append([int(x) for x in m.group(4).split(", ")])
    return rows


def parse_lengths(out: str) -> dict[str, int | None]:
    """Squared length -> class count (None without --mult), in output order."""
    values = {}
    for line in out.splitlines():
        m = _LENGTH.match(line)
        if not m:
            raise CheckError(f"unparsed lengths line {line!r}")
        values[m.group(1)] = None if m.group(2) is None else int(m.group(2))
    return values


def parse_classify(out: str) -> dict:
    report = json.loads(out)
    return {"classes": report["classes"], "errors": sorted(report["errors"])}


def _option(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


class Oracles:
    """Reference data for the checks, loaded once per run."""

    def __init__(self, root: Path, recorded: dict | None = None):
        for sub in ("src", "tests"):
            if str(root / sub) not in sys.path:
                sys.path.insert(0, str(root / sub))
        import golden_classes
        import golden_heat
        self.golden_classes = golden_classes
        self.golden_heat = golden_heat
        data = json.loads((root / "src/flat4spec/data/catalog.json").read_text())
        self.entries = {e["id"]: e for e in data["entries"]}
        if recorded is None:
            recorded = json.loads((Path(__file__).parent / "expected.json").read_text())
        self.recorded = recorded

    def betti(self, gid: str) -> list[int]:
        """Stored b1, b2 completed by b0 = 1, b4 = [orientable], chi = 0."""
        e = self.entries[gid]
        b1, b2 = e["betti"]
        b4 = 1 if e["orientable"] else 0
        return [1, b1, b2, 1 - b1 + b2 + b4, b4]

    def golden_poly(self, gid: str, p: int) -> tuple[int, dict]:
        from flat4spec.theta import HeatTracePoly, monomial_str
        order, terms = self.golden_heat.golden(gid, p)
        poly = HeatTracePoly.from_terms(order, terms)
        return order, {monomial_str(m): (c.a, c.b, c.c, c.d) for m, c in poly.coeffs}


def check(oracles: Oracles, argv: list[str], code: int, out: str) -> list[str]:
    """Problems with one command's result; an empty list means correct."""
    expected = 1 if argv == KNOWN_FAILURE else 0
    if code != expected:
        return [f"exit code {code}, expected {expected}"]
    if expected:
        return []
    handler = _HANDLERS.get(argv[0])
    if handler is None:
        return [f"no check for command {argv[0]!r}"]
    try:
        return handler(oracles, argv, out)
    except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_validate(o: Oracles, argv, out):
    m = _VALIDATE.match(out.strip())
    if not m:
        return [f"unexpected validate output {out.strip()!r}"]
    if int(m.group(2)) != len(o.entries):
        return [f"validate reports {m.group(2)} entries, catalog has {len(o.entries)}"]
    return []


def _check_classify(o: Oracles, argv, out):
    mode = _option(argv, "--mode", "all-p")
    report = json.loads(out)
    problems = []
    if report["mode"] != mode:
        problems.append(f"mode {report['mode']!r}, expected {mode!r}")
    got = parse_classify(out)
    members = [gid for cls in got["classes"] for gid in cls] + got["errors"]
    if sorted(members) != sorted(o.entries):
        problems.append("classes and errors do not partition the catalog")
    nontrivial = {frozenset(c) for c in got["classes"] if len(c) > 1}
    if mode in GOLDEN_MODES:
        if mode == "bracketL" and Fraction(_option(argv, "--bound", "3")) != 3:
            return problems + ["golden bracketL classes are for bound 3 only"]
        golden = {frozenset(s) for s in getattr(o.golden_classes, GOLDEN_MODES[mode])}
        if nontrivial != golden:
            problems.append(f"{mode} classes differ from the golden table: "
                            f"extra {sorted(map(sorted, nontrivial - golden))}, "
                            f"missing {sorted(map(sorted, golden - nontrivial))}")
    want = o.recorded["classify"][mode]
    if {frozenset(c) for c in got["classes"]} != {frozenset(c) for c in want["classes"]}:
        problems.append(f"{mode} classes differ from the recorded classes")
    if got["errors"] != want["errors"]:
        problems.append(f"{mode} errors for {got['errors']}, recorded {want['errors']}")
    return problems


def _check_zeta(o: Oracles, argv, out):
    gid = argv[1]
    polys = parse_zeta(out, gid)
    problems = []
    if sorted(polys) != list(range(5)):
        problems.append(f"zeta printed degrees {sorted(polys)}")
    for p, poly in sorted(polys.items()):
        if poly != o.golden_poly(gid, p):
            problems.append(f"zeta {gid} p={p} differs from golden_heat")
    return problems


def _check_invariants(o: Oracles, argv, out):
    ids = [a for a in argv[1:] if not a.startswith("--")]
    rows = json.loads(out)
    if [r["id"] for r in rows] != ids:
        return [f"invariants rows {[r['id'] for r in rows]}, expected {ids}"]
    problems = []
    for r in rows:
        e = o.entries[r["id"]]
        order = HOLONOMY[e["holonomy"]][0]
        want = {"holonomy": e["holonomy"], "order": order,
                "betti": o.betti(r["id"]), "orientable": e["orientable"],
                "diagonal": e["diagonal"],
                "sunada": e["sunada"] if e["diagonal"] else None}
        for key, value in want.items():
            if r[key] != value:
                problems.append(f"invariants {r['id']} {key}={r[key]!r}, expected {value!r}")
        if len(r["elements"]) != order - 1:
            problems.append(f"invariants {r['id']} lists {len(r['elements'])} elements")
            continue
        # Betti numbers are trace averages over the holonomy (identity included)
        for p in range(5):
            total = [1, 4, 6, 4, 1][p] + sum(el["traces"][p] for el in r["elements"])
            if total != order * want["betti"][p]:
                problems.append(f"invariants {r['id']} traces do not average to b_{p}")
    return problems


def _check_spectrum(o: Oracles, argv, out):
    gid = argv[1]
    rows = parse_spectrum(out, gid)
    max_mu = int(_option(argv, "--max-mu", "10"))
    if len(rows) != 5 or any(len(r) != max_mu + 1 for r in rows):
        return [f"spectrum {gid} has the wrong shape"]
    problems = []
    if [r[0] for r in rows] != o.betti(gid):
        problems.append(f"spectrum {gid}: d_(p,0) {[r[0] for r in rows]} "
                        f"is not the Betti row {o.betti(gid)}")
    for mu in range(1, max_mu + 1):
        if sum((-1) ** p * rows[p][mu] for p in range(5)) != 0:
            problems.append(f"spectrum {gid}: alternating sum at mu={mu} is not 0")
    if o.entries[gid]["orientable"] and rows != rows[::-1]:
        problems.append(f"spectrum {gid}: Poincare duality fails")
    if max_mu != 25:
        problems.append("spectrum lists are recorded for --max-mu 25 only")
    elif rows != o.recorded["spectrum"][gid]:
        problems.append(f"spectrum {gid} differs from the recorded lists")
    return problems


def _check_lengths(o: Oracles, argv, out):
    gid = argv[1]
    if _option(argv, "--max-len2", "4") != "4":
        return ["lengths are recorded for --max-len2 4 only"]
    got = parse_lengths(out)
    problems = []
    values = list(got)
    if values != o.recorded["lengths"][gid]:
        problems.append(f"lengths {gid} differ from the recorded length set")
    if sorted(values, key=Fraction) != values:
        problems.append(f"lengths {gid} are not sorted")
    if not {"1", "2", "3", "4"} <= set(values):
        problems.append(f"lengths {gid} lack the pure translations 1..4")
    if "--mult" in argv:
        if got != o.recorded["lengths_mult"][gid]:
            problems.append(f"class counts of {gid} differ from the recorded counts")
        if any(n is None or n < 1 for n in got.values()):
            problems.append(f"class counts of {gid} are not all positive")
    elif any(n is not None for n in got.values()):
        problems.append(f"lengths {gid} printed counts without --mult")
    return problems


def _check_crosscheck(o: Oracles, argv, out):
    ids = []
    for arg in argv[1:]:
        if arg.startswith("-"):
            break
        ids.append(arg)
    problems = []
    seen = []
    for line in out.splitlines():
        m = _CROSS.match(line)
        if not m:
            return [f"unparsed crosscheck line {line!r}"]
        gid, p, exact, series, _, status = m.groups()
        seen.append((gid, int(p)))
        if status != "ok" or abs(float(exact) - float(series)) > 1e-8 + 1e-11:
            problems.append(f"crosscheck {gid} p={p}: {status}")
    want = [(gid, p) for gid in (ids or o.entries) for p in range(5)]
    if seen != want:
        problems.append(f"crosscheck covered {len(seen)} of {len(want)} pairs")
    return problems


_HANDLERS = {
    "validate": _check_validate,
    "classify": _check_classify,
    "zeta": _check_zeta,
    "invariants": _check_invariants,
    "spectrum": _check_spectrum,
    "lengths": _check_lengths,
    "crosscheck": _check_crosscheck,
}
