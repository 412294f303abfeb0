#!/usr/bin/env python3
"""Regenerate the packaged catalog of flat 4-manifold groups.

The generator tables are transcribed here in the compact block-diagonal
notation used by the source tables (d(...) matrices, e_i translation sums).
Running this script rebuilds src/flat4spec/data/catalog.json after
recomputing and validating every derived invariant.

Several printed Betti headers in the source tables contradict the trace rows
printed right next to them (the averaged p-form trace over the holonomy group
is the p-th Betti number).  Those entries are listed in BETTI_ERRATA with the
corrected values; the printed values are kept in the catalog for reference.
The same applies to one printed Sunada row (group 40), which does not sum to
|F| - 1.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flat4spec.group import (AffineIsometry, betti, build_group, is_diagonal_type,
                             is_orientable, sunada_tuple)

# -- block matrix notation --------------------------------------------------

BLOCKS = {
    "1": ((1,),),
    "-1": ((-1,),),
    "I": ((1, 0), (0, 1)),
    "-I": ((-1, 0), (0, -1)),
    "It": ((-1, 0), (0, 1)),      # tilde I
    "-It": ((1, 0), (0, -1)),
    "J": ((0, 1), (1, 0)),
    "-J": ((0, -1), (-1, 0)),
    "Jt": ((0, 1), (-1, 0)),      # tilde J
    "-Jt": ((0, -1), (1, 0)),
    "T": ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    "-T": ((0, -1, 0), (0, 0, -1), (-1, 0, 0)),
    "Tt": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    "-Tt": ((0, 0, -1), (-1, 0, 0), (0, -1, 0)),
    "K": ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
}


def parse_matrix(spec: str):
    inner = spec.strip()
    assert inner.startswith("d(") and inner.endswith(")")
    rows: list[list[int]] = []
    for token in inner[2:-1].split(","):
        block = BLOCKS[token.strip()]
        offset = len(rows)
        for brow in block:
            rows.append([0] * offset + list(brow))
    assert len(rows) == 4
    for row in rows:
        row.extend([0] * (4 - len(row)))
    return tuple(tuple(row) for row in rows)


_E_TERM = re.compile(r"(\d*)e([1-4])")


def _parse_e_sum(text: str) -> list[tuple[int, int]]:
    out = []
    sign = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "+":
            sign = 1
            i += 1
        elif ch == "-":
            sign = -1
            i += 1
        else:
            m = _E_TERM.match(text, i)
            assert m, f"bad term in {text!r}"
            coef = int(m.group(1) or 1)
            out.append((sign * coef, int(m.group(2)) - 1))
            i = m.end()
            sign = 1
    return out


def parse_translation(spec: str):
    v = [Fraction(0)] * 4
    s = spec.replace(" ", "")
    i = 0
    sign = 1
    while i < len(s):
        ch = s[i]
        if ch == "+":
            sign = 1
            i += 1
            continue
        if ch == "-":
            sign = -1
            i += 1
            continue
        if ch == "(":
            j = s.index(")", i)
            terms = _parse_e_sum(s[i + 1:j])
            i = j + 1
        else:
            m = _E_TERM.match(s, i)
            assert m, f"bad term in {spec!r}"
            terms = [(int(m.group(1) or 1), int(m.group(2)) - 1)]
            i = m.end()
        den = 1
        if i < len(s) and s[i] == "/":
            m = re.match(r"/(\d+)", s[i:])
            den = int(m.group(1))
            i += m.end()
        for coef, idx in terms:
            v[idx] += Fraction(sign * coef, den)
    return tuple(v)


# -- transcription of the generator tables ----------------------------------
# Each family: (table, holonomy, printed (beta1, beta2), orientable, diagonal,
#               generator matrices, {id: [translations]})

FAMILIES = [
    ("2.1", "Z2", (3, 3), False, True, ["d(I,1,-1)"], {
        "2": ["e3/2"], "2'": ["(e2+e3)/2"], "2''": ["(e1+e2+e3)/2"]}),
    ("2.1", "Z2", (3, 3), False, False, ["d(I,J)"], {
        "3": ["e1/2"], "3'": ["(e1+e2)/2"], "3''": ["(e1+e3+e4)/2"],
        "3'''": ["(e1+e2+e3+e4)/2"]}),
    ("2.1", "Z2", (1, 3), False, True, ["d(-I,-1,1)"], {"4": ["e4/2"]}),
    ("2.1", "Z2", (2, 2), True, True, ["d(-I,I)"], {
        "5": ["e4/2"], "5'": ["(e3+e4)/2"]}),
    ("2.1", "Z2", (2, 2), True, False, ["d(1,J,-1)"], {
        "6": ["e1/2"], "6'": ["(e1+e2+e3)/2"]}),
    ("2.2", "Z3", (2, 1), True, False, ["d(1,T)"], {
        "47": ["e1/3"], "47'": ["(e1+e2+e3+e4)/3"]}),
    ("2.3", "Z2^2", (2, 1), False, True, ["d(I,1,-1)", "d(I,-1,1)"], {
        "7": ["e3/2", "e2/2"],
        "7'": ["e3/2", "(e1+e2)/2"],
        "8": ["e3/2", "(e2+e4)/2"],
        "8'": ["e3/2", "(e1+e2+e4)/2"],
        "9": ["e2/2", "e1/2"],
        "9'": ["e2/2", "(e1+e2)/2"],
        "10": ["e2/2", "(e1+e4)/2"],
        "10'": ["e2/2", "(e1+e2+e4)/2"],
        "10''": ["(e1+e2)/2", "(e1+e4)/2"],
        "11": ["(e2+e3)/2", "(e1+e4)/2"],
        "11'": ["(e2+e3)/2", "(e1+e2+e4)/2"]}),
    ("2.4", "Z2^2", (2, 1), False, False, ["d(I,J)", "d(I,-J)"], {
        "12": ["e2/2", "e1/2"], "12'": ["(e1+e2)/2", "e1/2"]}),
    ("2.5", "Z2^2", (1, 0), False, False, ["d(1,I,-1)", "d(1,J,1)"], {
        "13": ["e1/2", "e4/2"],
        "13'": ["(e1+e2+e3)/2", "e4/2"],
        "14": ["(e2+e3)/2", "e1/2"],
        "14'": ["(e2+e3)/2", "(e1+e2+e3)/2"],
        "15": ["(e2+e3)/2", "(e1+e4)/2"],
        "15'": ["(e2+e3)/2", "(e1+e2+e3+e4)/2"]}),
    ("2.6", "Z2^2", (1, 1), False, True, ["d(I,-1,1)", "d(-I,-1,1)"], {
        "18": ["e4/2", "(e3+e4)/2"],
        "19": ["e2/2", "e4/2"],
        "19'": ["(e1+e2)/2", "e4/2"],
        "20": ["e2/2", "(e3+e4)/2"],
        "20'": ["(e1+e2)/2", "(e3+e4)/2"],
        "21": ["(e2+e4)/2", "(e3+e4)/2"],
        "21'": ["(e1+e2+e4)/2", "(e3+e4)/2"]}),
    ("2.7", "Z2^2", (1, 0), False, False, ["d(1,J,1)", "d(-1,-I,1)"], {
        "22": ["e1/2", "e4/2"], "22'": ["(e1+e2+e3)/2", "e4/2"]}),
    ("2.8", "Z2^2", (0, 1), False, True, ["d(-I,1,-1)", "d(-I,-1,1)"], {
        "23": ["e3/2", "(e2+e4)/2"], "23'": ["e3/2", "(e1+e2+e4)/2"]}),
    ("2.9", "Z2^2", (1, 0), True, True, ["d(-1,-1,1,1)", "d(1,-1,-1,1)"], {
        "24": ["e4/2", "(e2+e4)/2"],
        "25": ["e4/2", "(e1+e2)/2"],
        "26": ["e3/2", "(e1+e2)/2"],
        "27": ["e3/2", "(e1+e2+e4)/2"]}),
    ("2.10", "Z2^2", (1, 0), True, False, ["d(1,-J,-1)", "d(1,J,-1)"], {
        "28": ["e1/2", "(e1+e4)/2"]}),
    ("2.11", "Z2^2", (1, 0), True, False, ["d(-1,J,1)", "d(1,J,-1)"], {
        "29": ["(-e2+e3+e4)/2", "e1/2"], "29'": ["(e3+e4)/2", "e1/2"]}),
    ("2.12", "Z4", (2, 1), True, False, ["d(I,-Jt)"], {
        "45": ["e2/4"], "45'": ["(e1+e2)/4"]}),
    ("2.13", "Z4", (1, 0), False, False, ["d(-1,1,-Jt)"], {"50": ["e2/4"]}),
    ("2.14", "Z4", (0, 1), False, False, ["d(J,-Jt)"], {"51": ["e2/2"]}),
    ("2.15", "Z6", (1, 0), False, False, ["d(1,-T)"], {"64": ["e1/6"]}),
    ("2.16", "D3", (0, 0), True, False, ["d(1,T)", "d(-1,J,1)"], {
        "67": ["e1/3+(e3+e4)/2", "e4/2"]}),
    ("2.17", "Z2^3", (1, 0), False, True, ["d(It,I)", "d(I,It)", "d(-I,I)"], {
        "33": ["e4/2", "e2/2", "(e1+e4)/2"],
        "34": ["e4/2", "e2/2", "(e1+e3+e4)/2"],
        "35": ["e4/2", "(e2+e4)/2", "(e1+e3)/2"],
        "36": ["e3/2", "e2/2", "e4/2"],
        "37": ["e3/2", "e2/2", "(e1+e4)/2"],
        "38": ["e3/2", "e2/2", "(e1+e3+e4)/2"],
        "39": ["e3/2", "(e1+e2)/2", "e4/2"],
        "40": ["e3/2", "(e1+e2)/2", "(e1+e4)/2"],
        "41": ["e3/2", "(e1+e2)/2", "(e1+e3+e4)/2"],
        "42": ["(e3+e4)/2", "(e2+e4)/2", "(e1+e3)/2"]}),
    ("2.18", "Z2^3", (0, 0), False, True, ["d(I,-It)", "d(It,-I)", "d(-I,I)"], {
        "43": ["e3/2", "e2/2", "(e1+e4)/2"],
        "44": ["(e2+e3)/2", "(e2+e4)/2", "(e1+e4)/2"]}),
    ("2.19", "Z2xZ4", (1, 1), False, False, ["d(It,-Jt)", "d(It,I)"], {
        "57": ["e2/4", "(e3+e4)/2"], "58": ["e1/2+e2/4", "(-e1+e3+e4)/2"]}),
    ("2.20", "D4", (0, 0), False, False, ["d(J,Jt)", "d(J,-1,1)"], {
        "54": ["(e1+e4)/2", "e4/2"]}),
    ("2.21", "D4", (0, 0), False, False, ["d(It,Jt)", "d(-It,-J)"], {
        "56": ["e2/4+e3/2", "e1/2"]}),
    ("2.22", "D4", (1, 0), True, False, ["d(I,Jt)", "d(It,J)"], {
        "60": ["e1/4", "e2/2"],
        "61": ["e1/4+e4/2", "e2/2"],
        "62": ["e1/4+(e2+e4)/2", "e2/2"]}),
]

HOLONOMY_ORDER = {"1": 1, "Z2": 2, "Z3": 3, "Z2^2": 4, "Z4": 4, "Z6": 6,
                  "D3": 6, "Z2^3": 8, "Z2xZ4": 8, "D4": 8}

# Printed Betti headers that contradict the trace rows printed in the same
# table (beta_p is the holonomy average of the p-form traces).  Keys are
# group ids, values the corrected (beta1, beta2).
BETTI_ERRATA = {
    "47": (2, 2), "47'": (2, 2),
    "13": (2, 1), "13'": (2, 1), "14": (2, 1), "14'": (2, 1),
    "15": (2, 1), "15'": (2, 1),
    "22": (1, 1), "22'": (1, 1),
    "45": (2, 2), "45'": (2, 2),
    "50": (1, 1),
    "51": (1, 1),
    "64": (1, 1),
    "67": (1, 0),
    "54": (1, 0),
}

# Printed Sunada rows (c11, c21, c22, c31, c32, c33) for the diagonal-type
# groups.  The row for 40 sums to 10 instead of |F| - 1 = 7; the computed row
# coincides with the one of 35.
SUNADA_PRINTED = {
    "2": (0, 0, 0, 1, 0, 0), "2'": (0, 0, 0, 0, 1, 0), "2''": (0, 0, 0, 0, 0, 1),
    "4": (1, 0, 0, 0, 0, 0), "5": (0, 1, 0, 0, 0, 0), "5'": (0, 0, 1, 0, 0, 0),
    "7": (0, 1, 0, 2, 0, 0), "7'": (0, 0, 1, 1, 1, 0), "8": (0, 1, 0, 1, 1, 0),
    "8'": (0, 0, 1, 1, 0, 1), "9": (0, 0, 1, 2, 0, 0), "9'": (0, 1, 0, 1, 1, 0),
    "10": (0, 0, 1, 1, 1, 0), "10'": (0, 1, 0, 1, 0, 1), "10''": (0, 1, 0, 0, 2, 0),
    "11": (0, 0, 1, 0, 2, 0), "11'": (0, 1, 0, 0, 1, 1),
    "18": (1, 1, 0, 1, 0, 0), "19": (1, 1, 0, 1, 0, 0), "19'": (1, 1, 0, 0, 1, 0),
    "20": (1, 0, 1, 1, 0, 0), "20'": (1, 0, 1, 0, 1, 0), "21": (1, 1, 0, 0, 1, 0),
    "21'": (1, 1, 0, 0, 0, 1),
    "23": (2, 1, 0, 0, 0, 0), "23'": (2, 0, 1, 0, 0, 0),
    "24": (0, 3, 0, 0, 0, 0), "25": (0, 2, 1, 0, 0, 0), "26": (0, 3, 0, 0, 0, 0),
    "27": (0, 1, 2, 0, 0, 0),
    "33": (1, 2, 1, 3, 0, 0), "34": (1, 1, 2, 2, 1, 0), "35": (1, 3, 0, 1, 1, 1),
    "36": (1, 3, 0, 2, 1, 0), "37": (1, 2, 1, 2, 0, 1), "38": (1, 1, 2, 2, 1, 0),
    "39": (1, 2, 1, 1, 2, 0), "40": (1, 3, 3, 1, 1, 1), "41": (1, 2, 1, 1, 2, 0),
    "42": (1, 3, 0, 0, 3, 0),
    "43": (3, 2, 1, 1, 0, 0), "44": (3, 3, 0, 0, 1, 0),
    "1": (0, 0, 0, 0, 0, 0),
}

SUNADA_ERRATA = {"40": (1, 3, 0, 1, 1, 1)}


def build_entries():
    entries = []
    entries.append(_entry("1", "-", "1", (4, 6), True, True, [], []))
    for table, holonomy, beta_printed, orientable, diagonal, mats, members in FAMILIES:
        for gid, b_specs in members.items():
            assert len(b_specs) == len(mats)
            entries.append(_entry(gid, table, holonomy, beta_printed, orientable,
                                  diagonal, mats, b_specs))
    entries.sort(key=lambda e: (int(re.match(r"\d+", e["id"]).group()), e["id"]))
    return entries


def _entry(gid, table, holonomy, beta_printed, orientable, diagonal, mats, b_specs):
    gens = [AffineIsometry.make(parse_matrix(m), parse_translation(b))
            for m, b in zip(mats, b_specs)]
    G = build_group(gens, name=gid)
    assert G.order == HOLONOMY_ORDER[holonomy], (gid, G.order)
    assert is_orientable(G) == orientable, gid
    assert is_diagonal_type(G) == diagonal, gid
    computed_beta = (betti(G, 1), betti(G, 2))
    expected_beta = BETTI_ERRATA.get(gid, tuple(beta_printed))
    assert computed_beta == expected_beta, (gid, computed_beta, expected_beta)
    if gid in BETTI_ERRATA:
        assert tuple(beta_printed) != computed_beta, gid

    entry = {
        "id": gid,
        "table": table,
        "holonomy": holonomy,
        "generators": [
            {"matrix": [list(row) for row in g.B],
             "translation": [str(x) for x in g.b]}
            for g in gens
        ],
        "betti": list(computed_beta),
        "betti_printed": list(beta_printed),
        "orientable": orientable,
        "diagonal": diagonal,
    }
    if diagonal:
        computed = sunada_tuple(G)
        printed = SUNADA_PRINTED[gid]
        expected = SUNADA_ERRATA.get(gid, printed)
        assert computed == expected, (gid, computed, expected)
        entry["sunada"] = list(computed)
        entry["sunada_printed"] = list(printed)
    notes = []
    if not G.translation_consistent:
        assert gid == "29'", gid
        entry["translation_consistent"] = False
        notes.append("generator products do not close over Z^4 as printed;"
                     " invariants use the breadth-first coset representatives")
    if gid in BETTI_ERRATA:
        notes.append("printed Betti header contradicts the printed trace rows;"
                     " corrected value stored in 'betti'")
    if gid in SUNADA_ERRATA:
        notes.append("printed Sunada row sums to 10, not |F|-1=7;"
                     " corrected row stored in 'sunada'")
    if gid == "58":
        notes.append("first generator carries an extra e1/2 over the printed"
                     " row; as printed the mixed cosets pick up a 1/2 offset"
                     " along e1 and the group is not isospectral to 57,"
                     " contradicting the asserted spectral coincidence")
    if notes:
        entry["notes"] = "; ".join(notes)
    return entry


def main():
    entries = build_entries()
    data = {
        "schema": 1,
        "description": "Bieberbach groups of flat 4-manifolds with cubic lattice Z^4",
        "count": len(entries),
        "entries": entries,
    }
    out = Path(__file__).resolve().parent.parent / "src" / "flat4spec" / "data" / "catalog.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {out} with {len(entries)} entries")


if __name__ == "__main__":
    main()
