"""Seeded command scripts for the three benchmark workloads.

Each workload is a closed loop with one client: the commands of a pass run
one after another, each in a fresh interpreter.  The seed only chooses the
per-group ids; it is drawn once per run, so every pass of a run repeats the
same script.

Ids are drawn evenly from each holonomy-order stratum, so every seed does
comparable work: the cost of ``lengths --mult`` and ``spectrum`` grows with
the holonomy order, and a draw of order-8 groups only would otherwise take
several times as long as a draw of order-2 groups.

Every command runs for at most about two seconds.  The whole-catalog forms
the scripts stand for - ``classify --mode bracketL --bound 3`` and one
``crosscheck`` over all 77 groups - run 10-20 s in one process, and on a
shared machine their time varies by 20-35% between runs in a way no
reference run tracks (see run.py).  So ``lengths`` counts classes per group
(``length_spectrum``, the computation behind bracketL) and ``spectrum``
cross-checks the catalog in chunks of ``CROSSCHECK_CHUNK`` groups.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

# holonomy name in data/catalog.json -> (order, abelian); kept here, not
# computed by the package, so the draw does not depend on the code measured
HOLONOMY = {
    "1": (1, True), "Z2": (2, True), "Z3": (3, True), "Z4": (4, True),
    "Z2^2": (4, True), "Z6": (6, True), "D3": (6, False),
    "Z2^3": (8, True), "Z2xZ4": (8, True), "D4": (8, False),
}
STRATA = ((1, 2, 3), (4, 6), (8,))

# 29' does not close over Z^4 as printed (ROADMAP 3(e)), so its class-length
# count exits 1.  It is not drawn; every lengths pass runs it once instead,
# and checks.py expects that exit code, so the defect stays in view.
KNOWN_FAILURE = ["lengths", "29'", "--max-len2", "4", "--mult"]
MULT_PER_STRATUM = 3
CROSSCHECK_CHUNK = 7

HEAT_MODES = ("p0", "p1", "p2", "p3", "p4", "all-p", "L", "sunada")
WORKLOADS = ("heat", "lengths", "spectrum")


def catalog_entries(root: Path) -> list[dict]:
    data = json.loads((root / "src/flat4spec/data/catalog.json").read_text())
    return data["entries"]


def _stratum_draw(rng: random.Random, pool: list[dict], k: int = 1) -> list[str]:
    picks = []
    for orders in STRATA:
        ids = [e["id"] for e in pool if HOLONOMY[e["holonomy"]][0] in orders]
        picks += rng.sample(ids, k)
    return picks


def draw(seed: int, entries: list[dict]) -> dict[str, list[str]]:
    """Per-group ids for every workload; the same seed gives the same ids."""
    rng = random.Random(seed)
    abelian = [e for e in entries
               if HOLONOMY[e["holonomy"]][1] and e["id"] != KNOWN_FAILURE[1]]
    return {
        "zeta": _stratum_draw(rng, entries),
        "invariants": _stratum_draw(rng, entries),
        "lengths": _stratum_draw(rng, entries),
        "lengths_mult": _stratum_draw(rng, abelian, MULT_PER_STRATUM),
        "spectrum": _stratum_draw(rng, entries),
    }


def script(workload: str, ids: dict[str, list[str]],
           catalog_ids: list[str]) -> list[list[str]]:
    """The argv list of one pass of the workload."""
    if workload == "heat":
        return ([["classify", "--json", "--mode", m] for m in HEAT_MODES]
                + [["zeta", gid] for gid in ids["zeta"]]
                + [["invariants", *ids["invariants"], "--json"]])
    if workload == "lengths":
        return ([["lengths", gid, "--max-len2", "4", "--mult"]
                 for gid in ids["lengths_mult"]]
                + [KNOWN_FAILURE]
                + [["lengths", gid, "--max-len2", "4"] for gid in ids["lengths"]])
    if workload == "spectrum":
        chunks = [catalog_ids[i:i + CROSSCHECK_CHUNK]
                  for i in range(0, len(catalog_ids), CROSSCHECK_CHUNK)]
        return ([["crosscheck", *chunk, "--mu-max", "20"] for chunk in chunks]
                + [["spectrum", gid, "--max-mu", "25"] for gid in ids["spectrum"]])
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
