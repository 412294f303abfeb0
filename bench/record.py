"""Record the reference content that has no golden table: expected.json.

    python3 bench/record.py

Runs, each in a fresh interpreter, every classify mode (bracketL at bound
3), ``lengths ID --max-len2 4`` for every group, ``--mult`` for every group
the workloads may draw, and ``spectrum ID --max-mu 25`` for every group.
The parsed outputs are written only if every command also passes the
independent checks (golden tables and spectral identities).  Re-record only
when a change to the engine's results is intended, and say so.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, Runner, require_checkout

import checks
import workloads


def main() -> int:
    require_checkout(ROOT)
    entries = workloads.catalog_entries(ROOT)
    ids = [e["id"] for e in entries]
    mult_ids = [e["id"] for e in entries
                if workloads.HOLONOMY[e["holonomy"]][1]
                and e["id"] != workloads.KNOWN_FAILURE[1]]
    modes = (*workloads.HEAT_MODES, "bracketL")
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        runner = Runner(ROOT, Path(tmp))
        for mode in modes:
            runner.run(["classify", "--json", "--mode", mode, "--bound", "3"])
        for gid in ids:
            runner.run(["lengths", gid, "--max-len2", "4"])
            runner.run(["spectrum", gid, "--max-mu", "25"])
        for gid in mult_ids:
            runner.run(["lengths", gid, "--max-len2", "4", "--mult"])

    recorded: dict = {"classify": {}, "lengths": {}, "lengths_mult": {},
                      "spectrum": {}}
    for o in runner.outcomes:
        if o.code != 0:
            sys.exit(f"error: {' '.join(o.argv)} exited {o.code}: {o.err}")
        cmd, arg = o.argv[0], o.argv[1]
        if cmd == "classify":
            recorded["classify"][o.argv[3]] = checks.parse_classify(o.out)
        elif cmd == "spectrum":
            recorded["spectrum"][arg] = checks.parse_spectrum(o.out, arg)
        elif "--mult" in o.argv:
            recorded["lengths_mult"][arg] = checks.parse_lengths(o.out)
        else:
            recorded["lengths"][arg] = list(checks.parse_lengths(o.out))

    oracles = checks.Oracles(ROOT, recorded)
    problems = [f"{' '.join(o.argv)}: {p}" for o in runner.outcomes
                for p in checks.check(oracles, o.argv, o.code, o.out)]
    if problems:
        sys.exit("error: not recorded, independent checks fail:\n" + "\n".join(problems))
    sections = []
    for section, table in recorded.items():
        rows = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
        sections.append(f"  {json.dumps(section)}: {{\n{rows}\n  }}")
    (HERE / "expected.json").write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"recorded {len(runner.outcomes)} outputs to {HERE / 'expected.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
