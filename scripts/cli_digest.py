#!/usr/bin/env python3
"""Print one digest line per CLI command, to check that a change keeps every output byte.

Usage: python3 scripts/cli_digest.py

Runs a fixed list of commands in process through `flat4spec.cli.main`
against the packaged catalog.  Each line is the first 16 hex digits of the
SHA-256 of the command's stdout, a NUL byte and its stderr, then the exit
code and the argv.  `crosscheck` (its floats depend on the platform's libm)
and `validate` (it prints the catalog path) are left out.  The committed
`scripts/cli_digest.txt` is the expected output:

    python3 scripts/cli_digest.py | diff - scripts/cli_digest.txt
"""
import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flat4spec import load_catalog
from flat4spec.classify import MODES
from flat4spec.cli import main as cli_main


def commands() -> list[list[str]]:
    ids = [entry.id for entry in load_catalog()]
    cmds = [["lengths", gid, "--max-len2", "4", "--mult"] for gid in ids]
    cmds += [["lengths", gid, "--max-len2", "21/2"] for gid in ids]
    cmds += [["classify", "--json", "--mode", mode] for mode in MODES if mode != "bracketL"]
    cmds += [["classify", "--json", "--mode", "bracketL", "--bound", bound]
             for bound in ("3", "1/2", "1/16")]
    cmds += [["zeta", gid] for gid in ids]
    cmds += [["invariants", "--json", gid] for gid in ids]
    cmds += [["invariants", gid] for gid in ids]
    cmds += [["classify", "--mode", mode] for mode in MODES if mode != "bracketL"]
    cmds.append(["classify", "--mode", "bracketL", "--bound", "1/2"])
    cmds.append(["spectrum", "42", "--max-mu", "40"])
    return cmds


def run(argv: list[str]) -> tuple[str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    data = (out.getvalue() + "\0" + err.getvalue()).encode()
    return hashlib.sha256(data).hexdigest()[:16], code


def main() -> int:
    # the packaged catalog, whatever the environment says
    os.environ.pop("FLAT4SPEC_CATALOG", None)
    for argv in commands():
        digest, code = run(argv)
        print(f"{digest} {code} {shlex.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
