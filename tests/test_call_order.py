"""Results do not depend on the order of calls in one process.

The engine memoises per process (signed-permutation invariants, theta
values, theta series, bracketL signatures), so a result that read a warm
memo left by an earlier command would show here as a difference from the
same command run first.
"""
import contextlib
import importlib.util
import io
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import flat4spec
from flat4spec.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(flat4spec.__file__).resolve().parent.parent)
_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "scripts" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def test_digest_commands_in_shuffled_order_match_the_committed_digest(monkeypatch):
    monkeypatch.delenv("FLAT4SPEC_CATALOG", raising=False)
    want = (ROOT / "scripts" / "cli_digest.txt").read_text().splitlines()
    cmds = cli_digest.commands()
    assert len(cmds) == len(want) == 406
    random.Random(27).shuffle(cmds)
    got = {}
    for argv in cmds:
        digest, code = cli_digest.run(argv)
        got[shlex.join(argv)] = f"{digest} {code} {shlex.join(argv)}"
    assert [got[line.split(" ", 2)[2]] for line in want] == want


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _fresh(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("FLAT4SPEC_CATALOG", None)
    done = subprocess.run([sys.executable, "-m", "flat4spec.cli", *argv], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def test_crosscheck_at_one_truncation_ignores_an_earlier_one(monkeypatch):
    # theta values are memoised per (d, r, s, terms); a memo keyed without
    # the truncation would hand one --trunc the values of another.  At s =
    # 0.3, 20 and 60 terms print the same digits; 4 terms do not.
    monkeypatch.delenv("FLAT4SPEC_CATALOG", raising=False)
    base = ["crosscheck", "1", "42", "67", "-s", "0.3", "--mu-max", "12", "--trunc"]
    fresh = {trunc: _fresh(base + [trunc]) for trunc in ("20", "60", "4")}
    assert fresh["4"] != fresh["20"]
    for trunc in ("20", "60", "20", "4", "20"):
        assert _in_process(base + [trunc]) == fresh[trunc], trunc
