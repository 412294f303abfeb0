"""Every layer the benchmark's tracer wraps must exist in the package.

bench/tracer.py names its targets as "module:qualname" strings and reports a
target it cannot find as missing, which only the traced benchmark pass
notices.  This test resolves each one the way the tracer does, so renaming or
deleting a traced function fails here first.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import flat4spec

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
SRC = str(Path(flat4spec.__file__).resolve().parent.parent)
_spec = importlib.util.spec_from_file_location("bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

TARGETS = sorted({target for table in (tracer.SPANS, tracer.COUNTS)
                  for targets in table.values() for target in targets})


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    _, _, original = tracer._resolve(target)
    assert callable(original)


def test_shell_cache_resolves():
    _, _, cached = tracer._resolve(tracer.SHELL_CACHE)
    assert cached.cache_info() is not None


def test_tracer_nests_deferred_lengths_under_bracketL_signature():
    # classify imports lengths only inside bracketL_signature; the wrapped
    # binding must still be the one called there, in a fresh process as in
    # the benchmark (install first, then the command)
    code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(_PATH.parent)!r})
import tracer
import flat4spec.cli
t = tracer.Tracer()
tracer.install(t)
with contextlib.redirect_stdout(io.StringIO()):
    code = flat4spec.cli.main(["classify", "--mode", "bracketL", "--bound", "1/2"])
print(json.dumps({{"code": code, "spans": t.spans, "counts": t.counts,
                  "missing": t.missing}}))
"""
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         check=True, capture_output=True, text=True).stdout
    data = json.loads(out)
    spans = data["spans"]
    assert data["code"] == 0
    assert "lengths.length_spectrum" not in data["missing"]
    inner = [parent for name, _, _, parent in spans if name == "lengths.length_spectrum"]
    assert inner
    assert all(parent >= 0 and spans[parent][0] == "classify.bracketL_signature"
               for parent in inner)
    data["wall"] = 1.0
    assert tracer.summarize(data)["classify.bracketL_signature.misses"] == len(inner)
