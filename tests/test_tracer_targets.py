"""Every layer the benchmark's tracer wraps must exist in the package.

bench/tracer.py names its targets as "module:qualname" strings and reports a
target it cannot find as missing, which only the traced benchmark pass
notices.  This test resolves each one the way the tracer does, so renaming or
deleting a traced function fails here first.
"""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
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
