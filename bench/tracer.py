"""Traced runner: one ``flat4spec`` command with spans around each layer.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 bench/tracer.py SPANS.json <flat4spec arguments...>

It imports ``flat4spec.cli``, replaces every binding of each target named in
the manifest below with a wrapper, calls ``flat4spec.cli.main(argv)`` and at
exit writes every span as ``[name, start, end, parent]`` together with the
call counters.  The package itself is not modified: spans are recorded from
the benchmark's own files only.

A function imported by name (``from .theta import heat_trace_poly``) has a
binding in every importing module; all of them are wrapped, because a call
through any of them is a call into the layer.  A target that no longer
exists is reported as missing, never as zero.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# metric prefix -> "module:qualname" targets; each call becomes a span.
# group.element_volume, group.binom4 and AffineIsometry.b_plus are left out
# on purpose: nothing in the engine calls them and they are due for deletion.
SPANS = {
    "catalog.load_catalog": ["catalog:load_catalog"],
    "group.build_group": ["group:build_group"],
    "group.invariants": ["group:betti", "group:is_orientable",
                         "group:is_diagonal_type", "group:sunada_tuple"],
    "group.traces": ["group:AffineIsometry.traces"],
    "group.decomposition": ["group:AffineIsometry.decomposition"],
    "theta.heat_trace_poly": ["theta:heat_trace_poly"],
    "theta.eval_numeric": ["theta:HeatTracePoly.eval_numeric"],
    "numspec.multiplicity": ["numspec:multiplicity"],
    "numspec.e_term": ["numspec:e_term"],
    "lengths.length_set": ["lengths:length_set"],
    "lengths.length_multiplicity": ["lengths:length_multiplicity"],
    "lengths.length_spectrum": ["lengths:length_spectrum"],
    "lengths.coset_geometry": ["lengths:coset_geometry"],
    "classify.classify_all": ["classify:classify_all"],
    "classify.bracketL_signature": ["classify:bracketL_signature"],
    "cli.main": ["cli:main"],
}
# metric prefix -> targets whose calls are only counted; these run too often
# (field arithmetic) or too deep for a span each to be cheap
COUNTS = {
    "kraw.charpoly_coeffs": ["kraw:charpoly_coeffs"],
    "intlat.decompose_fixed": ["intlat:decompose_fixed"],
    "intlat.smith_normal_form": ["intlat:smith_normal_form"],
    "qfield.mul": ["qfield:QuadNumber.__mul__"],
    "qfield.truediv": ["qfield:QuadNumber.__truediv__"],
    "qfield.inverse": ["qfield:QuadNumber.inverse"],
}
# the lru_cache whose hit and miss counts are read at exit
SHELL_CACHE = "numspec:lattice_shell"


def r4(n: int) -> int:
    """Number of integer vectors of squared norm n in Z^4 (Jacobi).

    Equals ``len(lattice_shell(n))``; computed here so that counting the
    shell vectors scanned does not add hits to the package's own cache.
    """
    if n == 0:
        return 1
    return 8 * sum(d for d in range(1, n + 1) if n % d == 0 and d % 4)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: dict[str, str] = {}

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][1] = start
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def record_span(self, name, start, end):
        self.spans.append([name, start, end, -1])

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


def _resolve(target: str):
    """(owner object, attribute, original) for "module:qualname"."""
    modname, qualname = target.split(":")
    owner = importlib.import_module(f"flat4spec.{modname}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _rebind(owner, original, wrapper) -> None:
    """Replace every binding of `original`: all package modules, or a class."""
    if isinstance(owner, type):
        homes = [owner]
    else:
        homes = [m for name, m in list(sys.modules.items())
                 if name == "flat4spec" or name.startswith("flat4spec.")]
    for home in homes:
        for attr, value in list(vars(home).items()):
            if value is original:
                setattr(home, attr, wrapper)


def _hooks(tracer: Tracer) -> dict:
    def shell_vectors(args, kwargs, _result):
        mu = kwargs["mu"] if "mu" in kwargs else args[1]
        tracer.add("numspec.shell_vectors", r4(mu))

    def errors(_args, _kwargs, report):
        tracer.add("classify.errors", len(report.errors))

    return {"numspec.e_term": shell_vectors, "classify.classify_all": errors}


def install(tracer: Tracer) -> None:
    hooks = _hooks(tracer)
    for table, make in ((SPANS, None), (COUNTS, tracer.counter)):
        for metric, targets in table.items():
            for target in targets:
                try:
                    owner, _, original = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    tracer.missing[metric] = f"{target}: {exc}"
                    continue
                if make is None:
                    wrapper = tracer.span(metric, original, hooks.get(metric))
                else:
                    wrapper = make(metric, original)
                _rebind(owner, original, wrapper)
    for name in ("numspec.shell_vectors", "classify.errors"):
        tracer.counts.setdefault(name, 0)


def shell_cache(tracer: Tracer) -> None:
    try:
        _, _, cached = _resolve(SHELL_CACHE)
        info = cached.cache_info()
    except (ImportError, AttributeError) as exc:
        tracer.missing["numspec.lattice_shell"] = f"{SHELL_CACHE}: {exc}"
        return
    tracer.counts["numspec.lattice_shell.hits"] = info.hits
    tracer.counts["numspec.lattice_shell.misses"] = info.misses


def summarize(data: dict) -> dict[str, float]:
    """Per-layer values of one traced command.

    ``NAME.s`` is inclusive time, counting only spans with no ancestor of
    the same name; ``NAME.self_s`` subtracts the time of child spans.  A
    metric whose target is missing is left out.
    """
    spans = data["spans"]
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    def ancestor(i: int, name: str) -> int:
        p = spans[i][3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        return p

    values: dict[str, float] = {}
    for prefix in SPANS:
        if prefix not in data["missing"]:
            values.update({f"{prefix}.s": 0.0, f"{prefix}.self_s": 0.0,
                           f"{prefix}.calls": 0})
    misses = set()
    for i, (name, _, _, _) in enumerate(spans):
        values[f"{name}.calls"] = values.get(f"{name}.calls", 0) + 1
        values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0.0) + dur[i] - child[i]
        if ancestor(i, name) < 0:
            values[f"{name}.s"] = values.get(f"{name}.s", 0.0) + dur[i]
        if name == "lengths.length_spectrum":
            misses.add(ancestor(i, "classify.bracketL_signature"))
    misses.discard(-1)
    for name, n in data["counts"].items():
        values[f"{name}.calls" if name in COUNTS else name] = n

    missing = data["missing"]
    if "lengths.length_spectrum" not in missing and "classify.bracketL_signature" not in missing:
        values["classify.bracketL_signature.misses"] = len(misses)
        values["classify.bracketL_signature.hits"] = (
            values["classify.bracketL_signature.calls"] - len(misses))
    if "numspec.e_term" in missing:
        values.pop("numspec.shell_vectors", None)
    if "classify.classify_all" in missing:
        values.pop("classify.errors", None)
    values["cli.import_s"] = values.get("cli.import.s", 0.0)
    if "cli.main" not in missing:
        values["cli.self_s"] = values["cli.main.self_s"]
    top = sum(d for d, (_, _, _, parent) in zip(dur, spans) if parent < 0)
    values["trace.coverage"] = top / data["wall"]
    return values


def main(out_path: str, argv: list[str]) -> int:
    t_start = time.perf_counter()
    tracer = Tracer()
    import flat4spec.cli
    tracer.record_span("cli.import", t_start, time.perf_counter())
    install(tracer)
    try:
        code = flat4spec.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    sys.stdout.flush()
    t_end = time.perf_counter()
    shell_cache(tracer)
    with open(out_path, "w") as fh:
        json.dump({"wall": t_end - t_start, "spans": tracer.spans,
                   "counts": tracer.counts, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
