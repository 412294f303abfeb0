"""flat4spec benchmark: fresh-process CLI workloads, measured from outside.

    python3 bench/run.py --workload {heat,lengths,spectrum} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere; it works on the checkout it lives in.  Every
``flat4spec`` command runs in a fresh interpreter with ``src`` on
PYTHONPATH, as ``python3 -c "from flat4spec.cli import main; ..."`` - the
same entry point as the installed console script - so interpreter start,
import and catalog load plus revalidation are part of every number.

Workloads (closed loop, one client, commands one after another; see
``workloads.py`` for the scripts):

* heat     - classify p0..p4, all-p, L, sunada; zeta and invariants --json.
             The paper's main table: catalog -> group -> kraw/intlat/qfield
             -> theta -> classify.  Catalog load is ~40% of a pass, so
             set-up work shows here.  Never calls lengths or numspec.
* lengths  - lengths --max-len2 4 --mult for nine abelian groups (class
             counts: length_spectrum, the work behind bracketL), the known
             29' failure, and lengths --max-len2 4 for three groups.  theta
             and numspec.multiplicity are never called, so this is the
             no-change control for heat-trace and multiplicity work.
* spectrum - crosscheck --mu-max 20 over all 77 groups, 7 per command;
             spectrum --max-mu 25 for three groups.  multiplicity and
             heat_trace_numeric dominate; lengths is never called.

Cold caches.  No interpreter is ever reused across commands, in either run:
``classify._BRACKETL_CACHE`` would make a repeated bracketL almost free,
and ``numspec._ETERM_CACHE`` is keyed by ``id(G)``, so a reused process can
be served a freed group's values for another group.

With ``--trace 0`` the run samples set-up (a fresh ``flat4spec validate``)
several times, then repeats the pass while another one fits in
``--seconds`` (at least one pass), and reports the end-to-end metrics as
medians over passes.  No run has the 20 samples of a metric that a tail
percentile with 10 samples beyond it needs, so none is reported; the
sample lists, and so their counts, are in the detail line.  With
``--trace 1`` it runs one plain pass and one traced pass (``tracer.py``)
and reports the per-layer metrics; their difference is the tracing
overhead.  CPU time and peak RSS come from each child's own rusage
(``os.wait4``), not from the cumulative RUSAGE_CHILDREN.

Reference speed.  On a shared 2-core virtual machine a short-lived process
runs up to 2x slower at some moments than at others, so the raw time of a
pass differs by 15-35% between runs a minute apart with no code change.
The runner therefore times ``REFERENCE`` - a fixed Fraction loop in a
fresh interpreter that never imports flat4spec - before and after every
command, and rescales the pass to a machine on which the reference takes
``REF_S`` seconds:

    wall_s = sum(command walls) * REF_S / mean(reference around each)

and likewise ``cpu_s`` from CPU times, and each ``setup_s`` sample.  A
change to flat4spec cannot move the reference, so the scale cancels the
machine's speed of the moment and nothing else.  It tracks commands of up
to a few seconds only, which is why no workload runs a longer one (see
workloads.py).  Measured seconds and reference times are in the detail
line.

Every command's output is checked (``checks.py``).  The last line of
standard output is the JSON result; the line before it holds the seed, the
drawn ids, every sample and the machine metadata.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ENTRY = "import sys; from flat4spec.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5
COMMAND_TIMEOUT = 150  # seconds; no command takes more than a few
# Fixed pure-Python work in a fresh interpreter, timed before and after
# every command; see "Reference speed" above.  It never imports flat4spec.
REFERENCE = ("from fractions import Fraction as F\n"
             "acc = F(0)\n"
             "for i in range(1, 20000):\n"
             "    acc += F(i % 7, i % 11 + 1)\n")
# a typical reference time on the 2-core machine this was written on; it
# only fixes the scale of the rescaled seconds
REF_S = 0.15

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}
PER_LAYER = {
    "catalog.load_catalog.s": "s", "catalog.load_catalog.calls": "count",
    "group.build_group.s": "s", "group.build_group.calls": "count",
    "group.invariants.s": "s",
    "group.traces.s": "s", "group.traces.calls": "count",
    "group.decomposition.s": "s", "group.decomposition.calls": "count",
    "kraw.charpoly_coeffs.calls": "count",
    "intlat.decompose_fixed.calls": "count",
    "intlat.smith_normal_form.calls": "count",
    "qfield.mul.calls": "count", "qfield.truediv.calls": "count",
    "qfield.inverse.calls": "count",
    "theta.heat_trace_poly.s": "s", "theta.heat_trace_poly.self_s": "s",
    "theta.heat_trace_poly.calls": "count", "theta.eval_numeric.s": "s",
    "numspec.multiplicity.s": "s", "numspec.multiplicity.calls": "count",
    "numspec.e_term.s": "s", "numspec.e_term.calls": "count",
    "numspec.shell_vectors": "count",
    "numspec.lattice_shell.hits": "count",
    "numspec.lattice_shell.misses": "count",
    "lengths.length_set.s": "s", "lengths.length_set.calls": "count",
    "lengths.length_multiplicity.s": "s",
    "lengths.length_multiplicity.calls": "count",
    "lengths.coset_geometry.s": "s", "lengths.coset_geometry.calls": "count",
    "classify.classify_all.self_s": "s",
    "classify.bracketL_signature.hits": "count",
    "classify.bracketL_signature.misses": "count",
    "classify.errors": "count",
    "cli.import_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}


@dataclass
class Outcome:
    argv: list[str]
    code: int
    out: str
    err: str
    wall: float
    cpu: float
    rss_mb: float
    ref: float = 0.0             # mean reference seconds around the command
    ref_cpu: float = 0.0
    layers: dict | None = None   # tracer.summarize() of a traced command
    missing: dict | None = None


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _terminate(signum, frame):
    sys.exit(128 + signum)


class Runner:
    """Runs one flat4spec command per fresh interpreter, in the checkout."""

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp
        env = dict(os.environ)
        env.pop("FLAT4SPEC_CATALOG", None)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        self.outcomes: list[Outcome] = []

    def _spawn(self, cmd: list[str]):
        """(exit code, wall seconds, rusage of this child alone)."""
        with open(self.tmp / "stdout", "wb") as out, open(self.tmp / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            signal.alarm(COMMAND_TIMEOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException as exc:  # never leave a child running
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                if not isinstance(exc, _Timeout):
                    raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def reference(self) -> tuple[float, float]:
        """Wall and CPU seconds of one run of REFERENCE."""
        _, wall, usage = self._spawn([sys.executable, "-c", REFERENCE])
        return wall, usage.ru_utime + usage.ru_stime

    def run(self, argv: list[str], traced: bool = False) -> Outcome:
        spans = self.tmp / "spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        code, wall, usage = self._spawn(cmd)
        outcome = Outcome(argv, code, (self.tmp / "stdout").read_text(),
                          (self.tmp / "stderr").read_text(), wall,
                          usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
        if traced and spans.exists():
            data = json.loads(spans.read_text())
            outcome.layers, outcome.missing = tracer.summarize(data), data["missing"]
            spans.unlink()
        self.outcomes.append(outcome)
        return outcome

    def run_pass(self, script: list[list[str]], traced: bool = False) -> list[Outcome]:
        """Run the commands with one reference run before and after each."""
        before = self.reference()
        outcomes = []
        for argv in script:
            o = self.run(argv, traced)
            after = self.reference()
            o.ref = (before[0] + after[0]) / 2
            o.ref_cpu = (before[1] + after[1]) / 2
            outcomes.append(o)
            before = after
        return outcomes


def pass_totals(outcomes: list[Outcome]) -> dict:
    """End-to-end figures of one pass, at reference speed."""
    wall = sum(o.wall for o in outcomes)
    ref = statistics.mean(o.ref for o in outcomes)
    ref_cpu = statistics.mean(o.ref_cpu for o in outcomes)
    return {"wall_s": wall * REF_S / ref,
            "cpu_s": sum(o.cpu for o in outcomes) * REF_S / ref_cpu,
            "peak_rss_mb": max(o.rss_mb for o in outcomes),
            "measured_wall_s": wall, "reference_s": ref}


def layer_metrics(outcomes: list[Outcome], plain: dict) -> dict:
    """Per-layer metrics of a traced pass: sums over its commands."""
    values: dict[str, float] = {}
    reasons: dict[str, str] = {}
    coverage = []
    for o in outcomes:
        if o.layers is None:
            reasons["*"] = f"no trace written by {' '.join(o.argv)}"
            continue
        summary = dict(o.layers)
        coverage.append(summary.pop("trace.coverage"))
        for name, value in summary.items():
            values[name] = values.get(name, 0) + value
        reasons.update(o.missing)
    values["trace.coverage"] = min(coverage) if coverage else None
    values["trace.overhead_s"] = pass_totals(outcomes)["wall_s"] - plain["wall_s"]
    metrics = {}
    for name, unit in PER_LAYER.items():
        value = values.get(name)
        if value is None:
            why = next((w for p, w in reasons.items() if name.startswith(p + ".")),
                       "; ".join(reasons.values()) or "not recorded")
            metrics[name] = {"value": None, "unit": unit, "missing": why}
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def metadata(root: Path) -> dict:
    head = root / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).exists():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_lines": src_lines}


def require_checkout(root: Path) -> None:
    needed = ["src/flat4spec/cli.py", "src/flat4spec/data/catalog.json",
              "tests/golden_classes.py", "tests/golden_heat.py"]
    absent = [p for p in needed if not (root / p).is_file()]
    if absent:
        sys.exit(f"error: {root} is not a flat4spec checkout; missing {absent}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_checkout(ROOT)
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)

    oracles = checks.Oracles(ROOT)
    ids = workloads.draw(args.seed, workloads.catalog_entries(ROOT))
    script = workloads.script(args.workload, ids, list(oracles.entries))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        runner = Runner(ROOT, Path(tmp))
        runner.run(["validate"])  # writes bytecode caches; not timed
        detail: dict = {"workload": args.workload, "seed": args.seed,
                        "ids": ids, "script": script, **metadata(ROOT)}
        if args.trace:
            plain = pass_totals(runner.run_pass(script))
            traced = runner.run_pass(script, traced=True)
            metrics = layer_metrics(traced, plain)
            detail["plain_pass"] = plain
        else:
            validates = runner.run_pass([["validate"]] * SETUP_SAMPLES)
            passes, durations = [], []
            while True:
                start = time.perf_counter()
                passes.append(pass_totals(runner.run_pass(script)))
                durations.append(time.perf_counter() - start)
                if sum(durations) + max(durations) > args.seconds:
                    break
            samples = {k: [p[k] for p in passes] for k in passes[0]}
            samples["setup_s"] = [REF_S * o.wall / o.ref for o in validates]
            samples["measured_setup_s"] = [o.wall for o in validates]
            metrics = {k: {"value": statistics.median(samples[k]), "unit": u}
                       for k, u in END_TO_END.items() if k in samples}
            detail["samples"] = samples

    problems = []
    failed = 0
    for o in runner.outcomes:
        found = checks.check(oracles, o.argv, o.code, o.out)
        failed += bool(found)
        problems += [f"{' '.join(o.argv)}: {p}" for p in found]
        if found and o.err:
            problems.append(f"{' '.join(o.argv)}: stderr {o.err[-300:]!r}")
    attempted = len(runner.outcomes)
    detail["fail_rate"] = failed / attempted
    detail["problems"] = problems[:50]
    if not args.trace:
        metrics["ok_rate"] = {"value": 1 - failed / attempted, "unit": "ratio"}
        metrics = {k: metrics[k] for k in END_TO_END}
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
