"""Command line interface.

Subcommands:
    validate    load and validate the group catalog
    invariants  print basic invariants (holonomy, Betti, type, Sunada)
    zeta        print the exact p-form heat trace polynomial of one group
    spectrum    print eigenvalue multiplicities of the p-form Laplacian
    lengths     print squared lengths (optionally with class multiplicities)
    classify    group the whole catalog into isospectrality classes
    crosscheck  compare exact heat trace polynomials with truncated
                eigenvalue sums

Only the commands that need them import the heavier layers: `spectrum` and
`crosscheck` import numspec, `lengths` and `classify --mode bracketL` import
lengths, and only `classify` imports classify.  qfield loads only where a
QuadNumber is made: for `zeta`, `crosscheck`, and `invariants` of a group with
a nontrivial element.

Exit codes: 0 success, 1 computational failure, mismatch or failed write to
stdout (quietly when stdout was closed early, as by `| head`), 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import MODES
from .catalog import catalog_path, load_catalog
from .group import betti, is_orientable
from .theta import heat_trace_poly


def _checked(parse, accept, expected: str):
    """argparse type: parse the text and require accept(value), else exit 2."""
    def convert(text: str):
        try:
            value = parse(text)
            if accept(value):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return convert


_positive_fraction = _checked(Fraction, lambda x: x > 0, "a positive rational")
# Smallest heat time crosscheck accepts.  As s -> 0 each z_{d,r}(s) grows like
# (4 pi s)^{-1/2}, so a degree-4 theta monomial overflows a float below about
# s = 6e-156 (and theta_value is nan below about 1e-309); every catalog
# polynomial evaluates finitely at this floor.
MIN_HEAT_TIME = 1e-100
_heat_time = _checked(float, lambda x: MIN_HEAT_TIME <= x < math.inf,
                      f"a finite heat time >= {MIN_HEAT_TIME:g}")
_nonnegative_int = _checked(int, lambda x: x >= 0, "a nonnegative integer")


def _entries(args, ids=()) -> list:
    """The entries named in `ids`, in that order (none given: all), validating only those."""
    cat = load_catalog(args.catalog, ids or None)
    return [cat.get(gid) for gid in ids] if ids else cat.entries


def cmd_validate(args) -> int:
    cat = load_catalog(args.catalog)
    print(f"catalog {cat.source}: {len(cat)} entries ok")
    return 0


def _element_rows(G) -> list[dict]:
    rows = []
    for g in G.nontrivial():
        dec = g.decomposition()
        offs = g.translation_offsets()
        rows.append({
            "matrix": [list(row) for row in g.B],
            "translation": [str(x) for x in g.b],
            "fixed_components": [
                {"vector": list(c.vector), "d": c.d, "r": str(r)}
                for c, (_, r) in zip(dec.components, offs)
            ],
            "fixed_rank": dec.rank,
            "volume": str(dec.volume()),
            "traces": list(g.traces()),
        })
    return rows


def cmd_invariants(args) -> int:
    rows = []
    for e in _entries(args, args.ids):
        rows.append({
            "id": e.id,
            "holonomy": e.holonomy,
            "order": e.group.order,
            "betti": [betti(e.group, p) for p in range(5)],
            "orientable": is_orientable(e.group),
            "diagonal": e.diagonal,
            "sunada": list(e.sunada) if e.sunada is not None else None,
            "elements": _element_rows(e.group),
        })
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for r in rows:
            sun = "" if r["sunada"] is None else f"  sunada={tuple(r['sunada'])}"
            print(f"{r['id']:>5}  |F|={r['order']:<2} betti={tuple(r['betti'])} "
                  f"orientable={r['orientable']} diagonal={r['diagonal']}{sun}")
            for el in r["elements"]:
                comps = ", ".join(
                    f"(d={c['d']}, r={c['r']})" for c in el["fixed_components"]
                )
                mat = ";".join(
                    "".join("+" if x == 1 else "-" if x == -1 else "."
                            for x in row)
                    for row in el["matrix"]
                )
                print(f"       B=[{mat}] b=({', '.join(el['translation'])})"
                      f" n_B={el['fixed_rank']} vol={el['volume']}"
                      f" tr_p={tuple(el['traces'])} components: {comps}")
    return 0


def cmd_zeta(args) -> int:
    [entry] = _entries(args, [args.id])
    degrees = range(5) if args.p is None else [args.p]
    for p in degrees:
        poly = heat_trace_poly(entry.group, p)
        print(f"group {entry.id}, p={p}: {poly.render()}")
    return 0


def cmd_spectrum(args) -> int:
    from .numspec import multiplicities
    [entry] = _entries(args, [args.id])
    degrees = range(5) if args.p is None else [args.p]
    for p in degrees:
        mults = multiplicities(entry.group, p, args.max_mu)
        print(f"group {entry.id}, p={p}: d_mu for mu=0..{args.max_mu}: {mults}")
    return 0


def cmd_lengths(args) -> int:
    from .lengths import length_set, length_spectrum
    [entry] = _entries(args, [args.id])
    if args.mult:
        spec = length_spectrum(entry.group, args.max_len2)
        for l2, m in sorted(spec.items()):
            print(f"length^2 = {l2}: {m} classes")
    else:
        for l2 in sorted(length_set(entry.group, args.max_len2)):
            print(f"length^2 = {l2}")
    return 0


def cmd_classify(args) -> int:
    from .classify import classify_all
    report = classify_all([e.group for e in _entries(args)], args.mode, max2=args.bound)
    if args.json is not None:
        if args.json == "-":
            print(report.to_json())
        else:
            try:
                with open(args.json, "w") as f:
                    f.write(report.to_json() + "\n")
            except OSError as exc:
                print(f"error: cannot write report to {args.json}: {exc}", file=sys.stderr)
                return 1
            print(f"report written to {args.json}")
    else:
        print(f"mode {report.mode}: {len(report.classes)} classes")
        for cls in report.nontrivial_classes():
            print("  {" + ", ".join(cls) + "}")
        for gid, msg in sorted(report.errors.items()):
            print(f"  [error] {gid}: {msg}")
    return 0


def cmd_crosscheck(args) -> int:
    from .numspec import heat_trace_numeric
    failures = 0
    degrees = range(5) if args.p is None else [args.p]
    for e in _entries(args, args.ids):
        for p in degrees:
            exact = heat_trace_poly(e.group, p).eval_numeric(args.s, terms=args.trunc)
            series = heat_trace_numeric(e.group, p, args.s, args.mu_max)
            err = abs(exact - series)
            ok = err <= args.tol  # False for nan, which is a mismatch
            status = "ok" if ok else "MISMATCH"
            failures += not ok
            print(f"group {e.id:>5} p={p}: exact={exact:.12f} "
                  f"series={series:.12f} |diff|={err:.2e} {status}")
    if failures:
        print(f"{failures} mismatches above tolerance {args.tol}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flat4spec",
        description="Exact spectral invariants of compact flat 4-manifolds",
    )
    parser.add_argument(
        "--catalog",
        default=None,
        help=f"catalog JSON path (default: packaged file, or ${'{'}FLAT4SPEC_CATALOG{'}'};"
             f" currently {catalog_path()})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and validate the catalog")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="print group invariants")
    p.add_argument("ids", nargs="*", help="group ids (default: all)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("zeta", help="exact heat trace polynomial")
    p.add_argument("id")
    p.add_argument("-p", type=int, choices=range(5), default=None,
                   help="form degree (default: all)")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("spectrum", help="eigenvalue multiplicities")
    p.add_argument("id")
    p.add_argument("-p", type=int, choices=range(5), default=None)
    p.add_argument("--max-mu", type=_nonnegative_int, default=10)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("lengths", help="squared lengths of closed geodesics")
    p.add_argument("id")
    p.add_argument("--max-len2", type=_positive_fraction, default="4",
                   help="largest squared length")
    p.add_argument("--mult", action="store_true",
                   help="also count conjugacy classes per length")
    p.set_defaults(func=cmd_lengths)

    p = sub.add_parser("classify", help="isospectrality classes of the catalog")
    p.add_argument("--mode", choices=MODES, default="all-p")
    p.add_argument("--bound", type=_positive_fraction, default="3",
                   help="squared length bound for mode bracketL")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   help="emit the JSON report (to a path, or stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("crosscheck", help="exact vs truncated numeric heat traces")
    p.add_argument("ids", nargs="*", help="group ids (default: all)")
    p.add_argument("-p", type=int, choices=range(5), default=None,
                   help="form degree (default: all)")
    p.add_argument("-s", type=_heat_time, default=0.08,
                   help=f"heat time (at least {MIN_HEAT_TIME:g})")
    p.add_argument("--mu-max", type=_nonnegative_int, default=40)
    p.add_argument("--trunc", type=_nonnegative_int, default=60,
                   help="theta sum truncation")
    p.add_argument("--tol", default=1e-8, type=_checked(
        float, lambda x: 0 <= x < math.inf, "a nonnegative finite number"))
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failed write raises here, not at interpreter exit
        return code
    except OSError as exc:
        # a failed write to stdout (catalog reads and `classify --json PATH`
        # report their own): point stdout at devnull so the interpreter's final
        # flush does not raise again, and end quietly if it was closed (`| head`)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, ArithmeticError) as exc:  # incl. CatalogError, GroupError
        # str() of a KeyError is the repr of its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
