"""Command-line interface: deterministic reports over JSON documents.

Exit codes: 0 success, 1 domain failure (with the witness in the report),
2 usage, parse or document error.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

try:  # CPython's own SHA-256 (_sha2 from 3.12); hashlib would load OpenSSL
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .cohomology import build_gluing_complex, diag_cohomology
from .complexes import section_module, singleton_complex, sl2_catalog
from .degeneration import HeightFunction, _fiber_complex, _integrality, regular_subdivision
from .documents import (
    complex_to_document,
    dumps,
    load_complex,
    load_heights,
    rational_to_string,
)
from .errors import SSVError, DocumentError, ParamError
from .lattice import smith_normal_form
from .matroid import (
    GradedShape,
    RankFunctionData,
    enumerate_matroid_subdivisions,
    thin_cell_weight_set,
    weight_set,
)
from .polyhedral import AffineMonoid, cone_over, hilbert_basis
from .rootdata import _orbit_hulls, is_w_admissible, root_datum, weyl_dimension


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _digest(path):
    sha = sha256()
    with open(path, "rb") as handle:
        sha.update(handle.read())
    return sha.hexdigest()


def _provenance(paths):
    return {
        "tool_version": __version__,
        "input_digests": {p: _digest(p) for p in paths},
    }


def _render_text(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key, sub in value.items():
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {sub}")
    elif isinstance(value, list):
        simple = all(not isinstance(x, (dict, list)) for x in value)
        if simple:
            lines.append(pad + (", ".join(str(x) for x in value) if value else "(none)"))
        else:
            for x in value:
                lines.extend(_render_text(x, indent))
                lines.append(f"{pad}-")
            if lines and lines[-1] == f"{pad}-":
                lines.pop()
    else:
        lines.append(f"{pad}{value}")
    return lines


def _emit(report, args, raw_text=None):
    if args.format == "json":
        text = dumps(report)
    elif raw_text is not None:
        text = raw_text
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _invariants_dict(inv):
    return {"free_rank": inv.free_rank, "torsion": list(inv.torsion)}


def _weight_of(text):
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad --weight: {exc}") from None


def _report(args, results, inputs=()):
    return {
        "command": list(getattr(args, "argv_echo", [])),
        "results": results,
        "provenance": _provenance(inputs),
    }


def _cmd_validate(args):
    complex_, _ = load_complex(args.file)
    report = complex_.validate()
    results = {
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "witness": c.witness}
            for c in report.checks
        ],
        "moment_set_convex": report.moment_set_convex,
        "cohen_macaulay": report.cohen_macaulay,
        "cells": len(complex_.cells),
        "maximal": list(complex_.maximal_ids),
    }
    return (0 if report.passed else 1), _report(args, results, [args.file])


def _cmd_sections(args):
    if args.degree < 0:
        raise _UsageError("--degree must be nonnegative")
    complex_, doc_label = load_complex(args.file)
    label = args.root_datum or doc_label
    if label is None:
        raise _UsageError("no root datum: pass --root-datum or set it in the document")
    datum = root_datum(label)
    if complex_.rank < datum.rank:
        raise _UsageError(
            f"weights have {complex_.rank} coordinates, root datum rank is {datum.rank}"
        )
    summary = section_module(complex_, args.degree, datum)
    results = {
        "degree": summary.degree,
        "root_datum": label,
        "weights": [
            {"weight": [str(x) for x in w], "multiplicity": m, "dimension": d}
            for w, m, d in summary.weights
        ],
        "total_dimension": summary.total_dimension,
    }
    return 0, _report(args, results, [args.file])


def _cmd_cohomology(args):
    complex_, _ = load_complex(args.file)
    mode = args.mode
    if mode == "auto":
        mode = "supplied" if all(
            c.aut is not None for c in complex_.maximal_cells()
        ) else "toric"
    gluing = build_gluing_complex(complex_, mode=mode)
    h0 = diag_cohomology(gluing, 0).invariants()
    h1 = diag_cohomology(gluing, 1).invariants()
    results = {
        "mode": mode,
        "h0": _invariants_dict(h0),
        "h1": _invariants_dict(h1),
        "h1_trivial": h1.is_trivial,
    }
    return 0, _report(args, results, [args.file])


def _cmd_degenerate(args):
    complex_, _ = load_complex(args.file)
    points, heights = load_heights(args.heights)
    if len(complex_.maximal_ids) != 1:
        raise SSVError("degenerate needs a document with exactly one maximal cell")
    cell = complex_.maximal_cells()[0]
    gamma = complex_.gamma
    height = HeightFunction.from_lifted(points, heights)
    monoid = AffineMonoid(gamma, hilbert_basis(cone_over(cell.polytope), gamma))
    reduced, witness, exponent = _integrality(height, monoid)
    results = {
        "reduced": reduced,
        "witness": list(witness) if witness is not None else None,
        "base_change_exponent": exponent,
    }
    inputs = [args.file, args.heights]
    if not reduced and args.base_change != "auto":
        return 1, _report(args, results, inputs)
    # a positive scale leaves the subdivision unchanged, and makes the height integral
    fiber = _fiber_complex(gamma, regular_subdivision(cell.polytope, points, heights))
    results["applied_base_change"] = 1 if reduced else exponent
    results["fiber"] = {
        "cells": [
            {
                "id": c.id,
                "vertices": [[rational_to_string(x) for x in v] for v in c.polytope.vertices],
            }
            for c in fiber.sorted_cells()
        ],
        "maximal": list(fiber.maximal_ids),
        "passes_validation": fiber.validate().passed,
    }
    return 0, _report(args, results, inputs)


def _cmd_matroid(args):
    try:
        shape = GradedShape(args.r, tuple(int(x) for x in args.ranks.split(",")))
    except (ValueError, ParamError) as exc:
        raise _UsageError(f"bad --r/--ranks: {exc}") from None
    if args.matroid_command == "weightset":
        points = weight_set(shape)
        results = {
            "r": shape.r,
            "ranks": list(shape.ranks),
            "points": [list(p) for p in points],
            "count": len(points),
        }
    elif args.matroid_command == "subdivisions":
        if args.cap < 0:
            raise _UsageError("--cap must be nonnegative")
        subdivisions = enumerate_matroid_subdivisions(
            shape, cap=args.cap, workers=args.workers
        )
        results = {
            "r": shape.r,
            "ranks": list(shape.ranks),
            "cap": args.cap,
            "count": len(subdivisions),
            "subdivisions": [
                {
                    "cells": [
                        [[rational_to_string(x) for x in v] for v in c.vertices]
                        for c in cells
                    ]
                }
                for cells in subdivisions
            ],
        }
    elif args.matroid_command == "thincell":
        try:
            raw = json.loads(args.d)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"--d is not valid JSON: {exc}") from None
        entries = {}
        if not isinstance(raw, dict):
            raise _UsageError("--d must be a JSON object keyed by index strings")
        for key, value in raw.items():
            if not set(key) <= set("0123456789"):
                raise _UsageError(f"bad subset key {key!r}")
            if type(value) is not int:
                raise _UsageError(f"bad value {value!r} for subset key {key!r}")
            entries[frozenset(int(ch) for ch in key)] = value
        data = RankFunctionData(shape, entries)
        points, full, witness = thin_cell_weight_set(shape, data)
        results = {
            "r": shape.r,
            "ranks": list(shape.ranks),
            "points": [list(p) for p in points],
            "count": len(points),
            "full": full,
            "witness": list(witness) if witness is not None else None,
        }
    else:  # pragma: no cover - argparse enforces the choices
        raise _UsageError("unknown matroid subcommand")
    return 0, _report(args, results)


def _cmd_moment(args):
    datum = root_datum(args.root_datum)
    weight = _weight_of(args.weight)
    if len(weight) != datum.rank:
        raise _UsageError(
            f"weight has {len(weight)} coordinates, root datum rank is {datum.rank}"
        )
    orbit_hull, hull = _orbit_hulls(datum, weight)
    results = {
        "root_datum": args.root_datum,
        "weight": [str(x) for x in weight],
        # a Weyl orbit lies on a sphere of the invariant form: all vertices
        "orbit_size": len(orbit_hull.vertices),
        "hull_vertices": [[rational_to_string(x) for x in v] for v in hull.vertices],
    }
    if all(x.denominator == 1 and x >= 0 for x in weight):
        results["dimension"] = weyl_dimension(datum, weight)
    if args.admissible:
        results["orbit_hull_admissible"] = is_w_admissible(datum, orbit_hull)
    return 0, _report(args, results)


def _cmd_snf(args):
    text = sys.stdin.read()
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"stdin is not valid JSON: {exc}", "") from None
    if (
        not isinstance(rows, list)
        or not rows
        or not all(isinstance(r, list) and r for r in rows)
        or len({len(r) for r in rows}) != 1
        or not all(isinstance(x, int) and not isinstance(x, bool) for r in rows for x in r)
    ):
        raise DocumentError("expected a rectangular integer matrix on stdin", "")
    snf = smith_normal_form(tuple(tuple(r) for r in rows))
    results = {
        "diag": list(snf.diag),
        "left": [list(r) for r in snf.left],
        "right": [list(r) for r in snf.right],
    }
    return 0, _report(args, results)


def _cmd_catalog(args):
    params = {}
    for name in ("e", "n", "m", "n_minus", "n_plus"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    cell = sl2_catalog(args.kind, **params)
    complex_ = singleton_complex(cell)
    doc = complex_to_document(complex_, root_datum="A1")
    text = dumps(doc)
    return 0, doc, text


def _add_common(parser, top=False):
    # Global flags are accepted both before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber the top-level value.
    kwargs = {} if top else {"default": argparse.SUPPRESS}
    parser.add_argument(
        "--format", choices=("text", "json"), **({"default": "text"} if top else kwargs)
    )
    parser.add_argument("--out", **({"default": None} if top else kwargs))


@functools.cache  # parse_args keeps no state on the parser: one per process
def build_parser():
    parser = _Parser(prog="ssv", description=__doc__)
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="validate a complex document")
    _add_common(p)
    p.add_argument("file")

    p = sub.add_parser("sections", help="weights and dimensions of sections")
    _add_common(p)
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--root-datum", dest="root_datum", default=None)

    p = sub.add_parser("cohomology", help="H0/H1 of the gluing complex")
    _add_common(p)
    p.add_argument("file")
    p.add_argument("--mode", choices=("auto", "toric", "supplied"), default="auto")

    p = sub.add_parser("degenerate", help="special fiber of a height degeneration")
    _add_common(p)
    p.add_argument("file")
    p.add_argument("--heights", required=True)
    p.add_argument(
        "--base-change",
        dest="base_change",
        choices=("auto",),
        default=None,
        help="apply the minimal base change when the fiber is non-reduced",
    )

    p = sub.add_parser("matroid", help="weight sets and matroid subdivisions")
    msub = p.add_subparsers(dest="matroid_command", required=True)
    for name in ("weightset", "subdivisions", "thincell"):
        mp = msub.add_parser(name)
        _add_common(mp)
        mp.add_argument("--r", type=int, required=True)
        mp.add_argument("--ranks", required=True, help="comma separated ranks")
        if name == "subdivisions":
            mp.add_argument("--cap", type=int, default=2)
            mp.add_argument(
                "--workers", type=int, default=1, help="accepted and ignored"
            )
        if name == "thincell":
            mp.add_argument("--d", required=True, help='JSON map like {"01": 1}')

    p = sub.add_parser("moment", help="moment polytope of a dominant weight")
    _add_common(p)
    p.add_argument("--root-datum", dest="root_datum", required=True)
    p.add_argument(
        "--weight", required=True,
        help="comma separated coordinates; pass one starting with '-' as --weight=-1,1",
    )
    p.add_argument("--admissible", action="store_true")

    p = sub.add_parser("snf", help="Smith normal form of a matrix on stdin")
    _add_common(p)

    p = sub.add_parser("catalog", help="emit an SL(2) fixture document")
    _add_common(p)
    p.add_argument("--kind", required=True, choices=("P1", "Fe", "Se", "P1xP1", "P2"))
    p.add_argument("--e", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n-minus", dest="n_minus", type=int, default=None)
    p.add_argument("--n-plus", dest="n_plus", type=int, default=None)

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "sections": _cmd_sections,
    "cohomology": _cmd_cohomology,
    "degenerate": _cmd_degenerate,
    "matroid": _cmd_matroid,
    "moment": _cmd_moment,
    "snf": _cmd_snf,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    args.argv_echo = ["ssv"] + argv
    text = None
    try:
        if args.subcommand == "catalog":
            code, report, text = _cmd_catalog(args)
        else:
            code, report = _HANDLERS[args.subcommand](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except DocumentError as exc:
        sys.stderr.write(f"document error: {exc}\n")
        return 2
    except SSVError as exc:
        code, report = 1, {"command": args.argv_echo, "error": str(exc)}
    try:
        _emit(report, args, raw_text=text)
    except OSError as exc:
        sys.stderr.write(f"document error: cannot write {args.out}: {exc.strerror}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
