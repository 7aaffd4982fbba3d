"""JSON documents for complexes and height data.

Rationals are serialized as strings "p/q" (plain "n" for integers), never
floats, so documents round-trip exactly.  Parse failures raise
DocumentError carrying the offending field path.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .complexes import AutData, AutRestriction, Cell, SSVComplex
from .errors import DocumentError
from .lattice import Lattice
from .polyhedral import convex_hull

SCHEMA_VERSION = "1"


def rational_to_string(x):
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(value, path):
    if isinstance(value, bool):
        raise DocumentError("expected a rational, got a boolean", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"cannot parse rational {value!r}", path) from None
    raise DocumentError(f"expected a rational, got {type(value).__name__}", path)


def _expect(doc, key, kind, path):
    if key not in doc:
        raise DocumentError(f"missing field {key!r}", path)
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise DocumentError(
            f"field {key!r} must be {kind.__name__}, got {type(value).__name__}",
            path,
        )
    return value


def _parse_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError("expected an integer", path)
    return value


def _parse_int_matrix(rows, path, width=None):
    if not isinstance(rows, list):
        raise DocumentError("expected a list of integer rows", path)
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise DocumentError("expected an integer row", f"{path}[{i}]")
        if width is not None and len(row) != width:
            raise DocumentError(
                f"row has length {len(row)}, expected {width}", f"{path}[{i}]"
            )
        out.append(tuple(_parse_int(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)))
    return tuple(out)


def _parse_aut(doc, path):
    rank = _parse_int(_expect(doc, "rank", None, path), f"{path}.rank")
    if rank < 0:
        raise DocumentError("rank must be nonnegative", f"{path}.rank")
    relations = _parse_int_matrix(
        doc.get("presentation", []), f"{path}.presentation", width=rank
    )
    restrictions = []
    raw = doc.get("restrictions", [])
    if not isinstance(raw, list):
        raise DocumentError("restrictions must be a list", f"{path}.restrictions")
    for i, entry in enumerate(raw):
        rpath = f"{path}.restrictions[{i}]"
        if not isinstance(entry, dict):
            raise DocumentError("restriction must be an object", rpath)
        to = _expect(entry, "to", str, rpath)
        matrix = _parse_int_matrix(
            _expect(entry, "matrix", list, rpath), f"{rpath}.matrix", width=rank
        )
        restrictions.append(AutRestriction(to, matrix))
    return AutData(rank, relations, tuple(restrictions))


def document_to_complex(doc):
    """(SSVComplex, root_datum_label_or_None) from a parsed JSON object."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object", "")
    version = _expect(doc, "schema_version", str, "")
    if version != SCHEMA_VERSION:
        raise DocumentError(
            f"unsupported schema_version {version!r}", "schema_version"
        )
    rank = _parse_int(_expect(doc, "rank", None, ""), "rank")
    if rank < 0:
        raise DocumentError("rank must be nonnegative", "rank")
    gamma_rows = _parse_int_matrix(
        _expect(doc, "gamma", list, ""), "gamma", width=rank + 1
    )
    try:
        gamma = Lattice(rank + 1, gamma_rows)
    except ValueError as exc:
        raise DocumentError(str(exc), "gamma") from None
    raw_cells = _expect(doc, "cells", list, "")
    cells = []
    for i, raw in enumerate(raw_cells):
        path = f"cells[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError("cell must be an object", path)
        cell_id = _expect(raw, "id", str, path)
        raw_vertices = _expect(raw, "vertices", list, path)
        if not raw_vertices:
            raise DocumentError("cell needs at least one vertex", f"{path}.vertices")
        vertices = []
        for j, vert in enumerate(raw_vertices):
            if not isinstance(vert, list) or len(vert) != rank:
                raise DocumentError(
                    f"vertex must be a list of length {rank}",
                    f"{path}.vertices[{j}]",
                )
            vertices.append(
                tuple(
                    parse_rational(x, f"{path}.vertices[{j}][{k}]")
                    for k, x in enumerate(vert)
                )
            )
        group_rows = _parse_int_matrix(
            _expect(raw, "weight_group", list, path),
            f"{path}.weight_group",
            width=rank + 1,
        )
        aut = None
        if "aut" in raw and raw["aut"] is not None:
            if not isinstance(raw["aut"], dict):
                raise DocumentError("aut must be an object", f"{path}.aut")
            aut = _parse_aut(raw["aut"], f"{path}.aut")
        try:
            cells.append(
                Cell(cell_id, convex_hull(vertices), Lattice(rank + 1, group_rows), aut)
            )
        except Exception as exc:
            raise DocumentError(str(exc), path) from None
    maximal = _expect(doc, "maximal", list, "")
    for i, m in enumerate(maximal):
        if not isinstance(m, str):
            raise DocumentError("maximal ids must be strings", f"maximal[{i}]")
    root_label = doc.get("root_datum")
    if root_label is not None and not isinstance(root_label, str):
        raise DocumentError("root_datum must be a string", "root_datum")
    # the constructor's own checks, here so that each names the field at fault
    ids = set()
    for i, cell in enumerate(cells):
        if cell.id in ids:
            raise DocumentError(f"duplicate cell id {cell.id!r}", f"cells[{i}].id")
        ids.add(cell.id)
    for i, m in enumerate(maximal):
        if m not in ids:
            raise DocumentError(f"maximal id {m!r} is not a cell", f"maximal[{i}]")
    return SSVComplex(rank, gamma, cells, tuple(maximal)), root_label


def complex_to_document(complex_, root_datum=None):
    cells = []
    for cell in complex_.cells:
        entry = {
            "id": cell.id,
            "vertices": [
                [rational_to_string(x) for x in v] for v in cell.polytope.vertices
            ],
            "weight_group": [list(row) for row in cell.weight_group.basis],
        }
        if cell.aut is not None:
            aut = {
                "rank": cell.aut.rank,
                "presentation": [list(r) for r in cell.aut.relations],
                "restrictions": [
                    {"to": r.to, "matrix": [list(row) for row in r.matrix]}
                    for r in cell.aut.restrictions
                ],
            }
            entry["aut"] = aut
        cells.append(entry)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rank": complex_.rank,
        "gamma": [list(row) for row in complex_.gamma.basis],
        "cells": cells,
        "maximal": list(complex_.maximal_ids),
    }
    if root_datum is not None:
        doc["root_datum"] = root_datum
    return doc


def document_to_heights(doc):
    """(points, heights) from a heights document."""
    if not isinstance(doc, dict):
        raise DocumentError("heights document must be a JSON object", "")
    raw_points = _expect(doc, "points", list, "")
    raw_heights = _expect(doc, "heights", list, "")
    if len(raw_points) != len(raw_heights):
        raise DocumentError("points and heights must have equal lengths", "heights")
    points = []
    for i, p in enumerate(raw_points):
        if not isinstance(p, list):
            raise DocumentError("point must be a list", f"points[{i}]")
        points.append(
            tuple(parse_rational(x, f"points[{i}][{j}]") for j, x in enumerate(p))
        )
    heights = [parse_rational(h, f"heights[{i}]") for i, h in enumerate(raw_heights)]
    return points, heights


def heights_to_document(points, heights):
    return {
        "schema_version": SCHEMA_VERSION,
        "points": [[rational_to_string(x) for x in p] for p in points],
        "heights": [rational_to_string(h) for h in heights],
    }


def dumps(doc):
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, byte for byte.

    ``_encode`` recurses at module level, so it leaves no reference cycle, as
    the pure-Python encoder's nested closures do on every call.  A value it
    cannot write as that encoder does (a float, a key that is not a string)
    raises ``TypeError``.
    """
    return _encode(doc, "\n") + "\n"


def _encode(value, newline):
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        items = [inner + _encode(item, inner) for item in value]
        return "[" + ",".join(items) + newline + "]" if items else "[]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        items = [inner + encode_basestring_ascii(key) + ": " + _encode(item, inner)
                 for key, item in sorted(value.items())]
        return "{" + ",".join(items) + newline + "}" if items else "{}"
    raise TypeError(f"cannot write {type(value).__name__} {value!r} as json.dumps does")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}", "") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}", "") from None


def load_complex(path):
    return document_to_complex(load_json(path))


def load_heights(path):
    return document_to_heights(load_json(path))
