"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload is built from a seed, runs one fixed warm-up operation, hands
out the operations of each round (at least ``min_rounds`` rounds are run),
keeps what the checks need from every result, and finally lists every check
that failed.  ssvlib is imported only
inside the methods, after the runner has put the checkout's ``src`` first on
``sys.path``.
"""

import contextlib
import functools
import io
import itertools
import json
import os
import random
import shutil
import sys
from fractions import Fraction

import oracles

# ---------------------------------------------------------------- moduli-enum

# (r, ranks, cap).  Delta(2,4) at caps 1-3 plus three polymatroid shapes;
# Delta(2,5) is left out because one cap-1 run takes minutes (README).
MODULI_SHAPES = [
    (2, (1, 1, 1, 1), 1),
    (2, (1, 1, 1, 1), 2),
    (2, (1, 1, 1, 1), 3),
    (3, (2, 2, 2), 1),
    (2, (2, 1, 1, 1), 1),
    (2, (1, 2, 1), 3),
]
MODULI_WARMUP = (2, (1, 2, 1), 1)


def _enumerate(r, ranks, cap):
    from ssvlib import matroid

    return matroid.enumerate_matroid_subdivisions(
        matroid.GradedShape(r, ranks), cap=cap, workers=1
    )


def _subdivision_sets(subdivisions):
    """Each subdivision as a frozenset of cell vertex sets of int tuples."""
    out = []
    for cells in subdivisions:
        sets = []
        for cell in cells:
            verts = []
            for v in cell.vertices:
                if any(Fraction(x).denominator != 1 for x in v):
                    raise ValueError(f"non-integral vertex {v}")
                verts.append(tuple(int(x) for x in v))
            sets.append(frozenset(verts))
        out.append(frozenset(sets))
    return out


def check_subdivisions(r, ranks, subdivisions):
    """Problems with a list of matroid subdivisions of the shape (r; ranks)."""
    problems = []
    tag = f"(r={r}; ranks={ranks})"
    found = set(subdivisions)
    if len(found) != len(subdivisions):
        problems.append(f"{tag}: repeated subdivision")
    points = oracles.box_points(r, ranks)
    trivial = frozenset([frozenset(oracles.greedy_vertices(r, ranks))])
    if trivial not in found:
        problems.append(f"{tag}: trivial subdivision missing")
    for perm in oracles.rank_preserving_permutations(ranks):
        for sub in subdivisions:
            image = frozenset(
                frozenset(oracles.permute(v, perm) for v in cell) for cell in sub
            )
            if image not in found:
                problems.append(f"{tag}: not closed under permutation {perm}")
                break
    pointset = set(points)
    for sub in subdivisions:
        covered = set()
        for cell in sub:
            if not cell <= pointset:
                problems.append(f"{tag}: cell vertex outside the weight set")
                continue
            members = [p for p in points if oracles.in_hull(p, sorted(cell))]
            covered.update(members)
            bad = oracles.exchange_violation(members)
            if bad is not None:
                problems.append(f"{tag}: cell points break the exchange axiom at {bad}")
        if covered != pointset:
            problems.append(f"{tag}: weight points {sorted(pointset - covered)} in no cell")
    if ranks == (1,) * len(ranks) and r == 2 and len(ranks) == 4:
        if len(subdivisions) != 4:
            problems.append(f"{tag}: {len(subdivisions)} subdivisions, expected 4")
        for split in oracles.hypersimplex_splits(4):
            if split not in found:
                problems.append(f"{tag}: split {sorted(map(sorted, split))} missing")
    return problems


class ModuliEnum:
    min_rounds = 1

    def __init__(self, seed):
        rng = random.Random(seed)
        shapes = []
        for r, ranks, cap in MODULI_SHAPES:
            ranks = list(ranks)
            rng.shuffle(ranks)  # a conjugate copy of the same shape
            shapes.append((r, tuple(ranks), cap))
        rng.shuffle(shapes)
        self.shapes = shapes
        self.outputs = {}

    def warmup(self):
        _enumerate(*MODULI_WARMUP)

    def round(self, k):
        return [
            (f"{r};{','.join(map(str, ranks))};cap{cap}", functools.partial(_enumerate, r, ranks, cap))
            for r, ranks, cap in self.shapes
        ]

    def record(self, k, i, result):
        self.outputs.setdefault(self.shapes[i], []).append(_subdivision_sets(result))

    def check(self):
        problems = []
        for (r, ranks, cap), runs in sorted(self.outputs.items()):
            if any(run != runs[0] for run in runs):
                problems.append(f"(r={r}; ranks={ranks}; cap={cap}): rounds disagree")
            problems.extend(check_subdivisions(r, ranks, runs[0]))
        return problems


# ---------------------------------------------------------------- toric-gluing


def _polygon(kind):
    """(vertices, lattice points, area) of a lattice polygon."""
    size = int(kind[-1])
    if kind.startswith("t"):
        vertices = [(0, 0), (size, 0), (0, size)]
        points = [(x, y) for x in range(size + 1) for y in range(size + 1) if x + y <= size]
        area = Fraction(size * size, 2)
    else:
        vertices = [(0, 0), (size, 0), (0, size), (size, size)]
        points = [(x, y) for x in range(size + 1) for y in range(size + 1)]
        area = Fraction(size * size)
    return vertices, points, area


TORIC_POLYGONS = ("t2", "t3", "sq2", "t4")
TORIC_RANDOM_PER_POLYGON = 6
TORIC_HEIGHT_MAX = 3
STAR_CENTRE = (1, 1)  # fixed by every symmetry of t3 and sq2
STAR_DEPTH = -20  # far enough below the rest that every lower facet meets it
PATTERN_SEED = 0


def _frame_heights(points):
    """Heights 0 inside and 2 on the boundary of the size-4 triangle."""
    return [0 if (x > 0 and y > 0 and x + y < 4) else 2 for (x, y) in points]


def _symmetries(kind):
    """The lattice symmetries of a polygon, as maps of points."""
    n = int(kind[-1])
    if kind.startswith("t"):
        return [
            (lambda p, s=s: ((p[0], p[1], n - p[0] - p[1])[s[0]], (p[0], p[1], n - p[0] - p[1])[s[1]]))
            for s in itertools.permutations(range(3))
        ]
    maps = []
    for swap in (False, True):
        for fx in (False, True):
            for fy in (False, True):
                def m(p, swap=swap, fx=fx, fy=fy):
                    x = n - p[0] if fx else p[0]
                    y = n - p[1] if fy else p[1]
                    return (y, x) if swap else (x, y)
                maps.append(m)
    return maps


def _base_patterns(polygons):
    """Fixed (op kind, polygon, heights) patterns; every round reuses them.

    The patterns are one fixed random draw, so each round does the same
    work up to symmetry while the seed moves the actual inputs.
    """
    rng = random.Random(PATTERN_SEED)
    patterns = []
    for kind in TORIC_POLYGONS:
        points = polygons[kind][1]
        for _ in range(TORIC_RANDOM_PER_POLYGON):
            patterns.append(("random", kind, [rng.randint(0, TORIC_HEIGHT_MAX) for _ in points]))
    frame = _frame_heights(polygons["t4"][1])
    patterns += [("ring", "t4", frame), ("ring", "t4", frame)]
    for kind in ("t3", "sq2"):
        points = polygons[kind][1]
        patterns.append(
            ("star", kind, [STAR_DEPTH if p == STAR_CENTRE else rng.randint(0, TORIC_HEIGHT_MAX) for p in points])
        )
    return patterns


class ToricGluing:
    min_rounds = 4  # 112 operations, so that ten or more lie beyond the p90

    def __init__(self, seed):
        from ssvlib import lattice, polyhedral

        self.seed = seed
        self.gamma = lattice.Lattice.standard(3)
        self.polygons = {}
        for kind in TORIC_POLYGONS:
            vertices, points, area = _polygon(kind)
            self.polygons[kind] = (polyhedral.convex_hull(vertices), points, area)
        self.patterns = _base_patterns(self.polygons)
        self.records = []

    def _inputs(self, k):
        """The round's (op kind, polygon, heights).

        Each base pattern is moved by a seeded lattice symmetry of its
        polygon, scaled by 1 or 2 and shifted by an integral affine
        function; none of these changes the subdivision up to symmetry.
        """
        rng = random.Random(self.seed * 1_000_003 + k)
        ops = []
        for op, kind, heights in self.patterns:
            points = self.polygons[kind][1]
            move = rng.choice(_symmetries(kind))
            scale = rng.randint(1, 2)
            a, b, c = rng.randint(0, 3), rng.randint(-2, 2), rng.randint(-2, 2)
            moved = {move(p): h for p, h in zip(points, heights)}
            ops.append((op, kind, [scale * moved[(x, y)] + a + b * x + c * y for x, y in points]))
        rng.shuffle(ops)
        return ops

    def _base_complex(self, cells):
        from ssvlib import complexes, polyhedral

        wrapped = [
            complexes.Cell(f"c{i}", p, self.gamma.intersect_subspace(polyhedral.cone_over(p).rays))
            for i, p in enumerate(cells)
        ]
        return complexes.SSVComplex(2, self.gamma, wrapped, tuple(c.id for c in wrapped))

    def _op(self, kind, heights):
        from ssvlib import cohomology, complexes, degeneration

        polytope, points, _ = self.polygons[kind]
        cells = degeneration.regular_subdivision(polytope, points, heights)
        full = complexes.complete_faces(self._base_complex(cells))
        passed = full.validate().passed
        h0, h1 = cohomology.cohomology_invariants(full, mode="toric")
        return cells, passed, (h0.free_rank, tuple(h0.torsion)), (h1.free_rank, tuple(h1.torsion))

    def warmup(self):
        self._op("t2", [0, 1, 0, 2, 1, 0])

    def round(self, k):
        self._current = self._inputs(k)
        return [
            (f"{op}:{kind}", functools.partial(self._op, kind, heights))
            for op, kind, heights in self._current
        ]

    def record(self, k, i, result):
        op, kind, heights = self._current[i]
        cells, passed, h0, h1 = result
        cell_vertices = [tuple(tuple(Fraction(x) for x in v) for v in c.vertices) for c in cells]
        self.records.append((op, kind, heights, cells, cell_vertices, passed, h0, h1))

    def repeat_share(self):
        seen = set()
        repeats = 0
        for _, kind, _, _, cells, *_ in self.records:
            key = (kind, frozenset(cells))
            repeats += key in seen
            seen.add(key)
        return repeats / len(self.records) if self.records else 0.0

    def check(self):
        from ssvlib import complexes

        problems = []
        simple_seen = 0
        for n, (op, kind, heights, polytopes, cells, passed, h0, h1) in enumerate(self.records):
            tag = f"op {n} ({op} on {kind})"
            _, points, area = self.polygons[kind]
            height_at = {tuple(Fraction(x) for x in p): Fraction(h) for p, h in zip(points, heights)}
            total = Fraction(0)
            for cell in cells:
                if any(v not in height_at for v in cell):
                    problems.append(f"{tag}: cell vertex is not a lifted point")
                    continue
                coeffs = oracles.affine_interpolant(list(cell), [height_at[v] for v in cell])
                if coeffs is None:
                    problems.append(f"{tag}: cell {cell} is not two-dimensional")
                    continue
                if any(oracles.evaluate_affine(coeffs, v) != height_at[v] for v in cell):
                    problems.append(f"{tag}: cell {cell} is not flat in the lift")
                if any(oracles.evaluate_affine(coeffs, p) > h for p, h in height_at.items()):
                    problems.append(f"{tag}: cell {cell} lies above the lower envelope")
                total += oracles.convex_polygon_area(cell)
            if total != area:
                problems.append(f"{tag}: cell areas sum to {total}, polygon area {area}")
            if not passed:
                problems.append(f"{tag}: validation failed")
            expected_h0 = oracles.piecewise_affine_dimension(cells)
            if h0[0] != expected_h0:
                problems.append(f"{tag}: H0 free rank {h0[0]}, expected {expected_h0}")
            if op == "ring" and h1 != (1, ()):
                problems.append(f"{tag}: H1 is {h1}, expected free rank 1")
            if op == "star" and not all(
                tuple(Fraction(x) for x in STAR_CENTRE) in cell for cell in cells
            ):
                problems.append(f"{tag}: star heights did not give a star subdivision")
            common = set(cells[0]).intersection(*map(set, cells[1:]))
            if common:
                # A unique minimal cell lies in every maximal cell, so only
                # subdivisions with a common vertex can be simple.
                partial = complexes.complete_faces(self._base_complex(polytopes), full=False)
                if complexes.orbit_poset(partial).simple:
                    simple_seen += 1
                    if h1 != (0, ()):
                        problems.append(f"{tag}: simple orbit poset but H1 is {h1}")
                elif op == "star":
                    problems.append(f"{tag}: star subdivision has a non-simple orbit poset")
        if self.records and simple_seen == 0:
            problems.append("no simple complex was checked")
        return problems


# ---------------------------------------------------------------- cli-reports

FIXTURES = ("p1xp1", "segment04", "sl2_chain", "two_triangles", "chain_heights", "halfint_heights")
CATALOG_GRID = [(m, n) for m in range(1, 5) for n in range(1, 5)]
CATALOG_SAMPLE = 10
SEGMENT_GAMMA = ((1, 0), (0, 2))  # segment04's weight group basis


def _catalog_document(m, n):
    """The SL(2) catalog cell P1xP1(m, n) as a complex document."""
    group = [[1, m + n], [0, 2]]
    return {
        "schema_version": "1",
        "rank": 1,
        "gamma": group,
        "cells": [
            {
                "id": f"P1xP1(m={m},n={n})",
                "vertices": [[str(abs(m - n))], [str(m + n)]],
                "weight_group": group,
            }
        ],
        "maximal": [f"P1xP1(m={m},n={n})"],
        "root_datum": "A1",
    }


def _heights_document(heights):
    return {
        "schema_version": "1",
        "points": [["0"], ["2"], ["4"]],
        "heights": [str(Fraction(h)) for h in heights],
    }


def _cli(argv, stdin_text):
    from ssvlib import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"ssv {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class CliReports:
    min_rounds = 10  # about 40 s of short operations; reports are compared across rounds

    def __init__(self, seed, workdir, root):
        rng = random.Random(seed)
        path = {}
        for name in FIXTURES:
            path[name] = os.path.join(workdir, f"{name}.json")
            shutil.copyfile(os.path.join(root, "fixtures", f"{name}.json"), path[name])

        def write(name, doc):
            path[name] = os.path.join(workdir, f"{name}.json")
            with open(path[name], "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
            return path[name]

        ops = []  # (argv, stdin, check kind, expected data)

        def add(argv, kind, expect=None, stdin=None):
            ops.append((list(argv) + ["--format", "json"], stdin, kind, expect))

        catalog = rng.sample(CATALOG_GRID, CATALOG_SAMPLE)
        for m, n in catalog:
            write(f"p1xp1_{m}_{n}", _catalog_document(m, n))
        for name in ("p1xp1", "segment04", "sl2_chain", "two_triangles"):
            add(["validate", path[name]], "validate")
        for m, n in catalog:
            add(["validate", path[f"p1xp1_{m}_{n}"]], "validate")

        for d in rng.sample(range(5), 2):
            add(["sections", path["p1xp1"], "--degree", str(d), "--root-datum", "A1"], "sections", (d + 1) ** 2)
        d = rng.randrange(4)
        add(["sections", path["sl2_chain"], "--degree", str(d)], "sections", (2 * d + 1) ** 2)
        for m, n in catalog:
            d = rng.randint(1, 3)
            add(
                ["sections", path[f"p1xp1_{m}_{n}"], "--degree", str(d), "--root-datum", "A1"],
                "sections",
                (d * m + 1) * (d * n + 1),
            )

        # Expected H0 ranks come from the piecewise-affine count of the
        # maximal cells, H1 is trivial for all of these.
        two = [[(0, 0), (2, 0), (4, 2)], [(2, 0), (4, 2), (4, 0)]]
        chain = [[(0,), (2,)], [(2,), (4,)]]
        add(["cohomology", path["two_triangles"]], "cohomology", (2, "supplied"))
        add(["cohomology", path["two_triangles"], "--mode", "toric"], "cohomology",
            (oracles.piecewise_affine_dimension(two), "toric"))
        add(["cohomology", path["sl2_chain"]], "cohomology",
            (oracles.piecewise_affine_dimension(chain), "toric"))
        for m, n in catalog[:2]:
            cell = [[(abs(m - n),), (m + n,)]]
            add(["cohomology", path[f"p1xp1_{m}_{n}"]], "cohomology",
                (oracles.piecewise_affine_dimension(cell), "toric"))

        # Integral heights: two with the middle point below the chord (two
        # pieces, reduced), two above it (one piece; reduced exactly when the
        # end heights have equal parity).  Then half-integral ones below it.
        heights_sets = []
        for below, parity in ((True, 0), (True, 1), (False, 0), (False, 1)):
            h0 = rng.randint(0, 3)
            h2 = h0 + parity + 2 * rng.randint(0, 1)
            step = 1 + rng.randint(0, 1)
            heights_sets.append([h0, (h0 + h2) // 2 + (-step if below else step), h2])
        for _ in range(4):
            h0, h2 = rng.randint(0, 3), rng.randint(0, 3)
            heights_sets.append([h0, Fraction((h0 + h2) // 2) - Fraction(1, 2) - rng.randint(0, 1), h2])
        for j, heights in enumerate(heights_sets):
            doc = write(f"heights_{j}", _heights_document(heights))
            exponent, pieces = oracles.segment_base_change(SEGMENT_GAMMA, heights)
            argv = ["degenerate", path["segment04"], "--heights", doc]
            if exponent > 1:
                argv += ["--base-change", "auto"]
            add(argv, "degenerate", (exponent, pieces))
        add(["degenerate", path["segment04"], "--heights", path["halfint_heights"], "--base-change", "auto"],
            "degenerate", oracles.segment_base_change(SEGMENT_GAMMA, (0, Fraction(1, 2), 1)))

        # Seeded weights with a fixed pattern of zero coordinates, so that
        # orbit sizes (and the work) do not depend on the seed.
        def coord():
            return rng.randint(1, 3)

        dims = [
            ("A1", (coord(),)),
            ("A1xA1", (coord(), 0)),
            ("A2", (coord(), 0)),
            ("A2", (coord(), coord())),
            ("B2", (0, coord())),
            ("B2", (coord(), coord())),
        ]
        for label, weight in dims:
            add(["moment", "--root-datum", label, "--weight", ",".join(map(str, weight))], "moment", (label, weight))

        def flip(a, b):  # a weight or its image under the diagram symmetry
            return (a, b) if rng.random() < 0.5 else (b, a)

        admissible = [
            ("A2", flip(1, 2)),
            ("B2", (coord(), coord())),
            ("A1xA1", flip(1, 2)),
            ("A3", (1, 1, 0)),
            ("A3", (0, 1, 0)),
            ("A1xA2", (1, 1, 0)),
        ]
        for label, weight in admissible:
            add(["moment", "--root-datum", label, "--weight", ",".join(map(str, weight)), "--admissible"],
                "moment", (label, weight))

        for rows, cols in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)):
            matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            add(["snf"], "snf", matrix, stdin=json.dumps(matrix))

        small = (2, (1, 2, 1))
        other = (rng.randint(1, 3), tuple(rng.randint(1, 2) for _ in range(rng.randint(3, 4))))
        for r, ranks in (small, other):
            add(["matroid", "weightset", "--r", str(r), "--ranks", ",".join(map(str, ranks))], "weightset", (r, ranks))
        add(["matroid", "thincell", "--r", "2", "--ranks", "1,2,1", "--d", '{"01": 1}'], "thincell",
            (2, (1, 2, 1), (0, 1), 1))
        add(["matroid", "subdivisions", "--r", "2", "--ranks", "1,2,1", "--cap", "1"], "subdivisions", small)

        rng.shuffle(ops)
        self.ops = ops
        self.path = path
        self.outputs = []  # per round, the report texts in op order

    def warmup(self):
        _cli(["validate", self.path["p1xp1"], "--format", "json"], None)

    def round(self, k):
        self.outputs.append([None] * len(self.ops))
        return [
            (argv[0], functools.partial(_cli, argv, stdin))
            for argv, stdin, _, _ in self.ops
        ]

    def record(self, k, i, result):
        self.outputs[k][i] = result

    def check(self):
        problems = []
        for k in range(1, len(self.outputs)):
            for i, text in enumerate(self.outputs[k]):
                first = self.outputs[0][i]
                if text is not None and first is not None and text != first:
                    problems.append(f"{' '.join(self.ops[i][0])}: report differs in round {k}")
        for i, (argv, stdin, kind, expect) in enumerate(self.ops):
            text = self.outputs[0][i]
            if text is None:
                continue
            try:
                report = json.loads(text)
            except json.JSONDecodeError:
                problems.append(f"{' '.join(argv)}: report is not JSON")
                continue
            problems.extend(f"{' '.join(argv)}: {p}" for p in _check_report(kind, expect, report["results"]))
        return problems

def _check_report(kind, expect, res):
    if kind == "validate":
        return [] if res["passed"] else ["validation failed"]
    if kind == "sections":
        total = res["total_dimension"]
        return [] if total == expect else [f"total dimension {total}, expected {expect}"]
    if kind == "cohomology":
        rank, mode = expect
        got = (res["mode"], res["h0"]["free_rank"], res["h1_trivial"])
        return [] if got == (mode, rank, True) else [f"got {got}, expected {(mode, rank, True)}"]
    if kind == "degenerate":
        exponent, pieces = expect
        out = []
        if res["base_change_exponent"] != exponent or res["reduced"] != (exponent == 1):
            out.append(f"exponent {res['base_change_exponent']}, expected {exponent}")
        fiber = res["fiber"]
        maximal = {c["id"]: c["vertices"] for c in fiber["cells"] if c["id"] in fiber["maximal"]}
        got = sorted(tuple(int(v[0]) for v in verts) for verts in maximal.values())
        if got != sorted(pieces):
            out.append(f"fiber cells {got}, expected {sorted(pieces)}")
        if not fiber["passes_validation"] or res["applied_base_change"] != exponent:
            out.append("fiber fails validation or wrong base change applied")
        return out
    if kind == "moment":
        label, weight = expect
        out = []
        if res["orbit_size"] != oracles.weyl_orbit_size(label, weight):
            out.append(f"orbit size {res['orbit_size']}")
        if res.get("dimension") != oracles.weyl_dimension_closed_form(label, weight):
            out.append(f"dimension {res.get('dimension')}")
        if res.get("orbit_hull_admissible") is False:
            out.append("the orbit hull is not admissible")
        return out
    if kind == "snf":
        return _check_snf(expect, res)
    if kind == "weightset":
        r, ranks = expect
        points = [tuple(p) for p in res["points"]]
        want = oracles.box_points(r, ranks)
        if res["count"] != oracles.count_by_coefficients(r, ranks) or points != want:
            return [f"{res['count']} weight points, expected {len(want)}"]
        return []
    if kind == "thincell":
        r, ranks, subset, bound = expect
        want = [p for p in oracles.box_points(r, ranks) if sum(p[i] for i in subset) >= bound]
        return [] if [tuple(p) for p in res["points"]] == want else ["thin cell points differ"]
    if kind == "subdivisions":
        r, ranks = expect
        subs = [
            frozenset(frozenset(tuple(int(x) for x in v) for v in cell) for cell in sub["cells"])
            for sub in res["subdivisions"]
        ]
        out = check_subdivisions(r, ranks, subs)
        if res["count"] != len(subs):
            out.append("count does not match the list")
        return out
    return [f"unknown check {kind}"]


def _check_snf(matrix, res):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    out = []
    rows, cols = len(matrix), len(matrix[0])
    diag, left, right = res["diag"], res["left"], res["right"]
    reference = smith_normal_form(Matrix(matrix), domain=ZZ)
    want = [abs(int(reference[i, i])) for i in range(min(rows, cols))]
    if [abs(d) for d in diag] != want:
        out.append(f"diagonal {diag}, sympy gives {want}")
    full = [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)] for i in range(rows)]
    if oracles.mat_mul(oracles.mat_mul(left, matrix), right) != full:
        out.append("left * M * right is not the diagonal")
    if abs(oracles.det(left)) != 1 or abs(oracles.det(right)) != 1:
        out.append("transforms are not unimodular")
    return out
