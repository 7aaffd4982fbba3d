"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every expected value is either a fixed worked-example value or is
recomputed here by an independent oracle.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from matroid_oracle import weight_set_size_oracle

from ssvlib.cohomology import cohomology_invariants
from ssvlib.complexes import (
    Cell,
    SSVComplex,
    complete_faces,
    degree_slice,
    orbit_poset,
    section_module,
    singleton_complex,
    sl2_catalog,
)
from ssvlib.degeneration import (
    HeightFunction,
    base_change_exponent,
    regular_subdivision,
    special_fiber_complex,
    special_fiber_reduced,
)
from ssvlib.fixtures import sl2_chain_complex, triangle_pair_complex
from ssvlib.lattice import Lattice
from ssvlib.matroid import (
    GradedShape,
    enumerate_matroid_subdivisions,
    is_matroid_polytope,
    weight_set,
)
from ssvlib.polyhedral import (
    AffineMonoid,
    Cone,
    cone_over,
    convex_hull,
    hilbert_basis,
    is_saturated_monoid,
)
from ssvlib.rootdata import dominant_hull, is_w_admissible, root_datum, weyl_orbit


def _pass(number, detail, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"[acceptance] criterion {number}: PASS ({detail}; {elapsed:.2f}s)")


def test_criterion_1_two_triangle_example_end_to_end():
    started = time.perf_counter()
    x = triangle_pair_complex()
    report = x.validate()
    assert report.passed
    assert report.moment_set_convex and report.cohen_macaulay
    poset = orbit_poset(x)
    assert len(poset) == 7
    assert cone_over(x.cell("t1").polytope).rays == ((1, 0, 0), (1, 2, 0), (1, 4, 2))
    h0, h1 = cohomology_invariants(x, mode="supplied")
    assert h0.free_rank == 2 and h0.torsion == ()
    assert h1.is_trivial
    _pass(1, "7 cells, H0 rank 2, H1 trivial", started, 1.0)


def test_criterion_2_sl2_catalog_grids():
    started = time.perf_counter()
    checked = 0

    def q_of(cell):
        return [v[0] for v in cell.polytope.vertices]

    for n in range(1, 7):
        cell = sl2_catalog("P1", n=n)
        assert q_of(cell) == [n]
        assert cell.weight_group == Lattice(2, [(1, n)])
        assert singleton_complex(cell).validate().passed
        checked += 1
    for e in range(1, 5):
        for n_minus in range(1, 7):
            for n_plus in range(n_minus + 1, 7):
                if (n_plus - n_minus) % e:
                    continue
                cell = sl2_catalog("Fe", e=e, n_minus=n_minus, n_plus=n_plus)
                assert q_of(cell) == [n_minus, n_plus]
                assert cell.weight_group == Lattice(2, [(1, n_plus), (0, e)])
                assert singleton_complex(cell).validate().passed
                checked += 1
    for e in range(1, 5):
        for n in range(1, 7):
            if n % e:
                continue
            cell = sl2_catalog("Se", e=e, n=n)
            assert q_of(cell) == [0, n]
            assert cell.weight_group == Lattice(2, [(1, n), (0, e)])
            assert singleton_complex(cell).validate().passed
            checked += 1
    for m in range(1, 7):
        for n in range(1, 7):
            cell = sl2_catalog("P1xP1", m=m, n=n)
            expect = [abs(m - n), m + n] if m != n else [0, 2 * n]
            assert q_of(cell) == expect
            assert cell.weight_group == Lattice(2, [(1, m + n), (0, 2)])
            assert singleton_complex(cell).validate().passed
            checked += 1
    for n in range(1, 7):
        cell = sl2_catalog("P2", n=n)
        assert q_of(cell) == [0, 2 * n]
        assert cell.weight_group == Lattice(2, [(1, 2 * n), (0, 4)])
        assert singleton_complex(cell).validate().passed
        checked += 1
    _pass(2, f"{checked} catalog cells match closed forms", started, 1.0)


def test_criterion_3_section_dimensions():
    started = time.perf_counter()
    a1 = root_datum("A1")
    for m in range(1, 5):
        for n in range(1, 5):
            x = singleton_complex(sl2_catalog("P1xP1", m=m, n=n))
            total = section_module(x, 1, a1).total_dimension
            assert total == (m + 1) * (n + 1), (m, n, total)
    chain = sl2_chain_complex()
    c1 = singleton_complex(chain.cell("c1"))
    c2 = singleton_complex(chain.cell("c2"))
    v2 = singleton_complex(chain.cell("v2"))
    for degree in range(0, 5):
        t = section_module(chain, degree, a1).total_dimension
        t1 = section_module(c1, degree, a1).total_dimension
        t2 = section_module(c2, degree, a1).total_dimension
        t12 = section_module(v2, degree, a1).total_dimension
        assert t == t1 + t2 - t12
    _pass(3, "Segre counts and Mayer-Vietoris identity", started, 1.0)


def _brute_force_hilbert(cone, w_bound):
    """Independent oracle: irreducible monoid elements by increasing height."""
    points = []
    b = w_bound
    for x in range(0, b + 1):
        for y in range(0, b + 1 - x):
            for z in range(0, b + 1 - x - y):
                p = (x, y, z)
                if any(p) and cone.contains(p):
                    points.append(p)
    points.sort(key=lambda p: (sum(p), p))
    irreducible = []
    for p in points:
        reducible = False
        for q in irreducible:
            rest = tuple(a - b_ for a, b_ in zip(p, q))
            if any(rest) and all(r >= 0 for r in rest) and cone.contains(rest):
                reducible = True
                break
        if not reducible:
            irreducible.append(p)
    return sorted(irreducible)


def test_criterion_4_saturation_gordan_suite():
    started = time.perf_counter()
    rng = random.Random(20240809)
    z3 = Lattice.standard(3)
    cones_checked = 0
    while cones_checked < 100:
        nrays = rng.randint(1, 4)
        rays = [
            tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(nrays)
        ]
        cone = Cone.from_rays(3, rays)
        if not cone.rays or not cone.is_pointed:
            continue
        basis = hilbert_basis(cone, z3)
        if not basis:
            continue
        # height bound certifying completeness: any Hilbert element lies in
        # a fundamental parallelepiped, so its coordinate sum is at most the
        # sum over the scaled rays of one simplex; rays here are primitive.
        bound = max(6, sum(sum(r) for r in cone.rays))
        assert _brute_force_hilbert(cone, bound) == sorted(basis)
        ok, witness = is_saturated_monoid(AffineMonoid(z3, basis))
        assert ok and witness is None
        cones_checked += 1
    ok, witness = is_saturated_monoid(
        AffineMonoid(Lattice.standard(1), ((2,), (3,)))
    )
    assert not ok and witness == (1,)
    _pass(4, f"{cones_checked} random cones against the brute-force oracle", started, 30.0)


def test_criterion_5_degeneration_suite():
    started = time.perf_counter()
    ray = Cone.from_rays(1, [(1,)])
    m1 = AffineMonoid(Lattice.standard(1), ((1,),))
    half = HeightFunction.from_pieces([(ray, (Fraction(1, 2),))])
    flag, _ = special_fiber_reduced(half, m1)
    assert not flag and base_change_exponent(half, m1) == 2

    quadrant = Cone.from_rays(2, [(1, 0), (0, 1)])
    m2 = AffineMonoid(Lattice.standard(2), ((1, 0), (0, 1)))
    mixed = HeightFunction.from_pieces([(quadrant, (Fraction(1, 2), Fraction(1, 3)))])
    flag, witness = special_fiber_reduced(mixed, m2)
    assert not flag and witness is not None
    assert base_change_exponent(mixed, m2) == 6

    integral = HeightFunction.from_pieces([(quadrant, (2, 1))])
    flag, witness = special_fiber_reduced(integral, m2)
    assert flag and base_change_exponent(integral, m2) == 1

    rng = random.Random(5150)
    shapes = [
        ([(0,), (1,), (2,)], Lattice.standard(2)),
        ([(0,), (2,), (3,)], Lattice.standard(2)),
        ([(0, 0), (1, 0), (0, 1), (1, 1)], Lattice.standard(3)),
        ([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (2, 2)][:4], Lattice.standard(3)),
    ]
    for trial in range(50):
        points, gamma = shapes[trial % len(shapes)]
        heights = [
            Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in points
        ]
        height_fn = HeightFunction.from_lifted(points, heights)
        polytope = convex_hull(points)
        monoid = AffineMonoid(gamma, hilbert_basis(cone_over(polytope), gamma))
        exponent = base_change_exponent(height_fn, monoid)
        flag, _ = special_fiber_reduced(height_fn.scaled(exponent), monoid)
        assert flag
        fiber = special_fiber_complex(
            gamma, polytope, points, [h * exponent for h in heights]
        )
        assert fiber.validate().passed
        reference = singleton_complex(
            Cell("q", polytope, gamma), gamma
        )
        for degree in range(0, 5):
            assert degree_slice(fiber, degree) == degree_slice(reference, degree)
    _pass(5, "fixed exponents and 50 random reduced fibers", started, 10.0)


def _toric_complex_from_cells(polys, gamma):
    wrapped = [
        Cell(f"c{i}", p, gamma.intersect_subspace(cone_over(p).rays))
        for i, p in enumerate(polys)
    ]
    return SSVComplex(
        polys[0].ambient_rank, gamma, wrapped, tuple(c.id for c in wrapped)
    )


def _random_simple_fan_complex(rng):
    """Star of triangles around the origin vertex: a simple toric complex."""
    arc = sorted(
        {(rng.randint(1, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 4))}
    )
    arc = [p for p in arc if p != (0, 0)]
    if len(arc) < 2:
        return None
    # sort by angle and drop collinear repeats
    arc.sort(key=lambda p: Fraction(p[1], p[0]) if p[0] else Fraction(10**6))
    rays = []
    for p in arc:
        if not rays or rays[-1][0] * p[1] != rays[-1][1] * p[0]:
            rays.append(p)
    if len(rays) < 2:
        return None
    gamma = Lattice.standard(3)
    origin = (0, 0)
    cells = []
    for a, b in zip(rays, rays[1:]):
        cells.append(convex_hull([origin, a, b]))
    edges = [convex_hull([origin, r]) for r in rays]
    vertex = convex_hull([origin])
    wrapped = []
    for i, p in enumerate(cells + edges + [vertex]):
        wrapped.append(
            Cell(f"c{i}", p, gamma.intersect_subspace(cone_over(p).rays))
        )
    return SSVComplex(2, gamma, wrapped, tuple(c.id for c in wrapped[: len(cells)]))


def test_criterion_6_cohomology_properties():
    started = time.perf_counter()
    rng = random.Random(777)
    simple_checked = 0
    while simple_checked < 50:
        x = _random_simple_fan_complex(rng)
        if x is None or not x.validate().passed:
            continue
        poset = orbit_poset(x)
        if not poset.simple:
            continue
        _, h1 = cohomology_invariants(x, mode="toric")
        assert h1.is_trivial, "simple complex must have trivial H1"
        simple_checked += 1

    # Search for a toric complex with H1 of free rank one among regular
    # subdivisions of lattice triangles with heights in {0,1,2}: all heights
    # on the size-2 triangle, and all symmetric heights on the size-4
    # triangle (the fixture lives there); keep subdivisions with <= 9 cells.
    gamma = Lattice.standard(3)
    hits = []
    searched = 0

    tri2 = convex_hull([(0, 0), (2, 0), (0, 2)])
    pts2 = [(x, y) for x in range(3) for y in range(3) if x + y <= 2]
    seen = set()
    for heights in itertools.product(range(3), repeat=len(pts2)):
        cells = tuple(regular_subdivision(tri2, pts2, heights))
        key = frozenset(c.vertices for c in cells)
        if key in seen or len(cells) > 9:
            continue
        seen.add(key)
        searched += 1
        x = complete_faces(_toric_complex_from_cells(list(cells), gamma))
        _, h1 = cohomology_invariants(x, mode="toric")
        if h1.free_rank == 1:
            hits.append(("size2", heights))

    tri4 = convex_hull([(0, 0), (4, 0), (0, 4)])
    pts4 = [(x, y) for x in range(5) for y in range(5) if x + y <= 4]
    orbits = {
        "corner": [(0, 0), (4, 0), (0, 4)],
        "near": [(1, 0), (3, 0), (0, 1), (0, 3), (3, 1), (1, 3)],
        "mid": [(2, 0), (0, 2), (2, 2)],
        "interior": [(1, 1), (2, 1), (1, 2)],
    }
    seen4 = set()
    for values in itertools.product(range(3), repeat=4):
        assignment = dict(zip(orbits, values))
        heights = []
        for p in pts4:
            name = next(k for k, pts in orbits.items() if p in pts)
            heights.append(assignment[name])
        cells = tuple(regular_subdivision(tri4, pts4, heights))
        if len(cells) > 9:
            continue
        key = frozenset(c.vertices for c in cells)
        if key in seen4:
            continue
        seen4.add(key)
        searched += 1
        x = complete_faces(_toric_complex_from_cells(list(cells), gamma))
        h0, h1 = cohomology_invariants(x, mode="toric")
        if h1.free_rank == 1:
            hits.append(("size4", values, str(h0), str(h1)))
    assert hits, "expected a toric complex with H1 of free rank 1"
    assert any(h[0] == "size4" for h in hits)
    _pass(
        6,
        f"50 simple complexes trivial, rank-1 hit after {searched} subdivisions",
        started,
        300.0,
    )


def test_criterion_7_matroid_suite():
    started = time.perf_counter()
    shape = GradedShape(2, (1, 1, 1, 1))
    subdivisions = enumerate_matroid_subdivisions(shape, cap=2)
    assert len(subdivisions) == 4
    splits = [cells for cells in subdivisions if len(cells) == 2]
    assert len(splits) == 3
    for cells in splits:
        for cell in cells:
            assert len(cell.vertices) == 5 and cell.dim == 3
            assert is_matroid_polytope(cell)

    # hyperplane-split oracle: the three splits are the cuts x_i + x_j = 1
    points = weight_set(shape)
    oracle_keys = set()
    for pair in [(0, 1), (0, 2), (0, 3)]:
        lower = convex_hull([p for p in points if p[pair[0]] + p[pair[1]] <= 1])
        upper = convex_hull([p for p in points if p[pair[0]] + p[pair[1]] >= 1])
        oracle_keys.add(frozenset((lower.vertices, upper.vertices)))
    found_keys = {
        frozenset(c.vertices for c in cells) for cells in splits
    }
    assert found_keys == oracle_keys

    shapes_checked = 0
    for total in range(1, 9):
        for cuts in itertools.product((0, 1), repeat=total - 1):
            ranks = []
            run = 1
            for c in cuts:
                if c:
                    ranks.append(run)
                    run = 1
                else:
                    run += 1
            ranks.append(run)
            for r in range(0, total + 1):
                s = GradedShape(r, tuple(ranks))
                assert len(weight_set(s)) == weight_set_size_oracle(s)
                shapes_checked += 1
    _pass(7, f"4 subdivisions; {shapes_checked} weight-set sizes", started, 60.0)


def test_criterion_8_moment_polytopes():
    started = time.perf_counter()
    a2 = root_datum("A2")
    hull = dominant_hull(a2, (1, 0))
    verts = set(hull.vertices)
    assert (Fraction(1), Fraction(0)) in verts
    assert (Fraction(0), Fraction(1, 2)) in verts
    a1 = root_datum("A1")
    for n in range(1, 5):
        assert dominant_hull(a1, (n,)).vertices == ((Fraction(0),), (Fraction(n),))
    for label in ("A1", "A2", "A1xA1"):
        datum = root_datum(label)
        for coords in itertools.product(range(0, 4), repeat=datum.rank):
            if all(c == 0 for c in coords):
                continue
            orbit_hull = convex_hull(weyl_orbit(datum, coords))
            assert is_w_admissible(datum, orbit_hull), (label, coords)
    _pass(8, "hull vertices and admissibility grids", started, 5.0)


def test_criterion_9_cli_determinism(tmp_path):
    started = time.perf_counter()
    from ssvlib.documents import complex_to_document, dumps as doc_dumps

    doc_path = tmp_path / "triangles.json"
    doc_path.write_text(doc_dumps(complex_to_document(triangle_pair_complex())))

    def run(args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "ssvlib", *args],
            input=stdin,
            capture_output=True,
            text=True,
        )

    commands = [
        ["validate", str(doc_path), "--format", "json"],
        ["cohomology", str(doc_path), "--format", "json"],
        ["catalog", "--kind", "Se", "--e", "2", "--n", "4"],
        ["matroid", "subdivisions", "--r", "2", "--ranks", "1,1,1,1", "--format", "json"],
    ]
    for args in commands:
        outputs = {run(args).stdout for _ in range(3)}
        assert len(outputs) == 1, f"nondeterministic output for {args}"
    base = ["matroid", "subdivisions", "--r", "2", "--ranks", "1,1,1,1", "--format", "json"]
    across_threads = {
        run(base + ["--workers", str(w)]).stdout for w in (1, 2, 4)
    }
    across_threads = {json.dumps(json.loads(t)["results"]) for t in across_threads}
    assert len(across_threads) == 1
    _pass(9, "byte-identical reports across runs and thread counts", started, 300.0)
