import random
from fractions import Fraction

import pytest

from ssvlib.complexes import Cell, SSVComplex, complete_faces, degree_slice, singleton_complex
from ssvlib.degeneration import (
    HeightFunction,
    base_change_exponent,
    graph_cone,
    regular_subdivision,
    special_fiber_complex,
    special_fiber_reduced,
    subdivision_cell,
)
from ssvlib.errors import DegenerateLiftError, DomainError, NotReducedError
from ssvlib.fixtures import sl2_chain_complex
from ssvlib.lattice import Lattice
from ssvlib.polyhedral import AffineMonoid, Cone, Polytope, convex_hull, cone_over


def F(*args):
    return Fraction(*args)


def ray_line():
    return Cone.from_rays(1, [(1,)])


def test_graph_cone_examples():
    c = ray_line()
    zero = HeightFunction.from_pieces([(c, (0,))])
    assert graph_cone(c, zero).rays == ((0, 1), (1, 0))

    half = HeightFunction.from_pieces([(c, (F(1, 2),))])
    assert graph_cone(c, half).rays == ((1, 0), (1, 2))

    ident = HeightFunction.from_pieces([(c, (1,))])
    assert graph_cone(c, ident).rays == ((1, 0), (1, 1))


def test_graph_cone_piecewise():
    quadrant = Cone.from_rays(2, [(1, 0), (0, 1)])
    left = Cone.from_rays(2, [(1, 0), (1, 1)])
    right = Cone.from_rays(2, [(1, 1), (0, 1)])
    h = HeightFunction.from_pieces([(left, (0, 0)), (right, (-1, 1))])
    cone = graph_cone(quadrant, h)
    # rays: apex direction, the two boundary rays at their heights, the wall
    assert (1, 0, 0) in cone.rays
    assert (0, 1, 0) in cone.rays
    assert (1, 0, 1) in cone.rays
    assert (0, 1, 1) in cone.rays


def test_graph_cone_coverage_failure():
    quadrant = Cone.from_rays(2, [(1, 0), (0, 1)])
    partial = HeightFunction.from_pieces(
        [(Cone.from_rays(2, [(1, 0), (1, 1)]), (0, 0))]
    )
    with pytest.raises(DomainError):
        graph_cone(quadrant, partial)


def test_inconsistent_pieces_rejected():
    left = Cone.from_rays(2, [(1, 0), (1, 1)])
    right = Cone.from_rays(2, [(1, 1), (0, 1)])
    with pytest.raises(DomainError):
        # disagreement on the shared wall (1,1)
        HeightFunction.from_pieces([(left, (0, 0)), (right, (1, 0))])
    with pytest.raises(DomainError):
        # fails lower convexity: the second piece dips below the first
        HeightFunction.from_pieces([(left, (0, 1)), (right, (0, 0))])


def test_special_fiber_reduced_examples():
    c = ray_line()
    m = AffineMonoid(Lattice.standard(1), ((1,),))
    half = HeightFunction.from_pieces([(c, (F(1, 2),))])
    flag, witness = special_fiber_reduced(half, m)
    assert not flag and witness == (1,)
    assert base_change_exponent(half, m) == 2
    flag, witness = special_fiber_reduced(half.scaled(2), m)
    assert flag and witness is None

    quadrant = Cone.from_rays(2, [(1, 0), (0, 1)])
    m2 = AffineMonoid(Lattice.standard(2), ((1, 0), (0, 1)))
    h = HeightFunction.from_pieces([(quadrant, (F(1, 2), F(1, 3)))])
    flag, witness = special_fiber_reduced(h, m2)
    assert not flag
    assert h.value(witness).denominator > 1  # a concrete non-integral point
    assert base_change_exponent(h, m2) == 6

    integral = HeightFunction.from_pieces([(quadrant, (3, -1))])
    # not lower-convex on its own? single piece is always fine
    flag, witness = special_fiber_reduced(integral, m2)
    assert flag and base_change_exponent(integral, m2) == 1


def test_base_change_minimality():
    rng = random.Random(41)
    c = Cone.from_rays(2, [(1, 0), (0, 1)])
    m = AffineMonoid(Lattice.standard(2), ((1, 0), (0, 1)))
    for _ in range(25):
        f = (F(rng.randint(-6, 6), rng.randint(1, 6)), F(rng.randint(-6, 6), rng.randint(1, 6)))
        h = HeightFunction.from_pieces([(c, f)])
        n = base_change_exponent(h, m)
        assert special_fiber_reduced(h.scaled(n), m)[0]
        for p in (2, 3, 5, 7):
            if n % p == 0:
                assert not special_fiber_reduced(h.scaled(n // p), m)[0]


def test_regular_subdivision_trivial():
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    cells = regular_subdivision(
        square, [(0, 0), (1, 0), (0, 1), (1, 1)], [2, 2, 2, 2]
    )
    assert cells == [square]


def test_regular_subdivision_square_split():
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    cells = regular_subdivision(
        square, [(0, 0), (1, 0), (0, 1), (1, 1)], [0, 0, 0, 1]
    )
    assert len(cells) == 2
    expected = {
        convex_hull([(0, 0), (1, 0), (0, 1)]),
        convex_hull([(1, 0), (0, 1), (1, 1)]),
    }
    assert set(cells) == expected


def test_subdivision_cells_and_faces_share_vertex_tuples():
    # shared tuples keep a subdivision's cells small; an equal copy would pass
    # every other test, so the identity itself is pinned
    points = [(0, 0), (1, 0), (0, 1), (1, 1)]
    square = convex_hull(points)
    a, b = regular_subdivision(square, points, [0, 0, 0, 1])
    common = set(a.vertices) & set(b.vertices)
    assert len(common) == 2
    for v in common:
        assert a.vertices[a.vertices.index(v)] is b.vertices[b.vertices.index(v)]
    gamma = Lattice.standard(3)
    cells = [Cell(f"c{i}", p, gamma.intersect_subspace(cone_over(p).rays)) for i, p in enumerate((a, b))]
    full = complete_faces(SSVComplex(2, gamma, cells, ("c0", "c1")))
    parent = {id(v) for v in a.vertices + b.vertices}
    faces = [c for c in full.cells if c.id.startswith("face")]
    assert len(faces) == 9  # 5 edges and 4 vertices
    assert all(id(v) in parent for c in faces for v in c.polytope.vertices)
    # the square keeps its cells: heights moved by an affine function give
    # the same subdivision, made of the very same cells
    again = regular_subdivision(square, points, [1, 2, 1, 3])
    assert again[0] is a and again[1] is b


def test_regular_subdivision_octahedron_split():
    import itertools

    pts = [p for p in itertools.product((0, 1), repeat=4) if sum(p) == 2]
    octa = convex_hull(pts)
    heights = [1 if p in ((1, 1, 0, 0), (0, 0, 1, 1)) else 0 for p in pts]
    cells = regular_subdivision(octa, pts, heights)
    assert len(cells) == 2
    for cell in cells:
        assert len(cell.vertices) == 5  # square pyramid
        assert cell.dim == 3


def test_regular_subdivision_preconditions():
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(DegenerateLiftError):
        regular_subdivision(square, [(0, 0), (1, 0), (0, 1)], [0, 0, 0])
    with pytest.raises(DegenerateLiftError):
        regular_subdivision(square, [(0, 0), (1, 0), (0, 1), (2, 2)], [0, 0, 0, 0])


def test_failed_entry_check_leaves_no_table_entry():
    points = [(0, 0), (1, 0), (0, 1), (1, 1)]
    bad = ([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1), (2, 2)], points + [(0, 0)])
    square = convex_hull(points)

    def fail_all():
        for pts in bad:
            with pytest.raises(DegenerateLiftError):
                regular_subdivision(square, pts, [0] * len(pts))

    def entries():
        return {k: set(v) if isinstance(v, dict) else v for k, v in square._shared.items()}

    fail_all()
    assert square._shared is None
    regular_subdivision(square, points, [0, 0, 0, 1])
    before = entries()
    fail_all()
    assert entries() == before


def test_entry_checks_run_once_per_points_tuple(monkeypatch):
    points = [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))]
    square = convex_hull(points)
    calls = []
    contains = Polytope.contains_point
    monkeypatch.setattr(Polytope, "contains_point", lambda p, x: calls.append(x) or contains(p, x))
    regular_subdivision(square, points, [0, 0, 0, 1, 0])
    assert len(calls) == len(points)
    # equal points in another form read the configuration the first call made
    regular_subdivision(square, [list(p) for p in points], [1, 0, 0, 0, F(1, 2)])
    regular_subdivision(square, tuple(tuple(F(x) for x in p) for p in points), [0] * 5)
    assert len(calls) == len(points)


def test_first_subdivision_keeps_its_cells_for_subdivision_cell():
    points = [(0, 0), (1, 0), (0, 1), (1, 1)]
    square = convex_hull(points)
    cells = regular_subdivision(square, points, [0, 0, 0, 1])
    assert len(cells) == 2
    assert all(subdivision_cell(square, c.vertices) is c for c in cells)


def test_lifted_height_function_values():
    points = [(0,), (2,), (4,)]
    h = HeightFunction.from_lifted(points, [0, 0, 1])
    assert h.value((1, 0)) == 0
    assert h.value((1, 2)) == 0
    assert h.value((1, 4)) == 1
    assert h.value((1, 3)) == F(1, 2)
    assert h.value((2, 6)) == 1  # homogeneous
    with pytest.raises(DomainError):
        h.value((1, 5))


def test_special_fiber_complex_chain():
    gamma = Lattice(2, [(1, 0), (0, 2)])
    seg = convex_hull([(0,), (4,)])
    fiber = special_fiber_complex(gamma, seg, [(0,), (2,), (4,)], [0, 0, 1])
    assert fiber.validate().passed
    cells = {c.polytope for c in fiber.maximal_cells()}
    assert cells == {convex_hull([(0,), (2,)]), convex_hull([(2,), (4,)])}
    # matches the hand-built chain fixture cell for cell
    chain = sl2_chain_complex()
    assert {c.polytope for c in fiber.cells} == {c.polytope for c in chain.cells}
    for c in fiber.cells:
        match = chain.cell_with_polytope(c.polytope)
        assert match is not None and match.weight_group == c.weight_group


def test_special_fiber_complex_square():
    gamma = Lattice.standard(3)
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    fiber = special_fiber_complex(
        gamma, square, [(0, 0), (1, 0), (0, 1), (1, 1)], [0, 0, 0, 1]
    )
    assert fiber.validate().passed
    # two triangles plus all their faces: 2 + 5 edges + 4 vertices
    assert len(fiber.cells) == 11
    assert len(fiber.maximal_ids) == 2


def test_special_fiber_requires_reduced():
    gamma = Lattice(2, [(1, 0), (0, 1)])
    seg = convex_hull([(0,), (2,)])
    with pytest.raises(NotReducedError) as exc:
        special_fiber_complex(gamma, seg, [(0,), (1,), (2,)], [0, F(1, 2), 2])
    assert exc.value.witness is not None


def test_special_fiber_preserves_hilbert_function():
    gamma = Lattice(2, [(1, 0), (0, 1)])
    seg = convex_hull([(0,), (3,)])
    cell = Cell("c", seg, gamma)
    total = singleton_complex(cell, gamma)
    fiber = special_fiber_complex(gamma, seg, [(0,), (1,), (3,)], [0, 1, 0])
    for n in range(5):
        assert degree_slice(fiber, n) == degree_slice(total, n)


def test_lifted_subadditivity():
    rng = random.Random(13)
    for _ in range(10):
        points = [(x,) for x in range(4)]
        heights = [rng.randint(0, 3) for _ in points]
        h = HeightFunction.from_lifted(points, heights)
        samples = [(1, x) for x in range(4)] + [(2, x) for x in range(0, 7)]
        samples = [s for s in samples if h.covers(s)]
        for a in samples:
            for b in samples:
                s = (a[0] + b[0], a[1] + b[1])
                assert h.value(s) <= h.value(a) + h.value(b)
        for a in samples:
            for n in (2, 3):
                na = (n * a[0], n * a[1])
                assert h.value(na) == n * h.value(a)


def test_graph_cone_degree_one_slice():
    # with C the cone over Q and nonnegative heights, the (1,1)-slice of the
    # graph cone is exactly the region of Q where the height is at most one
    points = [(0,), (2,), (4,)]
    h = HeightFunction.from_lifted(points, [0, 1, 2])
    c = cone_over(convex_hull([(0,), (4,)]))
    gc = graph_cone(c, h)
    for k in range(0, 17):
        lam = Fraction(k, 4)
        inside = gc.contains((1, 1, lam))
        assert inside == (h.value((1, lam)) <= 1)
