import pytest

from ssvlib import complexes
from ssvlib.complexes import (
    Cell,
    MultiplicationBehavior,
    SSVComplex,
    complete_faces,
    multiplication_behavior,
    orbit_poset,
    section_module,
    singleton_complex,
    sl2_catalog,
    validate_complex,
    vq_module_data,
)
from ssvlib.degeneration import regular_subdivision
from ssvlib.errors import OutsideSupportError, ParamError, RankError, ValidationError
from ssvlib.fixtures import (
    overlapping_squares_complex,
    segre_quadric_cell,
    sl2_chain_complex,
    triangle_pair_complex,
)
from ssvlib.lattice import Lattice
from ssvlib.polyhedral import cone_over, convex_hull
from ssvlib.rootdata import root_datum


def test_singleton_complex_validates():
    cell = sl2_catalog("Se", e=1, n=3)
    x = singleton_complex(cell)
    report = x.validate()
    assert report.passed
    assert report.moment_set_convex and report.cohen_macaulay


def test_triangle_pair_validates():
    x = triangle_pair_complex()
    report = x.validate()
    assert report.passed, report.failures()
    assert report.moment_set_convex
    assert report.cohen_macaulay


def test_triangle_pair_poset():
    x = triangle_pair_complex()
    poset = orbit_poset(x)
    assert len(poset) == 7
    assert not poset.simple
    assert poset.minimal_ids() == ["p1", "p2"]
    assert poset.leq("p1", "t1") and poset.leq("s12", "t2")
    assert not poset.leq("s1", "t2")


def test_chain_validates_and_poset():
    x = sl2_chain_complex()
    assert x.validate().passed
    poset = orbit_poset(x)
    assert len(poset) == 5
    assert not poset.simple
    assert poset.minimal_ids() == ["v0", "v2", "v4"]


def test_overlapping_squares_fail():
    squares = overlapping_squares_complex()
    for x in (squares, complete_faces(squares)):
        report = x.validate()
        assert not report.passed
        names = [c.name for c in report.failures()]
        assert "pairwise-intersections" in names
        failure = next(
            c for c in report.failures() if c.name == "pairwise-intersections"
        )
        assert "a" in failure.witness and "b" in failure.witness
        with pytest.raises(ValidationError):
            x.ensure_valid()


def test_convexity_takes_no_volume_once_pairwise_intersections_pass(monkeypatch):
    calls = []
    volume = complexes._volume_of_points
    monkeypatch.setattr(complexes, "_volume_of_points", lambda points: calls.append(points) or volume(points))
    gamma = Lattice.standard(3)
    unit = [(0, 0), (1, 0), (0, 1), (1, 1)]
    squares = [
        Cell(f"s{k}", convex_hull([(x + a, y + b) for x, y in unit]), gamma)
        for k, (a, b) in enumerate([(0, 0), (1, 0), (0, 1)])
    ]
    l_shape = complete_faces(SSVComplex(2, gamma, squares, ("s0", "s1", "s2")))
    for x, convex in ((triangle_pair_complex(), True), (l_shape, False)):
        report = x.validate()
        assert report.passed and report.moment_set_convex is convex
    assert calls == []
    # two squares overlapping in a rectangle: the boundary argument does not
    # hold, so the volumes decide (2 against a hull of 3/2)
    report = overlapping_squares_complex().validate()
    assert "pairwise-intersections" in [c.name for c in report.failures()]
    assert report.moment_set_convex is False
    assert calls


def test_frame_validation_settles_most_pairs_by_certificate(monkeypatch):
    # the size-4 triangle, heights 0 inside and 2 on the boundary: 4 cells and
    # 15 faces, 171 pairs, of which the boxes, nested vertex sets and facets
    # on the common vertices settle all but 29 without double description
    points = [(x, y) for x in range(5) for y in range(5 - x)]
    heights = [0 if (x > 0 and y > 0 and x + y < 4) else 2 for (x, y) in points]
    gamma = Lattice.standard(3)
    cells = regular_subdivision(convex_hull([(0, 0), (4, 0), (0, 4)]), points, heights)
    wrapped = [
        Cell(f"c{i}", p, gamma.intersect_subspace(cone_over(p).rays)) for i, p in enumerate(cells)
    ]
    full = complete_faces(SSVComplex(2, gamma, wrapped, [c.id for c in wrapped]))
    intersect = complexes._intersection_vertices
    intersected = []

    def counting(p, q):
        intersected.append((p, q))
        return intersect(p, q)

    monkeypatch.setattr(complexes, "_intersection_vertices", counting)
    assert len(full.cells) == 19
    assert validate_complex(full).passed
    assert len(intersected) <= 29


def test_frame_validation_intersects_maximal_pairs_only(monkeypatch):
    # the four maximal cells of the frame meet in common faces, settled by
    # certificates, and every face cell is a face of one of them; each other
    # pair then meets in its common vertices, with no intersection computed
    points = [(x, y) for x in range(5) for y in range(5 - x)]
    heights = [0 if (x > 0 and y > 0 and x + y < 4) else 2 for (x, y) in points]
    gamma = Lattice.standard(3)
    cells = regular_subdivision(convex_hull([(0, 0), (4, 0), (0, 4)]), points, heights)
    wrapped = [
        Cell(f"c{i}", p, gamma.intersect_subspace(cone_over(p).rays)) for i, p in enumerate(cells)
    ]
    full = complete_faces(SSVComplex(2, gamma, wrapped, [c.id for c in wrapped]))
    ids = {c.polytope: c.id for c in full.maximal_cells()}
    calls = {"_pair_vertices": [], "_intersection_vertices": []}

    def counting(name):
        function = getattr(complexes, name)

        def counted(p, q, *keys):
            calls[name].append((ids.get(p), ids.get(q)))
            return function(p, q, *keys)

        return counted

    for name in calls:
        monkeypatch.setattr(complexes, name, counting(name))
    assert len(full.cells) == 19 and len(full.maximal_ids) == 4
    assert validate_complex(full).passed
    assert calls["_pair_vertices"] == [(f"c{i}", f"c{j}") for i in range(4) for j in range(i + 1, 4)]
    assert calls["_intersection_vertices"] == []


def test_missing_face_cell_fails():
    gamma = Lattice(2, [(1, 0), (0, 2)])
    cells = (
        Cell("c1", convex_hull([(0,), (2,)]), Lattice(2, [(1, 2), (0, 2)])),
        Cell("c2", convex_hull([(2,), (4,)]), Lattice(2, [(1, 4), (0, 2)])),
    )
    x = SSVComplex(1, gamma, cells, ("c1", "c2"))
    report = validate_complex(x)
    assert not report.passed
    assert any(c.name == "pairwise-intersections" for c in report.failures())


def test_direct_summand_violation_detected():
    # index-2 weight subgroup of the ambient group is not a direct summand
    gamma = Lattice(2, [(1, 0), (0, 1)])
    cells = (Cell("c", convex_hull([(0,), (2,)]), Lattice(2, [(1, 0), (0, 2)])),)
    x = SSVComplex(1, gamma, cells, ("c",))
    report = validate_complex(x)
    assert any(c.name == "weight-groups-direct-summands" for c in report.failures())


def test_nonconvex_moment_set_flag():
    # an L-shape: two unit squares sharing only an edge segment of the corner
    gamma = Lattice.standard(3)
    sq1 = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    sq2 = convex_hull([(1, 0), (2, 0), (1, 1), (2, 1)])
    sq3 = convex_hull([(0, 1), (1, 1), (0, 2), (1, 2)])
    cells = [
        Cell("a", sq1, gamma),
        Cell("b", sq2, gamma),
        Cell("c", sq3, gamma),
    ]
    x = SSVComplex(2, gamma, cells, ("a", "b", "c"))
    x = complete_faces(x)
    report = x.validate()
    assert report.passed, report.failures()
    assert not report.moment_set_convex
    assert not report.cohen_macaulay


def test_section_module_segre():
    x = singleton_complex(segre_quadric_cell())
    a1 = root_datum("A1")
    summary = section_module(x, 1, a1)
    assert [w for w, _, _ in summary.weights] == [(0,), (2,)]
    assert summary.total_dimension == 4
    assert section_module(x, 0, a1).total_dimension == 1
    with pytest.raises(ParamError):
        section_module(x, -1, a1)
    with pytest.raises(RankError):
        section_module(x, 1, root_datum("B2"))


def test_section_module_chain_and_mayer_vietoris():
    a1 = root_datum("A1")
    chain = sl2_chain_complex()
    summary = section_module(chain, 1, a1)
    assert [w for w, _, _ in summary.weights] == [(0,), (2,), (4,)]
    assert summary.total_dimension == 9

    # Mayer-Vietoris: total = t1 + t2 - t12 degreewise
    c1 = singleton_complex(chain.cell("c1"))
    c2 = singleton_complex(chain.cell("c2"))
    v2 = singleton_complex(chain.cell("v2"))
    for n in range(0, 5):
        t = section_module(chain, n, a1).total_dimension
        t1 = section_module(c1, n, a1).total_dimension
        t2 = section_module(c2, n, a1).total_dimension
        t12 = section_module(v2, n, a1).total_dimension
        assert t == t1 + t2 - t12


def test_multiplication_behavior():
    x = triangle_pair_complex()
    assert (
        multiplication_behavior(x, (1, 0, 0), (1, 4, 0))
        is MultiplicationBehavior.ZERO
    )
    assert (
        multiplication_behavior(x, (1, 0, 0), (1, 2, 0))
        is MultiplicationBehavior.ISOMORPHISM
    )
    # symmetry
    assert (
        multiplication_behavior(x, (1, 4, 0), (1, 0, 0))
        is MultiplicationBehavior.ZERO
    )
    chain = sl2_chain_complex()
    assert (
        multiplication_behavior(chain, (1, 2), (1, 2))
        is MultiplicationBehavior.ISOMORPHISM
    )
    with pytest.raises(OutsideSupportError):
        multiplication_behavior(chain, (1, 6), (1, 0))


def test_vq_module_data():
    a1 = root_datum("A1")
    x = singleton_complex(segre_quadric_cell())
    weights, dims, total = vq_module_data(x, a1)
    assert weights == [(0,), (2,)]
    assert dims == [1, 3]
    assert total == 10

    chain = sl2_chain_complex()
    weights, dims, total = vq_module_data(chain, a1)
    assert weights == [(0,), (2,), (4,)]
    assert total == 35


def test_vq_empty_slice():
    # weight group with no degree-1 points: only even degrees occur
    cell = Cell(
        "c",
        convex_hull([(0,), (1,)]),
        Lattice(2, [(2, 0), (0, 1)]),
    )
    x = singleton_complex(cell)
    weights, dims, total = vq_module_data(x, root_datum("A1"))
    assert weights == [] and total == 0


def test_sl2_catalog_closed_forms():
    fe = sl2_catalog("Fe", e=2, n_minus=2, n_plus=4)
    assert [v[0] for v in fe.polytope.vertices] == [2, 4]
    assert fe.weight_group == Lattice(2, [(1, 4), (0, 2)])

    p2 = sl2_catalog("P2", n=1)
    assert [v[0] for v in p2.polytope.vertices] == [0, 2]
    assert p2.weight_group == Lattice(2, [(1, 2), (0, 4)])

    pp = sl2_catalog("P1xP1", m=2, n=1)
    assert [v[0] for v in pp.polytope.vertices] == [1, 3]
    assert pp.weight_group == Lattice(2, [(1, 3), (0, 2)])

    p1 = sl2_catalog("P1", n=5)
    assert [v[0] for v in p1.polytope.vertices] == [5]
    assert p1.weight_group == Lattice(2, [(1, 5)])

    se = sl2_catalog("Se", e=3, n=6)
    assert [v[0] for v in se.polytope.vertices] == [0, 6]
    assert se.weight_group == Lattice(2, [(1, 6), (0, 3)])


def test_sl2_catalog_param_errors():
    with pytest.raises(ParamError):
        sl2_catalog("Fe", e=2, n_minus=3, n_plus=4)  # e does not divide the gap
    with pytest.raises(ParamError):
        sl2_catalog("Fe", e=1, n_minus=3, n_plus=3)  # not increasing
    with pytest.raises(ParamError):
        sl2_catalog("Se", e=4, n=6)  # e does not divide n
    with pytest.raises(ParamError):
        sl2_catalog("P2", n=0)
    with pytest.raises(ParamError):
        sl2_catalog("nope", n=1)


def test_catalog_cells_validate_as_singletons():
    for cell in (
        sl2_catalog("P1", n=3),
        sl2_catalog("Fe", e=2, n_minus=1, n_plus=5),
        sl2_catalog("Se", e=2, n=4),
        sl2_catalog("P1xP1", m=3, n=2),
        sl2_catalog("P2", n=2),
    ):
        assert singleton_complex(cell).validate().passed


def test_combinatorial_data_does_not_separate():
    # the smooth quadric with O(1,1) and the quadric cone with O(2) share
    # their weight group and moment polytope
    smooth = sl2_catalog("P1xP1", m=1, n=1)
    cone = sl2_catalog("Se", e=2, n=2)
    assert smooth.polytope == cone.polytope
    assert smooth.weight_group == cone.weight_group
    # same for the Veronese plane with O(2) against the e=4 cone with O(4)
    veronese = sl2_catalog("P2", n=2)
    cone4 = sl2_catalog("Se", e=4, n=4)
    assert veronese.polytope == cone4.polytope
    assert veronese.weight_group == cone4.weight_group


def test_complete_faces_builds_chain():
    gamma = Lattice(2, [(1, 0), (0, 2)])
    cells = (
        Cell("c1", convex_hull([(0,), (2,)]), Lattice(2, [(1, 2), (0, 2)])),
        Cell("c2", convex_hull([(2,), (4,)]), Lattice(2, [(1, 4), (0, 2)])),
    )
    x = complete_faces(SSVComplex(1, gamma, cells, ("c1", "c2")))
    assert len(x.cells) == 5
    assert x.validate().passed
    # completed faces carry the saturated restricted weight groups
    v2 = x.cell_with_polytope(convex_hull([(2,)]))
    assert v2.weight_group == Lattice(2, [(1, 2)])


def test_degree_slice_union_deduplicates():
    chain = sl2_chain_complex()
    from ssvlib.complexes import degree_slice

    pts = degree_slice(chain, 2)
    assert pts == sorted(set(pts))
    assert (2, 4) in pts  # the shared face contributes once


def test_multiplication_symmetric_and_reflexive():
    import random

    x = triangle_pair_complex()
    gamma = x.gamma
    rng = random.Random(17)
    samples = []
    for _ in range(40):
        coeffs = tuple(rng.randint(0, 3) for _ in range(gamma.rank))
        w = gamma.member(coeffs)
        if w[0] < 0:
            continue
        try:
            multiplication_behavior(x, w, w)
        except OutsideSupportError:
            continue
        samples.append(w)
    for a in samples:
        # reflexive on weights inside one cell cone
        assert multiplication_behavior(x, a, a) is MultiplicationBehavior.ISOMORPHISM
        for b in samples:
            assert multiplication_behavior(x, a, b) is multiplication_behavior(x, b, a)


def test_cell_with_vertices_is_the_first_cell_on_exactly_those_vertices():
    gamma = Lattice(2, [(1, 0), (0, 2)])
    segment = convex_hull([(0,), (2,)])
    group = gamma.intersect_subspace(cone_over(segment).rays)
    point = convex_hull([(0,)])
    cells = (
        Cell("b", segment, group),
        Cell("a", segment, group),
        Cell("p", point, gamma.intersect_subspace(cone_over(point).rays)),
    )
    x = SSVComplex(1, gamma, cells, ("a", "b"))
    assert x.cell_with_vertices(segment.vertices).id == "a"
    assert x.cell_with_vertices(list(segment.vertices)).id == "a"
    assert x.cell_with_polytope(point).id == "p"
    assert x.cell_with_vertices(segment.vertices[::-1]) is None  # unsorted
    assert x.cell_with_vertices(segment.vertices[1:]) is None  # a subset on no cell
    assert x.cell_with_vertices(segment.vertices[:1] * 2) is None  # a repeated vertex
    assert x.cell_with_vertices(convex_hull([(0,), (4,)]).vertices) is None  # a foreign vertex
    assert x.cell_with_vertices(convex_hull([(4,)]).vertices) is None
    assert x.cell_with_vertices(()) is None


def test_complete_faces_hulls_nothing(monkeypatch):
    # every face is read off its cell's facet incidences
    from ssvlib import polyhedral

    gamma = Lattice.standard(3)
    points = [(x, y) for x in range(3) for y in range(3)]
    heights = [(x * y + 2 * x) % 3 + y * y for x, y in points]
    cells = regular_subdivision(convex_hull(points), points, heights)
    wrapped = [
        Cell(f"c{i}", p, gamma.intersect_subspace(cone_over(p).rays)) for i, p in enumerate(cells)
    ]
    base = SSVComplex(2, gamma, wrapped, tuple(c.id for c in wrapped))
    calls = []

    def counted(points):
        calls.append(len(points))
        return convex_hull(points)

    monkeypatch.setattr(polyhedral, "convex_hull", counted)
    monkeypatch.setattr(complexes, "convex_hull", counted)
    full = complete_faces(base)
    assert calls == []
    assert len(full.cells) > len(base.cells)
    monkeypatch.undo()
    assert full.validate().passed
