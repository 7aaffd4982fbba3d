import itertools
import random

import matroid_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matroid_oracle import weight_set_size_oracle

from ssvlib import degeneration, matroid
from ssvlib.complexes import Cell, SSVComplex, complete_faces
from ssvlib.errors import (
    InvalidRankDataError,
    NonLatticeError,
    ParamError,
    SearchBudgetError,
)
from ssvlib.lattice import Lattice
from ssvlib.matroid import (
    GradedShape,
    RankFunctionData,
    enumerate_matroid_subdivisions,
    is_matroid_polytope,
    thin_cell_weight_set,
    weight_set,
)
from ssvlib.polyhedral import Cone, convex_hull, cone_over


def octa_shape():
    return GradedShape(2, (1, 1, 1, 1))


def test_weight_set_examples():
    assert weight_set(octa_shape()) == [
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
        (1, 1, 0, 0),
    ]
    assert weight_set(GradedShape(0, (2, 3))) == [(0, 0)]
    assert weight_set(GradedShape(1, (2, 1))) == [(0, 1), (1, 0)]


def test_weight_set_size_oracle():
    for ranks in [(1, 1, 1, 1), (2, 1), (2, 2), (3, 2, 1), (1, 1, 2, 3)]:
        for r in range(sum(ranks) + 1):
            shape = GradedShape(r, ranks)
            assert len(weight_set(shape)) == weight_set_size_oracle(shape)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 4), max_size=5).flatmap(
    lambda ranks: st.tuples(st.integers(0, sum(ranks)), st.just(tuple(ranks)))))
def test_weight_set_matches_the_box_filter(case):
    shape = GradedShape(*case)
    assert weight_set(shape) == matroid_oracle.weight_set(shape)


def test_weight_set_of_huge_ranks_skips_the_box():
    # the box filter would scan (10**6 + 1)**4 tuples
    assert weight_set(GradedShape(2, (10**6,) * 4)) == [
        (0, 0, 0, 2),
        (0, 0, 1, 1),
        (0, 0, 2, 0),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (0, 2, 0, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
        (1, 1, 0, 0),
        (2, 0, 0, 0),
    ]


def test_rank_function_defaults_and_validation():
    shape = octa_shape()
    trivial = RankFunctionData(shape)
    points, full, witness = thin_cell_weight_set(shape, trivial)
    assert points == weight_set(shape)
    assert full and witness is None

    with pytest.raises(InvalidRankDataError):
        RankFunctionData(shape, {frozenset(): 1})
    with pytest.raises(InvalidRankDataError):
        # violates supermodularity with the forced boundary values
        RankFunctionData(shape, {(0, 1): 2, (2, 3): 2})
    with pytest.raises(ParamError):
        GradedShape(5, (1, 1))
    with pytest.raises(ParamError):
        GradedShape(1, (0, 1))


def test_thin_cell_drops_point():
    shape = octa_shape()
    data = RankFunctionData(shape, {(0, 1): 1})
    points, full, witness = thin_cell_weight_set(shape, data)
    assert len(points) == 5
    assert (0, 0, 1, 1) not in points
    assert full and witness is None
    pyramid = convex_hull(points)
    assert len(pyramid.vertices) == 5
    assert is_matroid_polytope(pyramid)


def test_thin_cell_non_full_witness():
    # rank data carving out a set that misses a hull lattice point
    shape = GradedShape(2, (2, 2))
    data = RankFunctionData(shape, {(0,): 1, (1,): 1})
    points, full, witness = thin_cell_weight_set(shape, data)
    assert points == [(1, 1)]
    assert full
    # an explicitly non-full example on a bigger box: exclude the center of
    # a segment through it
    shape2 = GradedShape(2, (2, 1, 1))
    data2 = RankFunctionData(shape2)
    pts, full2, _ = thin_cell_weight_set(shape2, data2)
    assert full2  # the plain weight set is always full


def test_non_full_set_detection_direct():
    # bypass rank data: a point is in the hull of the kept points exactly
    # when the cone over the kept (1, q) holds (1, p), the oracle's test
    kept = [(0, 2, 0), (2, 0, 0), (0, 0, 2)]
    cone = Cone.from_rays(4, [(1,) + q for q in kept])
    assert cone.contains((1, 1, 1, 0))
    assert cone.contains((1, 0, 0, 2))
    assert not cone.contains((1, 1, 0, 0))  # coordinate sum 1, off the plane
    assert not cone.contains((1, 3, 0, -1))  # on the plane, outside the triangle


def _random_rank_data(rng):
    """A valid RankFunctionData that raises one or two bounds above the box's."""
    while True:
        n = rng.randint(2, 6)
        ranks = tuple(rng.randint(1, 2) for _ in range(n))
        shape = GradedShape(rng.randint(1, sum(ranks) - 1), ranks)
        box = RankFunctionData(shape)
        entries = {}
        for _ in range(rng.randint(1, 2)):
            subset = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
            entries[subset] = box.bound(subset) + rng.randint(1, 2)
        try:
            return shape, RankFunctionData(shape, entries)
        except InvalidRankDataError:
            continue


def test_thin_cells_are_the_filtered_box_and_full():
    # the rank data cut an M-natural-convex set out of the box, and such a
    # set holds every lattice point of its hull (Murota, Discrete Convex
    # Analysis, 2003), so each thin cell is full; the oracle tests that by a
    # cone over the kept points, which the library no longer builds
    rng = random.Random(7)
    for _ in range(200):
        shape, data = _random_rank_data(rng)
        expected = [
            p for p in itertools.product(*(range(m + 1) for m in shape.ranks))
            if sum(p) == shape.r
            and all(sum(p[i] for i in subset) >= bound for subset, bound in data.table.items())
        ]
        points, full, witness = thin_cell_weight_set(shape, data)
        assert points == expected, (shape, data.table)
        assert full and witness is None
        assert matroid_oracle.thin_cell_weight_set(shape, data) == (points, True, None)


def test_is_matroid_polytope():
    octa = convex_hull(weight_set(octa_shape()))
    assert is_matroid_polytope(octa)
    simplex = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert is_matroid_polytope(simplex)
    # dilated simplex: edges are multiples of e_i - e_j, still admissible
    assert is_matroid_polytope(convex_hull([(0, 0, 2), (2, 0, 0), (0, 2, 0)]))
    bad = convex_hull([(0, 0, 2), (1, 1, 0)])
    assert not is_matroid_polytope(bad)  # edge direction (1,1,-2)
    with pytest.raises(NonLatticeError):
        from fractions import Fraction

        is_matroid_polytope(convex_hull([(Fraction(1, 2), 0), (0, 1)]))


def test_octahedron_subdivisions():
    subdivisions = enumerate_matroid_subdivisions(octa_shape(), cap=2)
    assert len(subdivisions) == 4
    sizes = sorted(len(s) for s in subdivisions)
    assert sizes == [1, 2, 2, 2]
    for cells in subdivisions:
        for c in cells:
            assert is_matroid_polytope(c)
        if len(cells) == 2:
            assert all(len(c.vertices) == 5 for c in cells)  # square pyramids

    # independent oracle: the splits are exactly the hyperplane cuts
    # x_i + x_j = 1 over the three complementary pairs
    octa = convex_hull(weight_set(octa_shape()))
    split_keys = set()
    for pair in [(0, 1), (0, 2), (0, 3)]:
        normal = tuple(1 if i in pair else 0 for i in range(4))
        lower = [p for p in weight_set(octa_shape()) if sum(p[i] for i in pair) <= 1]
        upper = [p for p in weight_set(octa_shape()) if sum(p[i] for i in pair) >= 1]
        cells = tuple(
            sorted(
                (convex_hull(lower), convex_hull(upper)),
                key=lambda c: c.vertices,
            )
        )
        split_keys.add(frozenset(c.vertices for c in cells))
    trivial_key = frozenset({octa.vertices})
    got_keys = {frozenset(c.vertices for c in cells) for cells in subdivisions}
    assert got_keys == split_keys | {trivial_key}


def test_octahedron_search_hulls_each_cell_once(monkeypatch):
    # the height search meets the same lower-facet points again and again,
    # and the symmetry closure meets the cells it found; each is hulled once
    hulled = []

    def counting(points):
        hull = convex_hull(points)
        hulled.append(hull.vertices)
        return hull

    monkeypatch.setattr(degeneration, "convex_hull", counting)
    monkeypatch.setattr(matroid, "convex_hull", counting)
    subdivisions = enumerate_matroid_subdivisions(octa_shape(), cap=2)
    assert len(hulled) == len(set(hulled))
    assert {c.vertices for cells in subdivisions for c in cells} <= set(hulled)


def test_subdivision_cells_are_hulled_once_whatever_points_their_facets_carry(monkeypatch):
    # (3;2,2,2) has weight points that are no vertex, and a lower facet
    # carries different ones of them under different heights
    hulled = []

    def counting(points):
        hull = convex_hull(points)
        hulled.append(hull.vertices)
        return hull

    monkeypatch.setattr(degeneration, "convex_hull", counting)
    enumerate_matroid_subdivisions(GradedShape(3, (2, 2, 2)), cap=1)
    assert len(hulled) == len(set(hulled)) == 36


def test_simplex_only_trivial():
    shape = GradedShape(1, (1, 1, 1))
    subdivisions = enumerate_matroid_subdivisions(shape, cap=2)
    assert len(subdivisions) == 1
    assert len(subdivisions[0]) == 1


def test_single_point_trivial():
    shape = GradedShape(0, (1, 1))
    subdivisions = enumerate_matroid_subdivisions(shape)
    assert len(subdivisions) == 1


def test_search_budget_error():
    with pytest.raises(SearchBudgetError):
        enumerate_matroid_subdivisions(GradedShape(3, tuple([1] * 13)))
    # Delta(2,5) at cap 9: 10^10 grid points over 120 symmetries, refused
    # before any assignment is built
    with pytest.raises(SearchBudgetError, match="at least 83333334"):
        enumerate_matroid_subdivisions(GradedShape(2, (1,) * 5), cap=9)
    # Delta(2,4) at cap 2: 3^6 / 24 <= 31, so the search starts and stops at
    # the 32nd canonical assignment
    with pytest.raises(SearchBudgetError, match="more than 31"):
        enumerate_matroid_subdivisions(octa_shape(), cap=2, budget=31)
    assert len(enumerate_matroid_subdivisions(octa_shape(), cap=2, budget=100)) == 4
    with pytest.raises(ParamError):
        enumerate_matroid_subdivisions(octa_shape(), cap=-1)


def test_workers_do_not_change_output():
    one = enumerate_matroid_subdivisions(octa_shape(), cap=1, workers=1)
    two = enumerate_matroid_subdivisions(octa_shape(), cap=1, workers=3)
    assert [[c.vertices for c in cells] for cells in one] == [
        [c.vertices for c in cells] for cells in two
    ]


def test_subdivisions_validate_as_complexes():
    for cells in enumerate_matroid_subdivisions(octa_shape(), cap=1):
        gamma = Lattice.standard(5).intersect_subspace(
            [(1,) + v_int(c) for c in cells for v_int in [lambda cc: cc.vertices[0]]]
            + [(1,) + v for c in cells for v in c.vertices]
        )
        wrapped = [
            Cell(f"m{i}", c, gamma.intersect_subspace(cone_over(c).rays))
            for i, c in enumerate(cells)
        ]
        complex_ = complete_faces(
            SSVComplex(4, gamma, wrapped, tuple(c.id for c in wrapped))
        )
        assert complex_.validate().passed


def test_is_matroid_invariant_under_permutation():
    import random

    rng = random.Random(2)
    pts = weight_set(octa_shape())
    for _ in range(5):
        chosen = rng.sample(pts, 5)
        p = convex_hull(chosen)
        value = is_matroid_polytope(p)
        for perm in itertools.permutations(range(4)):
            image = convex_hull([tuple(v[perm[i]] for i in range(4)) for v in chosen])
            assert is_matroid_polytope(image) == value


def test_thin_cells_always_full_on_two_positions():
    # For lower-bound rank constraints the thin set is cut out of S by
    # halfspaces, so it always equals the lattice points of its own hull;
    # exhaust all valid rank data on ranks (2,2), r=2 to document this.
    shape = GradedShape(2, (2, 2))
    found_non_full = False
    for d0 in range(0, 3):
        for d1 in range(0, 3):
            try:
                data = RankFunctionData(shape, {(0,): d0, (1,): d1})
            except InvalidRankDataError:
                continue
            _, full, witness = thin_cell_weight_set(shape, data)
            assert full and witness is None
            found_non_full = found_non_full or not full
    assert not found_non_full


def test_thin_cells_full_on_random_shapes():
    import random

    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(2, 4)
        ranks = tuple(rng.randint(1, 3) for _ in range(n))
        r = rng.randint(0, sum(ranks))
        shape = GradedShape(r, ranks)
        entries = {}
        for size in range(1, n):
            import itertools as it

            for subset in it.combinations(range(n), size):
                if rng.random() < 0.3:
                    complement = sum(ranks[i] for i in range(n) if i not in subset)
                    trivial = max(0, r - complement)
                    entries[subset] = trivial + rng.randint(0, 1)
        try:
            data = RankFunctionData(shape, entries)
        except InvalidRankDataError:
            continue
        _, full, witness = thin_cell_weight_set(shape, data)
        assert full and witness is None
