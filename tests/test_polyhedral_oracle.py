"""Cross-check of the supporting-normals kernel against the brute-force oracle.

Random small rational inputs go through both the library and the reference
searches in ``polyhedral_oracle``; every description (vertices or rays,
inequalities, equations) must come out identical; so must the cone over a
polytope, read off its descriptions, and the cone over its vertices.
``is_face_of`` is checked against the enumerated face lattice,
``face_vertex_sets``, and each face read off its parent's incidences against
the hull of its vertices.  The kernel itself, double description, is compared
with the exhaustive search it replaced, and its Bareiss kernel lines with
the Hermite-form ``integer_kernel``.  Regular subdivisions, also several
in turn of one polytope with its points as int tuples, Fraction tuples or
lists, and the convexity flag of their cells are compared
with the earlier versions that worked in frame coordinates, and the lattice
points of graded slices and of simplicial parallelepipeds with the earlier
Smith-form enumerators.  Validation's certified pair path must give the
intersection and face tests of the double-description path it replaced, on
pairs that share faces, touch at a vertex, nest or are lower-dimensional.
"""

import itertools
import math
import random
from fractions import Fraction

import polyhedral_oracle as oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssvlib.complexes import (
    Cell,
    SSVComplex,
    _pair_vertices,
    _union_is_convex,
    _vertex_key,
    _volume_of_points,
    complete_faces,
    moment_set_is_convex,
)
from ssvlib.degeneration import regular_subdivision
from ssvlib.lattice import Lattice, integer_kernel
from ssvlib.linalg import integer_rref, mat_rank, vec_dot
from ssvlib.polyhedral import (
    Cone,
    _intersection_vertices,
    _is_face,
    _kernel_line,
    _simplicial_box_points,
    _supporting_normals,
    cone_from_halfspaces,
    cone_over,
    convex_hull,
    graded_lattice_points,
    intersect_polytopes,
)

EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# small integers give the degenerate (collinear, coplanar) configurations
coordinate = st.one_of(
    st.integers(-2, 2).map(Fraction),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
integer = st.integers(-2, 2)


def vector_lists(entry, dims, min_size, max_size):
    return st.integers(*dims).flatmap(
        lambda d: st.lists(
            st.tuples(*[entry] * d), min_size=min_size, max_size=max_size
        ).map(lambda vs: (d, vs))
    )


def _combination(coeffs, generators, k):
    return tuple(sum(c * g[i] for c, g in zip(coeffs, generators)) for i in range(k))


@st.composite
def spanned_vectors(draw, k, min_size, max_size):
    """Integer vectors in Z^k, often spanning a proper subspace only."""
    rank = draw(st.integers(0, k))
    generators = draw(st.lists(st.tuples(*[integer] * k), min_size=rank, max_size=rank))
    coeffs = st.tuples(*[st.integers(-2, 2)] * rank)
    coeff_lists = st.lists(coeffs, min_size=min_size, max_size=max_size)
    return [_combination(c, generators, k) for c in draw(coeff_lists)]


@st.composite
def normal_inputs(draw):
    """(vectors, k) with zero, repeated and opposite vectors mixed in."""
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        vectors = draw(spanned_vectors(k, 0, 8))
    else:
        vectors = draw(st.lists(st.tuples(*[integer] * k), max_size=8))
    if vectors:
        picks = st.lists(st.sampled_from(vectors), max_size=2)
        vectors += draw(picks)  # repeats
        vectors += [tuple(-x for x in v) for v in draw(picks)]  # lines: not pointed
    if draw(st.booleans()):
        vectors.append((0,) * k)
    return vectors, k


@EXAMPLES
@given(normal_inputs())
def test_double_description_matches_exhaustive_search(case):
    vectors, k = case
    assert _supporting_normals(vectors, k) == oracle.supporting_normals(vectors, k)


@EXAMPLES
@given(st.integers(2, 6), st.booleans(), st.data())
def test_bareiss_kernel_line_matches_integer_kernel(k, low_rank, data):
    if low_rank:
        rows = data.draw(spanned_vectors(k, k - 1, k - 1))
    else:
        rows = data.draw(st.lists(st.tuples(*[integer] * k), min_size=k - 1, max_size=k - 1))
    kernel = integer_kernel(rows)
    line = _kernel_line(rows)
    if len(kernel) == 1:
        assert line in (kernel[0], tuple(-x for x in kernel[0]))
    else:
        assert line is None
    # the fraction-free form is the rational reduced form times its pivot
    reduced, pivots = integer_rref(rows)
    rref, rref_pivots = oracle.rational_rref(rows)
    assert pivots == rref_pivots
    if pivots:
        d = reduced[0][pivots[0]]
        assert [tuple(Fraction(x, d) for x in r) for r in reduced] == rref


def _polytope_parts(p):
    return p.vertices, p.inequalities, p.equations, p.dim


def _cone_parts(c):
    return c.rays, c.inequalities, c.equations


@EXAMPLES
@given(vector_lists(coordinate, (1, 4), 1, 7))
def test_convex_hull_matches_oracle(case):
    _, points = case
    assert _polytope_parts(convex_hull(points)) == _polytope_parts(
        oracle.convex_hull(points)
    )


@EXAMPLES
@given(vector_lists(coordinate, (1, 4), 1, 7))
def test_volume_matches_oracle(case):
    _, points = case
    assert _volume_of_points(points) == oracle._volume_of_points(points)


@EXAMPLES
@given(vector_lists(integer, (1, 4), 0, 6))
def test_cone_from_rays_matches_oracle(case):
    d, rays = case
    assert _cone_parts(Cone.from_rays(d, rays)) == _cone_parts(
        oracle.cone_from_rays(d, rays)
    )


@EXAMPLES
@given(vector_lists(integer, (1, 4), 0, 6), st.data())
def test_cone_from_halfspaces_matches_oracle(case, data):
    d, normals = case
    equations = data.draw(st.lists(st.tuples(*[integer] * d), max_size=2))
    assert _cone_parts(cone_from_halfspaces(d, normals, equations)) == _cone_parts(
        oracle.cone_from_halfspaces(d, normals, equations)
    )


@st.composite
def affine_point_sets(draw, low=0):
    """Points spanning a polytope of any dimension 0..d in Q^d, low <= d <= 4."""
    d = draw(st.integers(low, 4))
    rank = draw(st.integers(0, d))
    base = draw(st.tuples(*[coordinate] * d))
    directions = draw(st.lists(st.tuples(*[coordinate] * d), min_size=rank, max_size=rank))
    coeffs = st.tuples(*[st.integers(-2, 2).map(Fraction)] * rank)
    return [
        tuple(b + x for b, x in zip(base, _combination(c, directions, d)))
        for c in draw(st.lists(coeffs, min_size=1, max_size=7))
    ]


@EXAMPLES
@given(affine_point_sets())
def test_cone_over_matches_oracle(points):
    p = convex_hull(points)
    mine = _cone_parts(cone_over(p))
    assert mine == _cone_parts(oracle.cone_over(p))
    assert all(type(x) is int for part in mine for row in part for x in row)


def _all_fields(p):
    return p.ambient_rank, p.vertices, p.inequalities, p.equations, p._dim, p._facet_masks


@EXAMPLES
@given(affine_point_sets(low=1))
def test_faces_from_incidences_match_the_hull(points):
    # every face, the body included, of polytopes that are often lower-dimensional
    p = convex_hull(points)
    for f in p.face_vertex_sets():
        assert _all_fields(p.face_polytope(f)) == _all_fields(oracle.face_polytope(p, f))


@st.composite
def graded_cases(draw):
    """(polytope in Q^r, lattice in Z^(1+r), degree) for r = 1..3, degree 0..4.

    The polytope has rational vertices and any dimension 0..r; the lattice
    has 0 to r + 2 generators, whose degrees, scaled by 2 or 3, often leave
    it without an element of degree 1.  Drawn from one seeded generator, so
    that every kind of case is common, not only the simplest.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    r = rng.randint(1, 3)

    def coordinate():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))

    base = [coordinate() for _ in range(r)]
    rank = r if rng.random() < 0.5 else rng.randint(0, r - 1)
    directions = [[coordinate() for _ in range(r)] for _ in range(rank)]
    points = []
    for _ in range(rng.randint(1, 7)):
        coeffs = [rng.randint(-2, 2) for _ in directions]
        points.append(tuple(b + sum(c * v[i] for c, v in zip(coeffs, directions))
                            for i, b in enumerate(base)))
    step = rng.choice([1, 1, 2, 3])
    generators = [
        (step * rng.randint(-2, 2),) + tuple(rng.randint(-2, 2) for _ in range(r))
        for _ in range(rng.randint(0, r + 2))
    ]
    return convex_hull(points), Lattice(r + 1, generators), rng.randint(0, 4)


@EXAMPLES
@given(graded_cases())
def test_graded_lattice_points_match_oracle(case):
    assert graded_lattice_points(*case) == oracle.graded_lattice_points(*case)


@EXAMPLES
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=k, max_size=k)))
def test_simplicial_box_points_match_oracle(rays):
    assume(mat_rank(rays) == len(rays))
    assert _simplicial_box_points(rays) == oracle._simplicial_box_points(rays)


@EXAMPLES
@given(vector_lists(coordinate, (1, 3), 1, 6), st.data())
def test_intersect_polytopes_matches_oracle(case, data):
    d, points = case
    others = data.draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=6))
    p, q = convex_hull(points), convex_hull(others)
    mine, reference = intersect_polytopes(p, q), oracle.intersect_polytopes(p, q)
    vertices = _intersection_vertices(p, q)
    if reference is None:
        assert mine is None
        assert vertices == ()
    else:
        assert _polytope_parts(mine) == _polytope_parts(reference)
        # the vertex set alone, as validation reads it, and its face test
        assert vertices == reference.vertices
        assert _is_face(vertices, p) == reference.is_face_of(p)


@EXAMPLES
@given(vector_lists(coordinate, (1, 3), 4, 8), st.data())
def test_is_face_of_matches_face_lattice(case, data):
    # the facet-closure face test against the enumerated face lattice, on
    # random vertex subsets (mostly not faces), on a face, and on each of
    # these with a foreign point added
    d, points = case
    p = convex_hull(points)
    faces = p.face_vertex_sets()
    n = len(p.vertices)
    subset = st.sets(st.integers(0, n - 1), min_size=min(2, n))
    subsets = data.draw(st.lists(subset, min_size=3, max_size=3))
    subsets.append(data.draw(st.sampled_from(sorted(sorted(f) for f in faces))))
    extra = data.draw(st.tuples(*[coordinate] * d))
    where = {v: i for i, v in enumerate(p.vertices)}
    for index in subsets:
        for added in ([], [extra]):
            s = convex_hull([p.vertices[i] for i in index] + added)
            expected = (
                all(v in where for v in s.vertices)
                and frozenset(where[v] for v in s.vertices) in faces
            )
            assert s.is_face_of(p) == expected


@st.composite
def lifted_points(draw):
    """(points, heights) for a regular subdivision.

    Lattice or rational points in dims 1-3 with integer heights; some lifts
    are flat (an affine function), some points are the midpoint of two
    others lifted onto the segment between their lifts (so onto a lower
    facet when that segment is a lower edge), and some point sets are
    embedded in a larger space, so that their polytope has equations.
    """
    d = draw(st.integers(1, 3))
    entry = draw(st.sampled_from([integer.map(Fraction), coordinate]))
    size = draw(st.integers(d + 1, d + 4))
    points = draw(st.lists(st.tuples(*[entry] * d), min_size=size, max_size=size, unique=True))
    if draw(st.integers(0, 3)) == 0:
        a, b = draw(integer), draw(st.tuples(*[integer] * d))
        heights = [a + vec_dot(b, p) for p in points]
    else:
        heights = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    index = st.integers(0, size - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        mid = tuple((x + y) / 2 for x, y in zip(points[i], points[j]))
        if mid not in points:
            points.append(mid)
            heights.append(Fraction(heights[i] + heights[j]) / 2)
    if draw(st.integers(0, 2)) == 0:
        rows = draw(st.lists(st.tuples(*[integer] * d), min_size=1, max_size=2))
        points = [p + tuple(vec_dot(r, p) + 1 for r in rows) for p in points]
    return points, heights


@EXAMPLES
@given(lifted_points())
def test_regular_subdivision_matches_oracle(case):
    points, heights = case
    mine = regular_subdivision(convex_hull(points), points, heights)
    reference = oracle.regular_subdivision(oracle.convex_hull(points), points, heights)
    assert [_polytope_parts(c) for c in mine] == [_polytope_parts(c) for c in reference]


@st.composite
def height_runs(draw):
    """(points, runs): one point set lifted by several height vectors in turn.

    The second run is the first moved by an affine function, which has the
    same lower facets, so it reads every cell from the polytope's table.
    """
    points, heights = draw(lifted_points())
    size = len(points)
    a, b = draw(integer), draw(st.tuples(*[integer] * len(points[0])))
    moved = [h + a + vec_dot(b, p) for h, p in zip(heights, points)]
    more = st.lists(st.integers(-3, 3), min_size=size, max_size=size)
    return points, [heights, moved] + draw(st.lists(more, min_size=1, max_size=3))


@EXAMPLES
@given(height_runs())
def test_subdivisions_of_one_polytope_match_oracle(case):
    # later runs take the cells of masks seen before from the table instead
    # of hulling them; each run must still equal the oracle's
    points, runs = case
    polytope, reference_polytope = convex_hull(points), oracle.convex_hull(points)
    results = []
    for heights in runs:
        results.append(regular_subdivision(polytope, points, heights))
        reference = oracle.regular_subdivision(reference_polytope, points, heights)
        assert [_polytope_parts(c) for c in results[-1]] == [_polytope_parts(c) for c in reference]
    assert all(a is b for a, b in zip(results[0], results[1], strict=True))


half_integer = st.one_of(st.integers(-3, 3), st.integers(-6, 6).map(lambda k: Fraction(k, 2)))
POINT_FORMS = (
    lambda ps: [tuple(p) for p in ps],
    lambda ps: [tuple(Fraction(x) for x in p) for p in ps],
    lambda ps: [list(p) for p in ps],
)


@st.composite
def configuration_runs(draw):
    """(lattice points, runs): 3-6 integral or half-integral height vectors, some flat."""
    d = draw(st.integers(1, 3))
    size = draw(st.integers(d + 1, d + 4))
    points = draw(st.lists(st.tuples(*[integer] * d), min_size=size, max_size=size, unique=True))
    flat = st.tuples(half_integer, st.tuples(*[integer] * d)).map(
        lambda ab: [ab[0] + vec_dot(ab[1], p) for p in points]
    )
    heights = st.one_of(st.lists(half_integer, min_size=size, max_size=size), flat)
    return points, draw(st.lists(heights, min_size=3, max_size=6))


@EXAMPLES
@given(configuration_runs())
def test_prepared_configuration_matches_oracle_whatever_form_the_points_take(case):
    # the polytope keeps one configuration for the points by value; the runs
    # read it with the points as int tuples, Fraction tuples and lists in turn
    points, runs = case
    polytope, reference_polytope = convex_hull(points), oracle.convex_hull(points)
    for i, heights in enumerate(runs):
        mine = regular_subdivision(polytope, POINT_FORMS[i % 3](points), heights)
        reference = oracle.regular_subdivision(reference_polytope, points, heights)
        assert [_polytope_parts(c) for c in mine] == [_polytope_parts(c) for c in reference]
    assert [k for k in polytope._shared if k[0] == "config"] == [("config", tuple(points))]


def _complex(polytopes):
    gamma = Lattice.standard(polytopes[0].ambient_rank + 1)
    cells = [Cell(f"c{i}", p, gamma) for i, p in enumerate(polytopes)]
    return SSVComplex(polytopes[0].ambient_rank, gamma, cells, [c.id for c in cells])


@EXAMPLES
@given(lifted_points(), st.data())
def test_convexity_flag_matches_oracle(case, data):
    # on a whole subdivision (always convex) and on a random set of its
    # cells, a proper set of at least two when there are three or more
    points, heights = case
    cells = regular_subdivision(convex_hull(points), points, heights)
    n = len(cells)
    size = st.integers(2, n - 1) if n > 2 else st.just(n)
    chosen = data.draw(size.flatmap(lambda k: st.sets(st.integers(0, n - 1), min_size=k, max_size=k)))
    for polytopes in (cells, [cells[i] for i in sorted(chosen)]):
        complex_ = _complex(polytopes)
        assert moment_set_is_convex(complex_) == oracle.moment_set_is_convex(complex_)


@st.composite
def face_to_face_unions(draw):
    """Cells that meet face to face, taken from one regular subdivision.

    A subdivision of three or more cells gives a proper set of two or more
    of them, a smaller one all its cells.  Two in three subdivisions are the
    unit cells of a lattice grid in dims 1-3 (heights p . p), whose sets
    give L-shapes, cells meeting only at a vertex and disjoint cells; some
    of these grids are mapped affinely into Q^3, so that their cells span a
    lower-dimensional space.  The rest come from ``lifted_points``.  One in
    four draws takes the facets of the cells in their place, which meet
    face to face too but may span more than their own dimension, as two
    edges of a triangle do.
    """
    if draw(st.integers(0, 2)) == 0:
        points, heights = draw(lifted_points())
    else:
        d = draw(st.integers(1, 3))
        sides = draw(st.tuples(*[st.integers(1, 4)] * d).filter(lambda s: 3 <= math.prod(s) <= 8))
        points = list(itertools.product(*(range(side + 1) for side in sides)))
        heights = [vec_dot(p, p) for p in points]
        if d < 3 and draw(st.booleans()):
            rows = draw(st.lists(st.tuples(*[integer] * d), min_size=3 - d, max_size=3 - d))
            points = [p + tuple(vec_dot(r, p) + 1 for r in rows) for p in points]
    cells = regular_subdivision(convex_hull(points), points, heights)
    if draw(st.integers(0, 3)) == 0:
        facets = {c.face_polytope(f) for c in cells for f in c.facet_vertex_sets()}
        cells = sorted(facets, key=lambda f: f.vertices)
    n = len(cells)
    size = draw(st.integers(2, n - 1)) if n > 2 else n
    chosen = draw(st.sets(st.sampled_from(range(n)), min_size=size, max_size=size))
    return [cells[i] for i in sorted(chosen)]


@EXAMPLES
@given(face_to_face_unions())
def test_boundary_facet_flag_matches_oracle(cells):
    # the cells meet face to face, so the flag read off boundary facets
    # must equal the volume test of the oracle; validation reads that flag
    complex_ = _complex(cells)
    flag = _union_is_convex(complex_.maximal_cells(), face_to_face=True)
    assert flag == oracle.moment_set_is_convex(complex_)
    report = complete_faces(complex_).validate()
    assert next(c for c in report.checks if c.name == "pairwise-intersections").passed
    assert report.moment_set_convex == flag


@st.composite
def polytope_pairs(draw):
    """(p, q): two polytopes in Q^1 to Q^3, or embedded in a larger space.

    A third of them are two cells or faces of one regular subdivision: they
    share a face, touch at a vertex, nest, are apart or are
    lower-dimensional.  A third are a random hull and the hull of a few of
    its vertices and a few other points, which mostly overlap, nest or share
    vertices in no common face.  The rest are a random hull and the hull of
    the vertices of one of its facets and of points mirrored beyond that
    facet, which meet in the facet or a face of it.
    """
    kind = draw(st.sampled_from(["subdivision", "kept", "mirrored"]))
    if kind == "subdivision":
        points, heights = draw(lifted_points())
        cells = regular_subdivision(convex_hull(points), points, heights)
        faces = sorted(
            {c.face_polytope(f) for c in cells for f in c.face_vertex_sets()},
            key=lambda f: (f.dim, f.vertices),
        )
        return draw(st.sampled_from(cells)), draw(st.sampled_from(cells) | st.sampled_from(faces))
    d, points = draw(vector_lists(coordinate, (1, 3), 1, 6))
    p = convex_hull(points)
    others = st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=3)
    if kind == "kept" or not p.inequalities:
        kept = draw(st.lists(st.sampled_from(p.vertices), max_size=3))
        return p, convex_hull(kept + draw(others))
    (n, c), mask = draw(st.sampled_from(list(zip(p.inequalities, p._facet_masks))))
    on = [v for i, v in enumerate(p.vertices) if mask >> i & 1]
    kept = draw(st.lists(st.sampled_from(on), min_size=1, max_size=len(on), unique=True))
    mirrored = []
    for x in draw(others):
        excess = vec_dot(n, x) - c  # n . x' = c - |excess| after mirroring
        mirrored.append(tuple(
            a - 2 * max(excess, 0) * b / vec_dot(n, n) for a, b in zip(x, n)
        ))
    return p, convex_hull(kept + mirrored)


@EXAMPLES
@given(polytope_pairs())
def test_certified_pairs_match_double_description(pair):
    p, q = pair
    keys = _vertex_key(p), _vertex_key(q)
    inter = _pair_vertices(p, q, *keys)
    assert inter == oracle._intersection_vertices(p, q)
    for polytope, (index, _, _) in zip(pair, keys):
        assert _is_face(inter, polytope, index) == oracle._is_face(inter, polytope)
