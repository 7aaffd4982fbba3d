"""Cross-check of the one-pass integrality and keyed Weyl translates.

``report_oracle`` holds the earlier degeneration and admissibility code.
Random heights on the fixtures' point sets must give the same reduced flag,
witness, exponent and special fiber, also along the route `ssv degenerate`
takes (the cells of the unscaled heights wrapped directly).  Orbit hulls
are invariant under the Weyl group, so they have one translate; dominant
hulls, shifted orbit hulls and simplices on fundamental weights have
several, which runs the pairwise test, and the root-sign certificates in it
up to rank 4.  The reflection walk that finds the translates must reach the
distinct images under the oracle's matrices of the Weyl group, for every
label up to rank 4.  Completed regular subdivisions, whole or with one cell
or group broken, must get the oracle's validation report, witnesses
included; so must those that validation settles by common vertices, whole
or broken where its precondition must notice or stay exact.
"""

import itertools
import random
from fractions import Fraction

import pytest
import report_oracle as oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssvlib import complexes, rootdata
from ssvlib.complexes import Cell, SSVComplex, complete_faces, validate_complex
from ssvlib.degeneration import (
    HeightFunction,
    _fiber_complex,
    base_change_exponent,
    regular_subdivision,
    special_fiber_complex,
    special_fiber_reduced,
)
from ssvlib.errors import DomainError, NotReducedError
from ssvlib.lattice import Lattice
from ssvlib.linalg import clear_denominators, vec_dot
from ssvlib.polyhedral import AffineMonoid, convex_hull, cone_over, hilbert_basis
from ssvlib.rootdata import dominant_hull, is_w_admissible, root_datum, weyl_orbit

EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# (gamma, points): segment04 with the points of its heights documents, the
# lattice points of two_triangles' support, and the triangle frame's points
POINT_SETS = (
    ([(1, 0), (0, 2)], [(0,), (2,), (4,)]),
    ([(1, 0, 0), (0, 2, 0), (0, 0, 2)], [(0, 0), (2, 0), (4, 0), (4, 2)]),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(x, y) for x in range(5) for y in range(5 - x)]),
)
# integer and half-integer heights
height = st.integers(-4, 4).map(lambda n: Fraction(n, 2)) | st.integers(-2, 2).map(Fraction)


@st.composite
def degenerations(draw):
    basis, points = draw(st.sampled_from(POINT_SETS))
    heights = draw(st.lists(height, min_size=len(points), max_size=len(points)))
    return Lattice(len(basis), basis), points, heights


def _cells(fiber):
    return [(c.id, c.polytope, c.weight_group.basis) for c in fiber.sorted_cells()]


@EXAMPLES
@given(degenerations())
def test_integrality_and_fiber_match_oracle(case):
    gamma, points, heights = case
    polytope = convex_hull(points)
    h = HeightFunction.from_lifted(points, heights)
    monoid = AffineMonoid(gamma, hilbert_basis(cone_over(polytope), gamma))
    reduced = special_fiber_reduced(h, monoid)
    assert reduced == oracle.special_fiber_reduced(h, monoid)
    exponent = base_change_exponent(h, monoid)
    assert exponent == oracle.base_change_exponent(h, monoid)
    if not reduced[0]:
        with pytest.raises(NotReducedError) as mine:
            special_fiber_complex(gamma, polytope, points, heights)
        with pytest.raises(NotReducedError) as old:
            oracle.special_fiber_complex(gamma, polytope, points, heights)
        assert mine.value.args == old.value.args
    scaled = [x * exponent for x in heights]
    expected = _cells(oracle.special_fiber_complex(gamma, polytope, points, scaled))
    assert _cells(special_fiber_complex(gamma, polytope, points, scaled)) == expected
    # `ssv degenerate` wraps the cells of the unscaled heights
    cells = regular_subdivision(polytope, points, heights)
    assert _cells(_fiber_complex(gamma, cells)) == expected


def test_uncovered_monoid_raises_like_oracle():
    # heights on [0, 2], monoid over [0, 4]: the coverage check runs first
    gamma = Lattice(2, [(1, 0), (0, 2)])
    h = HeightFunction.from_lifted([(0,), (1,), (2,)], [0, Fraction(1, 3), 1])
    monoid = AffineMonoid(gamma, hilbert_basis(cone_over(convex_hull([(0,), (4,)])), gamma))
    checks = (special_fiber_reduced, base_change_exponent)
    for check in checks + (oracle.special_fiber_reduced, oracle.base_change_exponent):
        with pytest.raises(DomainError, match="do not cover the cone"):
            check(h, monoid)


LABELS = ("A1", "A1xA1", "A2", "B2", "A3", "B3", "C3", "A1xA2")


@st.composite
def dominant_weights(draw, labels):
    datum = root_datum(draw(st.sampled_from(labels)))
    # half-integral entries give orbit points of different denominators
    weight = draw(st.tuples(*[st.integers(0, 4).map(lambda n: Fraction(n, 2))] * datum.rank))
    return datum, weight


@EXAMPLES
@given(dominant_weights(LABELS))
def test_admissibility_of_orbit_hulls_matches_oracle(case):
    datum, weight = case
    hull = convex_hull(weyl_orbit(datum, weight))
    assert is_w_admissible(datum, hull) == oracle.is_w_admissible(datum, hull)


def _reaches_pairwise_test(datum, polytope):
    """The relative interior meets the chamber and W moves the polytope."""
    meet = oracle.from_halfspaces(
        datum.rank,
        tuple(polytope.inequalities) + tuple(datum.chamber_inequalities()),
        polytope.equations,
    )
    if meet is None or not polytope.relint_contains(oracle.barycenter(meet)):
        return False
    return any(oracle.transformed(polytope, m) != polytope for m in oracle.weyl_matrices(datum))


def test_admissibility_of_moved_polytopes_matches_oracle():
    outcomes = set()
    shift = st.integers(-2, 2).map(lambda n: Fraction(n, 2))

    @EXAMPLES
    @given(dominant_weights(("A1", "A1xA1", "A2", "B2", "A1xA2")), st.booleans(), st.data())
    def check(case, shifted, data):
        datum, weight = case
        if shifted:
            offset = data.draw(st.tuples(*[shift] * datum.rank))
            orbit = weyl_orbit(datum, weight)
            polytope = convex_hull([tuple(a + b for a, b in zip(v, offset)) for v in orbit])
        else:
            polytope = dominant_hull(datum, weight)
        result = is_w_admissible(datum, polytope)
        assert result == oracle.is_w_admissible(datum, polytope)
        if _reaches_pairwise_test(datum, polytope):
            outcomes.add(result)

    check()
    assert outcomes == {True, False}


def _simplex(offset, corners):
    """conv(offset, offset + corner for each corner), corners in weight coordinates."""
    return convex_hull([offset] + [tuple(a + b for a, b in zip(offset, c)) for c in corners])


def _multiples(datum, scales):
    """k omega_i for the nonzero scales k, one per simple index i."""
    n = datum.rank
    return [tuple(k if j == i else 0 for j in range(n)) for i, k in enumerate(scales) if k]


@st.composite
def moved_polytopes(draw):
    """(datum, polytope) over A2, A3, B2, B3, C3, and few over A4 and B4.

    In rank 2 and 3: a dominant hull, a shifted orbit hull, or a simplex on
    multiples of fundamental weights moved by a half-integral offset, which
    may cross a wall.  In rank 4, where the oracle intersects up to 73,536
    pairs of translates: a simplex on one or two multiples at the origin,
    with few translates, or the simplex on rho and rho + 2 omega_i moved
    across the wall of omega_j, which the oracle rejects early.
    """
    if draw(st.integers(0, 4)) == 0:
        datum = root_datum(draw(st.sampled_from(("A4", "B4"))))
        if draw(st.booleans()):
            chosen = draw(st.dictionaries(st.integers(0, 3), st.integers(1, 2), min_size=1, max_size=2))
            scales = [chosen.get(i, 0) for i in range(4)]
            return datum, _simplex((0,) * 4, _multiples(datum, scales))
        j = draw(st.integers(0, 3))
        offset = tuple(1 - 2 * (i == j) for i in range(4))
        return datum, _simplex(offset, _multiples(datum, (2,) * 4))
    datum, weight = draw(dominant_weights(("A2", "A3", "B2", "B3", "C3")))
    shift = st.integers(-2, 2).map(lambda n: Fraction(n, 2))
    offset = draw(st.tuples(*[shift] * datum.rank))
    kind = draw(st.sampled_from(("dominant", "shifted", "simplex")))
    if kind == "dominant":
        return datum, dominant_hull(datum, weight)
    if kind == "shifted":
        return datum, convex_hull([tuple(a + b for a, b in zip(v, offset)) for v in weyl_orbit(datum, weight)])
    scales = draw(st.lists(st.integers(0, 2), min_size=datum.rank, max_size=datum.rank))
    assume(any(scales))
    return datum, _simplex(offset, _multiples(datum, scales))


def test_admissibility_of_moved_polytopes_up_to_rank_4_matches_oracle():
    outcomes = set()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(moved_polytopes())
    def check(case):
        datum, polytope = case
        result = is_w_admissible(datum, polytope)
        assert result == oracle.is_w_admissible(datum, polytope)
        if _reaches_pairwise_test(datum, polytope):
            outcomes.add((datum.rank == 4, result))

    check()
    assert outcomes == {(False, True), (False, False), (True, True), (True, False)}


def _labels_up_to_rank_4(prefix=(), rank=0):
    """Every label of a simple type or a product of them, total rank at most 4."""
    for kind, ranks in (("A", range(1, 5)), ("B", range(2, 5)), ("C", range(2, 5)), ("D", range(3, 5))):
        for n in ranks:
            if rank + n <= 4:
                label = prefix + (f"{kind}{n}",)
                yield "x".join(label)
                yield from _labels_up_to_rank_4(label, rank + n)


def test_reflection_walk_matches_the_group_matrices():
    # the distinct sorted images of a vertex set under the oracle's |W|
    # matrices are the translates the reflection walk reaches, for an orbit
    # hull (one translate) and a simplex moved off the origin (several)
    rng = random.Random(23)
    labels = list(_labels_up_to_rank_4())
    assert len(labels) == 47 and {"A4", "B4", "C4", "D4", "A1xA1xA1xA1", "B2xC2"} <= set(labels)
    for label in labels:
        datum = root_datum(label)
        matrices = oracle.weyl_matrices(datum)
        weight = tuple(Fraction(rng.randint(0, 4), 2) for _ in range(datum.rank))
        offset = tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(datum.rank))
        scales = [rng.randint(0, 2) for _ in range(datum.rank)]
        scales[rng.randrange(datum.rank)] = rng.randint(1, 2)
        for polytope in (convex_hull(weyl_orbit(datum, weight)), _simplex(offset, _multiples(datum, scales))):
            # on the integer vertices that is_w_admissible walks
            flat = clear_denominators([x for v in polytope.vertices for x in v])
            points = [flat[i:i + datum.rank] for i in range(0, len(flat), datum.rank)]
            expected = {tuple(sorted(tuple(vec_dot(row, v) for row in m) for v in points)) for m in matrices}
            assert rootdata._translates(datum, points) == expected, (label, polytope)


# the lattice of (d, x, y) with x and y even holds no cell's Z^3 cap span(cone)
# once the cell has an edge
GAMMAS = {
    1: (Lattice.standard(2), Lattice(2, [(1, 0), (0, 2)])),
    2: (Lattice.standard(3), Lattice(3, [(1, 0, 0), (0, 2, 0), (0, 0, 2)])),
}
MUTATIONS = ("none", "index-2", "wrong-rank", "outside-gamma", "extra-cell", "drop-face")


@st.composite
def lattice_supports(draw):
    """(points, polytope): the lattice points of a random polygon or segment."""
    if draw(st.booleans()):
        ends = draw(st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True))
        points = [(x,) for x in range(min(ends), max(ends) + 1)]
        return points, convex_hull(points)
    corners = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=3, max_size=5))
    polygon = convex_hull(corners)
    assume(polygon.dim == 2)
    points = [(x, y) for x in range(3) for y in range(3) if polygon.contains_point((x, y))]
    return points, polygon


@st.composite
def mutated_subdivisions(draw):
    """(mutation, complex): a completed regular subdivision, maybe broken once."""
    mutation = draw(st.sampled_from(MUTATIONS))
    points, polytope = draw(lattice_supports())
    rank = polytope.ambient_rank
    gamma = GAMMAS[rank][1 if mutation == "outside-gamma" else draw(st.integers(0, 1))]
    heights = draw(st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)))
    wrapped = [
        Cell(f"c{i}", p, gamma.intersect_subspace(cone_over(p).rays))
        for i, p in enumerate(regular_subdivision(polytope, points, heights))
    ]
    base = SSVComplex(rank, gamma, wrapped, [c.id for c in wrapped])
    cells = list(complete_faces(base).sorted_cells())
    if mutation == "drop-face":
        faces = [c for c in cells if c.id not in base.maximal_ids]
        cells.remove(draw(st.sampled_from(faces)))
    elif mutation == "extra-cell":
        # the whole support holds every cell, and a point set may cut across cells
        corners = st.lists(st.sampled_from(points), min_size=1, max_size=3, unique=True)
        extra = convex_hull(draw(st.just(points) | corners))
        cells.append(Cell("extra", extra, gamma.intersect_subspace(cone_over(extra).rays)))
    elif mutation != "none":
        if mutation == "outside-gamma":
            i = draw(st.sampled_from([i for i, c in enumerate(cells) if c.polytope.dim > 0]))
        else:
            i = draw(st.integers(0, len(cells) - 1))
        cell = cells[i]
        rows = list(cell.weight_group.basis)
        if mutation == "index-2":
            rows[-1] = tuple(2 * x for x in rows[-1])
        elif mutation == "wrong-rank":
            del rows[draw(st.sampled_from([0, -1]))]
        else:
            rows = Lattice.standard(rank + 1).intersect_subspace(cell.cone().rays).basis
        cells[i] = Cell(cell.id, cell.polytope, Lattice(rank + 1, rows))
    return mutation, SSVComplex(rank, gamma, cells, base.maximal_ids)


def _report(report):
    checks = tuple((c.name, c.passed, c.witness) for c in report.checks)
    return checks, report.moment_set_convex, report.cohen_macaulay


def test_validation_matches_oracle():
    failed = set()

    @EXAMPLES
    @given(mutated_subdivisions())
    def check(case):
        _, complex_ = case
        report = _report(validate_complex(complex_))
        assert report == _report(oracle.validate_complex(complex_))
        failed.update(name for name, passed, _ in report[0] if not passed)

    check()
    # every check failed somewhere, so both loops that validation skips when
    # earlier checks pass were run and compared
    assert failed == {
        "cell-spans",
        "pairwise-intersections",
        "containment-is-face",
        "weight-groups-direct-summands",
        "face-restrictions-agree",
    }


SHORTCUT_CASES = (
    "none",
    "drop-face",
    "not-maximal",
    "second-cell",
    "non-face-maximal",
    "overlapping-maximal",
    "vertex-only",
    "lower-dimensional",
)


def _completed(gamma, rank, polytopes, extra=()):
    """Cells c0, c1, ... on the polytopes, all maximal, with their faces added."""
    wrapped = [
        Cell(f"c{i}", p, gamma.intersect_subspace(cone_over(p).rays))
        for i, p in enumerate(list(polytopes) + list(extra))
    ]
    base = SSVComplex(rank, gamma, wrapped, [c.id for c in wrapped])
    return list(complete_faces(base).sorted_cells()), list(base.maximal_ids)


@st.composite
def shortcut_cases(draw):
    """(case, complex): completed regular subdivisions, whole or broken once.

    The breaks are the ones the shortcut's precondition must catch or keep
    exact under: a missing face, a maximal cell left out of the list, a
    second cell on a face's polytope, a non-face cell listed as maximal and
    a maximal cell overlapping the others.  Whole cases include maximal
    cells meeting only at a vertex and a support of lower dimension.
    """
    case = draw(st.sampled_from(SHORTCUT_CASES))

    def heights(n):
        return draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))

    if case == "lower-dimensional":
        rank, (dx, dy) = 2, draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, 2), (2, -1)]))
        points = [(x * dx, x * dy + 1) for x in range(draw(st.integers(2, 5)))]
        polytope = convex_hull(points)
    else:
        points, polytope = draw(lattice_supports())
        rank = polytope.ambient_rank
    gamma = GAMMAS[rank][draw(st.integers(0, 1))]
    polytopes = regular_subdivision(polytope, points, heights(len(points)))
    if case == "vertex-only":
        # the support and its mirror image through one of its vertices meet there only
        v = draw(st.sampled_from(polytope.vertices))
        mirror = [tuple(2 * a - b for a, b in zip(v, p)) for p in points]
        polytopes += regular_subdivision(convex_hull(mirror), mirror, heights(len(mirror)))
    extra = ()
    if case == "overlapping-maximal":
        shift = draw(st.sampled_from([(1,) * rank, (1,) + (0,) * (rank - 1), (0,) * (rank - 1) + (1,)]))
        moved = draw(st.sampled_from(polytopes))
        extra = (convex_hull([tuple(a + b for a, b in zip(v, shift)) for v in moved.vertices]),)
    cells, maximal = _completed(gamma, rank, polytopes, extra)
    faces = [c for c in cells if c.id not in maximal]
    if case == "drop-face" and faces:
        cells.remove(draw(st.sampled_from(faces)))
    elif case == "not-maximal":
        maximal.remove(draw(st.sampled_from(maximal)))
    elif case == "second-cell" and faces:
        face = draw(st.sampled_from(faces))
        cells.append(Cell("copy", face.polytope, face.weight_group))
    elif case == "non-face-maximal":
        # a segment between two of the points that is no cell, often across cells
        stored = {c.polytope for c in cells}
        segments = [convex_hull(pair) for pair in itertools.combinations(points, 2)]
        segments = [q for q in segments if q not in stored]
        if segments:
            extra = draw(st.sampled_from(segments))
            cells.append(Cell("extra", extra, gamma.intersect_subspace(cone_over(extra).rays)))
            maximal.append("extra")
    return case, SSVComplex(rank, gamma, cells, maximal)


def test_validation_shortcut_matches_oracle(monkeypatch):
    # the common-vertex shortcut and the pairwise fallback both run, on
    # whole and broken complexes, and both give the oracle's report
    meets = complexes._meets
    paths = []

    def recording(*args):
        meet = meets(*args)
        paths.append(meet.__name__)
        return meet

    monkeypatch.setattr(complexes, "_meets", recording)
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(shortcut_cases())
    def check(case):
        _, complex_ = case
        report = _report(validate_complex(complex_))
        assert report == _report(oracle.validate_complex(complex_))
        name, _, witness = report[0][1]
        assert name == "pairwise-intersections"
        seen.add((paths[-1], witness.split(" ")[-1]))

    check()
    # last words of the witnesses: "... share a polytope", "... is not a cell"
    # and "... not in a common face"
    assert seen >= {
        ("common", ""), ("common", "polytope"), ("common", "cell"), ("meet", ""), ("meet", "face")
    }
