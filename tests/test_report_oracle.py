"""Cross-check of the one-pass integrality and keyed Weyl translates.

``report_oracle`` holds the earlier degeneration and admissibility code.
Random heights on the fixtures' point sets must give the same reduced flag,
witness, exponent and special fiber, also along the route `ssv degenerate`
takes (the cells of the unscaled heights wrapped directly).  Orbit hulls
are invariant under the Weyl group, so they have one translate; dominant
hulls and shifted orbit hulls have several, which runs the pairwise test.
"""

from fractions import Fraction

import pytest
import report_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ssvlib.polyhedral import AffineMonoid, convex_hull, cone_over, from_halfspaces, hilbert_basis
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
    meet = from_halfspaces(
        datum.rank,
        tuple(polytope.inequalities) + tuple(datum.chamber_inequalities()),
        polytope.equations,
    )
    if meet is None or not polytope.relint_contains(meet.barycenter()):
        return False
    return any(polytope.transformed(m) != polytope for m in datum.weyl_matrices())


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
