"""Reference integrality, special fibers and Weyl admissibility.

These are the library's earlier versions, kept unchanged as an oracle for
the single integrality pass and the keyed Weyl translates that replaced
them.  ``special_fiber_reduced`` stops at the first non-integral Hilbert
basis value, ``base_change_exponent`` walks the bases again, and each checks
coverage on its own; ``special_fiber_complex`` rebuilds the height function,
the monoid and its integrality check before wrapping the cells.
``is_w_admissible`` hulls every Weyl image of the polytope and keeps the
images not equal to one kept before.
"""

from fractions import Fraction
from math import gcd

from ssvlib.complexes import Cell, SSVComplex, complete_faces
from ssvlib.degeneration import (
    HeightFunction,
    _check_coverage,
    _piece_monoid_bases,
    regular_subdivision,
)
from ssvlib.errors import NotReducedError, RankError
from ssvlib.polyhedral import AffineMonoid, cone_over, from_halfspaces, hilbert_basis
from ssvlib.polyhedral import relative_interiors_meet
from ssvlib.rootdata import root_datum


def special_fiber_reduced(height, monoid):
    """(flag, witness): integrality of the height on the whole monoid.

    The height is linear on each piece, so integrality at the Hilbert basis
    of each piece of the monoid decides integrality everywhere; the witness
    is a monoid element with non-integral height.
    """
    _check_monoid_coverage(height, monoid)
    for b, v in _piece_monoid_bases(height, monoid):
        if Fraction(v).denominator != 1:
            return False, b
    return True, None


def _check_monoid_coverage(height, monoid):
    mcone = monoid.cone()
    if not mcone.rays:
        return
    _check_coverage(mcone, height)


def base_change_exponent(height, monoid):
    """Least N with N * height integral on the monoid."""
    _check_monoid_coverage(height, monoid)
    n = 1
    for _, v in _piece_monoid_bases(height, monoid):
        den = Fraction(v).denominator
        n = n * den // gcd(n, den)
    return n


def special_fiber_complex(gamma, polytope, points, heights):
    """The cell complex of the special fiber of a standard degeneration.

    Requires the special fiber to be reduced (base-change first otherwise).
    Maximal cells are the regular-subdivision cells; faces are completed
    with saturated weight groups, so the result passes validation.
    """
    height = HeightFunction.from_lifted(points, heights)
    monoid = AffineMonoid(gamma, hilbert_basis(cone_over(polytope), gamma))
    reduced, witness = special_fiber_reduced(height, monoid)
    if not reduced:
        raise NotReducedError(
            f"special fiber is non-reduced at weight {witness}", witness
        )
    cells = regular_subdivision(polytope, points, heights)
    rank = polytope.ambient_rank
    wrapped = []
    for i, cell in enumerate(cells):
        group = gamma.intersect_subspace([(1,) + v for v in cell.vertices])
        wrapped.append(Cell(f"c{i}", cell, group))
    base = SSVComplex(rank, gamma, wrapped, tuple(c.id for c in wrapped))
    return complete_faces(base, full=True)


def is_w_admissible(datum, polytope):
    """Admissibility of a polytope for the Weyl group action.

    True iff the relative interior meets the closed dominant chamber and the
    distinct Weyl translates have pairwise disjoint relative interiors.
    """
    if datum.rank != polytope.ambient_rank:
        raise RankError("polytope rank does not match the root datum")
    chamber = datum.chamber_inequalities()
    meet = from_halfspaces(
        datum.rank,
        tuple(polytope.inequalities) + tuple(chamber),
        polytope.equations,
    )
    if meet is None:
        return False
    # A convex subset of a polytope avoiding its relative interior lies in a
    # single facet, so the barycenter decides membership exactly.
    if not polytope.relint_contains(meet.barycenter()):
        return False
    translates = []
    for m in root_datum(datum.label).weyl_matrices():
        img = polytope.transformed(m)
        if img not in translates:
            translates.append(img)
    for a in range(len(translates)):
        for b in range(a + 1, len(translates)):
            if relative_interiors_meet(translates[a], translates[b]):
                return False
    return True
