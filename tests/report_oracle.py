"""Reference integrality, special fibers and Weyl admissibility.

These are the library's earlier versions, kept unchanged as an oracle for
the single integrality pass and the keyed Weyl translates that replaced
them.  ``special_fiber_reduced`` stops at the first non-integral Hilbert
basis value, ``base_change_exponent`` walks the bases again, and each checks
coverage on its own; ``special_fiber_complex`` rebuilds the height function,
the monoid and its integrality check before wrapping the cells.
``is_w_admissible`` hulls every Weyl image of the polytope and keeps the
images not equal to one kept before; it enumerates the group as the
matrices of ``weyl_matrices``, products of ``reflection_matrix`` ones, and
maps the polytope by ``transformed``.  ``validate_complex`` runs its
containment and face-restriction loops on every input, also when the
checks before them already imply that these pass.  Its weight groups go
through the earlier Fraction and Smith paths of ``lattice_oracle``: the span
test, direct summands and intersections with a span.

``from_halfspaces``, ``intersect_polytopes``, ``barycenter`` and
``relative_interiors_meet`` are the library's earlier versions too: each
intersection is hulled again from the rays of its homogenized cone, and
the barycenter is read off that polytope, so no check here runs the
library's pairwise vertex path (``polyhedral._halfspace_vertices``).
"""

from fractions import Fraction
from math import gcd

from lattice_oracle import intersect_subspace, is_direct_summand, span_matches_weight_group

from ssvlib.complexes import (
    Cell,
    CheckResult,
    SSVComplex,
    ValidationReport,
    complete_faces,
    moment_set_is_convex,
)
from ssvlib.degeneration import (
    HeightFunction,
    _check_coverage,
    _piece_monoid_bases,
    regular_subdivision,
)
from ssvlib.errors import ContainmentError, NotReducedError, RankError
from ssvlib.linalg import clear_denominators, mat_identity, vec_dot
from ssvlib.polyhedral import AffineMonoid, _pointed_rays, cone_over, convex_hull, hilbert_basis
from ssvlib.rootdata import root_datum


def from_halfspaces(ambient_rank, inequalities, equations=()):
    """Polytope cut out by the constraints, or None when empty.

    The constraint region must be bounded; every caller intersects bounded
    sets (or a bounded set with a chamber that leaves it bounded).  Its
    vertices v are the rays (s, s v), s > 0, of the homogenized cone
    -c s + n . x >= 0 (== 0 for equations), s >= 0.
    """

    def homogenized(constraints):
        return [clear_denominators((-Fraction(c),) + tuple(n)) for n, c in constraints]

    s_nonnegative = (1,) + (0,) * ambient_rank
    rays = _pointed_rays(
        ambient_rank + 1,
        homogenized(inequalities) + [s_nonnegative],
        homogenized(equations),
    )
    vertices = [tuple(Fraction(x, s) for x in v) for s, *v in rays if s > 0]
    return convex_hull(vertices) if vertices else None


def intersect_polytopes(p, q):
    """Intersection polytope, or None when empty."""
    if p.ambient_rank != q.ambient_rank:
        raise ValueError("ambient ranks differ")
    return from_halfspaces(
        p.ambient_rank,
        tuple(p.inequalities) + tuple(q.inequalities),
        tuple(p.equations) + tuple(q.equations),
    )


def barycenter(polytope):
    k = len(polytope.vertices)
    return tuple(
        sum(Fraction(v[i]) for v in polytope.vertices) / k
        for i in range(polytope.ambient_rank)
    )


def relative_interiors_meet(p, q):
    """Exact test that relint(p) and relint(q) intersect.

    The barycenter of the intersection lies in its relative interior, and a
    convex subset of a polytope that misses the relative interior lies inside
    a single facet; so testing the barycenter against both facet systems is
    exact.
    """
    inter = intersect_polytopes(p, q)
    if inter is None:
        return False
    b = barycenter(inter)
    return p.relint_contains(b) and q.relint_contains(b)


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
        group = intersect_subspace(gamma, [(1,) + v for v in cell.vertices])
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
    if not polytope.relint_contains(barycenter(meet)):
        return False
    translates = []
    for m in weyl_matrices(root_datum(datum.label)):
        img = transformed(polytope, m)
        if img not in translates:
            translates.append(img)
    for a in range(len(translates)):
        for b in range(a + 1, len(translates)):
            if relative_interiors_meet(translates[a], translates[b]):
                return False
    return True


def reflection_matrix(datum, i):
    n = datum.rank
    ai = datum.simple_root(i)
    return tuple(
        tuple((1 if k == j else 0) - (ai[k] if j == i else 0) for j in range(n))
        for k in range(n)
    )


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def weyl_matrices(datum):
    """All Weyl group elements as matrices acting on weight coordinates."""
    n = datum.rank
    gens = [reflection_matrix(datum, i) for i in range(n)]
    seen = {mat_identity(n)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(g, m)
                if prod not in seen:
                    seen.add(prod)
                    fresh.append(prod)
        frontier = fresh
    return sorted(seen)


def transformed(polytope, matrix):
    """Image under an invertible linear map given by rows."""
    return convex_hull(
        [tuple(vec_dot(row, v) for row in matrix) for v in polytope.vertices]
    )


def validate_complex(complex_):
    """Structural validation; failures carry concrete witnesses.

    Checks: cell spans match weight groups; pairwise polytope intersections
    are common faces and stored cells; containment agrees with the face
    relation; weight groups are direct summands of the ambient group and
    restrict consistently to common faces.  The convexity flag decides the
    Cohen-Macaulay flag.
    """
    checks = []
    cells = complex_.sorted_cells()

    span_witness = ""
    for c in cells:
        if not span_matches_weight_group(c):
            span_witness = f"cell {c.id}"
            break
    checks.append(CheckResult("cell-spans", span_witness == "", span_witness))

    inter_witness = ""
    face_groups = {}
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            a, b = cells[i], cells[j]
            if a.polytope == b.polytope:
                inter_witness = f"cells {a.id},{b.id} share a polytope"
                break
            inter = intersect_polytopes(a.polytope, b.polytope)
            if inter is None:
                continue
            if not (inter.is_face_of(a.polytope) and inter.is_face_of(b.polytope)):
                inter_witness = (
                    f"cells {a.id},{b.id} intersect but not in a common face"
                )
                break
            stored = complex_.cell_with_polytope(inter)
            if stored is None:
                inter_witness = f"intersection of {a.id},{b.id} is not a cell"
                break
            face_groups.setdefault(stored.id, []).append((a, b, inter))
        if inter_witness:
            break
    checks.append(
        CheckResult("pairwise-intersections", inter_witness == "", inter_witness)
    )

    order_witness = ""
    for a in cells:
        for b in cells:
            if a.id == b.id:
                continue
            if b.polytope.contains_polytope(a.polytope):
                if not a.polytope.is_face_of(b.polytope):
                    order_witness = f"{a.id} inside {b.id} but not a face"
                    break
        if order_witness:
            break
    checks.append(CheckResult("containment-is-face", order_witness == "", order_witness))

    summand_witness = ""
    for c in cells:
        try:
            if not is_direct_summand(c.weight_group, complex_.gamma):
                summand_witness = f"cell {c.id} weight group has torsion quotient"
                break
        except ContainmentError:
            summand_witness = f"cell {c.id} weight group is not inside gamma"
            break
    checks.append(
        CheckResult("weight-groups-direct-summands", summand_witness == "", summand_witness)
    )

    restrict_witness = ""
    if not inter_witness:
        for face_id, pairs in sorted(face_groups.items()):
            face_cell = complex_.cell(face_id)
            rays = face_cell.cone().rays
            expected = face_cell.weight_group
            for a, b, _inter in pairs:
                ra = intersect_subspace(a.weight_group, rays)
                rb = intersect_subspace(b.weight_group, rays)
                if ra != rb or ra != expected:
                    restrict_witness = (
                        f"cells {a.id},{b.id} restrict differently on face {face_id}"
                    )
                    break
            if restrict_witness:
                break
    checks.append(
        CheckResult("face-restrictions-agree", restrict_witness == "", restrict_witness)
    )

    convex = moment_set_is_convex(complex_)
    return ValidationReport(tuple(checks), convex, convex)
