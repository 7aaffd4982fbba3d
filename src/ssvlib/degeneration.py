"""One-parameter degenerations driven by piecewise-linear heights.

A height function is a lower-convex, positively homogeneous PL function on a
pointed cone, given either by linear pieces on subcones or by lifting
heights at finitely many points of the degree-one slice.  It encodes a
degeneration: the graph cone is the weight cone of the total space, the
special fiber is reduced iff the function is integral on the weight monoid,
and the induced regular subdivision is the special fiber's cell complex.
``complexes`` is imported inside ``_fiber_complex``, the one function here
that builds a complex, so the matroid search, which needs regular
subdivisions alone, never loads it.
"""

from fractions import Fraction
from math import gcd

from .errors import DegenerateLiftError, DomainError, Frozen, NotReducedError, Record
from .linalg import clear_denominators, primitive, solve_rational, vec_dot
from .polyhedral import (
    _closure,
    _dual,
    _generators,
    AffineMonoid,
    Cone,
    cone_from_halfspaces,
    cone_over,
    convex_hull,
    hilbert_basis,
)


class HeightPiece(Record):
    __slots__ = ("domain", "functional")  # rational functional; value(x) = functional . x

    def value(self, point):
        return vec_dot(self.functional, point)


class HeightFunction(Frozen):
    """Lower-convex piecewise-linear function on a union of cones."""

    __slots__ = ("ambient_rank", "pieces")

    def __init__(self, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("need at least one piece")
        rank = pieces[0].domain.ambient_rank
        for p in pieces:
            if p.domain.ambient_rank != rank or len(p.functional) != rank:
                raise ValueError("inconsistent piece dimensions")
        object.__setattr__(self, "ambient_rank", rank)
        object.__setattr__(self, "pieces", pieces)
        self._check_consistency()

    def _check_consistency(self):
        """Pieces agree on overlaps and dominate each other on own domains."""
        for i, a in enumerate(self.pieces):
            for j, b in enumerate(self.pieces):
                if i == j:
                    continue
                for r in a.domain.rays:
                    if b.domain.contains(r) and a.value(r) != b.value(r):
                        raise DomainError(
                            f"pieces {i} and {j} disagree at {r}"
                        )
                    if a.value(r) < b.value(r):
                        raise DomainError(
                            f"pieces are not lower convex at {r}"
                        )

    @classmethod
    def from_pieces(cls, pieces):
        return cls(
            HeightPiece(domain, tuple(Fraction(x) for x in functional))
            for domain, functional in pieces
        )

    @classmethod
    def from_lifted(cls, points, heights):
        """The lower-hull function of lifted slice points, homogenized.

        ``points`` live in R^r; the function lives on the cone over their
        hull in R^(1+r), with value height_i at (1, point_i) for lifted
        points on the lower hull.
        """
        points = [tuple(Fraction(x) for x in p) for p in points]
        heights = [Fraction(h) for h in heights]
        if len(points) != len(heights):
            raise ValueError("points and heights must have equal lengths")
        hull = convex_hull(points)
        cells = regular_subdivision(hull, points, heights)
        value_at = dict(zip(points, heights))
        pieces = []
        for cell in cells:
            rows = []
            rhs = []
            for v in cell.vertices:
                rows.append((Fraction(1),) + v)
                rhs.append(value_at[v])
            functional = _affine_functional(rows, rhs, hull.ambient_rank + 1)
            pieces.append(HeightPiece(cone_over(cell), functional))
        return cls(pieces)

    def value(self, point):
        for p in self.pieces:
            if p.domain.contains(point):
                return p.value(point)
        raise DomainError(f"point {tuple(point)} is outside every piece")

    def covers(self, point):
        return any(p.domain.contains(point) for p in self.pieces)

    def scaled(self, factor):
        factor = Fraction(factor)
        return HeightFunction(
            HeightPiece(p.domain, tuple(factor * x for x in p.functional))
            for p in self.pieces
        )


def _affine_functional(rows, rhs, width):
    """Solve rows . f = rhs for a homogeneous functional of given width."""
    sol = solve_rational(rows, rhs)
    if sol is None:
        raise DegenerateLiftError("cell values do not lie on a hyperplane")
    return tuple(sol[:width])


def _check_coverage(cone, height):
    """DomainError unless the pieces cover the cone.

    On each region of the cone where a fixed piece functional realizes the
    global max, all generators must lie in a single piece domain with
    matching values; the regions tile the cone, and the piece domains are
    convex cones on which the pieces are linear, so this certifies coverage
    exactly, whichever generators of a region are read.
    """
    for pj in height.pieces:
        normals = list(cone.inequalities)
        for pi in height.pieces:
            diff = tuple(a - b for a, b in zip(pj.functional, pi.functional))
            if any(x != 0 for x in diff):
                normals.append(primitive(diff))
        region = _generators(cone.ambient_rank, normals, cone.equations)
        if region and not any(
            all(pi.domain.contains(r) and pi.value(r) == pj.value(r) for r in region)
            for pi in height.pieces
        ):
            raise DomainError("height pieces do not cover the cone")


def graph_cone(cone, height):
    """The cone {(t, x) : x in C, h(x) <= t} in one dimension more.

    Since the height is lower convex, it is the maximum of its piece
    functionals, so the epigraph is cut out by the lifted constraints.
    """
    if height.ambient_rank != cone.ambient_rank:
        raise ValueError("height and cone dimensions differ")
    _check_coverage(cone, height)
    d = cone.ambient_rank
    normals = [(0,) + tuple(n) for n in cone.inequalities]
    equations = [(0,) + tuple(n) for n in cone.equations]
    for p in height.pieces:
        normals.append(primitive((Fraction(1),) + tuple(-x for x in p.functional)))
    return cone_from_halfspaces(d + 1, normals, equations)


def _piece_monoid_bases(height, monoid):
    """Hilbert bases of the monoid pieces, with their height values."""
    mcone = monoid.cone()
    if not mcone.rays:
        return
    for piece in height.pieces:
        overlap = piece.domain.intersect(mcone)
        if not overlap.rays:
            continue
        for b in hilbert_basis(overlap, monoid.ambient):
            yield b, piece.value(b)


def _integrality(height, monoid):
    """(reduced, witness, exponent) from one pass over the piece Hilbert bases.

    The height is linear on each piece, so its values at the Hilbert basis of
    each piece of the monoid decide integrality: the witness is the first
    non-integral one, the exponent the least N making all of them integral.
    """
    mcone = monoid.cone()
    if mcone.rays:
        _check_coverage(mcone, height)
    witness = None
    n = 1
    for b, v in _piece_monoid_bases(height, monoid):
        den = Fraction(v).denominator
        if den != 1 and witness is None:
            witness = b
        n = n * den // gcd(n, den)
    return witness is None, witness, n


def special_fiber_reduced(height, monoid):
    """(flag, witness): integrality of the height on the whole monoid."""
    return _integrality(height, monoid)[:2]


def base_change_exponent(height, monoid):
    """Least N with N * height integral on the monoid."""
    return _integrality(height, monoid)[2]


def _configuration(polytope, points):
    """(points, rows, cells by vertex mask): checked lift points, kept on the polytope.

    Made once per points tuple, after the entry checks pass: the shared
    Fraction points, their integer rows (d, d p) with d the least common
    denominator of p, and the table of cells by vertex bitmask.
    """
    key = ("config", tuple(map(tuple, points)))
    config = (polytope._shared or {}).get(key)
    if config is not None:
        return config
    # one Fraction per coordinate value, shared by the points and their cells
    rational = {x: Fraction(x) for p in points for x in p}
    pts = [tuple(rational[x] for x in p) for p in points]
    if len(set(pts)) != len(pts):
        raise DegenerateLiftError("duplicate lift points")
    for p in pts:
        if not polytope.contains_point(p):
            raise DegenerateLiftError(f"lift point {p} is outside the polytope")
    # the points lie in the polytope: their hull is it iff they include its vertices
    if not set(polytope.vertices) <= set(pts):
        raise DegenerateLiftError("lift points must span the polytope")
    if polytope._shared is None:
        object.__setattr__(polytope, "_shared", {})
    shared = polytope._shared
    pts = [shared.setdefault(p, p) for p in pts]
    shared[key] = (pts, [clear_denominators((1,) + p) for p in pts], {})
    return shared[key]


def _lift(row, h):
    """``clear_denominators((1,) + p + (h,))`` from the row (d, d p) of p."""
    d, b = row[0], h.denominator
    m = b // gcd(d, b)  # lcm(d, b) / d
    return (row if m == 1 else tuple(x * m for x in row)) + (h.numerator * (d * m // b),)


def regular_subdivision(polytope, points, heights):
    """Cells of the regular subdivision induced by lifted heights.

    Cells are the projections of the lower-hull facets of the lifted point
    set (equivalently the linearity domains of the lower envelope); all
    heights affinely dependent yields the trivial subdivision.  The lower
    facets are the facets of the cone over the lifted points (1, p, h) whose
    inward normal points up; heights affine on the points add a linear form
    vanishing on that cone to the equations of the polytope.  The polytope
    keeps the points and cells of its subdivisions by value, for later ones
    to share, and under the key ("config", points) the configuration of the
    points, made once their entry checks (duplicates, containment, spanning)
    pass: a lift is a point's integer row (d, d p) extended by d h, both
    scaled to clear the denominator of h, and each cell is kept by the
    bitmask of its vertices among the points, those on a lower facet that
    span extreme rays of the lifted cone.  A cell is the hull of its
    vertices, so each cell is hulled once, whatever non-vertex points its
    facet carries.
    """
    hts = [Fraction(h) for h in heights]
    if len(points) != len(hts):
        raise ValueError("points and heights must have equal lengths")
    pts, rows, by_vertices = _configuration(polytope, points)
    facets, kernel = _dual([_lift(r, h) for r, h in zip(rows, hts)], polytope.ambient_rank + 2)
    if len(kernel) > len(polytope.equations):
        return [polytope]
    # a point is a cell vertex iff it spans an extreme ray of the lifted cone
    count, masks = len(pts), [mask for _, mask in facets]
    extreme = sum(1 << i for i in range(count) if _closure(1 << i, masks, count) == 1 << i)
    cells = []
    for n, mask in facets:
        if n[-1] > 0:
            key = mask & extreme
            if key not in by_vertices:
                hull = convex_hull([p for i, p in enumerate(pts) if key >> i & 1])
                by_vertices[key] = polytope._shared.setdefault(hull.vertices, hull)
            cells.append(by_vertices[key])
    cells.sort(key=lambda p: (p.dim, p.vertices))
    return cells


def subdivision_cell(polytope, vertices):
    """The polytope's stored subdivision cell on these sorted vertices, else their hull."""
    return (polytope._shared or {}).get(vertices) or convex_hull(vertices)


def special_fiber_complex(gamma, polytope, points, heights):
    """The cell complex of the special fiber of a standard degeneration.

    Requires the special fiber to be reduced (base-change first otherwise).
    Maximal cells are the regular-subdivision cells; faces are completed
    with saturated weight groups, so the result passes validation.
    """
    height = HeightFunction.from_lifted(points, heights)
    monoid = AffineMonoid(gamma, hilbert_basis(cone_over(polytope), gamma))
    reduced, witness, _ = _integrality(height, monoid)
    if not reduced:
        raise NotReducedError(
            f"special fiber is non-reduced at weight {witness}", witness
        )
    return _fiber_complex(gamma, regular_subdivision(polytope, points, heights))


def _fiber_complex(gamma, cells):
    """The completed complex on regular-subdivision cells, saturated groups."""
    from .complexes import Cell, SSVComplex, complete_faces

    wrapped = [
        Cell(f"c{i}", cell, gamma.intersect_subspace([(1,) + v for v in cell.vertices]))
        for i, cell in enumerate(cells)
    ]
    base = SSVComplex(cells[0].ambient_rank, gamma, wrapped, [c.id for c in wrapped])
    return complete_faces(base, full=True)
