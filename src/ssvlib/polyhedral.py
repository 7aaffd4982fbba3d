"""Exact rational convex geometry at desk scale.

Polytopes and cones carry both a vertex/ray and a halfspace description.
Every conversion between the two runs through one kernel,
``_supporting_normals``: given integer vectors spanning Q^k, it returns, by
double description, the primitive normals n with n.v >= 0 on every vector
and n.v == 0 on k - 1 independent ones.  These are the facet normals of the
cone the vectors generate and, by cone duality, the extreme rays of the cone
they cut out as inequalities.  One set of cone routines on integer vectors
sits between the kernel and every caller:

- ``_dual`` restricts generators to the pivot columns of their fraction-free
  echelon form, runs the kernel there and returns the facets (normal and
  bitmask of the generators on it) with the linear forms vanishing on them;
- ``_pointed_rays`` gives the extreme rays of the cone cut out by
  inequalities and equations, none when that cone holds a line;
- ``_generators`` splits off the lines of such a cone one at a time and adds
  the extreme rays of what is left.

A hull is the cone over its homogenized points (1, p): the facets of that
cone are the facets of the polytope, a point is a vertex exactly when the
facets through it meet in it alone (extreme rays of a pointed cone
likewise), and a point x lies in the hull exactly when the cone holds
(1, x); ``matroid``'s thin cells are full by a proof, with no such test.  The
points (1, v) span the rows of the (1, p) and so share their pivot frame,
where primitive normals and kernel lines are unique; hence ``cone_over``
reads the cone off the polytope's facets and equations, and a face is read
off its parent's facet incidences (``Polytope.face_polytope``), with no
hull.  The vertices of {n.x >= c} are the rays (s, s v), s > 0, of the
cone -c s + n.x >= 0, s >= 0, so a pairwise intersection, which joins the
rows of two such cones, is a vertex set read off the rays, with no hull.
``degeneration.regular_subdivision`` reads its cells off the lower facets of
the cone over the lifted points (1, p, h).
"""

import itertools
import math
from fractions import Fraction

from .errors import DimensionError, Frozen, NotPointedError, Record
from .lattice import Lattice, hermite_basis
from .linalg import (
    canonical_direction,
    clear_denominators,
    integer_rref,
    mat_identity,
    mat_rank,
    primitive,
    rref_nullspace,
    solve_rational,
    vec_dot,
    vec_sub,
)

DIMENSION_CAP = 6


def _kernel_line(rows):
    """Primitive kernel line of a (k - 1) x k integer matrix; None if rank < k - 1."""
    reduced, pivots = integer_rref(rows)
    if len(pivots) != len(rows[0]) - 1:
        return None
    return primitive(rref_nullspace(reduced, pivots, len(rows[0]))[0])


def _closure(mask, tight_sets, count):
    """The meet of the facet tight sets containing ``mask``.

    Sets are bitmasks over ``count`` distinct points (or primitive rays of a
    cone), and the meet of none is all of them.  Each face is the meet of the
    facets containing it, so a set is a face exactly when it is its closure:
    {i} for a vertex (an extreme ray), the empty set for a pointed cone.
    """
    meet = (1 << count) - 1
    for t in tight_sets:
        if t & mask == mask:
            meet &= t
    return meet


def _supporting_normals(vectors, k):
    """Primitive normals of the hyperplanes supporting integer vectors in Z^k.

    A normal n is kept when n.v >= 0 for every vector, n.v > 0 for some, and
    n is the kernel line of k - 1 of the vectors.  For vectors spanning Q^k
    these are the facet normals of the cone they generate, and equally the
    extreme rays of the cone {x : v.x >= 0 for every vector v}; for vectors
    that do not span there are none.

    Double description (Fukuda & Prodon 1996): k independent vectors cut out
    a simplicial cone whose rays are the signed kernel lines of each k - 1
    of them.  Each further vector v keeps the rays r with v.r >= 0 and adds
    (v.p) n - (v.n) p for each adjacent pair with v.p > 0 > v.n; two rays
    are adjacent when no third ray is tight on every vector both are.
    """
    vectors = sorted({tuple(v) for v in vectors if any(x != 0 for x in v)})
    _, basis = integer_rref(list(zip(*vectors)))  # the first independent vectors
    if len(basis) < k:
        return set()
    rays = {}
    for j in basis:
        line = _kernel_line([vectors[i] for i in basis if i != j]) if k > 1 else (1,)
        if vec_dot(line, vectors[j]) < 0:
            line = tuple(-x for x in line)
        rays[line] = sum(1 << i for i in basis if i != j)
    for i, v in enumerate(vectors):
        if i in basis:
            continue
        kept, above, below = {}, [], []
        for r, tight in rays.items():
            val = vec_dot(v, r)
            if val > 0:
                kept[r] = tight
                above.append((r, tight, val))
            elif val < 0:
                below.append((r, tight, val))
            else:
                kept[r] = tight | 1 << i
        for p, tp, vp in above:
            for n, tn, vn in below:
                common = tp & tn
                if common.bit_count() >= k - 2 and (
                    sum(1 for t in rays.values() if t & common == common) == 2
                ):
                    w = primitive(tuple(vp * b - vn * a for a, b in zip(p, n)))
                    kept[w] = common | 1 << i
        rays = kept
    return set(rays)


def _dual(rows, width):
    """Facets and kernel of the cone generated by nonzero integer rows in Z^width.

    The rows are restricted to the pivot columns of their ``integer_rref``,
    where they span.  Each facet comes back as (normal, mask): the kernel's
    normal scattered to Z^width, and the bitmask of the rows on it; the
    kernel holds the linear forms vanishing on every row.
    """
    reduced, pivots = integer_rref(rows)
    coords = [tuple(r[c] for c in pivots) for r in rows]
    facets = []
    for n in _supporting_normals(coords, len(pivots)):
        mask = sum(1 << i for i, t in enumerate(coords) if vec_dot(n, t) == 0)
        facets.append((_scatter(n, pivots, width), mask))
    return sorted(facets), rref_nullspace(reduced, pivots, width)


def _scatter(n, pivots, width):
    at = dict(zip(pivots, n))  # n at the pivot columns, 0 elsewhere
    return tuple(at.get(c, 0) for c in range(width))


def _pointed_rays(ambient, ineqs, eqs):
    """Extreme rays of {x in Q^ambient : e.x == 0, n.x >= 0}; none if it holds a line.

    The kernel runs on the inequalities restricted to the integer nullspace
    basis of the equations, and each ray is lifted back as the integer
    combination of that basis.
    """
    reduced, pivots = integer_rref(eqs)
    basis = rref_nullspace(reduced, pivots, ambient)
    restricted = [tuple(vec_dot(n, b) for b in basis) for n in ineqs]
    return [
        primitive(tuple(vec_dot(r, column) for column in zip(*basis)))
        for r in _supporting_normals(restricted, len(basis))
    ]


def _generators(ambient, ineqs, eqs):
    """Generators of {x : e.x == 0, n.x >= 0}: both signs of its lines, then rays.

    Each pass splits off one primitive line of the lineality space (the first
    nullspace vector of all the constraints) by adding it as an equation; the
    cone that is left is pointed.
    """
    eqs = list(eqs)
    lines = []
    while True:
        reduced, pivots = integer_rref(list(ineqs) + eqs)
        kernel = rref_nullspace(reduced, pivots, ambient)
        if not kernel:
            return lines + _pointed_rays(ambient, ineqs, eqs)
        v = primitive(kernel[0])
        lines += [v, tuple(-x for x in v)]
        eqs.append(v)


class Polytope(Frozen):
    """A nonempty rational convex polytope with exact dual descriptions.

    ``inequalities`` are the facet-defining halfspaces (normal . x >= offset)
    and ``equations`` cut out the affine hull; together they describe the
    polytope exactly.  Vertices are exactly the extreme points; each
    inequality's vertex indices are kept as a bitmask (``facet_vertex_sets``).
    ``_shared`` holds the points and cells of regular subdivisions of the
    polytope by value, and per points tuple their checked configuration
    (``degeneration.regular_subdivision``); ``_cone`` holds ``cone_over``
    once it is asked for.
    """

    __slots__ = (
        "ambient_rank", "vertices", "inequalities", "equations", "_dim", "_facet_masks",
        "_shared", "_cone",
    )

    def __init__(self, ambient_rank, vertices, inequalities, equations, dim, facet_masks):
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "inequalities", inequalities)
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_facet_masks", facet_masks)
        object.__setattr__(self, "_shared", None)
        object.__setattr__(self, "_cone", None)

    @property
    def dim(self):
        return self._dim

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.ambient_rank == other.ambient_rank
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.vertices))

    def __repr__(self):
        return f"Polytope({self.ambient_rank}, vertices={list(self.vertices)})"

    def contains_point(self, point):
        # on the integer multiple (s, s x) of (1, x): n . x >= c iff n . sx >= c s
        s, *x = clear_denominators((1,) + tuple(point))
        return all(vec_dot(n, x) == c * s for n, c in self.equations) and all(
            vec_dot(n, x) >= c * s for n, c in self.inequalities
        )

    def relint_contains(self, point):
        s, *x = clear_denominators((1,) + tuple(point))
        return all(vec_dot(n, x) == c * s for n, c in self.equations) and all(
            vec_dot(n, x) > c * s for n, c in self.inequalities
        )

    def contains_polytope(self, other):
        return all(self.contains_point(v) for v in other.vertices)

    def facet_vertex_sets(self):
        """Vertex-index sets of the facets, in the order of ``inequalities``."""
        n = len(self.vertices)
        return [frozenset(i for i in range(n) if m >> i & 1) for m in self._facet_masks]

    def face_vertex_sets(self):
        """All nonempty faces as vertex-index sets (including the body)."""
        facet_sets = self.facet_vertex_sets()
        faces, fresh = {frozenset(range(len(self.vertices)))}, set(facet_sets)
        while fresh:
            faces |= fresh
            fresh = {h for f in fresh for g in facet_sets for h in (f & g,) if h and h not in faces}
        return faces

    def face_polytope(self, vertex_indices):
        """The face on these vertex indices, as ``convex_hull`` of its vertices
        gives it, read off this polytope's facet incidences with no hull."""
        chosen = sorted(vertex_indices)
        pts = [self.vertices[i] for i in chosen]
        rows = [clear_denominators((1,) + p) for p in pts]
        reduced, pivots = integer_rref(rows)
        kernel = rref_nullspace(reduced, pivots, len(rows[0]))
        coords = [tuple(r[c] for c in pivots) for r in rows]
        # its facets are the maximal sets G cap S, G a facet, other than {} and
        # S (Kaibel & Pfetsch 2002), here renumbered over S; each normal is a
        # kernel line in the pivot frame, signed by a vertex of S off it
        meets = {sum(1 << k for k, i in enumerate(chosen) if t >> i & 1) for t in self._facet_masks}
        meets -= {0, (1 << len(pts)) - 1}
        facets = []
        for t in meets:
            if any(t & u == t != u for u in meets):
                continue  # inside another G cap S: no facet of the face
            n = _kernel_line([c for k, c in enumerate(coords) if t >> k & 1])
            off = next(c for k, c in enumerate(coords) if not t >> k & 1)
            signed = n if vec_dot(n, off) > 0 else [-x for x in n]
            facets.append((_scatter(signed, pivots, len(rows[0])), t))
        return _polytope(self.ambient_rank, pts, facets, kernel)

    def is_face_of(self, other):
        """True iff this polytope is a face of the other one."""
        return _is_face(self.vertices, other)


class FacePoset(Record):
    """Faces of a polytope as (dimension, vertex-index frozenset) pairs.

    Ordered by containment of vertex sets; the full polytope is the unique
    maximal element and the empty face is omitted by convention.
    """

    __slots__ = ("faces",)

    def __len__(self):
        return len(self.faces)

    def counts(self):
        out = {}
        for d, _ in self.faces:
            out[d] = out.get(d, 0) + 1
        return out

    def leq(self, a, b):
        return self.faces[a][1] <= self.faces[b][1]


def convex_hull(points):
    """Both descriptions of the hull of finitely many rational points.

    A point that is a tuple of Fractions already is kept as it is, so that
    the cells of a subdivision and their faces share vertex tuples with its
    points instead of each holding copies.
    """
    if not points:
        raise ValueError("need at least one point")
    ambient = len(points[0])
    if ambient > DIMENSION_CAP:
        raise DimensionError(f"ambient rank {ambient} exceeds the cap {DIMENSION_CAP}")
    pts = sorted({p if all(type(x) is Fraction for x in p) else tuple(map(Fraction, p))
                  for p in map(tuple, points)})
    return _polytope(ambient, pts, *_dual([clear_denominators((1,) + p) for p in pts], ambient + 1))


def _polytope(ambient, pts, cone_facets, kernel):
    """The polytope on sorted distinct points from the facets (normal, mask of
    the points on it) and vanishing linear forms of the cone over them."""
    # facet (a0, a) of the cone over the points is a . x >= -a0; the cone over
    # a single point has no facet through a point
    facets = sorted(((a[1:], -a[0]), t) for a, t in cone_facets if t)
    masks = [t for _, t in facets]
    extreme = [i for i in range(len(pts)) if _closure(1 << i, masks, len(pts)) == 1 << i]
    index = {i: j for j, i in enumerate(extreme)}
    facet_masks = tuple(sum(1 << j for i, j in index.items() if t >> i & 1) for t in masks)
    normals = [canonical_direction(w[1:]) for w in kernel]
    equations = tuple(sorted((n, vec_dot(n, pts[0])) for n in normals))
    return Polytope(ambient, tuple(pts[i] for i in extreme), tuple(h for h, _ in facets),
                    equations, ambient - len(kernel), facet_masks)


def _is_face(vertices, polytope, index=None):
    """True iff the points are exactly the vertices of a face of the polytope.

    Faces are vertex-index sets closed under the facet meet: an index set is
    a face exactly when it equals the intersection of the facet vertex sets
    containing it (the empty intersection is every vertex).  ``index`` maps
    each vertex to its position, for a caller that keeps one.
    """
    if index is None:
        index = {v: i for i, v in enumerate(polytope.vertices)}
    found = [index.get(v) for v in vertices]
    if None in found:
        return False
    mine = sum(1 << i for i in found)
    return _closure(mine, polytope._facet_masks, len(index)) == mine


def _cone_vertices(width, ineqs, eqs):
    """Sorted v over the rays (s, s v), s > 0, of {e.x == 0, n.x >= 0, s >= 0}.

    The cone lives in Q^width and must be pointed; ``_pointed_rays`` returns
    extreme rays only, so each v is a vertex and no hull needs to sort them.
    """
    s_nonnegative = [(1,) + (0,) * (width - 1)]
    rays = _pointed_rays(width, list(ineqs) + s_nonnegative, list(eqs))
    return tuple(sorted(tuple(Fraction(x, s) for x in v) for s, *v in rays if s > 0))


def _halfspace_vertices(ambient, ineqs, eqs):
    """Sorted vertices of the bounded region n . x >= c, e . x == d; () if empty."""
    rows = [[clear_denominators((-c,) + tuple(n)) for n, c in part] for part in (ineqs, eqs)]
    return _cone_vertices(ambient + 1, *rows)


def from_halfspaces(ambient_rank, inequalities, equations=()):
    """Polytope cut out by the constraints, or None when empty.

    The constraint region must be bounded; every caller intersects bounded
    sets (or a bounded set with a chamber that leaves it bounded).  Its
    vertices are read off the rays of the homogenized cone
    (``_halfspace_vertices``) and hulled once for the facets.
    """
    v = _halfspace_vertices(ambient_rank, inequalities, equations)
    return convex_hull(v) if v else None


def _intersection_vertices(p, q):
    """Sorted vertices of the intersection of two polytopes; () when empty."""
    if p.ambient_rank != q.ambient_rank:
        raise ValueError("ambient ranks differ")
    a, b = cone_over(p), cone_over(q)
    return _cone_vertices(
        a.ambient_rank, a.inequalities + b.inequalities, a.equations + b.equations
    )


def intersect_polytopes(p, q):
    """Intersection polytope, or None when empty."""
    v = _intersection_vertices(p, q)
    return convex_hull(v) if v else None


def _barycenter(points):
    return tuple(sum(c, Fraction(0)) / len(points) for c in zip(*points))


def relative_interiors_meet(p, q):
    """Exact test that relint(p) and relint(q) intersect.

    The barycenter of the intersection's vertices lies in its relative
    interior, and a convex subset of a polytope that misses the relative
    interior lies inside a single facet; so testing the barycenter against
    both facet systems is exact.
    """
    inter = _intersection_vertices(p, q)
    if not inter:
        return False
    b = _barycenter(inter)
    return p.relint_contains(b) and q.relint_contains(b)


def enumerate_faces(polytope):
    """All faces of all dimensions, including the body, no empty face."""
    faces = []
    for f in polytope.face_vertex_sets():
        sub = [polytope.vertices[i] for i in sorted(f)]
        d = mat_rank([vec_sub(v, sub[0]) for v in sub[1:]]) if len(sub) > 1 else 0
        faces.append((d, f))
    faces.sort(key=lambda df: (df[0], tuple(sorted(df[1]))))
    return FacePoset(tuple(faces))


class Cone(Frozen):
    """A rational polyhedral cone with exact dual descriptions."""

    __slots__ = ("ambient_rank", "rays", "inequalities", "equations")

    def __init__(self, ambient_rank, rays, inequalities, equations):
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "inequalities", inequalities)
        object.__setattr__(self, "equations", equations)

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and self.ambient_rank == other.ambient_rank
            and self.rays == other.rays
            and self.equations == other.equations
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.rays, self.equations))

    def __repr__(self):
        return f"Cone({self.ambient_rank}, rays={list(self.rays)})"

    @property
    def dim(self):
        return self.ambient_rank - len(self.equations)

    def contains(self, point):
        return all(vec_dot(n, point) == 0 for n in self.equations) and all(
            vec_dot(n, point) >= 0 for n in self.inequalities
        )

    @property
    def is_pointed(self):
        # the lineality space is where every constraint vanishes
        rows = list(self.inequalities) + list(self.equations)
        return not self.rays or (bool(rows) and mat_rank(rows) == self.ambient_rank)

    def intersect(self, other):
        return cone_from_halfspaces(
            self.ambient_rank,
            list(self.inequalities) + list(other.inequalities),
            list(self.equations) + list(other.equations),
        )

    @classmethod
    def from_rays(cls, ambient_rank, rays):
        prim = sorted({primitive(r) for r in rays if any(x != 0 for x in r)})
        if not prim:
            return cls(ambient_rank, (), (), mat_identity(ambient_rank))
        facets, kernel = _dual(prim, ambient_rank)
        ineqs = tuple(n for n, _ in facets)
        tight = [t for _, t in facets]
        eqs = tuple(sorted(canonical_direction(w) for w in kernel))
        # pointed exactly when no generator lies on every facet: a nonzero
        # lineality space is a face, generated by the generators in it
        n = len(prim)
        if tight and not _closure(0, tight, n):
            extreme = [prim[i] for i in range(n) if _closure(1 << i, tight, n) == 1 << i]
        else:
            # canonical generators of a cone with lines, from its facets
            extreme = _generators(ambient_rank, ineqs, eqs)
        return cls(ambient_rank, tuple(sorted(extreme)), ineqs, eqs)


def cone_from_halfspaces(ambient_rank, inequality_normals, equation_normals=()):
    """Cone cut out by normal.x >= 0 constraints and equations."""
    # normalize and sort so the canonical output is construction-path free
    ineqs = sorted({primitive(n) for n in inequality_normals if any(x != 0 for x in n)})
    eqs = sorted({canonical_direction(n) for n in equation_normals if any(x != 0 for x in n)})
    return Cone.from_rays(ambient_rank, _generators(ambient_rank, ineqs, eqs))


def cone_over(polytope):
    """The cone in R^(1+r) generated by {1} x Q, with primitive rays.

    Read off the polytope once and kept on it: rays (1, v), facets (-c, n)
    for n . x >= c (s >= 0 for a point), equations (-d, n) for n . x == d.
    """
    if polytope._cone is None:
        ineqs = sorted((-c,) + n for n, c in polytope.inequalities)
        cone = Cone(
            polytope.ambient_rank + 1,
            tuple(sorted(clear_denominators((1,) + v) for v in polytope.vertices)),
            tuple(ineqs or [(1,) + (0,) * polytope.ambient_rank]),
            tuple(sorted(canonical_direction((-d,) + n) for n, d in polytope.equations)),
        )
        object.__setattr__(polytope, "_cone", cone)
    return polytope._cone


def graded_lattice_points(polytope, gamma, degree):
    """Elements of gamma with first coordinate ``degree`` over degree * Q.

    gamma lives in Z^(1+r) and the polytope in R^r.  Output is sorted
    lexicographically.
    """
    d = gamma.ambient_rank
    if polytope.ambient_rank + 1 != d:
        raise ValueError("polytope rank incompatible with the graded group")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return [tuple(0 for _ in range(d))]
    if gamma.is_zero or gamma.basis[0][0] == 0:
        return []
    # column 0 is pinned to the degree, the others to the box of degree * Q
    columns = [[Fraction(x) * degree for x in col] for col in zip(*polytope.vertices)]
    lo = [Fraction(degree)] + [min(col) for col in columns]
    hi = [Fraction(degree)] + [max(col) for col in columns]
    eqs = [(n, Fraction(c) * degree) for n, c in polytope.equations]
    ineqs = [(n, Fraction(c) * degree) for n, c in polytope.inequalities]
    out = [
        point
        for point in _hermite_box_points(gamma.basis, 0, (0,) * d, lo, hi)
        if all(vec_dot(n, point[1:]) == c for n, c in eqs)
        and all(vec_dot(n, point[1:]) >= c for n, c in ineqs)
    ]
    return sorted(out)


def _hermite_box_points(basis, i, point, lo, hi):
    """point plus the combinations of basis[i:] whose pivot coordinates lie in [lo, hi].

    basis is a row Hermite basis: its pivots are positive and increase, and
    later rows vanish at earlier pivots, so row i's coefficient fixes that
    row's pivot coordinate once the coefficients before it are chosen.
    Module level, since a self-calling closure is a reference cycle per call.
    """
    if i == len(basis):
        yield point
        return
    row = basis[i]
    p = next(c for c, x in enumerate(row) if x)
    first = math.ceil((lo[p] - point[p]) / row[p])
    last = math.floor((hi[p] - point[p]) / row[p])
    for c in range(first, last + 1):
        moved = tuple(a + c * b for a, b in zip(point, row))
        yield from _hermite_box_points(basis, i + 1, moved, lo, hi)


class AffineMonoid(Record):
    """A finitely generated submonoid of a lattice, given by generators."""

    __slots__ = ("ambient", "generators")

    def __post_init__(self):
        gens = tuple(tuple(g) for g in self.generators)
        for g in gens:
            if g not in self.ambient:
                raise ValueError(f"generator {g} is outside the ambient group")
        object.__setattr__(self, "generators", gens)

    def cone(self):
        return Cone.from_rays(self.ambient.ambient_rank, self.generators)


def _reduced_cone_data(cone, gamma):
    """Lattice of gamma on span(cone) and the cone rays in its coordinates."""
    lat = gamma.intersect_subspace(cone.rays)
    if lat.is_zero:
        return lat, []
    basis_cols = [tuple(b[i] for b in lat.basis) for i in range(lat.ambient_rank)]
    rays_red = []
    for r in cone.rays:
        sol = solve_rational(basis_cols, r)
        if sol is None:
            raise ValueError("ray outside the rational span of the lattice")
        rays_red.append(primitive(sol))
    return lat, sorted(set(rays_red))


def _simplicial_box_points(rays):
    """Lattice points of Z^k in the half-open parallelepiped of k independent rays."""
    k = len(rays)
    # the Hermite basis of the rays is upper triangular with a positive
    # diagonal, so its box 0 <= x_i < h_ii holds one point of each class of
    # Z^k modulo the ray lattice
    diagonal = [row[i] for i, row in enumerate(hermite_basis(rays, k))]
    ray_cols = [tuple(r[i] for r in rays) for i in range(k)]
    points = set()
    for rep in itertools.product(*(range(h) for h in diagonal)):
        shifted = list(rep)
        for ti, row in zip(solve_rational(ray_cols, rep), rays):
            fl = math.floor(ti)
            if fl:
                for i in range(k):
                    shifted[i] -= fl * row[i]
        points.add(tuple(shifted))
    return points


def _triangulate_rays(rays):
    """Index sets of a triangulation of a pointed full-rank ray list."""
    return _pull_triangulation(rays, list(range(len(rays))), mat_rank(rays))


def _pull_triangulation(rays, active, rank_needed):
    # cone the first active ray over each facet it is not on, recursively;
    # module level, since a self-calling closure is a reference cycle per call
    if len(active) == rank_needed:
        return [tuple(active)]
    sub = Cone.from_rays(len(rays[0]), [rays[i] for i in active])
    apex = active[0]
    out = []
    for n in sub.inequalities:
        if vec_dot(n, rays[apex]) == 0:
            continue
        wall = [i for i in active if vec_dot(n, rays[i]) == 0]
        for simplex in _pull_triangulation(rays, wall, rank_needed - 1):
            out.append(tuple([apex] + list(simplex)))
    return out


def hilbert_basis(cone, gamma=None):
    """The minimal generating set of gamma intersected with a pointed cone."""
    if gamma is None:
        gamma = Lattice.standard(cone.ambient_rank)
    if not cone.is_pointed:
        raise NotPointedError("the cone contains a line")
    if not cone.rays:
        return ()
    lat, rays_red = _reduced_cone_data(cone, gamma)
    if lat.is_zero:
        return ()
    k = lat.rank
    red_cone = Cone.from_rays(k, rays_red)
    ray_list = list(red_cone.rays)
    candidates = set()
    for simplex in _triangulate_rays(ray_list):
        gens = [ray_list[i] for i in simplex]
        candidates.update(_simplicial_box_points(gens))
        candidates.update(gens)
    candidates.discard(tuple(0 for _ in range(k)))
    candidates = sorted(candidates)
    # g is reducible when g - m lies in the cone for another candidate m
    basis = [g for g in candidates
             if not any(m != g and red_cone.contains(vec_sub(g, m)) for m in candidates)]
    return tuple(sorted(lat.member(x) for x in basis))


def monoid_membership(generators, target, cone=None):
    """True iff target is a nonnegative integer combination of generators.

    The cone spanned by the generators must be pointed; the search then
    terminates because any strictly positive functional drops along it.
    """
    gens = [tuple(g) for g in generators if any(x != 0 for x in g)]
    if all(x == 0 for x in target):
        return True
    if not gens:
        return False
    if cone is None:
        cone = Cone.from_rays(len(target), gens)
    if not cone.is_pointed:
        raise NotPointedError("membership search needs a pointed cone")
    seen = set()
    # depth first, trying the generators in the given order
    stack = [tuple(target)]
    while stack:
        rest = stack.pop()
        if all(x == 0 for x in rest):
            return True
        if rest in seen:
            continue
        seen.add(rest)
        for g in reversed(gens):
            diff = vec_sub(rest, g)
            if cone.contains(diff):
                stack.append(diff)
    return False


def is_saturated_monoid(monoid):
    """(flag, witness): flag true iff the monoid equals gamma cap its cone.

    On failure the witness is the lexicographically least Hilbert-basis
    element of the saturation missing from the monoid.
    """
    gens = [g for g in monoid.generators if any(x != 0 for x in g)]
    if not gens:
        return True, None
    cone = Cone.from_rays(monoid.ambient.ambient_rank, gens)
    if not cone.is_pointed:
        raise NotPointedError("saturation test supports pointed monoids only")
    for h in hilbert_basis(cone, monoid.ambient):
        if not monoid_membership(gens, h, cone):
            return False, h
    return True, None

