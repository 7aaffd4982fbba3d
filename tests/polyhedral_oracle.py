"""Reference V<->H conversions: the brute-force supporting-hyperplane searches.

These are the library's earlier conversions, one C(n, k) search per
direction, kept unchanged as an independent oracle for the single
``_supporting_normals`` kernel that replaced them.  Each search solves a
rational nullspace or linear system per subset, so only small inputs are
practical.  ``supporting_normals`` is that kernel's own earlier exhaustive
search over (k - 1)-subsets, the oracle for its double description, and
``_AffineFrame`` the earlier rational reduced-row-echelon frame.  The
elimination here is the earlier Fraction Gaussian elimination, and volumes
take sympy's exact determinant, both independent of the library's
fraction-free ``integer_rref``.

``cone_over`` is the library's earlier version, which hulls the points
(1, v) again with ``Cone.from_rays`` instead of reading the cone off the
polytope.

``graded_lattice_points`` (with ``_left_inverse``) and
``_simplicial_box_points`` are the library's earlier lattice-point
enumerators: the first bounds the coefficients of a kernel basis of the
degree map, found with Smith forms, through a Gram-matrix pseudo-inverse;
the second takes coset representatives from the Smith form of the rays.
Here their rational solves run on this module's ``solve_rational``; the
Smith-form kernels, solutions and inverses of this module come from
``lattice_oracle``, not from the library.

``regular_subdivision`` and ``moment_set_is_convex`` are the library's
earlier versions, which map every point into frame coordinates: the first
hulls the lifted frame coordinates and reads the lower facets off that hull,
the second measures each cell's volume in the frame of the union's hull.
Here both run on this module's ``convex_hull`` and ``_AffineFrame`` (whose
``coords`` and ``dim`` are those of the library's later integer frame).

``face_polytope`` is the library's earlier ``Polytope.face_polytope``, which
hulled the face's vertices with the library's ``convex_hull`` instead of
reading the face off its parent's facet incidences.

``_intersection_vertices`` and ``_is_face`` are validation's earlier pair
path, which intersected every pair of cells by double description and
rebuilt the vertex index of a polytope for each face test; they are the
oracle for the certificates that now settle most pairs first.  Here the
intersection joins the cones of this module's ``cone_over``, and reads the
vertices off the rays with the library's ``_cone_vertices``.
"""

import itertools
import math
from fractions import Fraction
from math import gcd

from lattice_oracle import integer_kernel, mat_inverse_unimodular, solve_integer
from sympy import Matrix
from ssvlib.errors import DegenerateLiftError, DimensionError
from ssvlib.lattice import smith_normal_form
from ssvlib.linalg import (
    canonical_direction,
    clear_denominators,
    primitive,
    vec_dot,
    vec_sub,
)
from ssvlib.polyhedral import DIMENSION_CAP, Cone, Polytope, _closure, _cone_vertices
from ssvlib.polyhedral import convex_hull as library_hull


def mat_rank(m):
    if not m:
        return 0
    rows = [list(map(Fraction, row)) for row in m]
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c] * inv
                for k in range(c, ncols):
                    rows[r][k] -= f * rows[rank][k]
        rank += 1
        if rank == len(rows):
            break
    return rank


def rational_rref(m):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(map(Fraction, row)) for row in m]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(c)
        rank += 1
    return [tuple(row) for row in rows[:rank]], pivots


def rational_nullspace(m):
    """Basis of the right nullspace {x : m x = 0} over the rationals."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = rational_rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(tuple(vec))
    return basis


def solve_rational(m, b):
    """One solution of m x = b over the rationals, or None."""
    if not m:
        return () if all(x == 0 for x in b) else None
    ncols = len(m[0])
    aug = [list(map(Fraction, row)) + [Fraction(bi)] for row, bi in zip(m, b)]
    rows, pivots = rational_rref(aug)
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        sol[pc] = rows[r][ncols]
    return tuple(sol)


def _nullspace(rows, ncols):
    if not rows:
        return [
            tuple(Fraction(1 if i == j else 0) for j in range(ncols))
            for i in range(ncols)
        ]
    return rational_nullspace(rows)


def supporting_normals(vectors, k):
    """Primitive normals of the hyperplanes supporting integer vectors in Z^k.

    A normal n is kept when n.v >= 0 for every vector, n.v > 0 for some, and
    n is the kernel line of k - 1 of the vectors.  For vectors spanning Q^k
    these are the facet normals of the cone they generate, and equally the
    extreme rays of the cone {x : v.x >= 0 for every vector v}.
    """
    vectors = set(vectors)
    normals = set()
    for combo in itertools.combinations(vectors, k - 1):
        if k == 1:
            line = (1,)
        else:
            kernel = integer_kernel(combo)
            if len(kernel) != 1:
                continue
            line = kernel[0]
        above = below = False
        for v in vectors:
            val = vec_dot(line, v)
            if val > 0:
                above = True
            elif val < 0:
                below = True
            if above and below:
                break
        if above != below:
            normals.add(line if above else tuple(-x for x in line))
    return normals


def _norm_constraint(normal, offset):
    """Canonical integer form of normal . x >= offset (or == offset)."""
    vec = clear_denominators(tuple(normal) + (offset,))
    g = 0
    for a in vec:
        g = gcd(g, abs(a))
    if g > 1:
        vec = tuple(a // g for a in vec)
    return vec[:-1], vec[-1]


class _AffineFrame:
    """Exact coordinates on the affine hull of a point set."""

    def __init__(self, points):
        self.base = points[0]
        diffs = [vec_sub(p, self.base) for p in points[1:]]
        rows, pivots = rational_rref(diffs) if diffs else ([], [])
        self.directions = rows  # rref basis of the direction space
        self.pivots = pivots
        self.dim = len(rows)

    def coords(self, point):
        """Coordinates of a point in the frame; None if off the hull."""
        diff = vec_sub(point, self.base)
        t = tuple(Fraction(diff[p]) for p in self.pivots)
        check = list(diff)
        for ti, d in zip(t, self.directions):
            for k in range(len(check)):
                check[k] -= ti * d[k]
        if any(x != 0 for x in check):
            return None
        return t

    def hull_equations(self):
        """Integer equations (n, c) with n.x == c cutting out the hull."""
        eqs = []
        for n in _nullspace(self.directions, len(self.base)):
            nn = canonical_direction(n)
            eqs.append((nn, vec_dot(nn, self.base)))
        return sorted(eqs)

    def pull_constraint(self, normal, offset):
        """Ambient constraint restricting to normal.t >= offset on the hull.

        In the rref frame, coordinate i of a hull point x is
        (x - base)[pivots[i]].
        """
        amb = [Fraction(0)] * len(self.base)
        c = Fraction(offset)
        for ni, p in zip(normal, self.pivots):
            amb[p] += ni
            c += ni * Fraction(self.base[p])
        return _norm_constraint(amb, c)


def _pull_linear(normal, pivots, ambient_rank):
    amb = [Fraction(0)] * ambient_rank
    for ni, p in zip(normal, pivots):
        amb[p] += ni
    return primitive(amb)


def _facets_from_points(coords, dim):
    """Facet inequalities of a full-dimensional hull in reduced coords."""
    if dim == 0:
        return []
    facets = set()
    for combo in itertools.combinations(range(len(coords)), dim):
        diffs = [vec_sub(coords[c], coords[combo[0]]) for c in combo[1:]]
        if diffs and mat_rank(diffs) != dim - 1:
            continue
        ns = _nullspace(diffs, dim)
        if len(ns) != 1:
            continue
        normal = ns[0]
        base = vec_dot(normal, coords[combo[0]])
        below = above = False
        for p in coords:
            val = vec_dot(normal, p)
            if val > base:
                above = True
            elif val < base:
                below = True
            if below and above:
                break
        if below and above:
            continue
        if below:
            normal = tuple(-x for x in normal)
            base = -base
        facets.add(_norm_constraint(normal, base))
    return sorted(facets)


def convex_hull(points, dimension_cap=DIMENSION_CAP):
    """Both descriptions of the hull of finitely many rational points."""
    if not points:
        raise ValueError("need at least one point")
    ambient = len(points[0])
    if ambient > dimension_cap:
        raise DimensionError(f"ambient rank {ambient} exceeds the cap {dimension_cap}")
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    frame = _AffineFrame(pts)
    coords = [frame.coords(p) for p in pts]
    facets_red = _facets_from_points(coords, frame.dim)
    if frame.dim == 0:
        vertices = tuple(pts)
    else:
        vertices = tuple(
            pts[i]
            for i, t in enumerate(coords)
            if mat_rank([n for n, c in facets_red if vec_dot(n, t) == c]) == frame.dim
        )
    inequalities = tuple(sorted(frame.pull_constraint(n, c) for n, c in facets_red))
    equations = tuple(frame.hull_equations())
    facet_masks = tuple(
        sum(1 << i for i, v in enumerate(vertices) if vec_dot(n, v) == c)
        for n, c in inequalities
    )
    return Polytope(ambient, vertices, inequalities, equations, frame.dim, facet_masks)


def from_halfspaces(ambient_rank, inequalities, equations=()):
    """Polytope cut out by the constraints, or None when empty.

    The constraint region must be bounded; every caller intersects bounded
    sets (or a bounded set with a chamber that leaves it bounded).
    """
    eq_rows = [n for n, _ in equations]
    eq_rhs = [c for _, c in equations]
    if eq_rows:
        part = solve_rational(eq_rows, eq_rhs)
        if part is None:
            return None
        dirs = _nullspace(eq_rows, ambient_rank)
    else:
        part = tuple(Fraction(0) for _ in range(ambient_rank))
        dirs = _nullspace([], ambient_rank)
    k = len(dirs)
    red = []
    for n, c in inequalities:
        rn = tuple(vec_dot(n, d) for d in dirs)
        rc = Fraction(c) - vec_dot(n, part)
        red.append((rn, rc))
    if k == 0:
        if all(c <= 0 for _, c in red):
            return convex_hull([part])
        return None
    candidates = set()
    for combo in itertools.combinations(range(len(red)), k):
        rows = [red[i][0] for i in combo]
        rhs = [red[i][1] for i in combo]
        if mat_rank(rows) != k:
            continue
        sol = solve_rational(rows, rhs)
        if sol is None:
            continue
        if all(vec_dot(n, sol) >= c for n, c in red):
            candidates.add(sol)
    if not candidates:
        return None
    lifted = []
    for t in candidates:
        point = list(part)
        for ti, d in zip(t, dirs):
            for i in range(ambient_rank):
                point[i] += ti * d[i]
        lifted.append(tuple(point))
    return convex_hull(lifted)


def intersect_polytopes(p, q):
    """Intersection polytope, or None when empty."""
    if p.ambient_rank != q.ambient_rank:
        raise ValueError("ambient ranks differ")
    return from_halfspaces(
        p.ambient_rank,
        tuple(p.inequalities) + tuple(q.inequalities),
        tuple(p.equations) + tuple(q.equations),
    )


def cone_from_rays(ambient_rank, rays, _canonicalize=True):
    prim = sorted({primitive(r) for r in rays if any(x != 0 for x in r)})
    if not prim:
        eqs = tuple(
            tuple(1 if i == j else 0 for j in range(ambient_rank))
            for i in range(ambient_rank)
        )
        return Cone(ambient_rank, (), (), eqs)
    rows, pivots = rational_rref(prim)
    k = len(rows)
    coords = [tuple(Fraction(r[p]) for p in pivots) for r in prim]
    facets_red = set()
    for combo in itertools.combinations(range(len(coords)), k - 1):
        chosen = [coords[i] for i in combo]
        if chosen and mat_rank(chosen) != k - 1:
            continue
        ns = _nullspace(chosen, k)
        if len(ns) != 1:
            continue
        normal = ns[0]
        below = above = False
        for p in coords:
            val = vec_dot(normal, p)
            if val > 0:
                above = True
            elif val < 0:
                below = True
            if below and above:
                break
        if below and above:
            continue
        if below:
            normal = tuple(-x for x in normal)
        facets_red.add(primitive(normal))
    pointed = bool(facets_red) and mat_rank(sorted(facets_red)) == k
    ineqs = tuple(
        sorted(_pull_linear(n, pivots, ambient_rank) for n in facets_red)
    )
    eqs = tuple(sorted(canonical_direction(n) for n in _nullspace(prim, ambient_rank)))
    if pointed and k > 0:
        extreme = [
            prim[i]
            for i, t in enumerate(coords)
            if mat_rank([n for n in facets_red if vec_dot(n, t) == 0]) >= k - 1
        ]
    elif _canonicalize and k > 0:
        # canonical generators for a cone with lineality: reconstruct
        # from the (complete) halfspace description
        extreme = cone_from_halfspaces(ambient_rank, ineqs, eqs).rays
    else:
        extreme = prim
    return Cone(ambient_rank, tuple(sorted(extreme)), ineqs, eqs)


def cone_from_halfspaces(ambient_rank, inequality_normals, equation_normals=()):
    """Cone cut out by normal.x >= 0 constraints and equations.

    Handles lineality by splitting off line directions one at a time.
    """
    # normalize and sort so the canonical output is construction-path free
    ineqs = sorted({primitive(n) for n in inequality_normals if any(x != 0 for x in n)})
    eqs = sorted({canonical_direction(n) for n in equation_normals if any(x != 0 for x in n)})
    lin = _nullspace(ineqs + eqs, ambient_rank)
    if lin and len(lin) > 0 and any(any(x != 0 for x in v) for v in lin):
        v = primitive(lin[0])
        sub = cone_from_halfspaces(ambient_rank, ineqs, eqs + [v])
        return cone_from_rays(
            ambient_rank,
            list(sub.rays) + [v, tuple(-x for x in v)],
            _canonicalize=False,
        )
    span = _nullspace(eqs, ambient_rank)
    k = len(span)
    if k == 0:
        return cone_from_rays(ambient_rank, ())
    red = [tuple(vec_dot(n, d) for d in span) for n in ineqs]
    rays = set()
    for combo in itertools.combinations(range(len(red)), k - 1):
        chosen = [red[i] for i in combo]
        if chosen and mat_rank(chosen) != k - 1:
            continue
        ns = _nullspace(chosen, k)
        if len(ns) != 1:
            continue
        for cand in (ns[0], tuple(-x for x in ns[0])):
            if all(vec_dot(n, cand) >= 0 for n in red):
                rays.add(primitive(cand))
    lifted = []
    for r in rays:
        point = [Fraction(0)] * ambient_rank
        for ti, d in zip(r, span):
            for i in range(ambient_rank):
                point[i] += ti * d[i]
        lifted.append(tuple(point))
    return cone_from_rays(ambient_rank, lifted, _canonicalize=False)


def cone_over(polytope):
    """The cone in R^(1+r) generated by {1} x Q, with primitive rays."""
    rays = [(Fraction(1),) + v for v in polytope.vertices]
    return Cone.from_rays(polytope.ambient_rank + 1, rays)


def _volume_of_points(points):
    """Exact d-dimensional volume of a full-dimensional hull in Q^d."""
    d = len(points[0]) if points else 0
    if d == 0:
        return Fraction(1)
    hull = convex_hull(points, dimension_cap=16)
    if hull.dim < d:
        return Fraction(0)
    verts = hull.vertices
    apex = verts[0]
    total = Fraction(0)
    for facet_set in hull.facet_vertex_sets():
        fverts = [verts[i] for i in sorted(facet_set)]
        if apex in fverts:
            continue
        fframe = _AffineFrame(fverts)
        fcoords = [fframe.coords(v) for v in fverts]
        for simplex in _triangulate_full(fcoords):
            pts = [_frame_lift(fframe, s) for s in simplex]
            mat = [vec_sub(p, apex) for p in pts]
            det = Matrix(mat).det()
            total += abs(Fraction(int(det.p), int(det.q)))
    factorial = 1
    for i in range(2, d + 1):
        factorial *= i
    return total / factorial


def _frame_lift(frame, coords):
    point = [Fraction(x) for x in frame.base]
    for t, direction in zip(coords, frame.directions):
        for k in range(len(point)):
            point[k] += t * direction[k]
    return tuple(point)


def _triangulate_full(coords):
    """Triangulation of a full-dimensional hull in Q^d (pulling scheme)."""
    d = len(coords[0]) if coords else 0
    if d == 0:
        return [[coords[0]]] if coords else []
    hull = convex_hull(coords, dimension_cap=16)
    verts = hull.vertices
    if len(verts) == d + 1:
        return [list(verts)]
    apex = verts[0]
    out = []
    for facet_set in hull.facet_vertex_sets():
        fverts = [verts[i] for i in sorted(facet_set)]
        if apex in fverts:
            continue
        fframe = _AffineFrame(fverts)
        fcoords = [fframe.coords(v) for v in fverts]
        for simplex in _triangulate_full(fcoords):
            out.append([apex] + [_frame_lift(fframe, s) for s in simplex])
    return out



def regular_subdivision(polytope, points, heights):
    """Cells of the regular subdivision induced by lifted heights.

    Cells are the projections of the lower-hull facets of the lifted point
    set (equivalently the linearity domains of the lower envelope); all
    heights affinely dependent yields the trivial subdivision.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    hts = [Fraction(h) for h in heights]
    if len(pts) != len(hts):
        raise ValueError("points and heights must have equal lengths")
    if len(set(pts)) != len(pts):
        raise DegenerateLiftError("duplicate lift points")
    for p in pts:
        if not polytope.contains_point(p):
            raise DegenerateLiftError(f"lift point {p} is outside the polytope")
    # the points lie in the polytope: their hull is it iff they include its vertices
    if not set(polytope.vertices) <= set(pts):
        raise DegenerateLiftError("lift points must span the polytope")
    frame = _AffineFrame(sorted(pts))
    coords = [frame.coords(p) for p in pts]
    # lifted hull vertices are lifted points, so each frame coordinate is known
    inverse = dict(zip(coords, pts))
    lifted = [t + (h,) for t, h in zip(coords, hts)]
    hull = convex_hull(lifted, dimension_cap=DIMENSION_CAP + 1)
    if hull.dim < frame.dim + 1:
        return [polytope]
    cells = []
    for (n, _), facet in zip(hull.inequalities, hull.facet_vertex_sets()):
        if n[-1] <= 0:
            continue  # inward normal points up exactly on lower facets
        cells.append(convex_hull([inverse[hull.vertices[i][:-1]] for i in facet]))
    cells.sort(key=lambda p: (p.dim, p.vertices))
    return cells


def _frame_volume(frame, polytope):
    """Volume of the polytope in the coordinates of the given frame."""
    coords = [frame.coords(v) for v in polytope.vertices]
    if any(c is None for c in coords):
        return None
    return _volume_of_points(coords)


def moment_set_is_convex(complex_):
    """True iff the union of the maximal cell polytopes is convex."""
    maximal = complex_.maximal_cells()
    if len(maximal) == 1:
        return True
    dims = {c.polytope.dim for c in maximal}
    if len(dims) != 1:
        return False
    d = dims.pop()
    all_vertices = [v for c in maximal for v in c.polytope.vertices]
    hull = convex_hull(all_vertices)
    if hull.dim != d:
        return False
    frame = _AffineFrame(hull.vertices)
    total = Fraction(0)
    for c in maximal:
        vol = _frame_volume(frame, c.polytope)
        if vol is None:
            return False
        total += vol
    hull_vol = _volume_of_points([frame.coords(v) for v in hull.vertices])
    return total == hull_vol


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
    if gamma.is_zero:
        return []
    first = tuple(row[0] for row in gamma.basis)
    part_coords = solve_integer((first,), (degree,))
    if part_coords is None:
        return []
    base_point = gamma.member(part_coords)
    kernel = [gamma.member(k) for k in integer_kernel((first,))]
    sub = [k[1:] for k in kernel]
    target_proj = [Fraction(x) for x in base_point[1:]]
    eqs = [(n, Fraction(c) * degree) for n, c in polytope.equations]
    ineqs = [(n, Fraction(c) * degree) for n, c in polytope.inequalities]

    def admissible(proj):
        return all(vec_dot(n, proj) == c for n, c in eqs) and all(
            vec_dot(n, proj) >= c for n, c in ineqs
        )

    if not sub:
        return [base_point] if admissible(base_point[1:]) else []
    lo = [min(Fraction(v[i]) * degree for v in polytope.vertices) for i in range(d - 1)]
    hi = [max(Fraction(v[i]) * degree for v in polytope.vertices) for i in range(d - 1)]
    pseudo = _left_inverse(sub)
    ranges = []
    for row in pseudo:
        lo_c = hi_c = Fraction(0)
        for j in range(d - 1):
            a = row[j] * (lo[j] - target_proj[j])
            b = row[j] * (hi[j] - target_proj[j])
            lo_c += min(a, b)
            hi_c += max(a, b)
        ranges.append(range(math.ceil(lo_c), math.floor(hi_c) + 1))
    out = []
    for combo in itertools.product(*ranges):
        point = list(base_point)
        for c, kvec in zip(combo, kernel):
            for i in range(d):
                point[i] += c * kvec[i]
        if admissible(tuple(point[1:])):
            out.append(tuple(point))
    return sorted(out)


def _left_inverse(rows):
    """Rational matrix recovering coefficients of combinations of the rows.

    rows must be linearly independent; row i of the result pairs to 1 with
    rows[i] and to 0 with the others.
    """
    gram = [[vec_dot(a, b) for b in rows] for a in rows]
    out = []
    for i in range(len(rows)):
        e = tuple(Fraction(1 if j == i else 0) for j in range(len(rows)))
        sol = solve_rational(gram, e)
        m = [Fraction(0)] * len(rows[0])
        for cj, rj in zip(sol, rows):
            for kk in range(len(m)):
                m[kk] += cj * rj[kk]
        out.append(tuple(m))
    return out


def _simplicial_box_points(rays):
    """Lattice points of Z^k in the half-open parallelepiped of the rays."""
    k = len(rays)
    snf = smith_normal_form(rays)
    rinv = mat_inverse_unimodular(snf.right)
    # Z^k modulo the row lattice of the rays is generated by the rows of
    # right^-1, with orders given by the diagonal.
    reps = []
    axes = [range(dd if dd > 0 else 1) for dd in snf.diag]
    for combo in itertools.product(*axes):
        rep = [0] * k
        for a, w in zip(combo, rinv):
            for i in range(k):
                rep[i] += a * w[i]
        reps.append(tuple(rep))
    ray_cols = [tuple(r[i] for r in rays) for i in range(k)]
    points = set()
    for rep in reps:
        t = solve_rational(ray_cols, rep)
        shifted = list(rep)
        for ti, row in zip(t, rays):
            fl = math.floor(ti)
            if fl:
                for i in range(k):
                    shifted[i] -= fl * row[i]
        points.add(tuple(shifted))
    return points


def _intersection_vertices(p, q):
    """Sorted vertices of the intersection of two polytopes; () when empty."""
    if p.ambient_rank != q.ambient_rank:
        raise ValueError("ambient ranks differ")
    a, b = cone_over(p), cone_over(q)
    return _cone_vertices(
        a.ambient_rank, a.inequalities + b.inequalities, a.equations + b.equations
    )


def _is_face(vertices, polytope):
    """True iff the points are exactly the vertices of a face of the polytope.

    Faces are vertex-index sets closed under the facet meet: an index set is
    a face exactly when it equals the intersection of the facet vertex sets
    containing it (the empty intersection is every vertex).
    """
    index = {v: i for i, v in enumerate(polytope.vertices)}
    found = [index.get(v) for v in vertices]
    if None in found:
        return False
    mine = sum(1 << i for i in found)
    return _closure(mine, polytope._facet_masks, len(index)) == mine


def face_polytope(polytope, vertex_indices):
    return library_hull([polytope.vertices[i] for i in sorted(vertex_indices)])
