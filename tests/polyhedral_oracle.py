"""Reference V<->H conversions: the brute-force supporting-hyperplane searches.

These are the library's earlier conversions, one C(n, k) search per
direction, kept unchanged as an independent oracle for the single
``_supporting_normals`` kernel that replaced them.  Each search solves a
rational nullspace or linear system per subset, so only small inputs are
practical.
"""

import itertools
from fractions import Fraction

from ssvlib.errors import DimensionError
from ssvlib.linalg import (
    canonical_direction,
    mat_det,
    mat_rank,
    primitive,
    rational_rref,
    solve_rational,
    vec_dot,
    vec_sub,
)
from ssvlib.polyhedral import (
    DIMENSION_CAP,
    Cone,
    Polytope,
    _AffineFrame,
    _norm_constraint,
    _nullspace,
    _pull_linear,
)


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
    return Polytope(ambient, vertices, inequalities, equations, frame.dim)


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
            total += abs(mat_det(mat))
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

