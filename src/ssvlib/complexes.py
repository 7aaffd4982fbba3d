"""Complexes of moment polytopes with weight groups.

The central data model: an ambient graded weight group inside Z^(1+r)
together with a poset of cells, each carrying a moment polytope in R^r and
a weight group whose rational span matches the cone over the polytope.
Cells may also carry automorphism-group data consumed by the gluing
cohomology module.  ``rootdata`` is imported inside its two users,
``section_module`` and ``vq_module_data``, so toric gluing never loads it.
"""

import enum
import math
from fractions import Fraction

from .errors import (
    ContainmentError, Frozen, OutsideSupportError, ParamError, Record, ValidationError
)
from .lattice import Lattice, is_direct_summand
from .linalg import clear_denominators, integer_rref, mat_rank, vec_dot
from .polyhedral import (
    _intersection_vertices,
    _is_face,
    _triangulate_rays,
    cone_over,
    convex_hull,
    graded_lattice_points,
    intersect_polytopes,
)


class AutRestriction(Record):
    """Character-group map to this cell from a smaller cell's automorphisms."""

    __slots__ = ("to", "matrix")  # matrix rows: images in Z^{rank(cell)} of the face's generators


class AutData(Record):
    """Automorphism group of a cell: character group as a cokernel."""

    __slots__ = ("rank", "relations", "restrictions")
    _defaults = {"relations": tuple, "restrictions": tuple}

    def restriction_to(self, face_id):
        for r in self.restrictions:
            if r.to == face_id:
                return r
        return None


class Cell(Frozen):
    """One cell: moment polytope plus its graded weight group."""

    __slots__ = ("id", "polytope", "weight_group", "aut")

    def __init__(self, cell_id, polytope, weight_group, aut=None):
        if weight_group.ambient_rank != polytope.ambient_rank + 1:
            raise ValueError("weight group must live in Z^(1+r)")
        object.__setattr__(self, "id", cell_id)
        object.__setattr__(self, "polytope", polytope)
        object.__setattr__(self, "weight_group", weight_group)
        object.__setattr__(self, "aut", aut)

    def __repr__(self):
        return f"Cell({self.id!r}, vertices={list(self.polytope.vertices)})"

    def cone(self):
        """The cone over the polytope, which the polytope itself keeps (``cone_over``)."""
        return cone_over(self.polytope)

    def span_matches_weight_group(self):
        """Rational span of the cone equals the span of the weight group.

        The cone's rays span a (dim + 1)-space.  At that rank, adding them
        keeps the group's rank exactly when they lie in its span, which then
        equals theirs.
        """
        basis = self.weight_group.basis
        return len(basis) == self.polytope.dim + 1 == mat_rank(basis + self.cone().rays)


class CheckResult(Record):
    __slots__ = ("name", "passed", "witness")
    _defaults = {"witness": str}


class ValidationReport(Record):
    __slots__ = ("checks", "moment_set_convex", "cohen_macaulay")

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


class SSVComplex(Frozen):
    """A validated-on-demand complex of moment polytopes.

    The cells' sorted distinct vertices are numbered once: a cell's ``_masks``
    bits, read upwards, are its vertices in order, and ``_by_mask`` holds the
    first cell in id order on each mask, so equal masks are equal polytopes.
    """

    __slots__ = ("rank", "gamma", "cells", "maximal_ids", "_by_id", "_numbering", "_masks",
                 "_by_mask", "_report")

    def __init__(self, rank, gamma, cells, maximal_ids):
        if gamma.ambient_rank != rank + 1:
            raise ValueError("gamma must live in Z^(1+rank)")
        by_id = {}
        for cell in cells:
            if cell.id in by_id:
                raise ValueError(f"duplicate cell id {cell.id!r}")
            if cell.polytope.ambient_rank != rank:
                raise ValueError(f"cell {cell.id!r} has wrong ambient rank")
            by_id[cell.id] = cell
        for mid in maximal_ids:
            if mid not in by_id:
                raise ValueError(f"maximal id {mid!r} is not a cell")
        distinct = sorted({v for c in cells for v in c.polytope.vertices})
        numbering = {v: k for k, v in enumerate(distinct)}
        masks = {c.id: sum(1 << numbering[v] for v in c.polytope.vertices) for c in cells}
        by_mask = {}
        for cell_id in sorted(by_id):
            by_mask.setdefault(masks[cell_id], by_id[cell_id])
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "cells", tuple(cells))
        object.__setattr__(self, "maximal_ids", tuple(sorted(maximal_ids)))
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_numbering", numbering)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_by_mask", by_mask)
        object.__setattr__(self, "_report", None)

    def cell(self, cell_id):
        return self._by_id[cell_id]

    def maximal_cells(self):
        return [self._by_id[i] for i in self.maximal_ids]

    def sorted_cells(self):
        return sorted(self.cells, key=lambda c: c.id)

    def cell_with_vertices(self, vertices):
        """The first cell in id order with exactly these (sorted) vertices."""
        vertices = tuple(vertices)
        cell = self._by_mask.get(self._vertex_mask(vertices))
        return cell if cell is not None and cell.polytope.vertices == vertices else None

    def _vertex_mask(self, vertices):
        """Mask of the vertices; one off the numbering sets a bit that no cell has."""
        return sum({1 << self._numbering.get(v, len(self._numbering)) for v in vertices})

    def cell_with_polytope(self, polytope):
        return self.cell_with_vertices(polytope.vertices)

    def validate(self):
        report = object.__getattribute__(self, "_report")
        if report is None:
            report = validate_complex(self)
            object.__setattr__(self, "_report", report)
        return report

    def ensure_valid(self):
        report = self.validate()
        if not report.passed:
            fails = "; ".join(f"{c.name}: {c.witness}" for c in report.failures())
            raise ValidationError(f"complex failed validation ({fails})", report)
        return report


def singleton_complex(cell, gamma=None):
    """Wrap one cell as a complex (ambient group defaults to the cell's)."""
    gamma = gamma if gamma is not None else cell.weight_group
    return SSVComplex(cell.polytope.ambient_rank, gamma, (cell,), (cell.id,))


def _volume_of_points(points):
    """Exact d-dimensional volume of a full-dimensional hull in Q^d."""
    d = len(points[0]) if points else 0
    if d == 0:
        return Fraction(1)
    hull = convex_hull(points)
    if hull.dim < d:
        return Fraction(0)
    # |det| of a homogenized simplex is d! times its volume; on the integer
    # rows s (1, v) elimination ends at D I with D = +-det, and each row's
    # first entry s divides out of it
    rays = [clear_denominators((1,) + v) for v in hull.vertices]
    total = Fraction(0)
    for simplex in _triangulate_rays(rays):
        rows = [rays[i] for i in simplex]
        total += Fraction(abs(integer_rref(rows)[0][-1][-1]), math.prod(row[0] for row in rows))
    return total / math.factorial(d)


def moment_set_is_convex(complex_):
    """True iff the union of the maximal cell polytopes is convex."""
    return _union_is_convex(complex_.maximal_cells(), face_to_face=False)


def _union_is_convex(maximal, face_to_face):
    """True iff the union U of the maximal cells' polytopes is convex.

    One cell is convex, cells of different dimensions are not, and neither
    is a union whose hull H has another dimension d than the cells.  Else,
    when the cells meet face to face (``validate_complex``'s
    pairwise-intersections check passed), U is convex iff every facet that
    exactly one cell carries lies on a facet hyperplane of H, n . v == c on
    all its vertices.  Why: a facet of one cell inside another cell is their
    intersection, a face of both, hence a facet of both.  A point of the
    relative boundary of U lies in such a facet: a segment from a generic
    point of a cell to a nearby point outside U leaves U through the
    relative interior of a facet no second cell carries.  So the boundary of
    U lies in that of conv U, and U cap int conv U is open and closed in the
    connected int conv U, and non-empty, as it holds the interior of every
    cell; it is all of int conv U, and U, closed, is conv U.  Conversely a
    facet in the boundary of H = U lies in one facet of H.  Otherwise the
    cells' volumes are compared with H's.
    """
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
    if face_to_face:
        at, carried = {}, {}  # vertex -> number; facet mask over the numbers -> carried once
        for cell in maximal:
            number = [at.setdefault(v, len(at)) for v in cell.polytope.vertices]
            for mask in cell.polytope._facet_masks:
                facet = sum(1 << k for i, k in enumerate(number) if mask >> i & 1)
                carried[facet] = facet not in carried
        on_hull = [sum(1 << k for v, k in at.items() if vec_dot(n, v) == c)
                   for n, c in hull.inequalities]
        return all(any(not f & ~h for h in on_hull) for f, once in carried.items() if once)
    # the pivot coordinates of the homogenized hull vertices are one affine
    # bijection of the hull's span onto Q^d, for every cell alike
    _, pivots = integer_rref([clear_denominators((1,) + v) for v in hull.vertices])

    def volume(polytope):
        coords = [tuple(v[c - 1] for c in pivots[1:]) for v in polytope.vertices]
        return _volume_of_points(coords)

    return sum(volume(c.polytope) for c in maximal) == volume(hull)


def _vertex_key(polytope):
    """A polytope's vertex -> position map and its coordinate box (lows, highs)."""
    columns = list(zip(*polytope.vertices))
    return (
        {v: k for k, v in enumerate(polytope.vertices)},
        tuple(map(min, columns)),
        tuple(map(max, columns)),
    )


def _pair_vertices(p, q, p_key, q_key):
    """Sorted vertices of p cap q, as ``_intersection_vertices`` gives them.

    Certificates that read only vertices and stored facets are tried in
    this order: coordinate boxes strictly apart in some coordinate (empty);
    the vertices of one polytope among those of the other (the first one);
    a facet n . x >= c of one with exactly the common vertices S on it and
    every vertex of the other at n . v <= c (conv S).  Any other pair is
    intersected by double description.
    """
    if p.ambient_rank != q.ambient_rank:
        raise ValueError("ambient ranks differ")
    (_, p_low, p_high), (q_index, q_low, q_high) = p_key, q_key
    if any(hp < lq or hq < lp for lp, hp, lq, hq in zip(p_low, p_high, q_low, q_high)):
        return ()
    at = [q_index.get(v) for v in p.vertices]
    common = tuple(v for v, k in zip(p.vertices, at) if k is not None)  # sorted, as p's are
    if len(common) == len(p.vertices):
        return p.vertices
    if len(common) == len(q.vertices):
        return q.vertices
    if common:
        in_p = sum(1 << i for i, k in enumerate(at) if k is not None)
        in_q = sum(1 << k for k in at if k is not None)
        for first, mask, other in ((p, in_p, q), (q, in_q, p)):
            for (n, c), on in zip(first.inequalities, first._facet_masks):
                if on == mask and all(vec_dot(n, v) <= c for v in other.vertices):
                    return common
    return _intersection_vertices(p, q)


def _meets(complex_, cells, masks):
    """(i, j) -> vertex mask of cells i and j's intersection, or None when it
    is no common face; the AND of their masks under ``validate_complex``'s P,
    which reads only the maximal cells' ``_vertex_key``."""
    polys = [c.polytope for c in cells]
    top = [k for k, c in enumerate(cells) if c.id in complex_.maximal_ids]
    keys = {k: _vertex_key(polys[k]) for k in top}

    def face(i, j):
        p, q = polys[i], polys[j]
        inter = _pair_vertices(p, q, keys[i], keys[j])
        ok = not inter or _is_face(inter, p, keys[i][0]) and _is_face(inter, q, keys[j][0])
        return inter if ok else None

    def meet(i, j):
        inter = face(i, j)
        return None if inter is None else complex_._vertex_mask(inter)

    def common(i, j):
        return masks[i] & masks[j]

    if all(face(i, j) is not None for x, i in enumerate(top) for j in top[x + 1:]) and all(
        any(not masks[k] & ~masks[i] and _is_face(p.vertices, polys[i], keys[i][0]) for i in top)
        for k, p in enumerate(polys)
    ):
        return common
    keys.update((k, _vertex_key(p)) for k, p in enumerate(polys) if k not in keys)
    return meet


def validate_complex(complex_):
    """Structural validation; failures carry concrete witnesses.

    Checks: cell spans match weight groups; pairwise polytope intersections
    are common faces and stored cells; containment agrees with the face
    relation; weight groups are direct summands of the ambient group and
    restrict consistently to common faces.  The convexity flag decides the
    Cohen-Macaulay flag; once pairwise intersections pass it is read off the
    facets that one maximal cell carries (``_union_is_convex``), with no
    volume.  Each intersection is a vertex set, never hulled.

    Pairs meet through ``_meets`` on a precondition P: each two maximal cells
    meet in a common face (``_pair_vertices`` and ``_is_face``), and each
    cell's vertex set is a face of a maximal cell.  Under P two cells meet in
    their common vertices, the AND of their masks (``SSVComplex``), and equal
    masks share a polytope.  Why: let F, G be faces of maximal cells A, B and
    C = A cap B a common face.  F cap C and G cap C are faces of A and B
    inside C, so faces of C, and so is F cap G = (F cap C) cap (G cap C); it
    lies in F cap C, a face of F, so it is a face of F, and of G likewise,
    with vertices V_F cap V_G.  Under P the face tests thus cannot fail, and
    the first failing pair is the first, in the same order, that shares a
    polytope or meets in no stored cell.  Without P every pair is intersected
    and face-tested.  ``SSVComplex`` forces one ambient rank.

    Two checks follow from earlier ones and search for a witness only when
    those fail.  If every pairwise intersection is a common face, a cell
    inside another is their intersection, hence a face of it.  If spans
    match and every group is a direct summand, each group is gamma cap
    span(cone) and restricts to gamma cap span(face), the face's own group
    (README, Conventions).
    """
    checks = []
    cells = complex_.sorted_cells()

    span_witness = next(
        (f"cell {c.id}" for c in cells if not c.span_matches_weight_group()), ""
    )
    checks.append(CheckResult("cell-spans", span_witness == "", span_witness))

    inter_witness = ""
    glued = []  # (id of the stored intersection, a, b)
    masks = [complex_._masks[c.id] for c in cells]
    meet = _meets(complex_, cells, masks)
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            a, b = cells[i], cells[j]
            if masks[i] == masks[j]:
                inter_witness = f"cells {a.id},{b.id} share a polytope"
                break
            inter = meet(i, j)
            if inter is None:
                inter_witness = f"cells {a.id},{b.id} intersect but not in a common face"
                break
            if not inter:
                continue
            stored = complex_._by_mask.get(inter)
            if stored is None:
                inter_witness = f"intersection of {a.id},{b.id} is not a cell"
                break
            glued.append((stored.id, a, b))
        if inter_witness:
            break
    checks.append(CheckResult("pairwise-intersections", inter_witness == "", inter_witness))

    order_witness = next((
        f"{a.id} inside {b.id} but not a face"
        for a in (cells if inter_witness else ()) for b in cells
        if a.id != b.id and b.polytope.contains_polytope(a.polytope)
        and not a.polytope.is_face_of(b.polytope)
    ), "")
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
    if not inter_witness and (span_witness or summand_witness):
        for face_id, a, b in sorted(glued, key=lambda g: g[0]):
            face = complex_.cell(face_id)
            rays = face.cone().rays
            ra = a.weight_group.intersect_subspace(rays)
            if ra != face.weight_group or b.weight_group.intersect_subspace(rays) != ra:
                restrict_witness = f"cells {a.id},{b.id} restrict differently on face {face_id}"
                break
    checks.append(
        CheckResult("face-restrictions-agree", restrict_witness == "", restrict_witness)
    )

    convex = _union_is_convex(complex_.maximal_cells(), face_to_face=not inter_witness)
    return ValidationReport(tuple(checks), convex, convex)


class SectionModuleSummary(Record):
    """Multiplicity-free module of sections in one degree."""

    __slots__ = ("degree", "weights", "total_dimension")  # weights: (weight, 1, dimension)


def degree_slice(complex_, degree):
    """Points of gamma in degree ``degree`` over the union of maximal cells."""
    gamma = complex_.gamma
    return sorted({p for c in complex_.maximal_cells()
                   for p in graded_lattice_points(c.polytope, gamma, degree)})


def section_module(complex_, degree, datum):
    """Weights and dimensions of the degree-n sections."""
    if degree < 0:
        raise ParamError("degree must be nonnegative")
    from .rootdata import weyl_dimension

    complex_.ensure_valid()
    weights = tuple((p[1:], 1, weyl_dimension(datum, p[1:]))
                    for p in degree_slice(complex_, degree))
    return SectionModuleSummary(degree, weights, sum(dim for _, _, dim in weights))


class MultiplicationBehavior(enum.Enum):
    ISOMORPHISM = "isomorphism"
    ZERO = "zero"


def multiplication_behavior(complex_, lam, mu):
    """Isomorphism iff one maximal cell cone contains both weights."""
    complex_.ensure_valid()
    lam, mu = tuple(lam), tuple(mu)
    for w in (lam, mu):
        if len(w) != complex_.rank + 1:
            raise ValueError(f"weight {w} has wrong length")
        if w[0] < 0:
            raise ValueError(f"weight {w} has negative degree")
        if w not in complex_.gamma:
            raise OutsideSupportError(f"weight {w} is not in the ambient group")
    cones = [(c.id, c.cone()) for c in complex_.maximal_cells()]
    in_lam = {cid for cid, cone in cones if cone.contains(lam)}
    in_mu = {cid for cid, cone in cones if cone.contains(mu)}
    if not in_lam:
        raise OutsideSupportError(f"weight {lam} lies in no maximal cell cone")
    if not in_mu:
        raise OutsideSupportError(f"weight {mu} lies in no maximal cell cone")
    if in_lam & in_mu:
        return MultiplicationBehavior.ISOMORPHISM
    return MultiplicationBehavior.ZERO


class OrbitPoset(Record):
    """Cell ids ordered by the face relation of their polytopes."""

    __slots__ = ("ids", "relations")  # relations: strict (lower, upper) pairs

    def leq(self, a, b):
        return a == b or (a, b) in self.relations

    @property
    def simple(self):
        return len(self.minimal_ids()) == 1

    def minimal_ids(self):
        return [i for i in self.ids if not any(a != i and self.leq(a, i) for a in self.ids)]

    def __len__(self):
        return len(self.ids)


def orbit_poset(complex_):
    complex_.ensure_valid()
    cells = complex_.sorted_cells()
    relations = {(a.id, b.id) for a in cells for b in cells
                 if a.id != b.id and b.polytope.contains_polytope(a.polytope)}
    return OrbitPoset(tuple(c.id for c in cells), frozenset(relations))


def vq_module_data(complex_, datum):
    """Degree-1 weights over the moment set and the induced module dimension.

    Returns (weights, dims, total) with total the sum of squared dimensions.
    """
    from .rootdata import weyl_dimension

    complex_.ensure_valid()
    weights = [p[1:] for p in degree_slice(complex_, 1)]
    dims = [weyl_dimension(datum, w) for w in weights]
    return weights, dims, sum(d * d for d in dims)


def sl2_catalog(kind, **params):
    """Catalog cells for the projective homogeneous SL(2) examples.

    Kinds and parameters:
      P1     n >= 1
      Fe     e >= 1, 1 <= n_minus < n_plus, e divides n_plus - n_minus
      Se     e >= 1, n >= 1, e divides n
      P1xP1  m, n >= 1
      P2     n >= 1
    """

    def need(cond, message):
        if not cond:
            raise ParamError(message)

    def ival(name):
        if name not in params:
            raise ParamError(f"{kind} needs parameter {name}")
        v = params[name]
        if not isinstance(v, int):
            raise ParamError(f"parameter {name} must be an integer")
        return v

    if kind == "P1":
        n = ival("n")
        need(n >= 1, "P1 needs n >= 1")
        polytope = convex_hull([(n,)])
        group = Lattice(2, [(1, n)])
        label = f"P1(n={n})"
    elif kind == "Fe":
        e, n_minus, n_plus = ival("e"), ival("n_minus"), ival("n_plus")
        need(e >= 1, "Fe needs e >= 1")
        need(1 <= n_minus < n_plus, "Fe needs 1 <= n_minus < n_plus")
        need((n_plus - n_minus) % e == 0, "Fe needs e | (n_plus - n_minus)")
        polytope = convex_hull([(n_minus,), (n_plus,)])
        group = Lattice(2, [(1, n_plus), (0, e)])
        label = f"Fe(e={e},n_minus={n_minus},n_plus={n_plus})"
    elif kind == "Se":
        e, n = ival("e"), ival("n")
        need(e >= 1 and n >= 1, "Se needs e, n >= 1")
        need(n % e == 0, "Se needs e | n")
        polytope = convex_hull([(0,), (n,)])
        group = Lattice(2, [(1, n), (0, e)])
        label = f"Se(e={e},n={n})"
    elif kind == "P1xP1":
        m, n = ival("m"), ival("n")
        need(m >= 1 and n >= 1, "P1xP1 needs m, n >= 1")
        polytope = convex_hull([(abs(m - n),), (m + n,)])
        group = Lattice(2, [(1, m + n), (0, 2)])
        label = f"P1xP1(m={m},n={n})"
    elif kind == "P2":
        n = ival("n")
        need(n >= 1, "P2 needs n >= 1")
        polytope = convex_hull([(0,), (2 * n,)])
        group = Lattice(2, [(1, 2 * n), (0, 4)])
        label = f"P2(n={n})"
    else:
        raise ParamError(f"unknown catalog kind {kind!r}")
    return Cell(label, polytope, group)


def complete_faces(complex_, full=True):
    """Add missing face cells, inheriting saturated weight groups.

    With ``full`` every face of every cell is added and nothing else: in a
    polyhedral complex each pairwise intersection is a common face, so it is
    among them (``validate_complex`` checks this).  A face's mask over the
    complex's vertex numbering is read off its cell's mask, and the face is
    built from the cell's incidences when no cell has that mask.  Otherwise
    only pairwise intersections are added, up to a fixpoint.  New cells get
    ids "face0", "face1", ... in a deterministic order, and weight groups
    gamma cap span(cone(face)).
    """
    cells = list(complex_.sorted_cells())
    fresh = []
    if full:
        known = set(complex_._by_mask)
        for c in cells:
            mask = complex_._masks[c.id]
            number = [k for k in range(mask.bit_length()) if mask >> k & 1]  # of each vertex
            for f in c.polytope.face_vertex_sets():
                face = sum(1 << number[i] for i in f)
                if face not in known:
                    known.add(face)
                    fresh.append(c.polytope.face_polytope(f))
    else:
        polytopes = {c.polytope for c in cells}
        changed = True
        while changed:
            changed = False
            current = sorted(polytopes, key=lambda p: (p.dim, p.vertices))
            for i in range(len(current)):
                for j in range(i + 1, len(current)):
                    inter = intersect_polytopes(current[i], current[j])
                    if inter is not None and inter not in polytopes:
                        polytopes.add(inter)
                        fresh.append(inter)
                        changed = True
    fresh.sort(key=lambda p: (p.dim, p.vertices))
    new_cells = cells[:]
    taken = {c.id for c in cells}
    k = 0
    for face in fresh:
        while f"face{k}" in taken:
            k += 1
        group = complex_.gamma.intersect_subspace([(1,) + v for v in face.vertices])
        new_cells.append(Cell(f"face{k}", face, group))
        taken.add(f"face{k}")
    return SSVComplex(complex_.rank, complex_.gamma, new_cells, complex_.maximal_ids)
