"""Weight sets of graded modules and matroid-polytope subdivisions."""

import itertools
from fractions import Fraction

from .errors import (
    Frozen, InvalidRankDataError, NonLatticeError, ParamError, Record, SearchBudgetError
)
from .linalg import primitive, vec_sub
from .polyhedral import convex_hull
from .degeneration import regular_subdivision, subdivision_cell

SEARCH_BUDGET = 200_000
SYMMETRY_GROUP_CAP = 5_000


class GradedShape(Record):
    """Corank and the ranks of the graded parts."""

    __slots__ = ("r", "ranks")

    def __post_init__(self):
        ranks = tuple(int(x) for x in self.ranks)
        if any(x < 1 for x in ranks):
            raise ParamError("all ranks must be positive")
        if not 0 <= self.r <= sum(ranks):
            raise ParamError("need 0 <= r <= sum of ranks")
        object.__setattr__(self, "ranks", ranks)

    @property
    def positions(self):
        return len(self.ranks)


def weight_set(shape):
    """Integer tuples in the rank box with coordinate sum r, lex order."""
    # room[i]: the largest sum positions i, i + 1, ... can hold
    room = list(itertools.accumulate(reversed(shape.ranks + (0,))))[::-1]
    return list(_weight_tuples(shape.ranks, room, (), shape.r))


def _weight_tuples(ranks, room, prefix, rest):
    # each value leaves a sum the later positions can still hold; module
    # level, since a self-calling closure is a reference cycle per call
    i = len(prefix)
    if i == len(ranks):
        yield prefix
        return
    for x in range(max(0, rest - room[i + 1]), min(ranks[i], rest) + 1):
        yield from _weight_tuples(ranks, room, prefix + (x,), rest - x)


class RankFunctionData(Frozen):
    """Lower bounds d_I on coordinate sums over subsets of positions.

    Unspecified subsets default to the trivial bounds implied by the box;
    the full table must satisfy the boundary conditions and supermodularity.
    """

    __slots__ = ("shape", "table")

    def __init__(self, shape, entries=None):
        object.__setattr__(self, "shape", shape)
        n = shape.positions
        table = {subset: _box_bound(shape, subset) for subset in _all_subsets(n)}
        for key, value in (entries or {}).items():
            subset = frozenset(key)
            if not subset <= set(range(n)):
                raise InvalidRankDataError(f"subset {sorted(subset)} out of range")
            table[subset] = int(value)
        object.__setattr__(self, "table", table)
        self._validate()

    def _validate(self):
        n = self.shape.positions
        full = frozenset(range(n))
        if self.table[frozenset()] != 0:
            raise InvalidRankDataError("d(empty set) must be 0")
        if self.table[full] != self.shape.r:
            raise InvalidRankDataError("d(full set) must equal r")
        subsets = _all_subsets(n)
        for a in subsets:
            if self.table[a] < 0:
                raise InvalidRankDataError(f"d{sorted(a)} is negative")
            for b in subsets:
                lhs = self.table[a] + self.table[b]
                rhs = self.table[a | b] + self.table[a & b]
                if lhs > rhs:
                    raise InvalidRankDataError(
                        f"supermodularity fails at {sorted(a)}, {sorted(b)}"
                    )

    def bound(self, subset):
        return self.table[frozenset(subset)]


def _box_bound(shape, subset):
    """max(0, r - the ranks outside I): every weight of the box meets it on I."""
    return max(0, shape.r - sum(x for i, x in enumerate(shape.ranks) if i not in subset))


def _all_subsets(n):
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            out.append(frozenset(combo))
    return out


def thin_cell_weight_set(shape, rank_data):
    """(points, full_flag, witness) for the thin-cell weight subset.

    The flag says whether the subset is all lattice points of its own convex
    hull, with a missing one as witness.  It always is: the supermodular
    bounds cut the integer points of a base polyhedron out of the integral
    rank box, an M-convex set, which has no holes (Murota, "Discrete Convex
    Analysis", 2003, ch. 4).  So the flag is True and the witness None.
    """
    points = weight_set(shape)
    # only the entries above the box's own bound can drop a point
    binding = [(s, b) for s, b in rank_data.table.items() if b > _box_bound(shape, s)]
    kept = [p for p in points if all(sum(p[i] for i in s) >= b for s, b in binding)]
    return kept, True, None


def is_matroid_polytope(polytope):
    """True iff every edge direction is a difference of coordinate vectors."""
    for v in polytope.vertices:
        for x in v:
            if Fraction(x).denominator != 1:
                raise NonLatticeError(f"vertex {v} is not integral")
    for vertex_set in polytope.face_vertex_sets():
        # the edges are exactly the faces with two vertices
        if len(vertex_set) != 2:
            continue
        a, b = (polytope.vertices[i] for i in vertex_set)
        # the primitive edge direction must be some e_i - e_j
        if sorted(x for x in primitive(vec_sub(b, a)) if x) != [-1, 1]:
            return False
    return True


def _rank_preserving_permutations(shape):
    """Permutations of positions preserving the rank vector, or None if huge."""
    order = 1
    seen = {}
    for m in shape.ranks:
        seen[m] = seen.get(m, 0) + 1
    for count in seen.values():
        for i in range(2, count + 1):
            order *= i
    if order > SYMMETRY_GROUP_CAP:
        return None
    perms = []
    for perm in itertools.permutations(range(shape.positions)):
        if all(shape.ranks[perm[i]] == shape.ranks[i] for i in range(shape.positions)):
            perms.append(perm)
    return perms


def _permute_point(point, perm):
    # position i of the image reads position perm[i] of the original
    return tuple(point[perm[i]] for i in range(len(point)))


def _subdivision_key(cells):
    return frozenset(cell.vertices for cell in cells)


def enumerate_matroid_subdivisions(shape, cap=2, workers=1, budget=SEARCH_BUDGET):
    """All regular subdivisions into matroid polytopes, heights in [0, cap].

    The search runs over integer height assignments up to coordinate
    permutations preserving the ranks, then closes the result under those
    permutations; output is deterministic and sorted.  ``workers`` is
    accepted and ignored: the search is exact arithmetic under the GIL, so
    a thread pool did not pay.
    """
    if cap < 0:
        raise ParamError("cap must be nonnegative")
    points = weight_set(shape)
    if not points:
        return []
    if len(points) > 12:
        raise SearchBudgetError(f"weight set of size {len(points)} exceeds 12")
    perms = _rank_preserving_permutations(shape)
    hull = convex_hull(points)
    total = (cap + 1) ** len(points)
    index_of = {p: i for i, p in enumerate(points)}
    if perms and len(perms) > 1:
        point_perms = [
            tuple(index_of[_permute_point(p, perm)] for p in points)
            for perm in perms
        ]
    else:
        point_perms = []

    def canonical(heights):
        for pperm in point_perms:
            image = tuple(heights[i] for i in pperm)
            if image < heights:
                return False
        return True

    # one canonical assignment per orbit, and an orbit has at most |G| members
    at_least = -(-total // max(len(point_perms), 1))
    if at_least > budget:
        raise SearchBudgetError(
            f"at least {at_least} height assignments up to symmetry exceed the budget {budget}"
        )
    grid = itertools.product(range(cap + 1), repeat=len(points))
    assignments = list(itertools.islice(filter(canonical, grid), budget + 1))
    if len(assignments) > budget:
        raise SearchBudgetError(
            f"more than {budget} height assignments up to symmetry exceed the budget"
        )

    found = {}
    for heights in assignments:
        cells = tuple(
            sorted(regular_subdivision(hull, points, heights), key=lambda c: c.vertices)
        )
        key = _subdivision_key(cells)
        if key not in found and all(is_matroid_polytope(c) for c in cells):
            found[key] = cells
    # close under the symmetry group: the permutations form a group, so one
    # pass over what the search found reaches every image
    if point_perms:
        for cells in list(found.values()):
            for perm in perms:
                # a coordinate permutation maps vertices onto vertices
                images = [
                    tuple(sorted(_permute_point(v, perm) for v in c.vertices))
                    for c in cells
                ]
                key = frozenset(images)
                if key not in found:
                    found[key] = tuple(subdivision_cell(hull, vs) for vs in sorted(images))
    out = list(found.values())
    out.sort(key=lambda cells: (len(cells), [c.vertices for c in cells]))
    return out
