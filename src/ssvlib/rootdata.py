"""Root data and Weyl combinatorics for small classical groups.

Weights are tuples of rationals in the fundamental-weight basis.  Supported
types: A1-A4, B2-B4, C2-C4, D3-D4 and products thereof (label "A1xA1"),
total rank at most 4.  The Weyl group acts through its simple reflections
(``RootDatum.reflect``) alone: an orbit, and the translates of a polytope's
vertex set, are walks over them, so each function works with the Cartan
matrix of the datum it is given, whatever its label.
"""

from fractions import Fraction
from functools import lru_cache

from .errors import Frozen, NotDominantError, RankError
from .linalg import clear_denominators, solve_rational, vec_dot
from .polyhedral import _barycenter, _halfspace_vertices, convex_hull, from_halfspaces
from .polyhedral import relative_interiors_meet

RANK_CAP = 4


def _simple_factor(kind, n):
    """Cartan matrix rows (C[i][j] = <alpha_j, alpha_i^vee>) and d values.

    d_i is half the squared length of alpha_i, normalized so long roots
    have length squared 2.
    """
    if kind == "A" and 1 <= n <= 4:
        cartan = [[0] * n for _ in range(n)]
        d = [Fraction(1)] * n
    elif kind == "B" and 2 <= n <= 4:
        cartan = [[0] * n for _ in range(n)]
        d = [Fraction(1)] * (n - 1) + [Fraction(1, 2)]
    elif kind == "C" and 2 <= n <= 4:
        cartan = [[0] * n for _ in range(n)]
        d = [Fraction(1, 2)] * (n - 1) + [Fraction(1)]
    elif kind == "D" and 3 <= n <= 4:
        cartan = [[0] * n for _ in range(n)]
        d = [Fraction(1)] * n
    else:
        raise RankError(f"unsupported factor {kind}{n}")
    for i in range(n):
        cartan[i][i] = 2
    if kind in ("A", "B", "C"):
        edges = [(i, i + 1) for i in range(n - 1)]
    else:  # D: chain on 0..n-3 plus fork to the last two nodes
        edges = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    for i, j in edges:
        # C[i][j] = (alpha_i, alpha_j) / d_i with (alpha_i, alpha_j) = -max(d_i, d_j)
        pair = -max(d[i], d[j])
        cartan[i][j] = int(pair / d[i])
        cartan[j][i] = int(pair / d[j])
    return [tuple(r) for r in cartan], d


class RootDatum(Frozen):
    """Immutable root datum with Cartan matrix and exact invariant form."""

    __slots__ = ("label", "rank", "cartan", "d", "gram")

    def __init__(self, label, cartan, d):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "rank", len(cartan))
        object.__setattr__(self, "cartan", tuple(cartan))
        object.__setattr__(self, "d", tuple(d))
        # Gram matrix of the fundamental weights: G * C = diag(d).
        n = self.rank
        cols = []
        for j in range(n):
            rhs = tuple(d[j] if i == j else Fraction(0) for i in range(n))
            cols.append(solve_rational([tuple(row) for row in zip(*cartan)], rhs))
        object.__setattr__(self, "gram", tuple(zip(*cols)))

    def __repr__(self):
        return f"RootDatum({self.label!r})"

    def simple_root(self, i):
        """alpha_i in fundamental-weight coordinates (column i of Cartan)."""
        return tuple(row[i] for row in self.cartan)

    def reflect(self, i, weight):
        """Simple reflection s_i applied to a weight."""
        ai = self.simple_root(i)
        c = weight[i]
        return tuple(w - c * a for w, a in zip(weight, ai))

    def positive_roots(self):
        """Positive roots as coefficient tuples over the simple roots."""
        n = self.rank
        roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
        frontier = set(roots)
        while frontier:
            fresh = set()
            for m in frontier:
                for i in range(n):
                    # s_i in root coordinates
                    pairing = sum(self.cartan[i][j] * m[j] for j in range(n))
                    img = tuple(
                        m[j] - (pairing if j == i else 0) for j in range(n)
                    )
                    if all(x >= 0 for x in img) and any(x > 0 for x in img):
                        if img not in roots:
                            roots.add(img)
                            fresh.add(img)
            frontier = fresh
        return sorted(roots)

    def root_pairing(self, weight, root_coeffs):
        """(weight, alpha) for alpha given by simple-root coefficients."""
        return sum(
            m * dj * Fraction(w)
            for m, dj, w in zip(root_coeffs, self.d, weight)
        )

    def inner(self, x, y):
        return sum(
            Fraction(x[i]) * self.gram[i][j] * Fraction(y[j])
            for i in range(self.rank)
            for j in range(self.rank)
        )

    @property
    def rho(self):
        return tuple(1 for _ in range(self.rank))

    def is_dominant(self, weight):
        return all(Fraction(w) >= 0 for w in weight)

    def chamber_inequalities(self):
        n = self.rank
        return [
            (tuple(1 if j == i else 0 for j in range(n)), 0) for i in range(n)
        ]


@lru_cache(maxsize=None)
def root_datum(label):
    """Root datum from a label like "A1", "B2" or "A1xA1"."""
    parts = label.split("x")
    factors = []
    for part in parts:
        part = part.strip()
        if len(part) < 2 or part[0] not in "ABCD" or not part[1:].isdigit():
            raise RankError(f"cannot parse root datum label {label!r}")
        factors.append(_simple_factor(part[0], int(part[1:])))
    total = sum(len(c) for c, _ in factors)
    if total > RANK_CAP:
        raise RankError(f"total rank {total} exceeds the cap {RANK_CAP}")
    cartan = [[0] * total for _ in range(total)]
    d = []
    offset = 0
    for c, dv in factors:
        n = len(c)
        for i in range(n):
            for j in range(n):
                cartan[offset + i][offset + j] = c[i][j]
        d.extend(dv)
        offset += n
    return RootDatum(label, tuple(tuple(r) for r in cartan), tuple(d))


def _translates(datum, points):
    """The Weyl translates of a finite point set, each as its sorted points.

    The simple reflections generate W, so walking them from the sorted
    points until no new tuple appears reaches every translate.
    """
    start = tuple(sorted(points))
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for key in frontier:
            for i in range(datum.rank):
                img = tuple(sorted(datum.reflect(i, p) for p in key))
                if img not in seen:
                    seen.add(img)
                    fresh.append(img)
        frontier = fresh
    return seen


def weyl_orbit(datum, weight):
    """The Weyl group orbit of a weight, sorted."""
    if datum.rank > RANK_CAP:
        raise RankError("rank exceeds the orbit cap")
    return sorted(p for (p,) in _translates(datum, [tuple(Fraction(w) for w in weight)]))


def weyl_dimension(datum, weight):
    """Dimension of the simple module with the given dominant highest weight."""
    if len(weight) < datum.rank:  # coordinates past the rank: a central torus
        raise RankError(f"weight has {len(weight)} coordinates, rank is {datum.rank}")
    coords = []
    for w in weight:
        f = Fraction(w)
        if f < 0:
            raise NotDominantError(f"weight {tuple(weight)} is not dominant")
        if f.denominator != 1:
            raise NotDominantError(f"weight {tuple(weight)} is not integral")
        coords.append(int(f))
    rho = datum.rho
    shifted = tuple(c + r for c, r in zip(coords, rho))
    num = Fraction(1)
    den = Fraction(1)
    for alpha in datum.positive_roots():
        num *= datum.root_pairing(shifted, alpha)
        den *= datum.root_pairing(rho, alpha)
    dim = num / den
    assert dim.denominator == 1 and dim > 0
    return int(dim)


def dominant_hull(datum, weight):
    """conv(W * weight) intersected with the dominant chamber."""
    return _orbit_hulls(datum, weight)[1]


def _orbit_hulls(datum, weight):
    """(conv(W * weight), its dominant part) from one orbit and one hull."""
    if not datum.is_dominant(weight):
        raise NotDominantError(f"weight {tuple(weight)} is not dominant")
    hull = convex_hull(weyl_orbit(datum, weight))
    result = from_halfspaces(
        datum.rank,
        tuple(hull.inequalities) + tuple(datum.chamber_inequalities()),
        hull.equations,
    )
    assert result is not None  # the weight itself is in the intersection
    return hull, result


def is_w_admissible(datum, polytope):
    """Admissibility of a polytope for the Weyl group action.

    True iff the relative interior meets the closed dominant chamber and the
    distinct Weyl translates have pairwise disjoint relative interiors, as
    they have when a hyperplane separates them properly (Rockafellar,
    *Convex Analysis*, Thm 11.3).  A positive root's hyperplane does when
    the two translates' vertex images lie on opposite closed sides of it and
    not all on it; only a pair no root settles is hulled and intersected.
    """
    if datum.rank != polytope.ambient_rank:
        raise RankError("polytope rank does not match the root datum")
    chamber = datum.chamber_inequalities()
    meet = _halfspace_vertices(
        datum.rank, polytope.inequalities + tuple(chamber), polytope.equations
    )
    # A convex subset of a polytope avoiding its relative interior lies in a
    # single facet, so the barycenter of the meet's vertices decides it exactly.
    if not meet or not polytope.relint_contains(_barycenter(meet)):
        return False
    # An invertible map sends vertices to vertices, so a translate is known by
    # its sorted vertex images; one common denominator keeps them integral,
    # and a positive multiple keeps the signs of the root values and whether
    # two translates' relative interiors meet.
    r = polytope.ambient_rank
    flat = clear_denominators([x for v in polytope.vertices for x in v])
    translates = sorted(_translates(datum, [flat[i:i + r] for i in range(0, len(flat), r)]))
    if len(translates) == 1:
        return True
    # (x, alpha) up to a positive factor, for each positive root alpha
    roots = [clear_denominators([m * d for m, d in zip(alpha, datum.d)])
             for alpha in datum.positive_roots()]
    signs = []  # per translate: the roots >= 0 on it and the roots <= 0 on it, as bitmasks
    for images in translates:
        values = [[vec_dot(f, x) for x in images] for f in roots]
        signs.append((
            sum(1 << k for k, vals in enumerate(values) if min(vals) >= 0),
            sum(1 << k for k, vals in enumerate(values) if max(vals) <= 0),
        ))
    hulls = {}
    for a, (above_a, below_a) in enumerate(signs):
        for b in range(a + 1, len(signs)):
            above_b, below_b = signs[b]
            on_both = above_a & below_a & above_b & below_b
            if (above_a & below_b | below_a & above_b) & ~on_both:
                continue
            for t in (a, b):
                if t not in hulls:
                    hulls[t] = convex_hull(translates[t])
            if relative_interiors_meet(hulls[a], hulls[b]):
                return False
    return True
