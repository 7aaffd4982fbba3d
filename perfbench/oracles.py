"""Reference computations the benchmark checks ssvlib's outputs against.

Nothing here imports ssvlib: every value is computed by plain exact
arithmetic (Fractions and integers) or by a closed form.
"""

import functools
import itertools
from fractions import Fraction
from math import factorial, gcd


def rank(rows):
    """Rank of a rational matrix by Gauss-Jordan elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def solve(rows, rhs):
    """The unique solution of a square nonsingular system, else None."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def det(rows):
    """Determinant of a square integer matrix (Bareiss elimination)."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# ---------------------------------------------------------------- polygons


def _affine_basis(points):
    """Indices of an affinely independent subset spanning the points."""
    chosen = []
    for i, p in enumerate(points):
        trial = chosen + [i]
        base = points[trial[0]]
        diffs = [[Fraction(x) - Fraction(y) for x, y in zip(points[j], base)] for j in trial[1:]]
        if rank(diffs) == len(trial) - 1:
            chosen = trial
    return chosen


def affine_interpolant(vertices, values):
    """Coefficients (c0, c1, ..., cd) of c0 + c.x through the given values.

    The vertices must span a full-dimensional cell; None if they do not.
    """
    basis = _affine_basis(vertices)
    d = len(vertices[0])
    if len(basis) != d + 1:
        return None
    rows = [(1,) + tuple(vertices[i]) for i in basis]
    return solve(rows, [values[i] for i in basis])


def evaluate_affine(coeffs, point):
    return coeffs[0] + sum(c * Fraction(x) for c, x in zip(coeffs[1:], point))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_polygon_area(vertices):
    """Area of a convex polygon given by its vertices in any order."""
    pts = [tuple(Fraction(x) for x in v) for v in vertices]
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    centre = (cx, cy)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def order(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return hp - hq
        c = _cross(centre, p, q)
        return -1 if c > 0 else (1 if c < 0 else 0)

    ring = sorted(pts, key=functools.cmp_to_key(order))
    twice = sum(
        a[0] * b[1] - b[0] * a[1] for a, b in zip(ring, ring[1:] + ring[:1])
    )
    return abs(twice) / 2


def piecewise_affine_dimension(cells):
    """Dimension of the functions on cell vertices that are affine on each cell.

    ``cells`` are vertex lists of full-dimensional cells in R^d.  Unknowns
    are one value per vertex and d+1 affine coefficients per cell; each
    vertex of each cell gives one equation.  Every cell is spanned by its
    vertices, so the solution space projects isomorphically to the values.
    """
    vertices = sorted({tuple(v) for cell in cells for v in cell})
    index = {v: i for i, v in enumerate(vertices)}
    d = len(vertices[0])
    width = len(vertices) + (d + 1) * len(cells)
    rows = []
    for k, cell in enumerate(cells):
        offset = len(vertices) + (d + 1) * k
        for v in cell:
            row = [0] * width
            row[index[tuple(v)]] = -1
            row[offset] = 1
            for j, x in enumerate(v):
                row[offset + 1 + j] = x
            rows.append(row)
    return width - rank(rows)


# ---------------------------------------------------------------- matroids


def box_points(r, ranks):
    """Integer points of the rank box with coordinate sum r, lex order."""
    return [
        p
        for p in itertools.product(*(range(m + 1) for m in ranks))
        if sum(p) == r
    ]


def count_by_coefficients(r, ranks):
    """Coefficient of x^r in prod_i (1 + x + ... + x^rank_i)."""
    poly = [1]
    for m in ranks:
        poly = [
            sum(poly[k - j] for j in range(m + 1) if 0 <= k - j < len(poly))
            for k in range(len(poly) + m)
        ]
    return poly[r] if r < len(poly) else 0


def greedy_vertices(r, ranks):
    """Vertices of the polymatroid base polytope, by Edmonds' greedy rule."""
    out = set()
    for order in itertools.permutations(range(len(ranks))):
        x = [0] * len(ranks)
        left = r
        for i in order:
            x[i] = min(ranks[i], left)
            left -= x[i]
        out.add(tuple(x))
    return out


def rank_preserving_permutations(ranks):
    n = len(ranks)
    return [
        perm
        for perm in itertools.permutations(range(n))
        if all(ranks[perm[i]] == ranks[i] for i in range(n))
    ]


def permute(point, perm):
    return tuple(point[perm[i]] for i in range(len(point)))


def in_hull(point, vertices):
    """Exact membership of a point in conv(vertices), by Caratheodory.

    Tries every affinely independent subset of at most dim+1 vertices for
    nonnegative barycentric coordinates.
    """
    if tuple(point) in {tuple(v) for v in vertices}:
        return True
    dim = len(_affine_basis(vertices)) - 1
    n = len(point)
    for size in range(2, dim + 2):
        for subset in itertools.combinations(vertices, size):
            if len(_affine_basis(list(subset))) != size:
                continue
            # sum_k lam_k v_k = point, sum lam = 1: solve on independent rows
            rows = [[1] * size] + [[v[i] for v in subset] for i in range(n)]
            rhs = [1] + list(point)
            aug = [row + [b] for row, b in zip(rows, rhs)]
            if rank(aug) != rank(rows):
                continue
            picked = []
            for row, b in zip(rows, rhs):
                if rank([r for r, _ in picked] + [row]) > len(picked):
                    picked.append((row, b))
                if len(picked) == size:
                    break
            lam = solve([r for r, _ in picked], [b for _, b in picked])
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def exchange_violation(points):
    """A pair breaking the M-convex exchange axiom, or None.

    For x, y in the set and i with x_i > y_i there must be j with
    x_j < y_j such that x - e_i + e_j and y + e_i - e_j are in the set.
    """
    members = set(points)
    for x in points:
        for y in points:
            for i in range(len(x)):
                if x[i] <= y[i]:
                    continue
                ok = False
                for j in range(len(x)):
                    if x[j] >= y[j]:
                        continue
                    a = list(x)
                    a[i] -= 1
                    a[j] += 1
                    b = list(y)
                    b[i] += 1
                    b[j] -= 1
                    if tuple(a) in members and tuple(b) in members:
                        ok = True
                        break
                if not ok:
                    return x, y, i
    return None


def hypersimplex_splits(n):
    """The splits x_0 + x_j = 1 of Delta(2, n) as sets of cell vertex sets."""
    points = box_points(2, (1,) * n)
    out = []
    for j in range(1, n):
        upper = frozenset(p for p in points if p[0] + p[j] >= 1)
        lower = frozenset(p for p in points if p[0] + p[j] <= 1)
        out.append(frozenset((upper, lower)))
    return out


# ---------------------------------------------------------------- root data

# Weyl group orders of the irreducible types the benchmark uses.
_WEYL_ORDER = {"A": lambda n: factorial(n + 1), "B": lambda n: 2**n * factorial(n)}


def _factors(label):
    return [(part[0], int(part[1:])) for part in label.split("x")]


def weyl_dimension_closed_form(label, weight):
    """Dimension of the simple module, from the textbook closed forms."""
    out = 1
    pos = 0
    for kind, n in _factors(label):
        w = [int(x) for x in weight[pos:pos + n]]
        pos += n
        if (kind, n) == ("A", 1):
            (a,) = w
            out *= a + 1
        elif (kind, n) == ("A", 2):
            a, b = w
            out *= (a + 1) * (b + 1) * (a + b + 2) // 2
        elif (kind, n) == ("A", 3):
            a, b, c = w
            out *= (
                (a + 1) * (b + 1) * (c + 1) * (a + b + 2) * (b + c + 2) * (a + b + c + 3)
            ) // 12
        elif (kind, n) == ("B", 2):
            a, b = w  # alpha_1 long: omega_1 is the 5-dimensional module
            out *= (a + 1) * (b + 1) * (a + b + 2) * (2 * a + b + 3) // 6
        else:
            raise ValueError(f"no closed form for {kind}{n}")
    return out


def weyl_orbit_size(label, weight):
    """|W| / |W_J| with J the simple roots orthogonal to a dominant weight."""
    size = 1
    pos = 0
    for kind, n in _factors(label):
        w = list(weight[pos:pos + n])
        pos += n
        stabiliser = 1
        if kind == "A":
            run = 0
            for x in w + [1]:
                if x == 0:
                    run += 1
                else:
                    stabiliser *= factorial(run + 1)
                    run = 0
        elif (kind, n) == ("B", 2):
            zeros = sum(1 for x in w if x == 0)
            stabiliser = (1, 2, 8)[zeros]
        else:
            raise ValueError(f"no stabiliser rule for {kind}{n}")
        size *= _WEYL_ORDER[kind](n) // stabiliser
    return size


# ---------------------------------------------------------------- heights


def segment_base_change(gamma_basis, heights):
    """Least N making the lower-hull function of (0,h0),(2,h1),(4,h2) integral.

    The function is linear on the cone over each lower-hull piece, and the
    lattice points of a full cone generate gamma, so N is the lcm of the
    denominators of each piece functional on a basis of gamma.  Returns
    (N, pieces) with pieces the lower-hull segments.
    """
    h0, h1, h2 = (Fraction(h) for h in heights)
    if h1 < (h0 + h2) / 2:
        pieces = [((0, h0), (2, h1)), ((2, h1), (4, h2))]
    else:
        pieces = [((0, h0), (4, h2))]
    n = 1
    for (xa, ha), (xb, hb) in pieces:
        slope = (hb - ha) / (xb - xa)
        const = ha - slope * xa  # value at (t, x) is const * t + slope * x
        for t, x in gamma_basis:
            den = (const * t + slope * x).denominator
            n = n * den // gcd(n, den)
    return n, [(a[0], b[0]) for a, b in pieces]
