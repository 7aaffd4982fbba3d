"""Small exact linear algebra over the integers and rationals.

Matrices are tuples of tuples; vectors are tuples.  Entries are Python ints
or fractions.Fraction -- never floats.
"""

from fractions import Fraction
from math import gcd, lcm


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def primitive(v):
    """Scale a rational vector by a positive factor to primitive integers.

    Orientation is preserved: rays and facet normals are oriented objects.
    """
    ints = clear_denominators(v)
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g > 1 else ints


def canonical_direction(v):
    """Primitive vector with the first nonzero coordinate positive.

    Canonical representative of the line through v; used for equations and
    undirected edge directions, never for rays.
    """
    p = primitive(v)
    lead = next((a for a in p if a != 0), 0)
    if lead < 0:
        p = tuple(-a for a in p)
    return p


def clear_denominators(v):
    """Scale a rational vector by the positive lcm of denominators."""
    denom = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (denom // x.denominator) for x in v)


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_rank(m):
    return len(integer_rref([clear_denominators(row) for row in m])[1])


def integer_rref(m):
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss).

    Returns (rows, pivot_columns) with the pivot columns of the rational
    reduced row echelon form and rows equal to that form times the last
    pivot D, one value on every pivot.  Every entry is a minor of the input,
    so each step divides exactly by the previous pivot; a nonsingular square
    matrix ends at D I with D = +-det.
    """
    rows = [list(row) for row in m]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    prev = 1
    for c in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        p = top[c]
        for r, row in enumerate(rows):
            f = row[c]
            if r != rank and (f != 0 or p != prev):
                rows[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break  # every row holds a pivot and is fully reduced
    return rows[: len(pivots)], pivots


def rref_nullspace(rows, pivots, width):
    """Integer nullspace basis of a matrix from its ``integer_rref`` output.

    One vector per free column f: the pivot value at f, minus the rows'
    column-f entries at their pivots (Cramer's rule).  For a (k - 1) x k
    matrix of rank k - 1 this is, up to sign, its vector of signed maximal
    minors.
    """
    out = []
    for f in range(width):
        if f not in pivots:
            w = [0] * width
            w[f] = rows[0][pivots[0]] if rows else 1
            for row, p in zip(rows, pivots):
                w[p] = -row[f]
            out.append(tuple(w))
    return out


def solve_rational(m, b):
    """One solution of m x = b over the rationals, or None."""
    if not m:
        return () if all(x == 0 for x in b) else None
    ncols = len(m[0])
    aug = [clear_denominators(tuple(row) + (bi,)) for row, bi in zip(m, b)]
    rows, pivots = integer_rref(aug)
    sol = [Fraction(0)] * ncols
    for row, pc in zip(rows, pivots):
        if pc == ncols:
            return None
        sol[pc] = Fraction(row[ncols], row[pc])
    return tuple(sol)
