"""Small exact linear algebra over the integers and rationals.

Matrices are tuples of tuples; vectors are tuples.  Entries are Python ints
or fractions.Fraction -- never floats.
"""

from fractions import Fraction
from math import gcd


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def primitive(v):
    """Scale a rational vector by a positive factor to primitive integers.

    Orientation is preserved: rays and facet normals are oriented objects.
    """
    if all(x == 0 for x in v):
        return tuple(0 for _ in v)
    fracs = [Fraction(x) for x in v]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(a // g for a in ints)


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
    fracs = [Fraction(x) for x in v]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    return tuple(int(f * denom) for f in fracs)


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    bt = mat_transpose(b)
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def mat_vec(m, v):
    return tuple(vec_dot(row, v) for row in m)


def mat_det(m):
    """Exact determinant (fraction-free for ints, Gaussian otherwise)."""
    n = len(m)
    if n == 0:
        return 1
    rows = [list(map(Fraction, row)) for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, n):
            if rows[r][c] != 0:
                f = rows[r][c] * inv
                for k in range(c, n):
                    rows[r][k] -= f * rows[c][k]
    if det.denominator == 1:
        return int(det)
    return det


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


def mat_inverse_unimodular(m):
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(m)
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        sol = solve_rational(m, e)
        cols.append(tuple(int(x) for x in sol))
    return mat_transpose(cols)
