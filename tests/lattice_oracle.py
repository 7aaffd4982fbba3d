"""Reference subgroup computations by Smith normal form, apart from Hermite bases.

``integer_kernel``, ``solve_integer``, ``saturation_and_index`` and
``linalg.mat_inverse_unimodular`` are the library's earlier versions, which
read kernels, solutions and saturations off the unimodular transforms of a
Smith form; ``intersect`` is the earlier ``Lattice.intersect`` on that
kernel.  The library now reads all of them off canonical Hermite bases, and
these stay as an independent oracle.  ``mat_vec`` is the earlier
``linalg.mat_vec``.
"""

from ssvlib.lattice import Lattice, coordinate_matrix, smith_normal_form
from ssvlib.linalg import solve_rational, vec_dot


def mat_vec(m, v):
    return tuple(vec_dot(row, v) for row in m)


def mat_inverse_unimodular(m):
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(m)
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        sol = solve_rational(m, e)
        cols.append(tuple(int(x) for x in sol))
    return tuple(zip(*cols))


def integer_kernel(matrix):
    """Basis of the integer solutions of matrix * x = 0."""
    if not matrix:
        return ()
    n = len(matrix[0])
    snf = smith_normal_form(matrix)
    rank = sum(1 for d in snf.diag if d != 0)
    cols = tuple(zip(*snf.right))
    return tuple(cols[j] for j in range(rank, n))


def solve_integer(matrix, target):
    """One integer solution of matrix * x = target, or None."""
    if not matrix:
        return None
    snf = smith_normal_form(matrix)
    lb = mat_vec(snf.left, target)
    n = len(matrix[0])
    y = [0] * n
    for i, v in enumerate(lb):
        d = snf.diag[i] if i < len(snf.diag) else 0
        if d == 0:
            if v != 0:
                return None
        else:
            if v % d != 0:
                return None
            y[i] = v // d
    return mat_vec(snf.right, tuple(y))


def intersect(self, other):
    """Intersection with another subgroup of the same ambient Z^d."""
    if self.ambient_rank != other.ambient_rank:
        raise ValueError("ambient ranks differ")
    if self.is_zero or other.is_zero:
        return Lattice(self.ambient_rank)
    # Solve a*B1 - b*B2 = 0; columns are the stacked coefficients.
    k1, k2 = self.rank, other.rank
    matrix = tuple(
        tuple(self.basis[i][r] for i in range(k1))
        + tuple(-other.basis[j][r] for j in range(k2))
        for r in range(self.ambient_rank)
    )
    gens = []
    for sol in integer_kernel(matrix):
        a = sol[:k1]
        gens.append(self.member(a))
    return Lattice(self.ambient_rank, gens)


def saturation_and_index(sub, ambient):
    """Saturation of sub in ambient and the index of sub in it.

    The saturation is ambient intersected with the rational span of sub; the
    index of sub inside it is always finite.
    """
    if sub.is_zero:
        return Lattice(ambient.ambient_rank), 1
    coords = coordinate_matrix(sub, ambient)
    snf = smith_normal_form(coords)
    rank = sum(1 for d in snf.diag if d != 0)
    rinv = mat_inverse_unimodular(snf.right)
    gens = [ambient.member(rinv[i]) for i in range(rank)]
    index = 1
    for d in snf.diag[:rank]:
        index *= d
    return Lattice(ambient.ambient_rank, gens), index
