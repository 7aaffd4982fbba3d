"""Reference subgroup computations by Smith normal form, apart from Hermite bases.

``integer_kernel``, ``solve_integer``, ``saturation_and_index`` and
``linalg.mat_inverse_unimodular`` are the library's earlier versions, which
read kernels, solutions and saturations off the unimodular transforms of a
Smith form; ``intersect`` is the earlier ``Lattice.intersect`` on that
kernel.  The library now reads all of them off canonical Hermite bases, and
these stay as an independent oracle.  ``mat_vec`` is the earlier
``linalg.mat_vec``.

The weight-group questions of validation are kept here in their earlier
form too.  ``rational_nullspace`` is the earlier ``linalg`` one, and
``intersect_subspace`` the earlier ``Lattice.intersect_subspace`` on it, in
Fractions.  ``span_matches_weight_group`` is the earlier ``Cell`` method, one
``solve_rational`` per ray.  ``quotient_invariants`` and ``is_direct_summand``
are the earlier ``lattice`` ones, which ask a full Smith form whether the
quotient is free; ``AbelianInvariants`` carries the earlier ``is_free``, and
``cokernel_invariants`` wraps the library's in it.
"""

from fractions import Fraction

from ssvlib import lattice
from ssvlib.errors import Record
from ssvlib.lattice import Lattice, coordinate_matrix, smith_normal_form
from ssvlib.linalg import (
    canonical_direction, clear_denominators, integer_rref, rref_nullspace, solve_rational, vec_dot
)


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


def rational_nullspace(m):
    """Basis of the right nullspace {x : m x = 0} over the rationals."""
    if not m:
        return []
    rows, pivots = integer_rref([clear_denominators(row) for row in m])
    d = rows[0][pivots[0]] if rows else 1
    return [tuple(Fraction(x, d) for x in w) for w in rref_nullspace(rows, pivots, len(m[0]))]


def intersect_subspace(self, spanning_vectors):
    """Sublattice of elements lying in the rational span of the vectors."""
    span_rows = [tuple(v) for v in spanning_vectors if any(x != 0 for x in v)]
    if not span_rows:
        return Lattice(self.ambient_rank)
    # Equations cutting out the span: vectors orthogonal to every row.
    nullspace = rational_nullspace(span_rows)
    equations = [canonical_direction(v) for v in nullspace]
    if not equations:
        return self
    if self.is_zero:
        return self
    coeff = tuple(
        tuple(sum(e[k] * row[k] for k in range(self.ambient_rank)) for row in self.basis)
        for e in equations
    )
    gens = [self.member(sol) for sol in integer_kernel(coeff)]
    return Lattice(self.ambient_rank, gens)


def span_matches_weight_group(self):
    """Rational span of the cone equals the span of the weight group."""
    rays = self.cone().rays
    if self.weight_group.rank != self.polytope.dim + 1:
        return False
    basis_cols = list(zip(*self.weight_group.basis))
    return all(solve_rational(basis_cols, r) is not None for r in rays)


class AbelianInvariants(Record):
    """Finitely generated abelian group: Z^free_rank + sum Z/t, t | next."""

    __slots__ = ("free_rank", "torsion")

    @property
    def is_free(self):
        return not self.torsion


def cokernel_invariants(relation_rows, ambient_rank):
    """Invariants of Z^ambient_rank modulo the row span of relation_rows."""
    invariants = lattice.cokernel_invariants(relation_rows, ambient_rank)
    return AbelianInvariants(invariants.free_rank, invariants.torsion)


def quotient_invariants(sub, ambient):
    """Invariants of ambient/sub (sub must be contained in ambient)."""
    if sub.is_zero:
        return AbelianInvariants(ambient.rank, ())
    return cokernel_invariants(coordinate_matrix(sub, ambient), ambient.rank)


def is_direct_summand(sub, ambient):
    """True iff ambient/sub is torsion-free."""
    return quotient_invariants(sub, ambient).is_free
