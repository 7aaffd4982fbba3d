"""Exact integer-lattice algebra: Hermite and Smith forms, subgroups of Z^d.

Everything uses arbitrary-precision Python ints.  Subgroups are represented
by a canonical Hermite-form basis, so equality of subgroups is equality of
representations; kernels, intersections, saturations and direct summands
come off Hermite bases.  Smith forms serve invariant factors only.
"""

from math import prod

from .errors import ContainmentError, Frozen, Record
from .linalg import (
    canonical_direction, clear_denominators, integer_rref, mat_identity, rref_nullspace, vec_dot
)


class SmithDecomposition(Record):
    """left * matrix * right is diagonal; left and right are unimodular."""

    __slots__ = ("left", "diag", "right")


def smith_normal_form(matrix):
    """Smith normal form with transforms.

    Returns SmithDecomposition(L, diag, R) with L*M*R diagonal, diagonal
    entries nonnegative and each dividing the next.
    """
    rows = [list(r) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    left = [list(r) for r in mat_identity(m)]
    right = [list(r) for r in mat_identity(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
        left[i] = [a - q * b for a, b in zip(left[i], left[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in rows:
            r[i] -= q * r[j]
        for r in right:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in rows:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    def negate_row(i):
        rows[i] = [-a for a in rows[i]]
        left[i] = [-a for a in left[i]]

    t = 0
    while t < min(m, n):
        # Locate a minimal nonzero entry in the remaining block.
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if rows[i][j] != 0 and (best is None or abs(rows[i][j]) < best[0]):
                    best = (abs(rows[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        if rows[t][t] < 0:
            negate_row(t)

        dirty = False
        for i in range(t + 1, m):
            if rows[i][t] != 0:
                q = rows[i][t] // rows[t][t]
                row_op(i, t, q)
                if rows[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if rows[t][j] != 0:
                q = rows[t][j] // rows[t][t]
                col_op(j, t, q)
                if rows[t][j] != 0:
                    dirty = True
        if dirty:
            continue

        # Enforce divisibility of the rest of the block by the pivot.
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if rows[i][j] % rows[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        t += 1

    diag = tuple(rows[i][i] for i in range(min(m, n)))
    return SmithDecomposition(
        tuple(tuple(r) for r in left), diag, tuple(tuple(r) for r in right)
    )


def invariant_factors(matrix):
    """Nonzero diagonal entries of the Smith form."""
    return tuple(d for d in smith_normal_form(matrix).diag if d != 0)


def hermite_basis(generators, width):
    """Canonical row-Hermite basis of the subgroup spanned by the rows.

    Pivots are positive and increase, later rows vanish at earlier pivots, and
    entries above each pivot are reduced into [0, pivot): one basis per
    subgroup.
    """
    rows = [list(g) for g in generators if any(x != 0 for x in g)]
    basis = []
    for col in range(width):
        carrier = None
        for r in rows:
            if r[col] != 0:
                carrier = r
                break
        if carrier is None:
            continue
        rows.remove(carrier)
        # Fold every other row with a nonzero entry in this column into it.
        for r in rows:
            while r[col] != 0:
                if abs(r[col]) < abs(carrier[col]):
                    carrier, r[:] = r[:], carrier
                q = r[col] // carrier[col]
                for k in range(width):
                    r[k] -= q * carrier[k]
        if carrier[col] < 0:
            carrier = [-x for x in carrier]
        # The carrier vanishes at every earlier pivot, so reducing the rows
        # above it here keeps their earlier reductions.
        for j, b in enumerate(basis):
            q = b[col] // carrier[col]
            if q != 0:
                basis[j] = [a - q * c for a, c in zip(b, carrier)]
        basis.append(carrier)
        rows = [r for r in rows if any(x != 0 for x in r)]
    return tuple(tuple(r) for r in basis)


def integer_kernel(matrix):
    """Hermite basis of the integer solutions of matrix * x = 0.

    For an m x n matrix M the rows (column j of M, e_j) span {(Mx, x)}; the
    rows of their Hermite basis that vanish on the first m coordinates, with
    those dropped, are the kernel's Hermite basis.
    """
    if not matrix:
        return ()
    m, n = len(matrix), len(matrix[0])
    rows = [
        tuple(row[j] for row in matrix) + tuple(int(i == j) for i in range(n))
        for j in range(n)
    ]
    return tuple(b[m:] for b in hermite_basis(rows, m + n) if not any(b[:m]))


class AbelianInvariants(Record):
    """Finitely generated abelian group: Z^free_rank + sum Z/t, t | next."""

    __slots__ = ("free_rank", "torsion")

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel_invariants(relation_rows, ambient_rank):
    """Invariants of Z^ambient_rank modulo the row span of relation_rows."""
    if not relation_rows:
        return AbelianInvariants(ambient_rank, ())
    factors = invariant_factors(relation_rows)
    torsion = tuple(d for d in factors if d > 1)
    return AbelianInvariants(ambient_rank - len(factors), torsion)


class Lattice(Frozen):
    """A finitely generated subgroup of Z^d in canonical Hermite form."""

    __slots__ = ("ambient_rank", "basis")

    def __init__(self, ambient_rank, generators=()):
        for g in generators:
            if len(g) != ambient_rank:
                raise ValueError("generator length does not match ambient rank")
            if any(not isinstance(x, int) for x in g):
                raise ValueError("lattice generators must be integers")
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "basis", hermite_basis(generators, ambient_rank))

    @classmethod
    def standard(cls, d):
        return cls(d, mat_identity(d))

    @property
    def rank(self):
        return len(self.basis)

    @property
    def is_zero(self):
        return not self.basis

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient_rank == other.ambient_rank
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.basis))

    def __repr__(self):
        return f"Lattice({self.ambient_rank}, {list(self.basis)})"

    def coordinates(self, vector):
        """Integer coordinates of vector in the canonical basis, or None."""
        if len(vector) != self.ambient_rank:
            raise ValueError("vector has wrong length")
        residue = list(vector)
        coords = []
        for row in self.basis:
            pcol = next(c for c in range(self.ambient_rank) if row[c] != 0)
            if residue[pcol] % row[pcol] != 0:
                return None
            q = residue[pcol] // row[pcol]
            coords.append(q)
            residue = [a - q * b for a, b in zip(residue, row)]
        if any(x != 0 for x in residue):
            return None
        return tuple(coords)

    def __contains__(self, vector):
        return self.coordinates(vector) is not None

    def member(self, coords):
        """The lattice element with the given basis coordinates."""
        v = [0] * self.ambient_rank
        for c, row in zip(coords, self.basis):
            for k in range(self.ambient_rank):
                v[k] += c * row[k]
        return tuple(v)

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

    def intersect_subspace(self, spanning_vectors):
        """Sublattice of elements lying in the rational span of the vectors.

        Its equations are the kernel of the vectors, read off the integer
        echelon form of their rows with denominators cleared.  That kernel is
        the rational one scaled by the last pivot, so ``canonical_direction``
        makes the same primitive equations of both.
        """
        span_rows = [clear_denominators(v) for v in spanning_vectors]
        kernel = rref_nullspace(*integer_rref(span_rows), self.ambient_rank)
        equations = [canonical_direction(v) for v in kernel]
        if not equations or self.is_zero:
            return self
        coeff = [[vec_dot(e, row) for row in self.basis] for e in equations]
        return Lattice(self.ambient_rank, [self.member(sol) for sol in integer_kernel(coeff)])


def coordinate_matrix(sub, ambient):
    """Rows: coordinates of sub's basis in ambient's basis.

    Raises ContainmentError if a generator of sub is outside ambient.
    """
    rows = []
    for g in sub.basis:
        c = ambient.coordinates(g)
        if c is None:
            raise ContainmentError(f"generator {g} is not in the ambient subgroup")
        rows.append(c)
    return tuple(rows)


def is_direct_summand(sub, ambient):
    """True iff ambient/sub is torsion-free; ContainmentError if sub is not inside.

    With C = U [D 0] V the coordinates of sub in ambient, U and V unimodular,
    the columns of C generate U D Z^k: all of Z^k, whose Hermite basis is the
    identity, exactly when every invariant factor is 1.
    """
    columns = list(zip(*coordinate_matrix(sub, ambient)))
    return hermite_basis(columns, sub.rank) == mat_identity(sub.rank)


def saturation_and_index(sub, ambient):
    """Saturation of sub in ambient and the index of sub in it.

    The saturation is ambient intersected with the rational span of sub; the
    index of sub inside it, always finite, is the product of the invariant
    factors of sub's coordinates in ambient.
    """
    index = prod(invariant_factors(coordinate_matrix(sub, ambient)))
    return ambient.intersect_subspace(sub.basis), index
