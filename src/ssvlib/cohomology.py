"""Cohomology of the gluing complex of cell automorphism groups.

Diagonalizable groups are handled through their character groups (finitely
generated abelian groups presented as cokernels); the anti-equivalence turns
the Cech complex on the maximal cells into a complex of integer matrices
whose cocycles are an integer kernel, read off a Hermite basis, and whose
invariants come from a Smith form.  H^0 is the automorphism group of the
glued object and H^1 classifies twisted gluings.
"""

import itertools

from .errors import IncompatibleRestrictionError, MissingAutError, Record
from .lattice import Lattice, cokernel_invariants, integer_kernel
from .linalg import mat_identity


class DiagGroup(Record):
    """A diagonalizable group, encoded by its character group.

    The character group is Z^rank modulo the row span of ``relations``.
    """

    __slots__ = ("rank", "relations")
    _defaults = {"relations": tuple}

    def __post_init__(self):
        rels = tuple(tuple(r) for r in self.relations)
        for r in rels:
            if len(r) != self.rank:
                raise ValueError("relation length does not match the rank")
        object.__setattr__(self, "relations", rels)

    def invariants(self):
        return cokernel_invariants(self.relations, self.rank)

    def relation_lattice(self):
        return Lattice(self.rank, self.relations)

    @property
    def is_trivial(self):
        return self.invariants().is_trivial

    def __str__(self):
        inv = self.invariants()
        if inv.is_trivial:
            return "trivial"
        parts = []
        if inv.free_rank:
            parts.append(f"Gm^{inv.free_rank}" if inv.free_rank > 1 else "Gm")
        parts.extend(f"mu_{t}" for t in inv.torsion)
        return " x ".join(parts)


class DiagHom(Record):
    """Morphism of diagonalizable groups as a character-group map.

    The matrix rows are the images in Z^{rank(source char group)} of the
    generators of the target's character group (the map is contravariant).
    """

    __slots__ = ("source", "target", "matrix")

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.matrix)
        if len(rows) != self.target.rank:
            raise ValueError("matrix must have one row per target generator")
        for r in rows:
            if len(r) != self.source.rank:
                raise ValueError("matrix row length must match the source rank")
        object.__setattr__(self, "matrix", rows)

    def is_well_defined(self):
        """Relations of the target must map into relations of the source."""
        rel = self.source.relation_lattice()
        for r in self.target.relations:
            image = _row_apply(r, self.matrix, self.source.rank)
            if image not in rel and any(x != 0 for x in image):
                return False
        return True


def _row_apply(vector, matrix_rows, width):
    out = [0] * width
    for c, row in zip(vector, matrix_rows):
        if c:
            for i in range(width):
                out[i] += c * row[i]
    return tuple(out)


class _Level(Record):
    __slots__ = ("keys", "groups", "offsets", "total")
    _defaults = {"keys": list, "groups": list, "offsets": list, "total": int}
    __setattr__ = object.__setattr__
    __hash__ = None

    def add(self, key, group):
        self.keys.append(key)
        self.groups.append(group)
        self.offsets.append(self.total)
        self.total += group.rank


class GluingComplex(Record):
    """Three-term complex of diagonalizable groups on the maximal cells.

    ``d0_rows``/``d1_rows`` are the dual (character-level) differentials:
    rows are images of the level-1 resp. level-2 character generators.
    """

    __slots__ = ("maximal_ids", "level0", "level1", "level2", "d0_rows", "d1_rows")


def _toric_group(cell):
    return DiagGroup(cell.weight_group.rank)


def _toric_restriction(cell, face_cell):
    """Character map dual to restricting torus automorphisms to a face."""
    rows = []
    for basis_vec in face_cell.weight_group.basis:
        coords = cell.weight_group.coordinates(basis_vec)
        if coords is None:
            raise IncompatibleRestrictionError(
                f"face group of {face_cell.id} is not inside cell {cell.id}"
            )
        rows.append(coords)
    return tuple(rows)


def _supplied_group(cell):
    if cell.aut is None:
        raise MissingAutError(f"cell {cell.id} carries no automorphism data")
    return DiagGroup(cell.aut.rank, cell.aut.relations)


def _supplied_restriction(cell, face_cell):
    if cell.aut is None:
        raise MissingAutError(f"cell {cell.id} carries no automorphism data")
    restriction = cell.aut.restriction_to(face_cell.id)
    if restriction is None:
        raise MissingAutError(f"cell {cell.id} has no restriction map to face {face_cell.id}")
    return tuple(tuple(r) for r in restriction.matrix)


def _intersection_cell(complex_, cells):
    """The stored cell on the common vertices of the cells, None if disjoint.

    In a valid complex every intersection of cells is a common face, so its
    vertices are exactly the vertices the cells share.
    """
    common = complex_._masks[cells[0].id]
    for other in cells[1:]:
        common &= complex_._masks[other.id]
    if not common:
        return None
    stored = complex_._by_mask.get(common)
    if stored is None:
        ids = ",".join(c.id for c in cells)
        raise MissingAutError(f"intersection of {ids} is not a stored cell")
    return stored


def build_gluing_complex(complex_, mode="toric"):
    """The Cech complex of automorphism groups on the maximal cells.

    In toric mode every cell automorphism group is the full torus of its
    weight group and restrictions are dual to weight-group inclusions; in
    supplied mode the cells must carry automorphism data with restriction
    maps to every relevant intersection cell.
    """
    complex_.ensure_valid()
    if mode not in ("toric", "supplied"):
        raise ValueError(f"unknown mode {mode!r}")
    group_of = _toric_group if mode == "toric" else _supplied_group
    restriction_of = _toric_restriction if mode == "toric" else _supplied_restriction

    maximal = complex_.maximal_cells()
    n = len(maximal)
    level0 = _Level()
    for i, cell in enumerate(maximal):
        level0.add((i,), group_of(cell))

    level1, level2 = _Level(), _Level()
    meet_cells = {}  # pairs and triples of maximal cells -> their stored intersection
    for level, size in ((level1, 2), (level2, 3)):
        for key in itertools.combinations(range(n), size):
            cell = meet_cells[key] = _intersection_cell(complex_, [maximal[i] for i in key])
            level.add(key, group_of(cell) if cell is not None else DiagGroup(0))

    # d0 dual: X(Y_ij) -> X(Y_j) - X(Y_i), blockwise.
    d0_rows = []
    for idx, (i, j) in enumerate(level1.keys):
        cell = meet_cells[(i, j)]
        group = level1.groups[idx]
        if cell is None or group.rank == 0:
            continue
        to_i = restriction_of(maximal[i], cell)
        to_j = restriction_of(maximal[j], cell)
        _check_hom(level0.groups[i], group, to_i, maximal[i].id, cell.id)
        _check_hom(level0.groups[j], group, to_j, maximal[j].id, cell.id)
        for g in range(group.rank):
            row = [0] * level0.total
            _add_block(row, level0.offsets[j], to_j[g], 1)
            _add_block(row, level0.offsets[i], to_i[g], -1)
            d0_rows.append((level1.offsets[idx] + g, tuple(row)))
    d0 = _assemble(d0_rows, level1.total, level0.total)

    # d1 dual: X(Y_ijk) -> X(Y_jk) - X(Y_ik) + X(Y_ij).
    d1_rows = []
    for idx, (i, j, k) in enumerate(level2.keys):
        cell = meet_cells[(i, j, k)]
        group = level2.groups[idx]
        if cell is None or group.rank == 0:
            continue
        maps = {}
        for pair, sign in (((j, k), 1), ((i, k), -1), ((i, j), 1)):
            # a pair meets where its triple does, so its cell is stored
            maps[pair] = (restriction_of(meet_cells[pair], cell), sign)
        for g in range(group.rank):
            row = [0] * level1.total
            for pair, (matrix, sign) in maps.items():
                pidx = level1.keys.index(pair)
                _add_block(row, level1.offsets[pidx], matrix[g], sign)
            d1_rows.append((level2.offsets[idx] + g, tuple(row)))
    d1 = _assemble(d1_rows, level2.total, level1.total)

    # d o d must vanish modulo the relations of the level-0 term.
    rel0 = _relation_rows(level0)
    rel_lattice = Lattice(level0.total, rel0) if rel0 else None
    for r2 in d1:
        composite = _row_apply(r2, d0, level0.total)
        if any(x != 0 for x in composite):
            if rel_lattice is None or composite not in rel_lattice:
                raise IncompatibleRestrictionError("restriction maps do not square to zero")
    return GluingComplex(tuple(c.id for c in maximal), level0, level1, level2, d0, d1)


def _check_hom(source_group, target_group, matrix, source_id, target_id):
    hom = DiagHom(source_group, target_group, matrix)
    if not hom.is_well_defined():
        raise IncompatibleRestrictionError(
            f"restriction from {source_id} to {target_id} is not well defined"
        )


def _add_block(row, offset, values, sign):
    for t, v in enumerate(values):
        row[offset + t] += sign * v


def _assemble(indexed_rows, height, width):
    rows = [tuple([0] * width) for _ in range(height)]
    for idx, row in indexed_rows:
        rows[idx] = row
    return tuple(rows)


def _relation_rows(level):
    rows = []
    for group, offset in zip(level.groups, level.offsets):
        for rel in group.relations:
            row = [0] * level.total
            _add_block(row, offset, rel, 1)
            rows.append(tuple(row))
    return rows


def diag_cohomology(gluing, degree):
    """H^degree of the gluing complex as a diagonalizable group.

    Characters of H^0 form the cokernel of the dual d0 (modulo level-0
    relations); characters of H^1 are ker(d0)/im(d1) computed inside the
    level-1 character group.
    """
    if degree == 0:
        relations = _relation_rows(gluing.level0) + [
            r for r in gluing.d0_rows if any(x != 0 for x in r)
        ]
        return DiagGroup(gluing.level0.total, tuple(relations))
    if degree != 1:
        raise ValueError("only H^0 and H^1 are computed")
    d1_total = gluing.level1.total
    if d1_total == 0:
        return DiagGroup(0)
    rel0 = _relation_rows(gluing.level0)
    # x in ker iff x . d0 lies in the span of the level-0 relations.
    width0 = gluing.level0.total
    stacked = [tuple(gluing.d0_rows[r][i] for r in range(d1_total)) + tuple(-rel[i] for rel in rel0)
               for i in range(width0)]
    basis = [k[:d1_total] for k in integer_kernel(stacked)] if stacked else mat_identity(d1_total)
    kernel_lattice = Lattice(d1_total, basis)
    mod_rows = _relation_rows(gluing.level1) + [r for r in gluing.d1_rows if any(x != 0 for x in r)]
    relations = []
    for r in mod_rows:
        coords = kernel_lattice.coordinates(r)
        if coords is None:
            raise IncompatibleRestrictionError("image row escapes the kernel lattice")
        relations.append(coords)
    return DiagGroup(kernel_lattice.rank, tuple(relations))


def cohomology_invariants(complex_, mode="toric"):
    """(H0, H1) abelian invariants of the gluing complex of a complex."""
    gluing = build_gluing_complex(complex_, mode=mode)
    h0 = diag_cohomology(gluing, 0).invariants()
    h1 = diag_cohomology(gluing, 1).invariants()
    return h0, h1
