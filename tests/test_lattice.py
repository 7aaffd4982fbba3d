import random
from fractions import Fraction

import lattice_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_oracle import quotient_invariants
from sympy import Matrix

from ssvlib import lattice
from ssvlib.cohomology import build_gluing_complex, diag_cohomology
from ssvlib.complexes import Cell, SSVComplex, complete_faces, validate_complex
from ssvlib.degeneration import regular_subdivision
from ssvlib.fixtures import triangle_pair_complex
from ssvlib.lattice import (
    AbelianInvariants,
    Lattice,
    cokernel_invariants,
    coordinate_matrix,
    hermite_basis,
    integer_kernel,
    invariant_factors,
    is_direct_summand,
    saturation_and_index,
    smith_normal_form,
)
from ssvlib.polyhedral import cone_over, convex_hull
from ssvlib.linalg import integer_rref
from ssvlib.errors import ContainmentError

EXAMPLES = settings(max_examples=200, deadline=None, derandomize=True, database=None)
entry = st.integers(-6, 6)


def product(*matrices):
    """The exact product, by sympy, as a tuple of int rows."""
    out = Matrix(matrices[0])
    for m in matrices[1:]:
        out = out * Matrix(m)
    return tuple(tuple(int(x) for x in out.row(i)) for i in range(out.rows))


def reconstruct(snf, matrix):
    return product(snf.left, matrix, snf.right)


def assert_valid_snf(matrix):
    snf = smith_normal_form(matrix)
    prod = reconstruct(snf, matrix)
    for i, row in enumerate(prod):
        for j, entry in enumerate(row):
            expected = snf.diag[i] if i == j and i < len(snf.diag) else 0
            assert entry == expected
    for a, b in zip(snf.diag, snf.diag[1:]):
        assert a >= 0 and b >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert abs(Matrix(snf.left).det()) == 1
    assert abs(Matrix(snf.right).det()) == 1
    return snf


def test_snf_identity():
    snf = assert_valid_snf(((1, 0), (0, 1)))
    assert snf.diag == (1, 1)


def test_snf_diagonal_2_3():
    # gcd 1, product of invariant factors 6
    snf = assert_valid_snf(((2, 0), (0, 3)))
    assert snf.diag == (1, 6)


def test_snf_2x2_dense():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    snf = assert_valid_snf(((2, 4), (6, 8)))
    assert snf.diag == (2, 4)


def test_snf_rectangular_and_zero():
    assert assert_valid_snf(((0, 0), (0, 0))).diag == (0, 0)
    assert assert_valid_snf(((4, 6, 10),)).diag == (2,)
    snf = assert_valid_snf(((2,), (3,), (4,)))
    assert snf.diag == (1,)


def test_snf_randomized_reconstruction():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        matrix = tuple(
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m)
        )
        assert_valid_snf(matrix)


def random_unimodular(rng, n):
    # Product of elementary shears and swaps.
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in rows)


def test_snf_invariant_under_unimodular_multiplication():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 4)
        matrix = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        u = random_unimodular(rng, n)
        v = random_unimodular(rng, n)
        transformed = product(u, matrix, v)
        assert smith_normal_form(matrix).diag == smith_normal_form(transformed).diag


@st.composite
def square_matrices(draw):
    """(rows, singular): an n x n integer matrix, n <= 5, whose last row is
    an integer combination of the others when ``singular``."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    singular = draw(st.booleans())
    if singular:
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    return rows, singular


@EXAMPLES
@given(square_matrices())
def test_integer_rref_ends_at_the_determinant_times_identity(case):
    rows, singular = case
    n = len(rows)
    det = Matrix(rows).det()
    reduced, pivots = integer_rref(rows)
    if singular:
        assert det == 0
    if det == 0:
        assert len(pivots) < n
    else:
        last = reduced[-1][-1]
        assert abs(last) == abs(det)
        assert reduced == [[last if i == j else 0 for j in range(n)] for i in range(n)]


def test_integer_kernel_and_solve():
    matrix = ((2, 4, 6), (1, 2, 3))
    for k in integer_kernel(matrix):
        assert all(sum(row[i] * k[i] for i in range(3)) == 0 for row in matrix)
    assert len(integer_kernel(matrix)) == 2


def test_hermite_canonical_and_membership():
    l1 = Lattice(2, [(1, 1), (1, -1)])
    l2 = Lattice(2, [(1, -1), (2, 0)])
    assert l1 == l2
    assert (2, 0) in l1
    assert (1, 0) not in l1
    assert l1.coordinates((3, 1)) is not None
    # each pivot reduces the rows above it once it is appended, so a later
    # pivot cannot undo an earlier reduction
    l3 = Lattice(3, [(0, 0, 2), (0, 1, 1), (1, 1, 0)])
    assert l3.basis == ((1, 0, 1), (0, 1, 1), (0, 0, 2))
    assert l3 == Lattice(3, [(1, 0, -1), (0, 1, 1), (0, 0, 2)])


def test_zero_lattice():
    z = Lattice(3)
    assert z.is_zero and z.rank == 0
    sat, idx = saturation_and_index(z, Lattice.standard(3))
    assert sat.is_zero and idx == 1


def test_direct_summand_examples():
    z2 = Lattice.standard(2)
    assert is_direct_summand(Lattice(2, [(1, 0)]), z2)
    assert not is_direct_summand(Lattice(1, [(2,)]), Lattice.standard(1))
    assert not is_direct_summand(Lattice(2, [(1, 1), (1, -1)]), z2)


def test_direct_summand_containment_error():
    with pytest.raises(ContainmentError):
        is_direct_summand(Lattice(1, [(1,)]), Lattice(1, [(2,)]))


def test_saturation_examples():
    z1 = Lattice.standard(1)
    sat, idx = saturation_and_index(Lattice(1, [(2,)]), z1)
    assert sat == z1 and idx == 2

    z2 = Lattice.standard(2)
    sat, idx = saturation_and_index(Lattice(2, [(2, 0), (0, 3)]), z2)
    assert sat == z2 and idx == 6

    diag = Lattice(2, [(1, 1)])
    sat, idx = saturation_and_index(diag, z2)
    assert sat == diag and idx == 1

    with pytest.raises(ContainmentError):
        saturation_and_index(Lattice(1, [(1,)]), Lattice(1, [(2,)]))


def test_saturation_idempotent_and_index_matches_torsion():
    rng = random.Random(23)
    z3 = Lattice.standard(3)
    for _ in range(60):
        gens = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(rng.randint(1, 3))]
        sub = Lattice(3, gens)
        sat, idx = saturation_and_index(sub, z3)
        again, idx2 = saturation_and_index(sat, z3)
        assert again == sat and idx2 == 1
        inv = quotient_invariants(sub, sat)
        prod = 1
        for t in inv.torsion:
            prod *= t
        assert inv.free_rank == 0 and prod == idx


def test_direct_summand_agrees_with_torsion_freeness():
    rng = random.Random(5)
    z3 = Lattice.standard(3)
    for _ in range(80):
        gens = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(1, 3))]
        sub = Lattice(3, gens)
        assert is_direct_summand(sub, z3) == quotient_invariants(sub, z3).is_free


def test_lattice_intersection():
    a = Lattice(2, [(2, 0), (0, 1)])
    b = Lattice(2, [(3, 0), (0, 1)])
    assert a.intersect(b) == Lattice(2, [(6, 0), (0, 1)])


def test_intersect_subspace():
    gamma = Lattice(3, [(1, 0, 0), (1, 2, 0), (1, 4, 2)])
    # span of the cone over the segment [(2,0),(4,2)]
    sub = gamma.intersect_subspace([(1, 2, 0), (1, 4, 2)])
    assert sub == Lattice(3, [(1, 2, 0), (1, 4, 2)])
    # span of the cone over the segment [(4,0),(4,2)]
    sub2 = gamma.intersect_subspace([(1, 4, 0), (1, 4, 2)])
    assert sub2 == Lattice(3, [(1, 4, 0), (0, 0, 2)])


def test_cokernel_invariants():
    inv = cokernel_invariants(((2, 0), (0, 3)), 2)
    assert inv == AbelianInvariants(0, (6,))
    assert str(inv) == "Z/6"


def test_invariant_factors():
    assert invariant_factors(((2, 4), (6, 8))) == (2, 4)


def spans(rows, vector):
    """Whether vector is an integer combination of rows, by the Smith oracle."""
    if not rows:
        return not any(vector)
    return oracle.solve_integer(tuple(zip(*rows)), vector) is not None


def random_row_operations(rng, rows):
    """The rows after random swaps, negations and shears: the same subgroup."""
    rows = [list(r) for r in rows]
    for _ in range(3 * len(rows)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
            rows[i], rows[j] = rows[j], rows[i]
    return [tuple(r) for r in rows]


@st.composite
def generator_sets(draw, max_width=6):
    width = draw(st.integers(1, max_width))
    return width, draw(st.lists(st.tuples(*[entry] * width), max_size=6))


@EXAMPLES
@given(generator_sets(), st.randoms(use_true_random=False))
def test_hermite_basis_is_canonical(case, rng):
    width, gens = case
    basis = hermite_basis(gens, width)
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(basis, pivots)):
        assert row[p] > 0
        assert all(0 <= above[p] < row[p] for above in basis[:i])
    assert all(spans(basis, g) for g in gens)
    assert all(spans(gens, b) for b in basis)
    assert hermite_basis(basis, width) == basis
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert hermite_basis(shuffled, width) == basis
    if gens:
        assert hermite_basis(random_row_operations(rng, gens), width) == basis


@EXAMPLES
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.tuples(*[entry] * n), min_size=1, max_size=5)))
def test_integer_kernel_generates_the_smith_kernel(matrix):
    kernel = integer_kernel(matrix)
    for k in kernel:
        assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in matrix)
    expected = oracle.integer_kernel(matrix)
    assert all(spans(expected, k) for k in kernel)
    assert all(spans(kernel, k) for k in expected)
    assert kernel == hermite_basis(expected, len(matrix[0]))


@st.composite
def subgroup_pairs(draw):
    """(sub, ambient) with sub inside ambient, both of Z^width."""
    width, gens = draw(generator_sets(max_width=5))
    ambient = Lattice(width, gens)
    coords = draw(st.lists(st.tuples(*[entry] * ambient.rank), max_size=5))
    return Lattice(width, [ambient.member(c) for c in coords]), ambient


@EXAMPLES
@given(subgroup_pairs())
def test_saturation_and_index_match_the_smith_oracle(case):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    sub, ambient = case
    sat, index = saturation_and_index(sub, ambient)
    assert (sat, index) == oracle.saturation_and_index(sub, ambient)
    expected = 1
    coords = coordinate_matrix(sub, ambient)
    if coords:
        for f in sympy_factors(Matrix([list(r) for r in coords]), domain=ZZ):
            expected *= int(f) or 1
    assert index == expected


@EXAMPLES
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*[entry] * n), max_size=5),
    st.lists(st.tuples(*[entry] * n), max_size=5),
)))
def test_intersection_matches_the_smith_oracle(case):
    width, gens1, gens2 = case
    a, b = Lattice(width, gens1), Lattice(width, gens2)
    assert a.intersect(b) == oracle.intersect(a, b) == b.intersect(a)


def test_subgroups_come_off_the_hermite_form(monkeypatch):
    def refuse(matrix):
        raise AssertionError("no Smith form is needed")

    gluing = build_gluing_complex(triangle_pair_complex(), mode="toric")
    expected = [diag_cohomology(gluing, d) for d in (0, 1)]
    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    assert integer_kernel(((2, 4, 6), (1, 2, 3))) == ((1, 1, -1), (0, 3, -2))
    a = Lattice(2, [(2, 0), (0, 1)])
    assert a.intersect(Lattice(2, [(3, 0), (0, 1)])) == Lattice(2, [(6, 0), (0, 1)])
    gamma = Lattice(3, [(1, 0, 0), (1, 2, 0), (1, 4, 2)])
    sub = gamma.intersect_subspace([(1, 4, 0), (1, 4, 2)])
    assert sub == Lattice(3, [(1, 4, 0), (0, 0, 2)])
    assert [diag_cohomology(gluing, d) for d in (0, 1)] == expected


# Weight groups, against the earlier Fraction and Smith paths of the oracle.

halves_and_thirds = st.builds(Fraction, entry, st.sampled_from([1, 2, 3]))


@st.composite
def subspace_cases(draw):
    """A lattice, often the zero one or not saturated, and rows spanning a subspace.

    The rows carry denominators 2 and 3, as face vertices (1,) + v do, and
    some are zero; up to width + 1 of them often span the whole space.
    """
    width, gens = draw(generator_sets(max_width=5))
    rows = draw(st.lists(st.tuples(*[halves_and_thirds] * width), max_size=width + 1))
    rows += [(0,) * width] * draw(st.integers(0, 2))
    return Lattice(width, gens), draw(st.permutations(rows))


@EXAMPLES
@given(subspace_cases())
def test_intersect_subspace_matches_the_fraction_nullspace(case):
    group, rows = case
    assert group.intersect_subspace(rows) == oracle.intersect_subspace(group, rows)


def test_intersect_subspace_clears_denominators():
    # the cone over the vertex (1/2, 1/3) is the line through (6, 3, 2), and
    # that over the segment from (1/2, 0) to (0, 1/3) is x = 2y + 3z
    line = Lattice.standard(3).intersect_subspace([(1, Fraction(1, 2), Fraction(1, 3))])
    assert line == Lattice(3, [(6, 3, 2)])
    plane = Lattice.standard(3).intersect_subspace([(1, Fraction(1, 2), 0), (1, 0, Fraction(1, 3))])
    assert plane == Lattice(3, [(2, 1, 0), (3, 0, 1)])
    assert Lattice.standard(2).intersect_subspace([(0, 0)]) == Lattice(2)


@st.composite
def cells_with_groups(draw):
    """A cell whose weight group has the cone's span, or is any group of Z^(1+r).

    Groups drawn from the rays are integer combinations of them: of the
    right span and rank, often not saturated, or of too small a rank.  The
    other groups mostly have the wrong rank, or the right rank and the
    wrong span.
    """
    r = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=1, max_size=5))
    polytope = convex_hull(points)
    rays = cone_over(polytope).rays
    if draw(st.booleans()):
        combos = draw(st.lists(st.tuples(*[entry] * len(rays)), max_size=4))
        gens = [tuple(sum(c * ray[k] for c, ray in zip(combo, rays)) for k in range(r + 1))
                for combo in combos]
    else:
        gens = draw(st.lists(st.tuples(*[entry] * (r + 1)), max_size=4))
    return Cell("c", polytope, Lattice(r + 1, gens))


@EXAMPLES
@given(cells_with_groups())
def test_span_test_matches_one_solve_per_ray(cell):
    assert cell.span_matches_weight_group() == oracle.span_matches_weight_group(cell)


def test_span_test_examples():
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert Cell("c", square, Lattice(3, [(1, 0, 0), (0, 2, 0), (0, 0, 3)])).span_matches_weight_group()
    segment = convex_hull([(0, 0), (1, 0)])
    # the right rank, the wrong span; a smaller rank inside the span; a larger one
    for gens in ([(1, 0, 0), (0, 0, 1)], [(1, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        assert not Cell("c", segment, Lattice(3, gens)).span_matches_weight_group()
    assert Cell("c", segment, Lattice(3, [(2, 0, 0), (0, 4, 0)])).span_matches_weight_group()


def _outcome(test, sub, ambient):
    try:
        return test(sub, ambient)
    except ContainmentError:
        return "not contained"


@EXAMPLES
@given(subgroup_pairs(), st.booleans(), st.data())
def test_direct_summand_matches_the_smith_quotient(case, stray, data):
    # ambients are arbitrary subgroups, and subgroups are often of rank 0;
    # a stray subgroup of the same Z^width is often not inside the ambient
    sub, ambient = case
    if stray:
        width = ambient.ambient_rank
        sub = Lattice(width, data.draw(st.lists(st.tuples(*[entry] * width), max_size=3)))
    assert _outcome(is_direct_summand, sub, ambient) == _outcome(oracle.is_direct_summand, sub, ambient)


def test_a_completed_toric_subdivision_validates_with_no_smith_form(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return smith_normal_form(matrix)

    monkeypatch.setattr(lattice, "smith_normal_form", counting)
    points = [(x, y) for x in range(4) for y in range(4 - x)]
    heights = [0, 0, 0, 2, 1, 2, 2, 4, 1, 4]
    gamma = Lattice.standard(3)
    cells = regular_subdivision(convex_hull([(0, 0), (3, 0), (0, 3)]), points, heights)
    wrapped = [Cell(f"c{i}", p, gamma.intersect_subspace(cone_over(p).rays)) for i, p in enumerate(cells)]
    full = complete_faces(SSVComplex(2, gamma, wrapped, [c.id for c in wrapped]))
    assert len(full.cells) > len(cells) > 1
    report = validate_complex(full)
    assert report.passed and calls == []
    # a weight group with a torsion quotient is found with no Smith form too
    first, *rest = full.sorted_cells()
    basis = first.weight_group.basis
    scaled = Cell(first.id, first.polytope, Lattice(3, [tuple(2 * x for x in basis[0]), *basis[1:]]))
    broken = SSVComplex(2, gamma, [scaled, *rest], full.maximal_ids)
    assert validate_complex(broken).failures()[0].name == "weight-groups-direct-summands"
    assert calls == []
