import itertools
import time
from fractions import Fraction

import pytest
import report_oracle

from ssvlib import rootdata
from ssvlib.errors import NotDominantError, RankError
from ssvlib.polyhedral import convex_hull
from ssvlib.rootdata import (
    RootDatum,
    dominant_hull,
    is_w_admissible,
    root_datum,
    weyl_dimension,
    weyl_orbit,
)


def F(*args):
    return Fraction(*args)


def freudenthal_dimension(datum, highest):
    """Independent dimension oracle via the Freudenthal multiplicity recursion."""
    highest = tuple(Fraction(x) for x in highest)
    rho = datum.rho
    positive = datum.positive_roots()
    pos_weights = [
        tuple(sum(m[j] * datum.cartan[i][j] for j in range(datum.rank)) for i in range(datum.rank))
        for m in positive
    ]

    def inner(x, y):
        return datum.inner(x, y)

    norm_high = inner(
        tuple(h + r for h, r in zip(highest, rho)),
        tuple(h + r for h, r in zip(highest, rho)),
    )
    mults = {highest: 1}
    # Generate candidate weights: highest minus nonnegative root combinations,
    # breadth-first by height.
    frontier = [highest]
    seen = {highest}
    order = [highest]
    while frontier:
        nxt = []
        for w in frontier:
            for a in pos_weights:
                cand = tuple(x - y for x, y in zip(w, a))
                # prune: must stay in the convex hull of the Weyl orbit
                if cand in seen:
                    continue
                if inner(cand, cand) > inner(highest, highest):
                    continue
                seen.add(cand)
                nxt.append(cand)
                order.append(cand)
        frontier = nxt
    hull = convex_hull(weyl_orbit(datum, highest))
    order = [w for w in order if hull.contains_point(w)]
    order.sort(key=lambda w: -inner(w, rho))
    for w in order:
        if w == highest:
            continue
        total = Fraction(0)
        for a in pos_weights:
            k = 1
            while True:
                up = tuple(x + k * y for x, y in zip(w, a))
                if up not in mults and up not in seen:
                    break
                m = mults.get(up, 0)
                if m:
                    total += m * inner(up, a)
                if inner(up, up) > norm_high:
                    break
                k += 1
        shifted = tuple(x + r for x, r in zip(w, rho))
        denom = norm_high - inner(shifted, shifted)
        mults[w] = int(2 * total / denom) if denom != 0 else 0
    return sum(mults.values())


def test_a1_orbit_and_dimension():
    a1 = root_datum("A1")
    assert weyl_orbit(a1, (3,)) == [(-3,), (3,)]
    for n in range(5):
        assert weyl_dimension(a1, (n,)) == n + 1


def test_a2_standard_orbit():
    a2 = root_datum("A2")
    orbit = weyl_orbit(a2, (1, 0))
    assert len(orbit) == 3
    assert (1, 0) in orbit and (-1, 1) in orbit and (0, -1) in orbit


def test_product_orbit():
    d = root_datum("A1xA1")
    orbit = weyl_orbit(d, (2, 3))
    assert sorted(orbit) == [(-2, -3), (-2, 3), (2, -3), (2, 3)]


def test_weyl_dimension_a2():
    a2 = root_datum("A2")
    assert weyl_dimension(a2, (0, 0)) == 1
    assert weyl_dimension(a2, (1, 0)) == 3
    assert weyl_dimension(a2, (0, 1)) == 3
    assert weyl_dimension(a2, (1, 1)) == 8
    assert weyl_dimension(a2, (2, 0)) == 6
    assert weyl_dimension(a2, (3, 0)) == 10


def test_weyl_dimension_bc():
    b2 = root_datum("B2")
    assert weyl_dimension(b2, (1, 0)) == 5
    assert weyl_dimension(b2, (0, 1)) == 4
    assert weyl_dimension(b2, (1, 1)) == 16
    c2 = root_datum("C2")
    assert weyl_dimension(c2, (1, 0)) == 4
    assert weyl_dimension(c2, (0, 1)) == 5
    a3 = root_datum("A3")
    assert weyl_dimension(a3, (1, 0, 0)) == 4
    assert weyl_dimension(a3, (0, 1, 0)) == 6
    assert weyl_dimension(a3, (1, 0, 1)) == 15
    d4 = root_datum("D4")
    assert weyl_dimension(d4, (1, 0, 0, 0)) == 8
    assert weyl_dimension(d4, (0, 1, 0, 0)) == 28


def test_dimension_against_freudenthal():
    for label in ("A1", "A2", "A1xA1"):
        datum = root_datum(label)
        coords = range(0, 5) if datum.rank == 1 else range(0, 5)
        for weight in itertools.product(coords, repeat=datum.rank):
            expected = freudenthal_dimension(datum, weight)
            assert weyl_dimension(datum, weight) == expected, (label, weight)


def test_weyl_dimension_not_dominant():
    with pytest.raises(NotDominantError):
        weyl_dimension(root_datum("A1"), (-1,))
    with pytest.raises(NotDominantError):
        weyl_dimension(root_datum("A2"), (F(1, 2), 0))


def test_rank_cap():
    with pytest.raises(RankError):
        root_datum("A4xA1")
    with pytest.raises(RankError):
        root_datum("E8")


def test_dominant_hull_a1():
    a1 = root_datum("A1")
    for n in (1, 2, 5):
        hull = dominant_hull(a1, (n,))
        assert hull.vertices == ((F(0),), (F(n),))


def test_dominant_hull_a2_omega1():
    a2 = root_datum("A2")
    hull = dominant_hull(a2, (1, 0))
    verts = set(hull.vertices)
    assert (F(1), F(0)) in verts
    assert (F(0), F(1, 2)) in verts
    # exact hull-and-intersect oracle: the origin is a vertex as well
    assert (F(0), F(0)) in verts
    assert len(verts) == 3


def test_dominant_hull_product_rectangle():
    d = root_datum("A1xA1")
    hull = dominant_hull(d, (2, 3))
    assert set(hull.vertices) == {
        (F(0), F(0)),
        (F(2), F(0)),
        (F(0), F(3)),
        (F(2), F(3)),
    }


def test_dominant_hull_contains_weight_as_vertex():
    for label in ("A1", "A2", "A1xA1"):
        datum = root_datum(label)
        for weight in itertools.product(range(0, 3), repeat=datum.rank):
            hull = dominant_hull(datum, weight)
            w = tuple(F(x) for x in weight)
            assert w in set(hull.vertices) or all(x == 0 for x in weight)
            for v in hull.vertices:
                assert all(x >= 0 for x in v)


def test_w_admissible_a1():
    a1 = root_datum("A1")
    assert is_w_admissible(a1, convex_hull([(-3,), (3,)]))
    assert is_w_admissible(a1, convex_hull([(1,), (2,)]))
    assert not is_w_admissible(a1, convex_hull([(-1,), (2,)]))
    # relative interior misses the chamber entirely
    assert not is_w_admissible(a1, convex_hull([(-2,), (-1,)]))


# a gate: more than 3 times the measured median of about 0.1 s, far below
# the 29 s that hulling and intersecting every pair of translates took
MOVED_B4_BUDGET_S = 2.0


def test_moved_b4_simplex_is_settled_by_root_signs(monkeypatch):
    # the simplex on rho and rho + 2 omega_i lies in the open dominant
    # chamber, so its 384 translates lie in distinct chambers and a positive
    # root separates each of the 73,536 pairs: no translate is hulled
    datum = root_datum("B4")
    simplex = convex_hull([(1, 1, 1, 1)] + [tuple(1 + 2 * (j == i) for j in range(4)) for i in range(4)])

    def hull_translate(points):
        raise AssertionError("a pair of translates was left to the double description")

    monkeypatch.setattr(rootdata, "convex_hull", hull_translate)
    started = time.perf_counter()
    assert is_w_admissible(datum, simplex)
    elapsed = time.perf_counter() - started
    assert elapsed < MOVED_B4_BUDGET_S, f"took {elapsed:.2f}s"


def test_orbit_hull_always_admissible():
    for label in ("A1", "A2", "A1xA1"):
        datum = root_datum(label)
        for weight in itertools.product(range(0, 4), repeat=datum.rank):
            if all(x == 0 for x in weight):
                continue
            hull = convex_hull(weyl_orbit(datum, weight))
            assert is_w_admissible(datum, hull), (label, weight)


def test_admissibility_uses_the_given_datum_not_its_label():
    # the Weyl group is the one the Cartan matrix generates: an unparsable
    # label, or the label of another group, changes nothing
    a2 = root_datum("A2")
    hulls = [convex_hull(weyl_orbit(a2, w)) for w in ((1, 2), (1, 0), (2, 1), (1, 1))]
    for label in ("sl3", "B2"):
        renamed = RootDatum(label, a2.cartan, a2.d)
        assert weyl_orbit(renamed, (1, 0)) == weyl_orbit(a2, (1, 0))
        assert all(is_w_admissible(renamed, hull) for hull in hulls)
    # segments with several translates, on which A2 and B2 disagree
    b2, renamed = root_datum("B2"), RootDatum("B2", a2.cartan, a2.d)
    for ends, expected in ((((1, 0), (-1, 2)), False), (((-1, 2), (1, 1)), True)):
        segment = convex_hull(ends)
        assert is_w_admissible(b2, segment) != expected
        assert is_w_admissible(a2, segment) == is_w_admissible(renamed, segment) == expected


def test_orbit_size_divides_group_order():
    for label, order in (("A1", 2), ("A2", 6), ("A1xA1", 4), ("B2", 8)):
        datum = root_datum(label)
        count = len(report_oracle.weyl_matrices(datum))
        assert count == order
        for weight in itertools.product(range(0, 3), repeat=datum.rank):
            orbit = weyl_orbit(datum, weight)
            assert order % len(orbit) == 0
            # orbit is stable under every simple reflection
            for i in range(datum.rank):
                assert sorted(datum.reflect(i, w) for w in orbit) == orbit


def test_gram_symmetric_and_positive():
    for label in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "D4", "A1xB2"):
        datum = root_datum(label)
        g = datum.gram
        for i in range(datum.rank):
            for j in range(datum.rank):
                assert g[i][j] == g[j][i]
            assert g[i][i] > 0


def test_positive_root_counts():
    for label, count in (("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4), ("C3", 9), ("D4", 12)):
        assert len(root_datum(label).positive_roots()) == count
