"""Reference results for the matroid module, computed apart from it.

``weight_set`` is the library's earlier version, which filters the whole
rank box for the tuples with sum r.  ``thin_cell_weight_set`` is the
library's earlier version too, which tests that the kept points are full by
a cone over them: a point lies in their hull exactly when (1, p) lies in
the cone over their (1, q).
"""

import itertools

from ssvlib.matroid import _box_bound
from ssvlib.polyhedral import Cone


def weight_set_size_oracle(shape):
    """Coefficient of x^r in prod (1 + x + ... + x^rank)."""
    poly = [1]
    for m in shape.ranks:
        fresh = [0] * (len(poly) + m)
        for i, c in enumerate(poly):
            for j in range(m + 1):
                fresh[i + j] += c
        poly = fresh
    return poly[shape.r] if shape.r < len(poly) else 0


def weight_set(shape):
    """Integer tuples in the rank box with coordinate sum r, lex order."""
    out = []
    for combo in itertools.product(*(range(m + 1) for m in shape.ranks)):
        if sum(combo) == shape.r:
            out.append(combo)
    return out


def thin_cell_weight_set(shape, rank_data):
    """(points, full_flag, witness) for the thin-cell weight subset.

    The flag records whether the subset is all lattice points of its own
    convex hull; on failure the witness is a hull lattice point missing
    from the subset.
    """
    points = weight_set(shape)
    # only the entries above the box's own bound can drop a point
    binding = [(s, b) for s, b in rank_data.table.items() if b > _box_bound(shape, s)]
    kept = [p for p in points if all(sum(p[i] for i in s) >= b for s, b in binding)]
    if kept:
        # p lies in the hull of the kept points iff (1, p) lies in the cone over them
        cone = Cone.from_rays(shape.positions + 1, [(1,) + q for q in kept])
        held = set(kept)
        for p in points:
            if p not in held and cone.contains((1,) + p):
                return kept, False, p
    return kept, True, None
