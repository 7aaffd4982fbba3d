"""Reference results for the matroid module, computed apart from it.

``weight_set`` is the library's earlier version, which filters the whole
rank box for the tuples with sum r.
"""

import itertools


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
