"""Reference counts for the matroid module, computed apart from it."""


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
