"""Exact univariate polynomial arithmetic on plain coefficient lists.

A polynomial is a list of ints (or Fractions), ascending degree, with no
trailing zero coefficient; [] is the zero polynomial.  Everything here is
exact: no floats enter unless the caller evaluates at a float point.
"""


def normalize(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return normalize(out)


def pow_(a, k):
    out = [1]
    b = list(a)
    while k:
        if k & 1:
            out = mul(out, b)
        k >>= 1
        if k:
            b = mul(b, b)
    return out


def reciprocal(a, degree=None):
    """Coefficient reversal: x**n * a(1/x) with n = degree (default deg a)."""
    a = normalize(a)
    n = len(a) - 1 if a else 0
    if degree is None:
        degree = n
    if degree < n:
        raise ValueError("degree below actual degree")
    out = [0] * (degree + 1)
    for i, c in enumerate(a):
        out[degree - i] = c
    return normalize(out)


def evaluate(a, x):
    """Horner evaluation; exact for int/Fraction x, float/complex otherwise."""
    out = 0 * x
    for c in reversed(a):
        out = out * x + c
    return out


def derivative(a):
    return normalize([i * c for i, c in enumerate(a)][1:])


def to_decimal_strings(a):
    """JSON-safe exact form: array of decimal integer strings."""
    return [str(int(c)) for c in a]
