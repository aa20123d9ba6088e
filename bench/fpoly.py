"""Polynomials over a prime field F_p, written for the benchmark alone.

A polynomial is a tuple of ints in [0, p), constant term first, with no
trailing zeros (the zero polynomial is the empty tuple). Nothing here
imports the package under test: the oracles built on this module must not
share code with what they check.
"""

import itertools


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def add(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return trim((x + y) % p for x, y in zip(a, b))


def mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def degree(a):
    return len(a) - 1  # -1 for the zero polynomial


def divides(d, a, p):
    """True when the monic polynomial d divides a."""
    r = list(a)
    n = degree(d)
    while len(r) - 1 >= n and r:
        c = r[-1]
        shift = len(r) - 1 - n
        for i, x in enumerate(d):
            r[shift + i] = (r[shift + i] - c * x) % p
        r = list(trim(r))
    return not r


def monic_polys(p, deg):
    for low in itertools.product(range(p), repeat=deg):
        yield tuple(low) + (1,)


def is_irreducible(f, p):
    n = degree(f)
    return n >= 1 and not any(
        divides(g, f, p) for k in range(1, n // 2 + 1) for g in monic_polys(p, k)
    )


def prime_factor_degrees(f, p):
    """Degrees of the distinct monic irreducible factors of f over F_p."""
    n = degree(f)
    return [
        k
        for k in range(1, n + 1)
        for g in monic_polys(p, k)
        if is_irreducible(g, p) and divides(g, f, p)
    ]


def literal(a):
    """The package's series-literal spelling of a polynomial in t."""
    if not a:
        return "0"
    terms = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        var = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if not var:
            terms.append(str(c))
        else:
            terms.append(var if c == 1 else f"{c}*{var}")
    return "+".join(terms)
