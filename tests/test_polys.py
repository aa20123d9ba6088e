import pytest

import brute_force
from sl2btree.errors import InvalidInputError
from sl2btree.field import field
from sl2btree.literals import parse_series
from sl2btree.polys import (
    ResidueRing,
    all_t_polys,
    divmod_t,
    from_t_coeffs,
    gcd_t,
    is_t_poly,
    mod_t,
    monic_t,
    t_coeffs,
    t_degree,
)
from sl2btree.series import LaurentSeries


F2 = field(2)
F3 = field(3)


def test_is_t_poly():
    assert is_t_poly(parse_series(F2, "t^2+1"))
    assert is_t_poly(LaurentSeries.zero(F2))
    assert not is_t_poly(parse_series(F2, "p+1"))
    assert not is_t_poly(LaurentSeries.inexact(F2, {0: 1}, 3))


def test_degree_and_coefficients():
    a = parse_series(F2, "t^3+t")
    assert t_degree(a) == 3
    assert t_coeffs(a) == [F2.element(c) for c in (0, 1, 0, 1)]
    assert t_degree(LaurentSeries.one(F2)) == 0
    assert t_degree(LaurentSeries.zero(F2)) == -1
    assert from_t_coeffs(F2, [0, 1, 0, 1]) == a


def test_divmod():
    a = parse_series(F2, "t^3+t+1")
    b = parse_series(F2, "t^2+1")
    q, r = divmod_t(a, b)
    assert q * b + r == a
    assert t_degree(r) < t_degree(b)
    assert q == parse_series(F2, "t")
    assert r == parse_series(F2, "1")


def test_divmod_over_odd_characteristic():
    a = parse_series(F3, "2*t^4+t^2+1")
    b = parse_series(F3, "t^2+2")
    q, r = divmod_t(a, b)
    assert q * b + r == a
    assert t_degree(r) < 2


def test_gcd_and_bezout():
    g = gcd_t(parse_series(F2, "t^2+t"), parse_series(F2, "t^3+t^2"))
    assert g == parse_series(F2, "t^2+t")
    # coprime: the monic gcd is 1, and the oracle's Bezout pair reaches it
    a = parse_series(F2, "t^2+t+1")
    b = parse_series(F2, "t")
    g, u, v = brute_force.xgcd_t(a, b)
    assert gcd_t(a, b) == g == LaurentSeries.one(F2)
    assert u * a + v * b == g


def test_monic_normalization():
    a = parse_series(F3, "2*t^2+t")
    m = monic_t(a)
    assert m == parse_series(F3, "t^2+2*t")
    assert t_coeffs(m)[-1] == F3.element(1)


def test_mod_t():
    a = parse_series(F2, "t^3+1")
    f = parse_series(F2, "t^2+t+1")
    r = mod_t(a, f)
    assert t_degree(r) < 2
    q, expected = divmod_t(a, f)
    assert r == expected


def test_poly_enumeration_counts():
    assert len(list(all_t_polys(F2, 2))) == 8
    assert len(list(all_t_polys(F3, 1))) == 9
    assert len(list(all_t_polys(F2, -1))) == 1  # just zero


# Oracle for ResidueRing: residues decoded by the documented encoding
# (base-q digits, t^0 most significant, each digit a position in
# F.elements()) and multiplied schoolbook mod f on coefficient vectors
# over F_p, using nothing of the package's arithmetic.
RING_MODULI = [
    # (q, coefficients of f by ascending t-degree, each a tuple over F_p)
    (2, [(1,), (1,), (0,), (1,)]),  # t^3+t+1, irreducible
    (2, [(0,), (1,), (0,), (1,)]),  # t^3+t = t(t+1)^2
    (2, [(0,), (0,), (0,), (1,)]),  # t^3
    (3, [(1,), (0,), (1,)]),  # t^2+1, irreducible
    (3, [(2,), (0,), (1,)]),  # t^2+2 = (t+1)(t+2)
    (3, [(1,), (0,), (0,), (1,)]),  # t^3+1 = (t+1)^3
    (4, [(0, 1), (1, 0), (1, 0)]),  # t^2+t+x, irreducible
    (4, [(1, 0), (1, 0), (1, 0)]),  # t^2+t+1 = (t+x)(t+x+1)
    (4, [(0, 0), (0, 0), (1, 0)]),  # t^2
    (9, [(0, 1), (1, 0)]),  # t+x
    (9, [(2, 2), (0, 0), (1, 0)]),  # t^2+2x+2, irreducible: x+1 is no square
    (9, [(1, 0), (0, 0), (1, 0)]),  # t^2+1 = (t+x)(t-x)
    (9, [(0, 0), (0, 0), (1, 0)]),  # t^2
]


def _schoolbook_ring(F, f):
    """add, mul and one on residues as lists of F_q vectors, F_q as F_p[x]/(m)."""
    p, m = F.p, F.modulus
    e, d = len(m) - 1, len(f) - 1

    def fadd(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def fsub(a, b):
        return tuple((x - y) % p for x, y in zip(a, b))

    def fmul(a, b):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k]
            for i, mi in enumerate(m):
                prod[k - e + i] = (prod[k - e + i] - c * mi) % p
        return tuple(prod[:e])

    zero = (0,) * e

    def add(a, b):
        return [fadd(x, y) for x, y in zip(a, b)]

    def reduce(prod):
        prod = list(prod)
        for k in range(len(prod) - 1, d - 1, -1):  # f is monic
            c = prod[k]
            for i, fi in enumerate(f):
                prod[k - d + i] = fsub(prod[k - d + i], fmul(c, fi))
        return prod[:d]

    def mul(a, b):
        prod = [zero] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = fadd(prod[i + j], fmul(x, y))
        return reduce(prod)

    def times_t(a):
        return reduce([zero] + a)

    return add, mul, times_t, [(1,) + (0,) * (e - 1)] + [zero] * (d - 1)


@pytest.mark.parametrize("q,f", RING_MODULI)
def test_residue_ring_against_schoolbook_products(q, f):
    F = field(q)
    ring = ResidueRing(F, from_t_coeffs(F, [F.element(c) for c in f]))
    d = len(f) - 1
    positions = [a.coeffs for a in F.elements()]

    def decode(x):
        digits = []
        for _ in range(d):
            x, r = divmod(x, q)
            digits.append(positions[r])
        assert x == 0
        return digits[::-1]

    add, mul, times_t, one = _schoolbook_ring(F, f)
    assert list(ring.elements()) == list(range(q**d))
    assert decode(ring.one) == one
    power = one
    for k in range(3 * d + 2):
        assert decode(ring.reduce(LaurentSeries.monomial(F, 1, -k))) == power
        power = times_t(power)
    residues = [decode(x) for x in ring.elements()]
    for x, rx in enumerate(residues):
        assert add(rx, decode(ring.neg(x))) == decode(ring.zero)
        try:
            inverse = ring.inverse(x)
        except ZeroDivisionError:
            assert all(mul(rx, ry) != one for ry in residues)
        else:
            assert mul(rx, decode(inverse)) == one
        assert ring.reduce(ring.lift(x)) == x
        for y, ry in enumerate(residues):
            assert decode(ring.add(x, y)) == add(rx, ry)
            assert decode(ring.mul(x, y)) == mul(rx, ry)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_residue_ring_of_a_constant_modulus_is_the_zero_ring(q):
    F = field(q)
    ring = ResidueRing(F, LaurentSeries.exact(F, {0: list(F.units())[-1]}))
    assert ring.size == 1 and list(ring.elements()) == [0]
    assert ring.zero == ring.one == ring.inverse(0) == 0
    assert all(ring.constant(c) == 0 for c in F.elements())
    assert ring.reduce(parse_series(F, "t^3+t+1")) == 0
    assert not ring.lift(0).has_terms()
    with pytest.raises(InvalidInputError):
        ResidueRing(F, LaurentSeries.zero(F))
