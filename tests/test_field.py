import itertools
import re

import pytest

import brute_force
from sl2btree.errors import InvalidInputError, SizeGuardExceeded
from sl2btree.field import MAX_Q, Field, field


def test_prime_field_arithmetic():
    F = field(3)
    one, two = F.element(1), F.element(2)
    assert one + two == F.element(0)
    assert two * two == one
    assert -one == two
    assert two - one == one
    assert two.inverse() == two
    assert one.inverse() == one


def test_element_coercion():
    F = field(5)
    assert F.element(7) == F.element(2)
    assert F.element(-1) == F.element(4)
    a = F.element(3)
    assert F.element(a) is a


def test_element_from_other_field_rejected():
    with pytest.raises(InvalidInputError):
        field(2).element(field(3).element(1))


def test_bool_and_units():
    F = field(3)
    assert not F.element(0)
    assert F.element(1)
    assert list(F.units()) == [F.element(1), F.element(2)]
    assert len(list(F.elements())) == 3


def test_extension_field_arithmetic():
    F = field(4)
    x = F.gen
    assert F.modulus == (1, 1, 1)
    assert x * x == x + F.element(1)
    assert x * x * x == F.element(1)
    assert x.inverse() == x + F.element(1)
    assert x * x.inverse() == F.element(1)
    assert len(list(F.elements())) == 4
    assert len(list(F.units())) == 3


def test_extension_field_coefficient_tuples():
    F = field(9)
    a = F.element((1, 2))
    b = F.element((2, 1))
    assert a + b == F.element(0)  # coefficients add mod 3
    with pytest.raises(InvalidInputError):
        F.element((1, 1, 1))


def test_field_constructor_guards():
    with pytest.raises(InvalidInputError):
        field(6)
    with pytest.raises(InvalidInputError):
        field(1)
    with pytest.raises(InvalidInputError, match="10403 is not a prime power"):
        field(101 * 103)
    with pytest.raises(InvalidInputError):
        Field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


def test_field_sizes_above_the_bound_are_refused():
    with pytest.raises(SizeGuardExceeded, match=f"q = {MAX_Q + 1} exceeds the bound {MAX_Q}"):
        field(MAX_Q + 1)
    # the constructor is bounded too, before its primality test and its tables
    with pytest.raises(SizeGuardExceeded, match=f"16411\\^1 exceeds the bound {MAX_Q}"):
        Field(16411, 1)
    with pytest.raises(SizeGuardExceeded):
        Field(10**100, 1)  # not "not prime"
    with pytest.raises(SizeGuardExceeded, match=f"2\\^{10**6} exceeds"):
        Field(2, 10**6)  # not a message with all the digits of 2^e
    with pytest.raises(SizeGuardExceeded):
        Field(2, MAX_Q.bit_length())  # 2^15, the first e past the bound


def test_field_caching():
    assert field(2) is field(2)
    assert field(4) is field(4)
    assert field(2) is not field(3)


def test_hash_consistency():
    F = field(4)
    seen = {a: str(a) for a in F.elements()}
    assert len(seen) == 4
    assert F.element((1, 1)) in seen


def _mulmod_p(a, b, modulus, p):
    """Schoolbook product of two coefficient vectors mod a monic modulus over F_p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    e = len(modulus) - 1
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        for i, m in enumerate(modulus):
            prod[k - e + i] = (prod[k - e + i] - c * m) % p
    return tuple(prod[:e])


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_tables_match_the_defining_polynomial_product(q):
    F = field(q)
    p, e = F.p, F.e
    elems = list(F.elements())
    # lexicographic order of coefficient tuples, each element its own index
    assert [a.coeffs for a in elems] == sorted(a.coeffs for a in elems)
    assert len({a.coeffs for a in elems}) == q
    assert all(a.index == i for i, a in enumerate(elems))
    one = (1,) + (0,) * (e - 1)
    for a in elems:
        assert (-a).coeffs == tuple((-x) % p for x in a.coeffs)
        for b in elems:
            assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs))
            assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs))
            assert (a * b).coeffs == _mulmod_p(a.coeffs, b.coeffs, F.modulus, p)
        if a:
            assert _mulmod_p(a.coeffs, a.inverse().coeffs, F.modulus, p) == one
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def _monic(p, d):
    return [low + (1,) for low in itertools.product(range(p), repeat=d)]


def _polymul_p(a, b, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return tuple(prod)


def test_the_primitive_element_is_the_least_of_order_q_minus_1():
    # every monic modulus of degree e for each q = p^e <= 81: the products of
    # two monic factors are refused; otherwise g is the least nonzero vector,
    # lexicographically, whose powers reach 1 only at q - 1 (brute force)
    for q in range(2, 82):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        e = next(k for k in range(1, q) if p**k >= q)
        if p**e != q:
            continue
        reducible = {
            _polymul_p(f, g, p) for d in range(1, e) for f in _monic(p, d) for g in _monic(p, e - d)
        }
        one = (1,) + (0,) * (e - 1)
        for modulus in _monic(p, e):
            if modulus in reducible:
                message = f"modulus {modulus} is reducible over F_{p}"
                with pytest.raises(InvalidInputError, match=re.escape(message)):
                    Field(p, e, modulus)
                continue

            def order(v):
                k, x = 1, v
                while x != one:
                    k, x = k + 1, _mulmod_p(x, v, modulus, p)
                return k

            vectors = itertools.product(range(p), repeat=e)
            least = next(v for v in vectors if any(v) and order(v) == q - 1)
            F = Field(p, e, modulus)
            assert F._exp[1].coeffs == least, (q, modulus)  # the antilog table is g^0, g^1, ...


def _first_irreducible(p, e):
    """The least monic modulus of degree e that `Field` accepts, its
    coefficients read as the base-p digits of an integer."""
    for low in range(p**e):
        modulus = tuple(low // p**i % p for i in range(e)) + (1,)
        try:
            return modulus, Field(p, e, modulus)
        except InvalidInputError:
            continue


def _prime_power(q):
    """(p, e) with q = p^e, or None."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q, e = q // p, e + 1
    return (p, e) if q == 1 else None


@pytest.mark.parametrize("p, e", [pe for pe in map(_prime_power, range(2, 257)) if pe])
def test_power_tables_match_the_coefficient_tuple_construction(p, e):
    # the generator, its powers and the Zech logarithms, against products of
    # coefficient tuples
    modulus, F = _first_irreducible(p, e)
    powers, zech = brute_force.power_tables(p, modulus)
    assert [c.coeffs for c in F._exp] == powers * 2
    assert F._zech == zech
