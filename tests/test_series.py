import pytest

from sl2btree.errors import IndeterminateValuation, InvalidInputError
from sl2btree.field import field
from sl2btree.series import INFINITY, LaurentSeries


F = field(2)


def s(text):
    from sl2btree.literals import parse_series

    return parse_series(F, text)


def test_construction_strips_zero_coefficients():
    a = LaurentSeries.exact(F, {0: 1, 3: 0, -2: 2})
    assert a == LaurentSeries.one(F)
    assert a.coefficient(3) == F.element(0)


def test_valuation():
    assert s("p^2+p^5").valuation() == 2
    assert s("t^3+1").valuation() == -3
    assert LaurentSeries.zero(F).valuation() is INFINITY
    assert LaurentSeries.pi_power(F, -4).valuation() == -4


def test_inexact_zero_valuation_is_indeterminate():
    unknown = LaurentSeries.inexact(F, {}, 5)
    with pytest.raises(IndeterminateValuation):
        unknown.valuation()
    assert unknown.valuation_lower_bound() == 5
    assert not unknown.has_terms()
    assert not unknown.is_exact()
    assert not unknown.is_exact_zero()


def test_infinity_ordering():
    assert INFINITY > 10**9
    assert not (INFINITY < 5)
    assert INFINITY >= INFINITY
    assert INFINITY + 3 is INFINITY
    with pytest.raises(ArithmeticError):
        -INFINITY


def test_addition_cancels_in_characteristic_two():
    a = s("t+1")
    assert a + a == LaurentSeries.zero(F)
    assert a - a == LaurentSeries.zero(F)
    assert (a + LaurentSeries.one(F)) == s("t")


def test_precision_propagates_through_addition():
    a = LaurentSeries.inexact(F, {0: 1, 1: 1}, 3)
    b = LaurentSeries.exact(F, {0: 1})
    total = a + b
    assert total.prec == 3
    assert str(total) == "p mod p^3"


def test_precision_propagates_through_multiplication():
    a = s("t+1")  # exact, valuation -1
    b = LaurentSeries.inexact(F, {0: 1, 1: 1}, 3)
    prod = a * b
    assert prod.prec == 2  # 3 + (-1)
    assert str(prod) == "t+p mod p^2"


def test_multiplication_of_exact_series_is_exact():
    prod = s("t+1") * s("t^2+t")
    assert prod.is_exact()
    assert prod == s("t^3+t")


def test_scale_shift_coefficient():
    F3 = field(3)
    a = LaurentSeries.exact(F3, {-1: 1, 0: 1})
    assert str(a.scale(F3.element(2))) == "2*t+2"
    assert a.shift(2) == LaurentSeries.exact(F3, {1: 1, 2: 1})
    assert a.coefficient(-1) == F3.element(1)
    assert a.coefficient(7) == F3.element(0)


def test_truncate_and_reduce_precision():
    a = s("1+p^3")
    head = a.truncate(2)
    assert head == LaurentSeries.one(F)
    assert head.is_exact()
    capped = a.reduce_precision(2)
    assert not capped.is_exact()
    assert capped.prec == 2
    assert capped.truncate(2) == LaurentSeries.one(F)


def test_truncations_agree_below_the_cut():
    assert s("1").truncate(4) == s("1+p^5").truncate(4)
    assert s("1").truncate(4) != s("1+p^2").truncate(4)


def test_inverse_of_unit():
    a = s("1+p")
    inv = a.inverse(4)
    assert str(inv) == "1+p+p^2+p^3 mod p^4"
    assert (a * inv).truncate(4) == LaurentSeries.one(F)


def test_inverse_respects_valuation_shift():
    a = s("p^2+p^3")
    inv = a.inverse(3)
    assert (a * inv).truncate(3) == LaurentSeries.one(F)
    assert inv.valuation() == -2


def test_inverse_of_inexact_zero_rejected():
    with pytest.raises((IndeterminateValuation, InvalidInputError)):
        LaurentSeries.inexact(F, {}, 4).inverse(3)


def test_equality_distinguishes_precision():
    a = LaurentSeries.inexact(F, {0: 1}, 3)
    b = LaurentSeries.inexact(F, {0: 1}, 4)
    c = LaurentSeries.exact(F, {0: 1})
    assert a != b
    assert a != c
    assert a == LaurentSeries.inexact(F, {0: 1}, 3)
    assert hash(a) == hash(LaurentSeries.inexact(F, {0: 1}, 3))


def test_string_forms():
    assert str(LaurentSeries.zero(F)) == "0"
    assert str(s("1+t+t^3")) == "t^3+t+1"
    assert str(s("p^-2")) == "t^2"
    assert str(LaurentSeries.inexact(F, {}, 2)) == "0 mod p^2"
    F4 = field(4)
    x = F4.gen
    two_terms = LaurentSeries.exact(F4, {-2: x + F4.element(1), 0: x})
    assert str(two_terms) == "[1+x]*t^2+[x]"


def test_cross_field_arithmetic_rejected():
    with pytest.raises(InvalidInputError):
        s("1") + LaurentSeries.one(field(3))
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        for other in (LaurentSeries.one(field(3)), 1):
            with pytest.raises(InvalidInputError, match="different fields"):
                op(s("1+p"), other)
