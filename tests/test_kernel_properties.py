"""Property tests: the series kernel against oracles that share none of its code.

`LaurentSeries.inverse` and `polys.divmod_t` run on the fields' discrete-log
tables; `tests/brute_force.py` keeps the convolution recurrence on field
elements and the division on coefficient lists as oracles. Both must give
the same series, or refuse with the same error, over F_2, F_3, F_4, F_9 and
F_16 = F_2[x]/(x^4 + x + 1). Equal series must hash equal however they were
built, and `_fused` keeps refusing an operand that is no series over the
first operand's field.
"""

import pytest
from hypothesis import given, strategies as st

import brute_force
from sl2btree.errors import IndeterminateValuation, InsufficientPrecision, InvalidInputError
from sl2btree.field import field
from sl2btree.polys import divmod_t, gcd_t, t_degree
from sl2btree.series import LaurentSeries, _fused
from sl2btree.tree import Tree, Vertex
from test_series_properties import kernel_operands, series
from test_tree_properties import PROPERTY

FIELDS = {q: field(q) for q in (2, 3, 4, 9)}
FIELDS[16] = field(16, (1, 1, 0, 0, 1))
QS = sorted(FIELDS)


def _outcome(f, *args):
    """The result, or the type of the error raised."""
    try:
        return f(*args)
    except (ZeroDivisionError, IndeterminateValuation, InsufficientPrecision) as exc:
        return type(exc)


@st.composite
def t_polys(draw, F, max_degree=6):
    """A polynomial in t, zero included, its digits zero or not."""
    degree = draw(st.integers(-1, max_degree))
    elems = list(F.elements())
    return LaurentSeries(F, {-k: draw(st.sampled_from(elems)) for k in range(degree + 1)})


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_inverse_is_the_element_recurrence(q, data):
    F = FIELDS[q]
    a = data.draw(series(F))
    terms = data.draw(st.integers(1, 12))
    assert _outcome(a.inverse, terms) == _outcome(brute_force.series_inverse, a, terms)


@st.composite
def divisors(draw, F):
    """Mostly a series with a visible leading digit, exact or known past it;
    now and then one drawn by `series`, which may show no digit at all."""
    if draw(st.sampled_from(["any"] + ["lead"] * 7)) == "any":
        return draw(series(F))
    lo = draw(st.integers(-4, 4))
    elems = list(F.elements())
    coeffs = {d: draw(st.sampled_from(elems)) for d in range(lo + 1, lo + draw(st.integers(1, 6)))}
    coeffs[lo] = draw(st.sampled_from(elems[1:]))
    if draw(st.booleans()):
        return LaurentSeries(F, coeffs)
    return LaurentSeries(F, coeffs, draw(st.integers(lo + 1, lo + 8)))


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_quotient_is_the_product_with_the_element_inverse(q, data):
    """num.quotient(den, n) is (num * series_inverse(den, k)).truncate(n): the
    same exact series, or the same refusal, with an InsufficientPrecision's
    message and horizon `needed` as well."""
    F = FIELDS[q]
    num = data.draw(st.one_of(kernel_operands(F), divisors(F)))
    den = data.draw(divisors(F))
    # n from just below the quotient's valuation to well past it
    v = min(num.coeffs) if num.coeffs else 0 if num.is_exact() else num.prec
    n = v - (min(den.coeffs) if den.coeffs else 0) + data.draw(st.integers(-2, 8))
    try:
        expected = brute_force.series_quotient(num, den, n)
    except (ZeroDivisionError, IndeterminateValuation) as exc:
        with pytest.raises(type(exc)):
            num.quotient(den, n)
        return
    except InsufficientPrecision as exc:
        with pytest.raises(InsufficientPrecision) as refusal:
            num.quotient(den, n)
        assert (str(refusal.value), refusal.value.needed) == (str(exc), exc.needed)
        return
    quotient = num.quotient(den, n)
    assert quotient.is_exact() and all(d < n for d in quotient.coeffs)
    assert quotient == expected
    assert LaurentSeries(F, dict(quotient.coeffs)) == quotient  # canonical digits


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_euclid_is_the_list_division(q, data):
    F = FIELDS[q]
    a, b = data.draw(t_polys(F)), data.draw(t_polys(F))
    if b.has_terms():
        quotient, remainder = divmod_t(a, b)
        assert (quotient, remainder) == brute_force.divmod_t(a, b)
        assert quotient * b + remainder == a
        assert t_degree(remainder) < t_degree(b)
    else:
        with pytest.raises(ZeroDivisionError):
            divmod_t(a, b)
    g, u, v = brute_force.xgcd_t(a, b)
    assert gcd_t(a, b) == g
    assert u * a + v * b == g


def test_division_checks_the_divisor_first():
    F = FIELDS[2]
    p, p2 = LaurentSeries(F, {1: F.one}), LaurentSeries(F, {2: F.one})  # no polynomials in t
    zero, one = LaurentSeries.zero(F), LaurentSeries.one(F)
    with pytest.raises(InvalidInputError, match=r"in t: p\^2$"):
        divmod_t(p, p2)
    with pytest.raises(ZeroDivisionError):
        divmod_t(p, zero)
    with pytest.raises(InvalidInputError, match="in t: p$"):
        divmod_t(p, one)
    with pytest.raises(InvalidInputError):
        divmod_t(one, LaurentSeries.one(FIELDS[3]))


def _rebuilt(s, data):
    """s built again: by the validating constructor from its digits in
    another order with zeros added, or by the unchecked one."""
    F = s.field
    items = list(s.coeffs.items())
    data.draw(st.randoms(use_true_random=False)).shuffle(items)
    if data.draw(st.booleans()):
        return LaurentSeries._canonical(F, dict(items), s.prec)
    padded = dict(items)
    for d in range(min(s.coeffs, default=0) - 2, min(s.coeffs, default=0)):
        padded[d] = F.zero
    return LaurentSeries(F, padded, s.prec)


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_equal_series_hash_equal(q, data):
    F = FIELDS[q]
    a, b = data.draw(series(F)), data.draw(series(F))
    pairs = [(a, _rebuilt(a, data)), (a * b, b * a), (a + b, b + a), (-(-a), a)]
    pairs.append((_fused(a, b, b, a), a * b + b * a))
    pairs.append((a.shift(3).shift(-3), a))
    n = data.draw(st.integers(-6, 8))
    if a.is_exact() or a.prec >= n:
        cut = a.truncate(n)
        pairs.append((cut, LaurentSeries(F, {d: c for d, c in a.coeffs.items() if d < n})))
    tree = Tree(F)
    v = tree.vertex(n, a.truncate(n) if a.is_exact() or a.prec >= n else LaurentSeries.zero(F))
    for child in tree.children(v):
        pairs.append((tree.parent(child).residue, v.residue))
        pairs.append((child.residue, _rebuilt(child.residue, data)))
        pairs.append((child, Vertex(child.level, LaurentSeries(F, dict(child.residue.coeffs)))))
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)


@pytest.mark.parametrize("q", QS)
def test_fused_refuses_foreign_operands(q):
    F = FIELDS[q]
    other = FIELDS[3 if q == 2 else 2]
    x = LaurentSeries(F, {-1: F.one, 0: F.one})
    foreign = LaurentSeries(other, {0: other.one})
    for bad in (foreign, F.one, 1):
        for args in ((x, bad), (x, None, bad), (x, x, bad, x), (x, x, x, bad), (x, bad, x, x)):
            with pytest.raises(InvalidInputError):
                _fused(*args)
        with pytest.raises(InvalidInputError):
            x * bad
    with pytest.raises(InvalidInputError):
        _fused(F.one, x)
