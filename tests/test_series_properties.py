"""Property tests: the precision laws of Laurent series arithmetic.

The arithmetic and the tree's digit appends build their results without
validation, from dicts they hold to be canonical. Each result here is
compared with a copy made by the validating constructor, which drops zero
coefficients and coefficients at or past the precision and rejects
elements of another field: the two must agree on an identical dict. The
precision of each result is checked against the laws of the module
docstring, over F_2, F_3, F_4 and F_9, on exact and inexact operands.

The one kernel behind them, x*y + u*v or x*y - u*v in one digit dict, is
compared with the sum and difference of the two products. The coefficients
of sums, differences, negatives, scalings, products and the kernel's
results are compared with an oracle that works on the coefficient tuples
of the digits alone: componentwise sums modulo p and schoolbook products
reduced by the field's monic modulus, written out here, not read from the
field's tables.
"""

import pytest
from hypothesis import given, strategies as st

from sl2btree.errors import IndeterminateValuation, InsufficientPrecision
from sl2btree.series import INFINITY, LaurentSeries, _fused
from sl2btree.tree import UpEnd
from test_tree_properties import PROPERTY, QS, TREES, rational_ends, vertices_near


@st.composite
def series(draw, F):
    """Digits at a few consecutive degrees, zeros included; exact or not,
    with the precision anywhere from below the digits to past them."""
    lo = draw(st.integers(-4, 4))
    width = draw(st.integers(0, 6))
    elems = list(F.elements())
    coeffs = {d: draw(st.sampled_from(elems)) for d in range(lo, lo + width)}
    if draw(st.booleans()):
        return LaurentSeries(F, coeffs)
    return LaurentSeries(F, coeffs, draw(st.integers(lo - 1, lo + width + 2)))


@st.composite
def series_pairs(draw, F):
    """Two series, the second often sharing digits with the first, so that
    sums and differences cancel terms."""
    a = draw(series(F))
    b = draw(series(F))
    if a.coeffs and draw(st.booleans()):
        elems = list(F.elements())
        shared = {
            d: c if draw(st.booleans()) else draw(st.sampled_from(elems))
            for d, c in a.coeffs.items()
        }
        b = LaurentSeries(F, {**b.coeffs, **shared}, b.prec)
    if draw(st.booleans()):
        a, b = b, a
    return a, b


# (p, monic modulus) of the fields under test, modulus constant term
# first; prime fields take x, so that their digits are 1-tuples.
FIELDS = {2: (2, (0, 1)), 3: (3, (0, 1)), 4: (2, (1, 1, 1)), 9: (3, (1, 0, 1))}


def _digit_product(x, y, p, modulus):
    """x * y for coefficient tuples: schoolbook product, then x^e reduced
    to -(m_0 + ... + m_(e-1) x^(e-1)) from the top degree down."""
    e = len(x)
    prod = [0] * (2 * e - 1)
    for i, u in enumerate(x):
        for j, w in enumerate(y):
            prod[i + j] = (prod[i + j] + u * w) % p
    for k in range(2 * e - 2, e - 1, -1):
        top, prod[k] = prod[k], 0
        for i in range(e):
            prod[k - e + i] = (prod[k - e + i] - top * modulus[i]) % p
    return tuple(prod[:e])


def _digits(s):
    return {d: c.coeffs for d, c in s.coeffs.items()}


def _oracle_sum(x, y, sign, p, modulus):
    zero = (0,) * (len(modulus) - 1)
    return {
        d: tuple((u + sign * w) % p for u, w in zip(x.get(d, zero), y.get(d, zero)))
        for d in set(x) | set(y)
    }


def _oracle_product(x, y, p, modulus):
    out = {}
    for d1, u in x.items():
        for d2, w in y.items():
            prod = _digit_product(u, w, p, modulus)
            acc = out.get(d1 + d2, (0,) * len(u))
            out[d1 + d2] = tuple((a + b) % p for a, b in zip(acc, prod))
    return out


def _known(digits, prec):
    """The nonzero digits below the precision: what a series stores. The
    precision itself is the result's, checked by the laws above."""
    return {d: c for d, c in digits.items() if any(c) and (prec is INFINITY or d < prec)}


def _canonical(s):
    """s, after checking that validating its dict again changes nothing."""
    copy = LaurentSeries(s.field, dict(s.coeffs), s.prec)
    assert copy == s
    assert list(copy.coeffs.items()) == list(s.coeffs.items())
    return s


def _lower_bound(s):
    """The valuation if a term is visible, else the precision."""
    return min(s.coeffs) if s.coeffs else s.prec


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_sums_and_products_keep_the_stated_precision(q, data):
    F = TREES[q].field
    a, b = data.draw(series(F)), data.draw(series(F))
    M, N = a.prec, b.prec
    assert _canonical(a + b).prec == min(M, N)
    assert _canonical(a - b).prec == min(M, N)
    assert _canonical(-a).prec == M
    product = _canonical(a * b)
    if a.is_exact_zero() or b.is_exact_zero():
        assert product.is_exact_zero()
    else:
        assert product.prec == min(M + _lower_bound(b), N + _lower_bound(a))


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_unary_operations_keep_the_stated_precision(q, data):
    F = TREES[q].field
    a = data.draw(series(F))
    M = a.prec
    c = data.draw(st.sampled_from(list(F.elements())))
    scaled = _canonical(a.scale(c))
    assert (scaled.prec == M) if c else scaled.is_exact_zero()
    k = data.draw(st.integers(-3, 3))
    assert _canonical(a.shift(k)).prec == M + k
    n = data.draw(st.integers(-6, 12))
    if M is INFINITY or M >= n:
        cut = _canonical(a.truncate(n))
        assert cut.is_exact() and all(d < n for d in cut.coeffs)
    else:
        with pytest.raises(InsufficientPrecision):
            a.truncate(n)
    terms = data.draw(st.integers(1, 6))
    try:
        inverse = _canonical(a.inverse(terms))
    except (ZeroDivisionError, IndeterminateValuation, InsufficientPrecision):
        return
    v = a.valuation()
    if M is INFINITY and len(a.coeffs) == 1:
        assert inverse.is_exact()
    else:
        assert inverse.prec == terms - v


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_tree_steps_build_the_validated_vertices(q, data):
    tree = TREES[q]
    F = tree.field
    end = data.draw(
        st.one_of(st.just(tree.end_up()), st.just(tree.end_zero()), rational_ends(tree))
    )
    v = data.draw(vertices_near(tree, end))
    n, coeffs = v.level, v.residue.coeffs
    _canonical(v.residue)
    children = tree.children(v)
    assert children == [
        tree.vertex(n + 1, LaurentSeries(F, {**coeffs, n: c})) for c in F.elements()
    ]
    parent = tree.parent(v)
    assert parent == tree.vertex(n - 1, LaurentSeries(F, dict(coeffs)))
    step = tree.step_to_end(v, end)
    if isinstance(end, UpEnd) or v != tree.vertex(n, end.coordinate_mod(n)):
        assert step == parent
    else:
        assert step == tree.vertex(n + 1, end.coordinate_mod(n + 1))
    for u in children + [parent, step]:
        assert all(d < u.level for d in _canonical(u.residue).coeffs)


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_arithmetic_values_match_the_digit_oracle(q, data):
    F = TREES[q].field
    field_def = FIELDS[q]
    assert (F.p, F.modulus) == field_def
    a, b = data.draw(series_pairs(F))
    x, y = _digits(a), _digits(b)
    total, difference, negative = a + b, a - b, -a
    assert _digits(total) == _known(_oracle_sum(x, y, 1, *field_def), total.prec)
    assert _digits(difference) == _known(_oracle_sum(x, y, -1, *field_def), difference.prec)
    assert _digits(negative) == _known(_oracle_sum({}, x, -1, *field_def), negative.prec)
    c = data.draw(st.sampled_from(list(F.elements())))
    scaled = a.scale(c)
    assert _digits(scaled) == _known(_oracle_product(x, {0: c.coeffs}, *field_def), scaled.prec)
    product = a * b
    assert _digits(product) == _known(_oracle_product(x, y, *field_def), product.prec)


@st.composite
def kernel_operands(draw, F):
    """A factor of x*y +- u*v: drawn by `series` (exact or not, at mixed
    precisions), the exact zero, or "0 mod pi^N"."""
    kind = draw(st.sampled_from(["series", "series", "exact zero", "zero mod"]))
    if kind == "exact zero":
        return LaurentSeries.zero(F)
    if kind == "zero mod":
        return LaurentSeries(F, {}, draw(st.integers(-4, 8)))
    return draw(series(F))


def _product_precision(a, b):
    if a.is_exact_zero() or b.is_exact_zero():
        return INFINITY
    return min(a.prec + _lower_bound(b), b.prec + _lower_bound(a))


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_fused_kernel_is_the_sum_of_two_products(q, data):
    F = TREES[q].field
    field_def = FIELDS[q]
    x, y, u, v = (data.draw(kernel_operands(F)) for _ in range(4))
    products = (x * y, u * v)
    prec = min(_product_precision(x, y), _product_precision(u, v))
    for sign, expected in ((1, products[0] + products[1]), (-1, products[0] - products[1])):
        fused = _canonical(_fused(x, y, u, v, minus=sign < 0))
        assert fused.prec == expected.prec == prec
        assert _digits(fused) == _digits(expected)
        oracle = _oracle_sum(
            _oracle_product(_digits(x), _digits(y), *field_def),
            _oracle_product(_digits(u), _digits(v), *field_def),
            sign,
            *field_def,
        )
        assert _digits(fused) == _known(oracle, prec)
        # without v the second term is u itself
        alone = _canonical(_fused(x, y, u, minus=sign < 0))
        assert alone == (products[0] + u if sign > 0 else products[0] - u)
