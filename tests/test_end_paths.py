"""One path per question about an end, checked against the routes it replaced.

Every end enters the matrix action and the separation of two ends as its
vector (x : y), a truncated end as (1 : w), and `Tree.busemann` checks a
truncated end's horizon without walking toward it. The oracles in
`brute_force` keep the routes these replaced: the division
(c + d*w) / (a + b*w) through an inverse, the two expansions compared to
the shared horizon, and a walk of d(x, y) steps before the closed form.
Each call gives the oracle's value, or its error class and message, over
F_2, F_3, F_4 and F_9, for matrices with inexact entries and truncated
ends of horizon 1 to 12.

The attracting end of a full matrix is read off the one power g^k that
carries the up end's candidate to the requested level, k = ceil((level -
m0) / length) with m0 = v(tr) - v(b) the level where the fixed ends part.
`attracting_end_by_stepping` keeps the search it replaced, one power at a
time, and reports the power that certified.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

import sl2btree.tree
from sl2btree.autom import TreeAutomorphism
from sl2btree.errors import (
    EndPrecisionExhausted,
    InvalidInputError,
    Sl2BTreeError,
)
from sl2btree.field import field
from sl2btree.literals import parse_end, parse_matrix
from sl2btree.series import LaurentSeries
from sl2btree.tree import (
    Tree,
    TruncatedEnd,
    UpEnd,
    Vertex,
    end_difference_valuation,
    end_from_vector,
)
from brute_force import (
    act_truncated_end_by_division,
    attracting_end_by_stepping,
    busemann_after_walk,
    difference_valuation_by_expansion,
)
from test_series_properties import kernel_operands
from test_tree_properties import TREES, _series, rational_ends

QS = [2, 3, 4, 9]
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _outcome(f, *args):
    """The value, or the error's class and message, of one call."""
    try:
        return "value", f(*args)
    except (Sl2BTreeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@st.composite
def truncated_ends(draw, F):
    """w known mod pi^N, N in 1..12, with digits drawn at the degrees below N."""
    horizon = draw(st.integers(1, 12))
    lo = draw(st.integers(-3, horizon))
    return TruncatedEnd(F, LaurentSeries(F, _series(draw, F, lo, horizon), horizon))


@st.composite
def finite_ends(draw, tree):
    kind = draw(st.sampled_from(["zero", "rational", "truncated", "truncated"]))
    if kind == "zero":
        return tree.end_zero()
    if kind == "rational":
        return draw(rational_ends(tree))
    return draw(truncated_ends(tree.field))


@st.composite
def nearby_ends(draw, tree, end):
    """Often a truncated end sharing the given end's digits below its
    horizon, with one digit changed at random or none; else any finite end."""
    F = tree.field
    if draw(st.booleans()):
        return draw(finite_ends(tree))
    horizon = draw(st.integers(1, 12))
    known = min(horizon, end.known_depth())
    coeffs = dict(end.coordinate_mod(known).coeffs)
    coeffs.update(_series(draw, F, known, horizon))
    if draw(st.booleans()):
        coeffs[draw(st.integers(-3, horizon - 1))] = draw(st.sampled_from(list(F.elements())))
    return TruncatedEnd(F, LaurentSeries(F, coeffs, horizon))


@st.composite
def entries(draw, F):
    """One to four digits, zeros included, from a degree in -3..2, exact or
    known mod pi^N with N from the last digit's degree to seven past it.
    One draw in four comes from `kernel_operands` instead, so that the
    exact zero and "0 mod pi^N" come up too."""
    if draw(st.integers(0, 3)) == 0:
        return draw(kernel_operands(F))
    lo = draw(st.integers(-3, 2))
    hi = lo + draw(st.integers(1, 4))
    coeffs = _series(draw, F, lo, hi)
    if draw(st.booleans()):
        return LaurentSeries(F, coeffs)
    return LaurentSeries(F, coeffs, hi + draw(st.integers(-1, 6)))


@st.composite
def matrices(draw, F):
    """A matrix of four `entries`; None when it is singular."""
    try:
        return TreeAutomorphism(F, *(draw(entries(F)) for _ in range(4)))
    except InvalidInputError:
        return None


@st.composite
def hyperbolic_matrices(draw, F, exact=False):
    """[[1 + s*u, s*pi^m], [u*pi^-m, 1]]: the product of the shears by s and
    u, conjugated by diag(pi^m, 1), m in -3..3. With v(s) + v(u) = -j,
    j in 1..3, its trace has valuation -j, so it is hyperbolic of length 2j,
    and full. Unless `exact`, each entry is known mod pi^N with probability
    1/2, N 1 to 120 past its valuation."""

    def led(v):
        lead = draw(st.sampled_from(list(F.units())))
        return LaurentSeries(F, {**_series(draw, F, v + 1, v + 3), v: lead})

    vs, j, m = draw(st.integers(-3, 1)), draw(st.integers(1, 3)), draw(st.integers(-3, 3))
    g = TreeAutomorphism.upper_shear(F, led(vs)) * TreeAutomorphism.lower_shear(F, led(-vs - j))
    entries = [g.a, g.b.shift(m), g.c.shift(-m), g.d]
    if not exact:
        entries = [
            e.reduce_precision(e.valuation() + draw(st.integers(1, 120))) if draw(st.booleans()) else e
            for e in entries
        ]
    return TreeAutomorphism(F, *entries)


@st.composite
def vertices_by_the_horizon(draw, tree, end):
    """A vertex of the end's line at a level around its horizon, at it and
    below it included, moved a few steps at random."""
    F = tree.field
    horizon = end.known_depth() if isinstance(end, TruncatedEnd) else 8
    n = draw(st.integers(-3, horizon + 4))
    known = min(n, end.known_depth())
    coeffs = dict(end.coordinate_mod(known).coeffs)
    coeffs.update(_series(draw, F, max(known, n - 6), n))
    v = Vertex(n, LaurentSeries(F, coeffs))
    for move in draw(st.lists(st.integers(0, F.q), max_size=6)):
        v = tree.neighbors(v)[move]
    return v


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_truncated_ends_act_as_their_vector(q, data):
    F = field(q)
    g = data.draw(matrices(F))
    if g is None:
        return
    end = data.draw(truncated_ends(F))
    image = _outcome(g.act_end, end)
    assert image == _outcome(act_truncated_end_by_division, g, end)
    if image[0] == "value":
        assert isinstance(image[1], TruncatedEnd)


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_ends_separate_by_one_cross_product(q, data):
    tree = TREES[q]
    e1 = data.draw(finite_ends(tree))
    e2 = data.draw(nearby_ends(tree, e1))
    if data.draw(st.booleans()):
        e1, e2 = e2, e1
    got = _outcome(end_difference_valuation, e1, e2)
    assert got == _outcome(difference_valuation_by_expansion, e1, e2)


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_busemann_reads_the_horizon_without_walking(q, data):
    tree = TREES[q]
    end = data.draw(st.one_of(truncated_ends(tree.field), rational_ends(tree)))
    x = data.draw(vertices_by_the_horizon(tree, end))
    y = data.draw(vertices_by_the_horizon(tree, end))
    for a, b in ((x, y), (y, x)):
        assert _outcome(tree.busemann, a, b, end) == _outcome(busemann_after_walk, tree, a, b, end)


@pytest.mark.parametrize("q", QS)
def test_busemann_refuses_exactly_where_the_walk_runs_out(q, monkeypatch):
    """From the horizon vertex, or below it on the end's line, every other
    vertex is refused. From a vertex m(x) < N, the walk of d steps answers
    up to d = level(x) + N - 2 m(x) and is refused one step further; a
    value is read without a step toward the end."""
    steps = []
    step_to_end = Tree.step_to_end
    monkeypatch.setattr(Tree, "step_to_end", lambda *a: steps.append(a) or step_to_end(*a))
    tree = TREES[q]
    F = tree.field
    unit = list(F.units())[-1]
    for horizon in range(1, 13):
        w = LaurentSeries(F, {d: unit for d in range(1, horizon, 2)}, horizon)
        end = TruncatedEnd(F, w)
        line = [Vertex(n, w.truncate(min(n, horizon))) for n in range(horizon + 3)]
        top = line[horizon]
        for x in (top, line[horizon + 2], tree.children(top)[0]):
            for y in (tree.base, tree.parent(x), Vertex(x.level + 1, x.residue)):
                if y == x:
                    continue
                refused = _outcome(tree.busemann, x, y, end)
                assert refused[0] is EndPrecisionExhausted
                assert refused == _outcome(busemann_after_walk, tree, x, y, end)
        # off the line at level 1 below (0; 0): m(x) = 0, so the walk may take N + 1 steps
        x = Vertex(1, LaurentSeries(F, {0: unit}))
        assert tree._end_meeting(x, end) == 0
        for d in (horizon + 1, horizon + 2):
            y = Vertex(1 - d, LaurentSeries.zero(F))  # d steps up from x
            steps.clear()
            got = _outcome(tree.busemann, x, y, end)
            assert len(steps) == (0 if d == horizon + 1 else d)
            assert got == _outcome(busemann_after_walk, tree, x, y, end)
            assert got[0] == ("value" if d == horizon + 1 else EndPrecisionExhausted)


def test_deep_attracting_end_reads_its_candidates_by_division(monkeypatch):
    """An exact element's candidate end is read by one division: no rational
    end is built, so no gcd is taken."""

    def no_gcd(*args):
        raise AssertionError("gcd_t called")

    monkeypatch.setattr(sl2btree.tree, "gcd_t", no_gcd)
    F = field(2)
    g = parse_matrix(F, "[[t,1],[1,0]]")
    start = time.perf_counter()
    shallow, deep = g.attracting_end(2000), g.attracting_end(4000)
    assert time.perf_counter() - start < 1.0
    assert shallow.y.prec == 2000
    assert shallow == TruncatedEnd(F, deep.y.reduce_precision(2000))


def test_truncated_ends_are_read_as_their_vector():
    F = field(3)
    w = LaurentSeries(F, {-1: F.one}, 4)
    end = TruncatedEnd(F, w)
    assert (end.x, end.y) == (LaurentSeries.one(F), w)
    assert not hasattr(end, "coordinate")
    # the half turn sends (1 : w) to (-w : 1): -1/w = -p, known mod p^6
    image = TreeAutomorphism.half_turn(F).act_end(end)
    assert image == TruncatedEnd(F, LaurentSeries(F, {1: -F.one}, 6))


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_attracting_end_is_the_first_power_that_certifies(q, data):
    """Where the search answers, the one power answers the same end, and the
    search's certifying power is ceil((level - m0) / length). Where only the
    power answers, the end's digits solve b w^2 + (a - d) w - c = 0."""
    F = field(q)
    g = data.draw(st.one_of(matrices(F), hyperbolic_matrices(F), hyperbolic_matrices(F, True)))
    if g is None or g.b.is_exact_zero() or g.c.is_exact_zero():
        return
    length = _outcome(g.translation_length)
    if length[0] != "value" or length[1] == 0:
        return
    parting = _outcome(lambda: g.trace().valuation() - g.b.valuation())
    if parting[0] != "value":
        return
    length, parting = length[1], parting[1]
    # a depth that the power k in 1..16 reaches and k - 1 does not
    k = data.draw(st.integers(1, 16))
    depth = max(1, parting + (k - 1) * length + data.draw(st.integers(1, length)))
    got = _outcome(g.attracting_end, depth)
    oracle = _outcome(attracting_end_by_stepping, g, depth)
    if oracle[0] == "value":
        end, power = oracle[1]
        assert got == ("value", end)
        level = max(depth, parting + 1)
        assert power == -(-(level - parting) // length)
    elif got[0] == "value":
        w = got[1].y
        assert w.prec == depth
        residual = g.b * w * w + (g.a - g.d) * w - g.c
        assert not residual.has_terms()


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_each_power_carries_the_up_end_one_length_down_the_axis(q, data):
    """The up end's geodesic meets the axis at level m0 = v(tr) - v(b), and
    g^k moves that vertex k * length toward the attracting end, so the image
    of the up end under g^k shares exactly m0 + k * length digits with it."""
    F = field(q)
    g = data.draw(hyperbolic_matrices(F, exact=True))
    length = g.translation_length()
    parting = g.trace().valuation() - g.b.valuation()
    deep = g.attracting_end(max(1, parting + 6 * length + 1))
    for k in range(1, 7):
        h = g**k
        assert end_difference_valuation(end_from_vector(F, h.b, h.d), deep) == parting + k * length


def test_one_power_answers_where_an_earlier_power_runs_out(monkeypatch):
    """Over F_3, [[2t^2 + t, 1], [2t^2, 0 mod p^4]] has length 2 and m0 = -2,
    so depth 1 is read off g^2, the one power formed. The search first reads
    g's own candidate (1 : 0 mod p^4), the end trunc(0, 4), which does not
    certify, and certifies at g^2 the same end."""
    F = field(3)
    g = parse_matrix(F, "[[2*t^2+t,1],[2*t^2,0 mod p^4]]")
    assert g.act_end(UpEnd(F)) == TruncatedEnd(F, LaurentSeries(F, {}, 4))
    stepped = _outcome(attracting_end_by_stepping, g, 1)
    powers = []
    power = TreeAutomorphism.__pow__
    monkeypatch.setattr(TreeAutomorphism, "__pow__", lambda h, k: powers.append(k) or power(h, k))
    end = g.attracting_end(1)
    assert powers[0] == 2
    assert end == TruncatedEnd(F, LaurentSeries(F, {0: F.one}, 1))
    assert stepped == ("value", (end, 2))
    w = end.y
    residual = g.b * w * w + (g.a - g.d) * w - g.c
    assert not residual.has_terms()


def test_a_numerator_vanishing_to_its_precision_divides_to_zero():
    """[[t, 1], [1, 0 mod p^4]] over F_2 sends the up end to (1 : 0 mod p^4):
    the numerator vanishes mod pi^4 and the denominator is 1, so the image is
    the end trunc(0, 4); a denominator of valuation 2 takes two digits off.
    On a truncated end the division route agrees."""
    F = field(2)
    g = parse_matrix(F, "[[t,1],[1,0 mod p^4]]")
    assert g.act_end(UpEnd(F)) == parse_end(F, "trunc(0, 4)")
    h = parse_matrix(F, "[[t,p^2],[1,0 mod p^4]]")
    assert h.act_end(UpEnd(F)) == parse_end(F, "trunc(0, 2)")
    shear, end = parse_matrix(F, "[[1,0],[0 mod p^3,1]]"), parse_end(F, "trunc(0, 5)")
    assert shear.act_end(end) == parse_end(F, "trunc(0, 3)")
    assert act_truncated_end_by_division(shear, end) == parse_end(F, "trunc(0, 3)")
