"""Property tests: the closed-form tree geometry against definitions that walk.

The closed-form Busemann function is checked against `verify`'s walking
definition, horospheres and horoellipses built from the ray against a
ball filtered with that walk, and `meeting_level` against a climb with
`Tree.parent`, on vertices drawn near the ends so that every way of
leaving an end's line, and every way of running past a truncated end's
horizon, is reached.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2btree.errors import EndPrecisionExhausted
from sl2btree.field import field
from sl2btree.series import LaurentSeries
from sl2btree.tree import Tree, TruncatedEnd, UpEnd, Vertex, end_from_vector
from sl2btree.verify import _walking_busemann
from test_tree import _meeting_level_by_walking

QS = [2, 3, 4, 9]
# ball radii that keep a filtered ball small: q^depth stays under about 10^3
HORO_DEPTH = {2: 6, 3: 5, 4: 4, 9: 3}

ECCENTRICITIES = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

TREES = {q: Tree(field(q)) for q in QS}


class _StepsOnly:
    """A tree seen only through `step_to_end` and `distance`."""

    def __init__(self, tree):
        self.step_to_end = tree.step_to_end
        self.distance = tree.distance


def _series(draw, F, lo, hi):
    """Digits at degrees lo..hi-1, drawn as one base-q number."""
    elems = list(F.elements())
    code = draw(st.integers(0, F.q ** max(hi - lo, 0) - 1))
    digits = {}
    for d in range(lo, hi):
        code, i = divmod(code, F.q)
        digits[d] = elems[i]
    return digits


@st.composite
def rational_ends(draw, tree):
    """y/x for polynomials of degree <= 3, x nonzero."""
    F = tree.field
    x = LaurentSeries(F, _series(draw, F, -3, 1))
    y = LaurentSeries(F, _series(draw, F, -3, 1))
    if not x.has_terms():
        x = LaurentSeries.one(F)
    return end_from_vector(F, x, y)


@st.composite
def ends(draw, tree):
    F = tree.field
    kind = draw(st.sampled_from(["up", "zero", "rational", "truncated"]))
    if kind == "up":
        return tree.end_up()
    if kind == "zero":
        return tree.end_zero()
    if kind == "rational":
        return draw(rational_ends(tree))
    horizon = draw(st.integers(-2, 8))
    coeffs = _series(draw, F, horizon - 8, horizon)
    return TruncatedEnd(F, LaurentSeries(F, coeffs, horizon))


@st.composite
def vertices_near(draw, tree, end):
    """A vertex of the end's line (as far as the end is known), moved a few
    steps at random: to the parent or to one of the children."""
    F = tree.field
    n = draw(st.integers(-4, 8))
    if isinstance(end, UpEnd):
        coeffs = _series(draw, F, n - 6, n)
    else:
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
def test_cached_expansion_is_y_over_x(q, data):
    """Digits asked for in any order, deepening the cache by doubling, are
    those of one inversion to exactly the depth asked for."""
    tree = TREES[q]
    end = data.draw(rational_ends(tree))
    v = end.valuation()
    for n in data.draw(st.lists(st.integers(-6, 20), min_size=1, max_size=5)):
        if n > v:
            expected = (end.y * end.x.inverse(n - v)).truncate(n)
        else:
            expected = LaurentSeries.zero(tree.field)
        assert end.coordinate_mod(n) == expected


def _outcome(f, *args):
    """The value, or the precision error's message, of one call."""
    try:
        return "value", f(*args)
    except EndPrecisionExhausted as exc:
        return "raised", str(exc)


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_closed_form_busemann_is_the_walk(q, data):
    tree = TREES[q]
    end = data.draw(ends(tree))
    x = data.draw(vertices_near(tree, end))
    y = data.draw(vertices_near(tree, end))
    walked = _outcome(_walking_busemann, _StepsOnly(tree), x, y, end)
    assert _outcome(tree.busemann, x, y, end) == walked
    if walked[0] == "value":
        assert tree.busemann(y, x, end) == -walked[1]


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_horosphere_from_the_ray_is_the_filtered_ball(q, data):
    tree = TREES[q]
    end = data.draw(ends(tree))
    x = data.draw(vertices_near(tree, end))
    depth = data.draw(st.integers(0, HORO_DEPTH[q]))

    def filtered():
        return [y for y in tree.ball(x, depth) if _walking_busemann(tree, x, y, end) == 0]

    assert _outcome(tree.horosphere_vertices, end, x, depth) == _outcome(filtered)


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_horoellipse_from_the_ray_is_the_filtered_ball(q, data):
    """Same members, same order, same error for a truncated end."""
    tree = TREES[q]
    end = data.draw(ends(tree))
    x = data.draw(vertices_near(tree, end))
    lam = data.draw(st.sampled_from(ECCENTRICITIES))
    depth = data.draw(st.integers(0, HORO_DEPTH[q]))

    def filtered():
        out = []
        for y in tree.ball(x, depth):
            b = _walking_busemann(_StepsOnly(tree), x, y, end)
            d = tree.distance(x, y)
            if lam.denominator * (d - b) <= lam.numerator * (d + b):
                out.append(y)
        return out

    assert _outcome(tree.horoellipse_vertices, end, x, lam, depth) == _outcome(filtered)


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_meeting_level_is_a_climb_with_parent(q, data):
    tree = TREES[q]
    end = data.draw(ends(tree))
    x = data.draw(vertices_near(tree, end))
    y = data.draw(vertices_near(tree, end))
    expected = _meeting_level_by_walking(tree, x, y)
    assert tree.meeting_level(x, y) == tree.meeting_level(y, x) == expected
