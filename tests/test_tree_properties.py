"""Property tests: the closed-form tree geometry against definitions that walk.

The closed-form Busemann function is checked against `verify`'s walking
definition, horospheres and horoellipses built from the ray against a
ball filtered with that walk, and `meeting_level` against a climb with
`Tree.parent`, on vertices drawn near the ends so that every way of
leaving an end's line, and every way of running past a truncated end's
horizon, is reached.

Vertices are values: the same vertex reached by different routes is equal
and hashes equal, whichever residue object it shares, and the meeting level
a vertex keeps for its last end never leaks into the answer for another.
`neighbors` is checked against vertices built from their definition, and
the parent a child remembers against a fresh one.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2btree.autom import TreeAutomorphism
from sl2btree.errors import EndPrecisionExhausted
from sl2btree.field import field
from sl2btree.lattice import NagaoLattice
from sl2btree.series import LaurentSeries
from sl2btree.tree import Tree, TruncatedEnd, UpEnd, Vertex, end_from_vector
from sl2btree.verify import _walking_busemann
from brute_force import ball, neighbors_by_definition
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
    # the walk from y may need digits of a truncated end that the walk
    # from x does not, so antisymmetry holds where both walks answer
    back = _outcome(_walking_busemann, _StepsOnly(tree), y, x, end)
    assert _outcome(tree.busemann, y, x, end) == back
    if walked[0] == back[0] == "value":
        assert back[1] == -walked[1]


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_horosphere_from_the_ray_is_the_filtered_ball(q, data):
    tree = TREES[q]
    end = data.draw(ends(tree))
    x = data.draw(vertices_near(tree, end))
    depth = data.draw(st.integers(0, HORO_DEPTH[q]))

    def filtered():
        return [y for y in ball(tree, x, depth) if _walking_busemann(tree, x, y, end) == 0]

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
        for y in ball(tree, x, depth):
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


def _fresh(v):
    """An equal vertex that shares no object with v."""
    r = v.residue
    return Vertex(v.level, LaurentSeries(r.field, dict(r.coeffs)))


def _assert_same_vertex(u, v):
    assert u == v and v == u and hash(u) == hash(v)
    for w in (u, v):
        assert w.residue.is_exact() and all(d < w.level for d in w.residue.coeffs)


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_vertices_reached_by_different_routes_are_one_value(q, data):
    """tree.vertex, children, parent, path, act_vertex and reduce_vertex
    build equal vertices with equal hashes and residues below the level."""
    tree = TREES[q]
    F = tree.field
    end = data.draw(ends(tree))
    x = data.draw(vertices_near(tree, end))
    y = data.draw(vertices_near(tree, end))
    noise = LaurentSeries(F, _series(data.draw, F, x.level, x.level + 3))
    _assert_same_vertex(tree.vertex(x.level, x.residue + noise), x)
    _assert_same_vertex(_fresh(x), x)
    for child in tree.children(x):
        _assert_same_vertex(tree.parent(child), x)
    up = tree.parent(x)
    assert x in tree.children(up) and x in set(tree.children(up))
    _assert_same_vertex(tree.parent(_fresh(x)), up)
    path = tree.path(x, y)
    back = tree.path(y, x)
    _assert_same_vertex(path[0], x)
    _assert_same_vertex(path[-1], y)
    for u, w in zip(path, reversed(back)):
        _assert_same_vertex(u, w)
    for u, w in zip(path, path[1:]):
        assert w in tree.neighbors(u) and u in tree.neighbors(w)
    shift = LaurentSeries(F, _series(data.draw, F, -2, 1))
    moved = TreeAutomorphism.lower_shear(F, shift).act_vertex(x)
    _assert_same_vertex(moved, tree.vertex(x.level, x.residue + shift))
    _assert_same_vertex(TreeAutomorphism.identity(F).act_vertex(x), x)
    reduced = NagaoLattice(F).reduce_vertex(x)
    normal_form = Vertex(reduced.level, LaurentSeries.zero(F))
    _assert_same_vertex(reduced.witness.act_vertex(x), normal_form)
    _assert_same_vertex(reduced.witness.adjugate().act_vertex(normal_form), x)
    assert len({x, _fresh(x), up, *tree.children(x), *tree.children(up)}) == 2 * q + 1


@pytest.mark.parametrize("q", QS)
def test_a_vertex_is_not_a_tuple(q):
    tree = TREES[q]
    for v in [tree.base, *tree.neighbors(tree.base)]:
        pair = (v.level, v.residue)
        assert v != pair and pair != v and not v == pair
        assert v not in {pair} and pair not in {v}
        with pytest.raises(TypeError):
            iter(v)
        with pytest.raises(TypeError):
            v[0]


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_busemann_over_one_base_and_two_ends(q, data):
    """Alternating two ends over one base vertex gives the values (or the
    precision errors) of fresh vertices, and a call that raises raises again."""
    tree = TREES[q]
    first = data.draw(ends(tree))
    second = data.draw(ends(tree))
    x = data.draw(vertices_near(tree, first))
    ys = [data.draw(vertices_near(tree, end)) for end in (first, second, first)]
    for _ in range(2):
        for y in ys:
            for end in (first, second):
                expected = _outcome(tree.busemann, _fresh(x), _fresh(y), end)
                assert _outcome(tree.busemann, x, y, end) == expected
                assert _outcome(tree.horoball_contains, end, x, y) == (
                    expected if expected[0] == "raised" else ("value", expected[1] >= 0)
                )


@pytest.mark.parametrize("q", QS)
def test_a_truncated_end_that_raises_raises_again(q):
    """The horizon check runs on every call, also when m(x) is kept on the vertex."""
    tree = TREES[q]
    F = tree.field
    end = TruncatedEnd(F, LaurentSeries(F, {}, 2))
    near, far = tree.vertex(3, LaurentSeries.zero(F)), tree.vertex(1, LaurentSeries.zero(F))
    for x, y in ((near, tree.base), (far, tree.vertex(-6, LaurentSeries.zero(F)))):
        with pytest.raises(EndPrecisionExhausted) as first:
            tree.busemann(x, y, end)
        for other in (None, tree.end_zero(), tree.end_up()):
            if other is not None:
                tree.busemann(x, tree.parent(x), other)
            with pytest.raises(EndPrecisionExhausted) as again:
                tree.busemann(x, y, end)
            assert str(again.value) == str(first.value)
    # one step from the level-1 vertex is still determined
    assert tree.busemann(far, tree.base, end) == -1


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_inherited_end_meetings_are_the_fresh_ones(q, data):
    """Along a walk of parents, children and steps toward an end, a vertex
    built from one whose m(v) is kept takes it over where the rule says so,
    and every kept m(v) is the one read off the digits of a copy without a
    cache. The walk goes toward up, zero, rational or truncated ends."""
    tree = TREES[q]
    F = tree.field
    end, toward = data.draw(ends(tree)), data.draw(ends(tree))
    v = data.draw(vertices_near(tree, end))
    if not isinstance(end, UpEnd):
        tree._end_meeting(v, end)
    for move in data.draw(st.lists(st.integers(-1, F.q), max_size=12)):
        w = v
        try:
            v = tree.step_to_end(w, toward) if move < 0 else tree.neighbors(w)[move]
        except EndPrecisionExhausted:
            break
        if w._meet is not None and (v.level < w.level or w._meet[1] < w.level):
            assert v._meet is not None
        if v._meet is not None:
            kept_end, m = v._meet
            assert m == tree._end_meeting(_fresh(v), kept_end)


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_neighbors_are_the_definition(q, data):
    """Along a walk of parents and children from a level in -3..5, `neighbors`
    lists the oracle's parent and children in order; each child's parent is
    the very vertex it was built from and the oracle's parent of the child;
    the zero digit's child shares the residue; and each neighbor equals and
    hashes like a fresh copy of itself and of no other neighbor."""
    tree = TREES[q]
    F = tree.field
    n = data.draw(st.integers(-3, 5))
    v = Vertex(n, LaurentSeries(F, _series(data.draw, F, n - 4, n)))
    for move in data.draw(st.lists(st.integers(0, q), min_size=1, max_size=6)):
        found = tree.neighbors(v)
        assert found == neighbors_by_definition(tree, v)
        assert found[1].residue is v.residue
        for child in found[1:]:
            assert tree.parent(child) is v
            assert tree.parent(child) == neighbors_by_definition(tree, child)[0]
        fresh = [_fresh(u) for u in found]
        for i, u in enumerate(found):
            assert hash(u) == hash(fresh[i])
            assert [u == w for w in fresh] == [w == u for w in fresh] == [j == i for j in range(q + 1)]
        v = found[move]


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_busemann_on_kept_vertices_after_walks_toward_two_ends(q, data):
    """A walk that steps toward two ends in turn, and to neighbors, keeps its
    vertices with the parents and meeting levels they remember; a parent
    takes over the meeting level of the vertex it is reached from, and
    `busemann` on the kept vertices gives the values, or the precision
    errors, of fresh copies."""
    tree = TREES[q]
    pair = (data.draw(ends(tree)), data.draw(ends(tree)))
    walk = [data.draw(vertices_near(tree, pair[0]))]
    for i, move in enumerate(data.draw(st.lists(st.integers(-1, q), max_size=12))):
        w, end = walk[-1], pair[i % 2]
        try:
            u = tree.step_to_end(w, end) if move < 0 else tree.neighbors(w)[move]
        except EndPrecisionExhausted:
            break
        if u.level < w.level and w._meet is not None:
            assert u._meet[0] is w._meet[0] and u._meet[1] == min(w._meet[1], u.level)
        walk.append(u)
        _outcome(tree.busemann, walk[0], u, end)
    for y in walk:
        for end in pair:
            expected = _outcome(tree.busemann, _fresh(walk[0]), _fresh(y), end)
            assert _outcome(tree.busemann, walk[0], y, end) == expected
