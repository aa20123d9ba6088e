import random
from fractions import Fraction

import pytest

from sl2btree import tree as tree_module
from sl2btree.errors import (
    EndPrecisionExhausted,
    EqualEndsError,
    InvalidInputError,
    SizeGuardExceeded,
)
from sl2btree.field import field
from sl2btree.literals import parse_end, parse_series, parse_vertex
from sl2btree.series import LaurentSeries
from sl2btree.tree import (
    Tree,
    Vertex,
    end_difference_valuation,
    end_from_vector,
)
from brute_force import ball


F = field(2)
tree = Tree(F)
v0 = tree.base
zero_end = tree.end_zero()


def v(text):
    return parse_vertex(F, text)


def test_vertex_canonicalization():
    assert tree.vertex(2, parse_series(F, "1+p^5")) == v("(2; 1)")
    assert tree.vertex(0, parse_series(F, "1")) == v0
    assert v("(3; p+p^4)") == v("(3; p)")
    assert v("(2; 1)") != v("(3; 1)")


def test_neighbors():
    nbrs = tree.neighbors(v0)
    assert len(nbrs) == 3
    assert v("(-1; 0)") in nbrs
    assert v("(1; 0)") in nbrs
    assert v("(1; 1)") in nbrs
    F3 = field(3)
    assert len(Tree(F3).neighbors(Tree(F3).base)) == 4


def test_parent_and_descendants():
    assert tree.parent(v("(2; p)")) == v("(1; 0)")
    assert tree.parent(v("(0; 0)")) == v("(-1; 0)")
    assert tree.is_descendant(v("(3; p)"), v("(1; 0)"))
    assert not tree.is_descendant(v("(3; 1)"), v("(1; 0)"))


def test_distance_hand_values():
    assert tree.distance(v0, v0) == 0
    assert tree.distance(v0, v("(1; 1)")) == 1
    assert tree.distance(v0, v("(2; p)")) == 2
    assert tree.distance(v("(2; 0)"), v("(2; p)")) == 2
    assert tree.distance(v("(2; 1)"), v("(2; p)")) == 4
    assert tree.distance(v("(-2; 0)"), v("(2; 0)")) == 4
    assert tree.distance(v("(4; p^2)"), v0) == 4


def _meeting_level_by_walking(t, x, y):
    """Highest common ancestor found with `parent` alone: bring both vertices
    to the lower level, then climb together until they coincide."""
    while x.level > y.level:
        x = t.parent(x)
    while y.level > x.level:
        y = t.parent(y)
    while x != y:
        x, y = t.parent(x), t.parent(y)
    return x.level


def _random_vertex(rng, t, lo, hi):
    n = rng.randrange(lo, hi + 1)
    elems = list(t.field.elements())
    coeffs = {d: rng.choice(elems) for d in range(n - 6, n) if rng.random() < 0.7}
    return t.vertex(n, LaurentSeries(t.field, coeffs))


def _meeting_level_cases(t, rng):
    """Pairs at negative levels, equal pairs, ancestor/descendant pairs and
    pairs whose residues differ only in their top digit."""
    elems = list(t.field.elements())
    for _ in range(12):
        x = _random_vertex(rng, t, -6, -1)
        yield x, _random_vertex(rng, t, -6, 3)
        yield x, x
        yield x, t.vertex(x.level, LaurentSeries(t.field, dict(x.residue.coeffs)))
        y = x
        for _ in range(rng.randrange(1, 6)):
            y = rng.choice(t.children(y))
        yield x, y
        yield y, x
        z = _random_vertex(rng, t, -3, 4)
        top = z.level - 1
        digit = z.residue.coefficient(top)
        flipped = dict(z.residue.coeffs)
        flipped[top] = rng.choice([c for c in elems if c is not digit])
        w = t.vertex(z.level, LaurentSeries(t.field, flipped))
        assert w != z and w.residue.truncate(top) == z.residue.truncate(top)
        yield z, w
        yield z, rng.choice(t.children(w))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_meeting_level_matches_walking_up(q):
    t = Tree(field(q))
    rng = random.Random(q)
    for x, y in _meeting_level_cases(t, rng):
        expected = _meeting_level_by_walking(t, x, y)
        assert t.meeting_level(x, y) == expected, (x, y)
        assert t.meeting_level(y, x) == expected, (y, x)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_children_add_the_digit_at_the_vertex_level(q):
    F = field(q)
    t = Tree(F)
    rng = random.Random(q)
    for _ in range(20):
        x = _random_vertex(rng, t, -4, 4)
        pi_n = LaurentSeries.pi_power(F, x.level)
        summed = [Vertex(x.level + 1, x.residue + pi_n.scale(c)) for c in F.elements()]
        children = t.children(x)
        assert children == summed
        assert [str(c) for c in children] == [str(c) for c in summed]
        assert all(t.parent(c) == x for c in children)


def test_distance_is_symmetric_and_triangular():
    box = ball(tree, v0, 2)
    for x in box:
        for y in box:
            assert tree.distance(x, y) == tree.distance(y, x)
            assert tree.distance(x, y) <= tree.distance(x, v0) + tree.distance(v0, y)


def test_ball_and_sphere_sizes():
    for r in range(4):
        assert len(tree.sphere(v0, r)) == (1 if r == 0 else 3 * 2 ** (r - 1))
    assert len(ball(tree, v0, 3)) == 1 + 3 + 6 + 12
    F3 = field(3)
    t3 = Tree(F3)
    assert len(t3.sphere(t3.base, 2)) == 4 * 3


def _walks_no_ray(monkeypatch):
    """A tree whose `step_to_end` fails the test if it is ever called."""
    fresh = Tree(F)

    def step_to_end(x, end):
        raise AssertionError("walked toward an end")

    monkeypatch.setattr(fresh, "step_to_end", step_to_end)
    return fresh


def test_ball_rejects_a_negative_radius():
    with pytest.raises(InvalidInputError):
        ball(tree, v0, -1)


@pytest.mark.parametrize("q", [2, 3])
def test_sphere_is_the_last_layer_of_the_ball(q):
    tree = Tree(field(q))
    x = tree.vertex(2, parse_series(tree.field, "t+p"))
    for r in range(1, 5):
        assert tree.sphere(x, r) == ball(tree, x, r)[len(ball(tree, x, r - 1)):]
    assert tree.sphere(x, 0) == ball(tree, x, 0) == [x]


def test_sphere_rejects_a_negative_radius():
    with pytest.raises(InvalidInputError):
        tree.sphere(v0, -2)


def test_horoellipse_rejects_a_negative_depth(monkeypatch):
    fresh = _walks_no_ray(monkeypatch)
    with pytest.raises(InvalidInputError):
        fresh.horoellipse_vertices(zero_end, v0, Fraction(1), -3)


def test_horosphere_rejects_a_negative_depth(monkeypatch):
    fresh = _walks_no_ray(monkeypatch)
    with pytest.raises(InvalidInputError, match="horosphere depth must be >= 0"):
        fresh.horosphere_vertices(zero_end, v0, -4)


def test_midpoint():
    assert tree.midpoint(v0, v("(4; p^2)")) == v("(2; 0)")
    assert tree.midpoint(v0, v0) == v0
    with pytest.raises(InvalidInputError):
        tree.midpoint(v0, v("(1; 0)"))  # odd distance has no vertex midpoint


def test_step_and_walk_to_end():
    assert tree.step_to_end(v0, zero_end) == v("(1; 0)")
    assert tree.step_to_end(v("(1; 1)"), zero_end) == v0
    up = parse_end(F, "up")
    assert tree.step_to_end(v0, up) == v("(-1; 0)")
    e = parse_end(F, "rat(1, t^2+t+1)")
    assert tree.ray(v0, e, 4) == [
        v0,
        v("(1; 0)"),
        v("(2; 0)"),
        v("(3; p^2)"),
        v("(4; p^2+p^3)"),
    ]


def test_truncated_end_walk_exhausts():
    e = parse_end(F, "trunc(p+p^3, 4)")
    x = v0
    for _ in range(4):
        x = tree.step_to_end(x, e)
    with pytest.raises(EndPrecisionExhausted):
        tree.step_to_end(x, e)


def test_busemann_hand_values():
    assert tree.busemann(v0, v("(3; 0)"), zero_end) == 3
    assert tree.busemann(v0, v("(-2; 0)"), zero_end) == -2
    assert tree.busemann(v0, v("(2; p)"), zero_end) == 0
    assert tree.busemann(v0, v("(1; 1)"), zero_end) == -1
    assert tree.busemann(v("(3; 0)"), v0, zero_end) == -3
    up = parse_end(F, "up")
    assert tree.busemann(v0, v("(3; 0)"), up) == -3


def test_busemann_cocycle_small():
    xs = ball(tree, v0, 2)
    for x in xs:
        for y in xs:
            assert tree.busemann(x, y, zero_end) == -tree.busemann(y, x, zero_end)
            total = tree.busemann(x, v0, zero_end) + tree.busemann(v0, y, zero_end)
            assert tree.busemann(x, y, zero_end) == total


def test_horoball_and_horosphere_membership():
    assert tree.horoball_contains(zero_end, v0, v("(3; 0)"))
    assert tree.horoball_contains(zero_end, v0, v("(2; p)"))
    assert not tree.horoball_contains(zero_end, v0, v("(1; 1)"))
    assert tree.horosphere_contains(zero_end, v0, v("(2; p)"))
    assert not tree.horosphere_contains(zero_end, v0, v("(1; 0)"))


def test_horosphere_through_a_deep_vertex():
    # members of the horosphere through (3; 0) within distance 6: the vertex
    # itself, plus the branches leaving the standard ray at levels 4, 5, 6
    members = tree.horosphere_vertices(zero_end, v("(3; 0)"), 6)
    assert len(members) == 1 + 1 + 2 + 4
    assert v("(3; 0)") in members
    assert v("(5; p^4)") in members
    by_level = sorted(m.level for m in members)
    assert by_level == [3, 5, 7, 7, 9, 9, 9, 9]
    for m in members:
        if m.level > 3:
            assert m.residue.valuation() == (m.level + 3) // 2


def test_horoellipse_interpolates():
    ray_only = tree.horoellipse_vertices(zero_end, v0, Fraction(0), 6)
    assert ray_only == tree.ray(v0, zero_end, 6)
    ball_like = tree.horoellipse_vertices(zero_end, v0, Fraction(1), 4)
    horoball = [y for y in ball(tree, v0, 4) if tree.horoball_contains(zero_end, v0, y)]
    assert ball_like == horoball
    # the eccentricity is checked first, before any depth or horizon
    short = parse_end(F, "trunc(p, 1)")
    for lam in (Fraction(3, 2), Fraction(-1, 3)):
        for end, depth in ((zero_end, 0), (zero_end, 4), (short, 6)):
            with pytest.raises(InvalidInputError):
                tree.horoellipse_vertices(end, v0, lam, depth)


def test_horoellipse_member_bound(monkeypatch):
    # 22 members within distance 6; the bound admits exactly that many
    monkeypatch.setattr(tree_module, "_HOROELLIPSE_MEMBER_BOUND", 22)
    assert len(tree.horoellipse_vertices(zero_end, v0, Fraction(1), 6)) == 22
    monkeypatch.setattr(tree_module, "_HOROELLIPSE_MEMBER_BOUND", 21)
    with pytest.raises(SizeGuardExceeded, match="at least 22 members \\(bound 21\\)"):
        tree.horoellipse_vertices(zero_end, v0, Fraction(1), 6)
    # the ray alone exceeds the bound: refused before walking it
    with pytest.raises(SizeGuardExceeded, match="at least 10001 members"):
        tree.horoellipse_vertices(zero_end, v0, Fraction(0), 10_000)


def test_horosphere_member_bound(monkeypatch):
    # the horosphere is listed through the horoball, whose 22 members within
    # distance 6 the bound counts, though only 8 of them are listed
    monkeypatch.setattr(tree_module, "_HOROELLIPSE_MEMBER_BOUND", 22)
    assert len(tree.horosphere_vertices(zero_end, v0, 6)) == 1 + 1 + 2 + 4
    monkeypatch.setattr(tree_module, "_HOROELLIPSE_MEMBER_BOUND", 21)
    with pytest.raises(SizeGuardExceeded, match="at least 22 members \\(bound 21\\)"):
        tree.horosphere_vertices(zero_end, v0, 6)
    with pytest.raises(SizeGuardExceeded, match="at least 10001 members"):
        tree.horosphere_vertices(zero_end, v0, 10_000)


def test_end_difference_valuation():
    e = parse_end(F, "rat(1, t^2+t+1)")
    assert end_difference_valuation(zero_end, e) == 2
    with pytest.raises(EqualEndsError):
        end_difference_valuation(zero_end, zero_end)
    with pytest.raises(InvalidInputError):
        end_difference_valuation(parse_end(F, "up"), zero_end)


def test_end_from_vector():
    e = end_from_vector(F, parse_series(F, "t^2+t+1"), parse_series(F, "1"))
    assert e == parse_end(F, "rat(1, t^2+t+1)")
    up = end_from_vector(F, LaurentSeries.zero(F), LaurentSeries.one(F))
    assert up == parse_end(F, "up")
