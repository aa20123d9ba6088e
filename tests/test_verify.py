import random

import pytest

from sl2btree.field import field
from sl2btree.series import LaurentSeries
from sl2btree.tree import Tree
from sl2btree.verify import SUITES, _rand_vertex, _search_distance, run_all, run_suite


def test_every_suite_passes_over_the_binary_field():
    results = run_all(field(2), seed=0)
    assert [r.name for r in results] == list(SUITES)
    for r in results:
        assert r.checks > 0
        assert r.passed, f"{r.name} failed: {r.failures}"


def test_results_are_deterministic_for_a_fixed_seed():
    first = run_all(field(2), seed=7, names=["distance-bfs"])
    second = run_all(field(2), seed=7, names=["distance-bfs"])
    assert [(r.name, r.checks, r.passed) for r in first] == [
        (r.name, r.checks, r.passed) for r in second
    ]


def test_unknown_suite_name():
    with pytest.raises(KeyError):
        run_suite(field(2), "no-such-suite", seed=0)


def test_spot_suites_over_larger_fields():
    assert run_suite(field(3), "busemann-cocycle", seed=1).passed
    assert run_suite(field(4), "action-compatibility", seed=1).passed


def test_result_string_form():
    r = run_suite(field(2), "busemann-cocycle", seed=0)
    assert str(r) == "busemann-cocycle: 36 checks, ok"


def _ball_size(q, r):
    """Vertices within distance r in the (q+1)-regular tree."""
    return 1 + (q + 1) * (q**r - 1) // (q - 1)


def _count_calls(monkeypatch, cls, name, results=None):
    calls = []
    original = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(name)
        out = original(self, *args, **kwargs)
        if results is not None:
            results.append(out)
        return out

    monkeypatch.setattr(cls, name, counting)
    return calls


class _NeighborsOnly:
    """A tree seen only through its adjacency: no distance, no meeting level."""

    def __init__(self, tree):
        self.neighbors = tree.neighbors


def _search_pairs(tree, rng, max_distance):
    """Random pairs, equal pairs and ancestor/descendant pairs."""
    F = tree.field
    pairs = []
    while len(pairs) < 12:
        x = _rand_vertex(rng, F, tree, -3, 3)
        y = _rand_vertex(rng, F, tree, -3, 3)
        if tree.distance(x, y) <= max_distance:
            pairs.append((x, y))
    for _ in range(4):
        x = _rand_vertex(rng, F, tree, -3, 3)
        pairs.append((x, x))
        y = x
        for _ in range(rng.randrange(1, max_distance // 2 + 1)):
            y = rng.choice(tree.children(y))
        pairs += [(x, y), (y, x)]
    return pairs


@pytest.mark.parametrize("q,max_distance", [(2, 14), (3, 12), (4, 12), (9, 10)])
def test_search_distance_matches_the_closed_form(q, max_distance):
    F = field(q)
    tree = Tree(F)
    rng = random.Random(f"search:{q}")
    for x, y in _search_pairs(tree, rng, max_distance):
        assert _search_distance(_NeighborsOnly(tree), x, y) == tree.distance(x, y), (x, y)


def test_search_distance_gives_up_past_the_cap():
    F = field(2)
    tree = Tree(F)
    zero = LaurentSeries.zero(F)
    top = tree.vertex(-7, zero)
    assert _search_distance(tree, top, tree.vertex(7, zero)) == 14
    assert _search_distance(tree, top, tree.vertex(8, zero)) is None
    assert _search_distance(tree, tree.vertex(8, zero), top) is None


def test_distance_bfs_search_reaches_the_tree_only_through_neighbors(monkeypatch):
    distance_calls = _count_calls(monkeypatch, Tree, "distance")
    meeting_calls = _count_calls(monkeypatch, Tree, "meeting_level")
    result = run_suite(field(3), "distance-bfs", seed=1)
    assert result.passed
    # one closed-form distance per check, made by the suite itself
    assert len(distance_calls) == len(meeting_calls) == result.checks == 10


def test_distance_bfs_visits_two_half_balls_per_check(monkeypatch):
    distances = []
    _count_calls(monkeypatch, Tree, "distance", distances)
    neighbor_calls = _count_calls(monkeypatch, Tree, "neighbors")
    assert run_suite(field(3), "distance-bfs", seed=1).passed
    bound = sum(2 * _ball_size(3, -(-d // 2)) for d in distances)
    assert len(neighbor_calls) <= bound


def test_distance_bfs_reports_a_wrong_closed_form(monkeypatch):
    original = Tree.distance
    monkeypatch.setattr(Tree, "distance", lambda self, x, y: original(self, x, y) + 1)
    result = run_suite(field(2), "distance-bfs", seed=0)
    assert not result.passed
    assert len(result.failures) == result.checks == 10
    assert all("search said" in f for f in result.failures)


FULL_SUITE_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="unipotent-transitivity inverts with a fixed 14-term budget, so an end "
    "with a pole matches its target to fewer than 8 digits",
)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize(
    "name",
    [pytest.param(n, marks=FULL_SUITE_XFAIL) if n == "unipotent-transitivity" else n for n in SUITES],
)
def test_every_suite_over_larger_fields(q, name):
    r = run_suite(field(q), name, seed=0)
    assert r.checks > 0
    assert r.passed, f"{name} failed: {r.failures}"
