"""Property tests: every literal the package formats parses back to itself.

Series (exact, and known only mod p^N), vertices, ends (up, rational and
truncated) and matrices are drawn over F_2, F_3, F_4 and F_9, formatted,
and parsed again; the result must equal the original, precision included.
Truncated ends are drawn with horizons N from -8 to 8: the action builds
ends known only modulo pi^N with N <= 0 too.
"""

import pytest
from hypothesis import assume, given, strategies as st

from sl2btree.autom import TreeAutomorphism
from sl2btree.errors import InvalidInputError
from sl2btree.literals import (
    format_end,
    format_matrix,
    format_series,
    format_vertex,
    parse_end,
    parse_matrix,
    parse_series,
    parse_vertex,
)
from sl2btree.series import LaurentSeries
from sl2btree.tree import TruncatedEnd
from test_series_properties import series
from test_tree_properties import PROPERTY, QS, TREES, _series, rational_ends, vertices_near


@st.composite
def literal_ends(draw, tree):
    F = tree.field
    kind = draw(st.sampled_from(["up", "rational", "truncated"]))
    if kind == "up":
        return tree.end_up()
    if kind == "rational":
        return draw(rational_ends(tree))
    horizon = draw(st.integers(-8, 8))
    return TruncatedEnd(F, LaurentSeries(F, _series(draw, F, horizon - 8, horizon), horizon))


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_series_literals_round_trip(q, data):
    F = TREES[q].field
    s = data.draw(series(F))
    back = parse_series(F, format_series(s))
    assert back == s and back.prec == s.prec


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_end_and_vertex_literals_round_trip(q, data):
    tree = TREES[q]
    end = data.draw(literal_ends(tree))
    assert parse_end(tree.field, format_end(end)) == end
    v = data.draw(vertices_near(tree, end))
    assert parse_vertex(tree.field, format_vertex(v)) == v


@pytest.mark.parametrize("q", QS)
@PROPERTY
@given(data=st.data())
def test_matrix_literals_round_trip(q, data):
    F = TREES[q].field
    entries = [data.draw(series(F)) for _ in range(4)]
    try:
        g = TreeAutomorphism(F, *entries)
    except InvalidInputError:
        assume(False)  # singular
    assert parse_matrix(F, format_matrix(g)) == g
