import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2btree.autom import TreeAutomorphism, _end_of, drift_along_end
from sl2btree.errors import (
    DoesNotFixEnd,
    IndeterminateValuation,
    InsufficientPrecision,
    InvalidInputError,
    NonterminationGuard,
    NotFixingError,
    NotTypePreserving,
    Sl2BTreeError,
)
from sl2btree.field import field
from sl2btree.literals import format_end, parse_end, parse_matrix, parse_vertex
from sl2btree.series import INFINITY, LaurentSeries, _fused
from sl2btree.tree import Tree, TruncatedEnd, UpEnd, Vertex
from brute_force import ball, decompose_end_stabilizer, zero_end_conjugator
from test_series_properties import kernel_operands, series
from test_tree_properties import TREES, ends


F = field(2)
tree = Tree(F)


def m(text, Fq=F):
    return parse_matrix(Fq, text)


def v(text, Fq=F):
    return parse_vertex(Fq, text)


def _random_matrix(rng, Fq):
    """Random product of shears and the half turn (determinant 1)."""
    one, zero = LaurentSeries.one(Fq), LaurentSeries.zero(Fq)
    g = TreeAutomorphism.identity(Fq)
    for _ in range(rng.randrange(1, 4)):
        coeffs = {-d: rng.randrange(Fq.q) for d in range(2)}
        b = LaurentSeries.exact(Fq, coeffs)
        if rng.random() < 0.5:
            g = g * TreeAutomorphism(Fq, one, b, zero, one)
        else:
            g = g * TreeAutomorphism(Fq, one, zero, b, one)
        if rng.random() < 0.3:
            g = g * TreeAutomorphism.half_turn(Fq)
    return g


def test_constructor_rejects_singular():
    with pytest.raises(InvalidInputError):
        m("[[1,1],[1,1]]")
    for Fq in map(field, (2, 3, 4, 9)):
        t = LaurentSeries.pi_power(Fq, -1)
        one, zero = LaurentSeries.one(Fq), LaurentSeries.zero(Fq)
        for entries in ((one, t, t, t * t), (zero, zero, one, t), (t, one, zero, zero)):
            with pytest.raises(InvalidInputError, match="matrix is singular"):
                TreeAutomorphism(Fq, *entries)


def test_adjugate_inverts():
    g = m("[[1+t^2,t],[t,1]]")
    assert (g * g.adjugate()).is_scalar()
    for x in ball(tree, tree.base, 2):
        assert g.adjugate().act_vertex(g.act_vertex(x)) == x


def test_action_is_compatible_with_composition():
    rng = random.Random("autom:compat")
    for _ in range(40):
        g = _random_matrix(rng, F)
        h = _random_matrix(rng, F)
        x = v(f"({rng.randrange(-2, 4)}; 0)")
        assert (g * h).act_vertex(x) == g.act_vertex(h.act_vertex(x))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_action_composes_over_every_field(q, rng):
    """(g h) v = g (h v) on vertices and on exact ends."""
    Fq = field(q)
    g, h = _random_matrix(rng, Fq), _random_matrix(rng, Fq)
    n = rng.randrange(-4, 7)
    x = Vertex(n, LaurentSeries.exact(Fq, {d: rng.randrange(q) for d in range(n - 6, n)}))
    assert (g * h).act_vertex(x) == g.act_vertex(h.act_vertex(x))
    # images of the up end: the up end itself and rational ends
    end = _random_matrix(rng, Fq).act_end(UpEnd(Fq))
    assert (g * h).act_end(end) == g.act_end(h.act_end(end))


def test_action_preserves_distances():
    rng = random.Random("autom:isometry")
    box = ball(tree, tree.base, 2)
    for _ in range(10):
        g = _random_matrix(rng, F)
        for x in box[:5]:
            for y in box[:5]:
                assert tree.distance(g.act_vertex(x), g.act_vertex(y)) == tree.distance(
                    x, y
                )


def test_scalars_act_trivially():
    pi = LaurentSeries.pi_power(F, 1)
    g = TreeAutomorphism.diagonal(F, pi, pi)
    for x in ball(tree, tree.base, 2):
        assert g.act_vertex(x) == x
    assert g.is_scalar()


def test_act_end_matches_boundary_coordinates():
    g = m("[[1,t],[0,1]]")
    # columns: (x, y) -> (x + t*y, y); over F2 the denominator t + t*1 cancels
    assert format_end(g.act_end(parse_end(F, "rat(1, t)"))) == "up"
    assert g.act_end(parse_end(F, "rat(0, 1)")) == parse_end(F, "rat(0, 1)")
    assert format_end(g.act_end(parse_end(F, "up"))) == "rat(1, t)"


def test_classification_hand_cases():
    ident = TreeAutomorphism.identity(F)
    c = ident.classify()
    assert c.kind == "elliptic" and c.fixed_vertex == tree.base

    step = TreeAutomorphism.standard_step(F)
    c = step.classify(ends_depth=6)
    assert c.kind == "hyperbolic" and c.length == 2
    assert format_end(c.attracting) == "rat(0, 1)"
    assert format_end(c.repelling) == "up"

    assert m("[[1,1],[0,1]]").classify().kind == "elliptic"
    swap = m("[[0,1],[1,0]]")
    c = swap.classify()
    assert c.kind == "elliptic" and c.fixed_vertex == tree.base


def test_classification_repr_is_pinned():
    # the drift and classification suites print it in their failure messages
    assert repr(m("[[1,t],[0,1]]").classify()) == (
        "Classification(kind='elliptic', length=None, "
        "fixed_vertex=Vertex(level=1, residue=LaurentSeries(0)), attracting=None, repelling=None)"
    )
    assert repr(m("[[t,1],[1,0]]").classify()) == (
        "Classification(kind='hyperbolic', length=2, fixed_vertex=None, attracting=None, "
        "repelling=None)"
    )


def test_translation_length_of_polynomial_products():
    g = m("[[1,t],[0,1]]") * m("[[1,0],[t,1]]")
    assert g.translation_length() == 4  # trace t^2 has valuation -2
    h = m("[[1,1],[0,1]]") * m("[[1,0],[1,1]]")
    assert h.translation_length() == 0


def test_type_preservation_guard():
    g = TreeAutomorphism(
        F,
        LaurentSeries.pi_power(F, -1),
        LaurentSeries.zero(F),
        LaurentSeries.zero(F),
        LaurentSeries.one(F),
    )
    with pytest.raises(NotTypePreserving):
        g.translation_length()


def test_translation_length_insufficient_precision():
    unknown = LaurentSeries.inexact(F, {}, 1)
    p2 = LaurentSeries.pi_power(F, 2)
    g = TreeAutomorphism(F, unknown, p2, -p2, LaurentSeries.zero(F))
    with pytest.raises(InsufficientPrecision):
        g.translation_length()


def test_attracting_end_of_non_triangular_element():
    g = m("[[1,t],[0,1]]") * m("[[1,0],[t,1]]")
    e = g.attracting_end(depth=8)
    assert isinstance(e, TruncatedEnd)
    # certified: a deep branch vertex is carried strictly inside its subtree
    res = e.coordinate_mod(8)
    branch = tree.vertex(8, res)
    image = g.act_vertex(branch)
    assert tree.is_descendant(image, branch)
    # the repelling end of the inverse is the same direction
    e2 = g.adjugate().repelling_end(depth=8)
    assert e.coordinate_mod(6) == e2.coordinate_mod(6)


def test_act_end_of_the_up_end_under_an_inexact_matrix():
    # the image of the up end is (b : d); an exact-zero b gives the up end and
    # an exact-zero d the zero end, however well the other entry is known
    up = UpEnd(F)
    assert m("[[t,0],[1,p mod p^3]]").act_end(up) == up
    assert m("[[1,t mod p^3],[p,0]]").act_end(up) == tree.end_zero()
    # otherwise d/b to the digits the two entries determine
    assert format_end(m("[[1,t mod p^3],[0,1]]").act_end(up)) == "trunc(p, 5)"
    assert format_end(m("[[1,t],[0,1 mod p^3]]").act_end(up)) == "trunc(p, 4)"


def test_act_end_of_a_rational_end_under_an_inexact_matrix():
    # the end (x : y) goes to (a*x + b*y : c*x + d*y); with c an exact zero,
    # the zero end's image has the exact-zero coordinate c*1 + d*0
    g = m("[[t mod p^3,1],[0,1]]")
    assert g.act_end(parse_end(F, "rat(0, 1)")) == tree.end_zero()
    # p^5 / (t + p^5 mod p^3): the denominator holds four digits from t on
    assert format_end(g.act_end(parse_end(F, "rat(p^5, 1)"))) == "trunc(p^6, 10)"
    # agreeing with the exact matrix's image as far as the image is known
    exact = m("[[t,1],[0,1]]").act_end(parse_end(F, "rat(p^5, 1)"))
    assert _ends_agree(g.act_end(parse_end(F, "rat(p^5, 1)")), exact)


def _image_or_error(f, *args):
    """The end f returns, or the type of the package error it raises."""
    try:
        return f(*args)
    except Sl2BTreeError as exc:
        return type(exc)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_exact_ends_act_through_their_vectors(q, data):
    """One branch for exact ends: the up end (0 : 1) goes to (b : d) and the
    zero end (1 : 0) to (a : c), for exact and inexact entries alike."""
    Fq = field(q)
    up = UpEnd(Fq)
    assert up.x.is_exact_zero() and up.y == LaurentSeries.one(Fq)
    entries = [data.draw(kernel_operands(Fq)) for _ in range(4)]
    try:
        g = TreeAutomorphism(Fq, *entries)
    except InvalidInputError:
        return  # singular
    zero_end = Tree(Fq).end_zero()
    assert _image_or_error(g.act_end, up) == _image_or_error(_end_of, Fq, g.b, g.d)
    assert _image_or_error(g.act_end, zero_end) == _image_or_error(_end_of, Fq, g.a, g.c)


def _ends_agree(end, exact_end):
    """Whether two ends agree as far as both are known."""
    if not (isinstance(end, TruncatedEnd) or isinstance(exact_end, TruncatedEnd)):
        return end == exact_end
    if isinstance(end, UpEnd) or isinstance(exact_end, UpEnd):
        return False  # a branch of ends never holds the up end
    depth = min(end.known_depth(), exact_end.known_depth())
    return end.coordinate_mod(depth) == exact_end.coordinate_mod(depth)


# hyperbolic: a non-triangular one, a diagonal one and two triangular ones
HYPERBOLIC = ["[[t,1],[1,0]]", "[[t,0],[0,p]]", "[[t,1],[0,p]]", "[[t,0],[1,p]]"]


@pytest.mark.parametrize("q", [2, 3, 4])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_ends_of_a_matrix_with_one_inexact_entry(q, rng):
    """A precision error, or the exact matrix's ends as far as they are known."""
    Fq = field(q)
    h = _random_matrix(rng, Fq)
    g = h * m(rng.choice(HYPERBOLIC), Fq) * h.adjugate()
    entries = list(g.entries())
    i = rng.randrange(4)
    low = entries[i].valuation() if entries[i].has_terms() else 0
    entries[i] = entries[i].reduce_precision(low + rng.randrange(1, 10))
    depth = rng.randrange(1, 6)
    exact = g.classify(ends_depth=depth)
    try:
        got = TreeAutomorphism(Fq, *entries).classify(ends_depth=depth)
    except Sl2BTreeError as exc:
        assert exc.exit_code == 2, exc
        return
    assert (got.kind, got.length) == (exact.kind, exact.length)
    assert _ends_agree(got.attracting, exact.attracting)
    assert _ends_agree(got.repelling, exact.repelling)


def test_ends_of_a_matrix_whose_ends_part_below_the_asked_depth():
    # the ends 1 + p + p^2 + p^4 + ... and 1 part at level 1 = v(tr) - v(b):
    # the level-1 branch holds both, so they are certified a level deeper
    g = m("[[t^2+t,t^2+t+p],[t^2,t^2+p]]")
    c = g.classify(ends_depth=1)
    assert (format_end(c.attracting), format_end(c.repelling)) == ("trunc(1, 1)", "trunc(1, 1)")
    c = g.classify(ends_depth=3)
    assert (format_end(c.attracting), format_end(c.repelling)) == ("trunc(1+p+p^2, 3)", "trunc(1, 3)")


def test_fixing_depth_of_the_unit_shear():
    u = m("[[1,1],[0,1]]")
    for n in range(5):
        assert u.fixing_depth(v(f"({n}; 0)")) == n
    with pytest.raises(NotFixingError):
        u.fixing_depth(v("(-1; 0)"))


def test_fixing_depth_of_scalars_is_infinite():
    assert TreeAutomorphism.identity(F).fixing_depth(tree.base) is INFINITY
    F3 = field(3)
    minus = parse_matrix(F3, "[[2,0],[0,2]]")
    assert minus.fixing_depth(Tree(F3).base) is INFINITY


def test_fixing_depth_matches_literal_ball_fixing():
    samples = [
        m("[[1,1],[0,1]]"),
        m("[[0,1],[1,0]]"),
        m("[[1,t^2],[0,1]]"),
        m("[[1,0],[t,1]]"),
    ]
    for g in samples:
        x = g.classify().fixed_vertex
        depth = g.fixing_depth(x)
        for r in range(4):
            fixed = all(g.fixes_vertex(w) for w in ball(tree, x, r))
            assert fixed == (depth >= r)


def _shift_squares_to_zero(g, lam):
    """Whether (g - lam)^2 = 0, from the entries of the square."""
    a, b, c, d = g.entries()
    a, d = a - lam, d - lam
    return all(e.is_exact_zero() for e in (a * a + b * c, b * (a + d), c * (a + d), d * d + b * c))


def _carries_its_horoellipse(g, tq, end, x, depth=6):
    members = tq.horoellipse_vertices(end, x, Fraction(1, 3), depth)
    return members, {g.act_vertex(y) for y in members} == set(members)


def test_quasi_unipotent_certificates():
    u = m("[[1,1],[0,1]]")
    assert _shift_squares_to_zero(u, LaurentSeries.one(F))
    end = parse_end(F, "rat(0, 1)")
    assert u.fixes_end(end) and u.fixes_vertex(tree.base)
    members, carried = _carries_its_horoellipse(u, tree, end, tree.base)
    assert members and carried

    # in characteristic 2 a square-zero shift by lam forces trace 2 lam = 0
    hyper = m("[[1,t],[0,1]]") * m("[[1,0],[t,1]]")
    assert not hyper.trace().is_exact_zero()
    assert hyper.translation_length() > 0

    # over F_3 the only candidate is lam = trace / 2 = 0, and rot^2 = -1
    F3 = field(3)
    rot = parse_matrix(F3, "[[0,1],[2,0]]")
    assert rot.trace().is_exact_zero()
    assert not _shift_squares_to_zero(rot, LaurentSeries.zero(F3))


def test_unipotent_class_in_odd_characteristic():
    F3 = field(3)
    t3 = Tree(F3)
    u3 = parse_matrix(F3, "[[1,t],[0,1]]")
    lam = u3.trace().scale(F3.element(2).inverse())
    assert lam == LaurentSeries.one(F3)
    assert _shift_squares_to_zero(u3, lam)
    zero = t3.end_zero()
    assert u3.fixes_end(zero)
    x = t3.base
    while not u3.fixes_vertex(x):
        x = t3.step_to_end(x, zero)
    assert x == v("(1; 0)", F3)
    members, carried = _carries_its_horoellipse(u3, t3, zero, x)
    assert len(members) == 13 and carried


def test_unipotent_class_over_f9_needs_no_ball(monkeypatch):
    # a radius-6 ball over F_9 has 664 301 vertices; the horoellipse is
    # built from the ray instead, and the tree lists no ball or sphere
    monkeypatch.setattr(Tree, "sphere", None)
    F9 = field(9)
    t9 = Tree(F9)
    u9 = TreeAutomorphism.upper_shear(F9, LaurentSeries.one(F9))
    assert _shift_squares_to_zero(u9, LaurentSeries.one(F9))
    assert u9.fixes_vertex(t9.base)
    members, carried = _carries_its_horoellipse(u9, t9, t9.end_zero(), t9.base, depth=6)
    assert len(members) == 31 and carried


def test_decompose_end_stabilizer():
    zero_end = tree.end_zero()
    step = TreeAutomorphism.standard_step(F)
    dec = decompose_end_stabilizer(step, zero_end)
    assert dec.power == 1
    assert drift_along_end(step, zero_end) == 2
    assert drift_along_end(step.adjugate(), zero_end) == -2
    assert drift_along_end(m("[[1,t^3],[0,1]]"), zero_end) == 0
    with pytest.raises(DoesNotFixEnd):
        decompose_end_stabilizer(m("[[0,1],[1,0]]"), zero_end)


def test_decomposition_at_the_up_end_shares_the_lattice_conjugator():
    # over F_3 the shared conjugator [[0,1],[-1,0]] is the negative of the
    # half turn; conjugating by either gives the same matrix and the same parts
    F3 = field(3)
    up, zero_end = Tree(F3).end_up(), Tree(F3).end_zero()
    conj = zero_end_conjugator(up)
    assert conj == m("[[0,1],[-1,0]]", F3) != TreeAutomorphism.half_turn(F3)
    assert conj.act_end(up) == zero_end
    assert zero_end_conjugator(zero_end) == TreeAutomorphism.identity(F3)
    step = m("[[p^-1,1+t],[0,p]]", F3)
    half = TreeAutomorphism.half_turn(F3)
    dec = decompose_end_stabilizer(half.adjugate() * step * half, up)
    ref = decompose_end_stabilizer(step, zero_end)
    assert dec.conjugator == conj
    assert (dec.diagonal, dec.power, dec.shear) == (ref.diagonal, ref.power, ref.shear)


def test_drift_is_additive_along_the_borel():
    rng = random.Random("autom:drift")
    zero_end = tree.end_zero()
    one, zero = LaurentSeries.one(F), LaurentSeries.zero(F)
    for _ in range(20):
        k1, k2 = rng.randrange(-2, 3), rng.randrange(-2, 3)
        b1 = LaurentSeries.exact(F, {rng.randrange(-2, 3): 1})
        g1 = TreeAutomorphism.diagonal(
            F, LaurentSeries.pi_power(F, -k1), LaurentSeries.pi_power(F, k1)
        ) * TreeAutomorphism(F, one, b1, zero, one)
        g2 = TreeAutomorphism.diagonal(
            F, LaurentSeries.pi_power(F, -k2), LaurentSeries.pi_power(F, k2)
        )
        assert drift_along_end(g1, zero_end) == 2 * k1
        assert drift_along_end(g1 * g2, zero_end) == 2 * k1 + 2 * k2


def _decomposition_drift(g, end):
    return 2 * decompose_end_stabilizer(g, end).power


def _completions(g):
    """The exact matrices that extend each inexact entry of g by one digit
    at its precision or one degree past it, every combination."""
    Fq = g.field
    options = [
        [e] if e.is_exact() else
        [LaurentSeries(Fq, {**e.coeffs, e.prec + s: Fq.one}) for s in (0, 1)]
        for e in g.entries()
    ]
    return [TreeAutomorphism(Fq, *entries) for entries in itertools.product(*options)]


@st.composite
def _entries(draw, Fq, exact):
    """An operand of `kernel_operands`; when `exact`, the exact series of its digits."""
    s = draw(kernel_operands(Fq))
    return LaurentSeries(Fq, s.coeffs) if exact else s


@st.composite
def _exact_conjugators(draw, Fq):
    """The identity, the half turn, or a product of an upper and a lower
    shear by exact series, possibly followed by the half turn."""
    kind = draw(st.sampled_from(["identity", "half turn", "shears", "shears, half turn"]))
    if kind == "identity":
        return TreeAutomorphism.identity(Fq)
    if kind == "half turn":
        return TreeAutomorphism.half_turn(Fq)
    b, c = (LaurentSeries(Fq, draw(series(Fq)).coeffs) for _ in range(2))
    shears = TreeAutomorphism.upper_shear(Fq, b) * TreeAutomorphism.lower_shear(Fq, c)
    return shears * TreeAutomorphism.half_turn(Fq) if kind == "shears, half turn" else shears


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drift_is_twice_the_decomposition_power(q, data):
    """The eigenvalue drift v(det g) - 2 v(lam) equals twice the power of
    the Borel decomposition, or both refuse with the same error class.

    Elements c * (diag * step^k * shear) * adj(c), times diag(1, pi) for an
    odd determinant, fix c's image of the zero end; random matrices and
    the zero, up, rational and truncated ends cover the refusals. The
    decomposition recomposes by exact minors, so it cannot check inexact
    entries; where it refuses them, each exact completion of g must give
    the drift, and a precision refusal of the drift must be one that the
    completions disagree on."""
    Fq = field(q)
    zero_end = Tree(Fq).end_zero()
    exact = data.draw(st.booleans())
    try:
        if data.draw(st.booleans()):
            conj = data.draw(_exact_conjugators(Fq))
            top, bottom = (
                data.draw(_entries(Fq, exact).filter(lambda s: not s.is_exact_zero())) for _ in range(2)
            )
            b = data.draw(_entries(Fq, exact))
            k = data.draw(st.integers(-3, 3))
            fixer = (
                TreeAutomorphism.diagonal(Fq, top, bottom)
                * TreeAutomorphism.standard_step_power(Fq, k)
                * TreeAutomorphism.upper_shear(Fq, b)
            )
            if data.draw(st.booleans()):
                fixer = fixer * TreeAutomorphism.diagonal(
                    Fq, LaurentSeries.one(Fq), LaurentSeries.pi_power(Fq, 1)
                )
            g = conj * fixer * conj.adjugate()
            end = conj.act_end(zero_end)
        else:
            g = TreeAutomorphism(Fq, *(data.draw(_entries(Fq, exact)) for _ in range(4)))
            end = data.draw(ends(TREES[q]))
    except InvalidInputError:
        return  # singular
    drift = _image_or_error(drift_along_end, g, end)
    expected = _image_or_error(_decomposition_drift, g, end)
    if expected is NonterminationGuard and not all(e.is_exact() for e in g.entries()):
        answers = {_image_or_error(_decomposition_drift, h, end) for h in _completions(g)}
        if isinstance(drift, int):
            assert answers == {drift}
        else:
            assert drift is IndeterminateValuation and len(answers) > 1
    else:
        assert drift == expected


def test_modular_expansion_count():
    # the base lies on the standard step's axis, and the image's sphere of
    # the translation length meets the base's horosphere in q^2 vertices
    step = TreeAutomorphism.standard_step(F)
    length = step.translation_length()
    image = step.act_vertex(tree.base)
    assert tree.distance(tree.base, image) == length == 2
    end = step.attracting_end(depth=2 * length + 8)
    count = sum(1 for y in tree.sphere(image, length) if tree.busemann(tree.base, y, end) == 0)
    assert count == 4
    off_axis = v("(1; 1)")
    assert tree.distance(off_axis, step.act_vertex(off_axis)) > length
    assert m("[[1,1],[0,1]]").translation_length() == 0


def test_contraction_depths():
    u = m("[[1,1],[0,1]]")
    end = parse_end(F, "rat(0, 1)")
    pi = LaurentSeries.pi_power(F, 1)
    shrink = TreeAutomorphism.diagonal(F, pi, LaurentSeries.pi_power(F, -1))
    inv = shrink.adjugate()
    assert drift_along_end(inv, end) > 0  # shrink repels from u's fixed end
    depths = []
    g = u
    for _ in range(4):
        depths.append(g.fixing_depth(tree.base))
        g = shrink * g * inv
    assert depths == [0, 2, 4, 6]
    # the standard step moves toward the end, the identity not at all
    assert drift_along_end(TreeAutomorphism.standard_step(F).adjugate(), end) < 0
    assert drift_along_end(TreeAutomorphism.identity(F), end) == 0


def _random_exact_matrix(rng, Fq):
    """A nonsingular matrix of random exact entries (not of determinant 1)."""
    while True:
        entries = [
            LaurentSeries.exact(Fq, {d: rng.randrange(Fq.q) for d in range(-2, 2)})
            for _ in range(4)
        ]
        try:
            return TreeAutomorphism(Fq, *entries)
        except InvalidInputError:
            continue


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_exact_products_have_the_product_determinant(q):
    """A product of exact matrices is built unchecked; its determinant is
    computed on request and equals det(g) det(h) and a*d - b*c."""
    Fq = field(q)
    rng = random.Random(f"autom:det:{q}")
    for _ in range(20):
        g, h = _random_exact_matrix(rng, Fq), _random_exact_matrix(rng, Fq)
        gh = g * h
        assert gh.det() == g.det() * h.det()
        assert gh.det() == gh.a * gh.d - gh.b * gh.c
        assert not gh.det().is_exact_zero()


def test_products_with_an_inexact_factor_are_validated(monkeypatch):
    """Only products of exact matrices skip the validating constructor."""
    built = []
    validating = TreeAutomorphism.__init__

    def counting(self, *args):
        built.append(args)
        validating(self, *args)

    exact = m("[[1+t^2,t],[t,1]]")
    one, zero = LaurentSeries.one(F), LaurentSeries.zero(F)
    inexact = TreeAutomorphism(F, LaurentSeries.inexact(F, {0: 1, 2: 1}, 4), zero, zero, one)
    monkeypatch.setattr(TreeAutomorphism, "__init__", counting)
    exact * exact
    assert built == []
    for g, h in ((exact, inexact), (inexact, exact), (inexact, inexact)):
        product = g * h
        assert len(built) == 1 and product.entries() == built.pop()[1:]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_step_powers_in_closed_form(q):
    """standard_step_power(F, m), which decompose_end_stabilizer recomposes
    with, is standard_step(F)**m = diag(pi^-m, pi^m)."""
    Fq = field(q)
    step = TreeAutomorphism.standard_step(Fq)
    zero_end = Tree(Fq).end_zero()
    for k in range(-4, 5):
        closed = TreeAutomorphism.standard_step_power(Fq, k)
        assert step**k == closed
        assert closed.entries() == (
            LaurentSeries.pi_power(Fq, -k),
            LaurentSeries.zero(Fq),
            LaurentSeries.zero(Fq),
            LaurentSeries.pi_power(Fq, k),
        )
        assert decompose_end_stabilizer(step**k, zero_end).power == k


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_powers_are_repeated_products_by_square_and_multiply(q, monkeypatch):
    """g**k equals k products of g (of its adjugate for k < 0), built with
    at most bit_length(|k|) - 1 squarings and popcount(|k|) - 1 products."""
    Fq = field(q)
    g = m("[[1+t,t],[t^2,1+t+t^3]]", Fq)
    expected = {}
    for k in range(-3, 6):
        base = g if k >= 0 else g.adjugate()
        power = TreeAutomorphism.identity(Fq)
        for _ in range(abs(k)):
            power = power * base
        expected[k] = power
    products = []
    multiply = TreeAutomorphism.__mul__

    def counting(self, other):
        products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(TreeAutomorphism, "__mul__", counting)
    for k in range(-3, 6):
        products.clear()
        assert g**k == expected[k]
        n = abs(k)
        assert len(products) <= max(0, n.bit_length() - 1 + bin(n).count("1") - 1)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_known_determinants_are_a_d_minus_b_c(q):
    """identity, diagonal, adjugate and scaled attach the determinant their
    source gives (1, top*bottom, det g, s^2 det g) without computing it; it
    equals a*d - b*c, for exact and inexact entries alike."""
    Fq = field(q)
    rng = random.Random(f"autom:known-det:{q}")

    def recomputed(h):
        return h.a * h.d - h.b * h.c

    one = TreeAutomorphism.identity(Fq)
    assert one.det() == recomputed(one) == LaurentSeries.one(Fq)
    inexact = LaurentSeries.inexact(Fq, {0: 1, 2: rng.randrange(1, q)}, 4)
    for _ in range(10):
        g = _random_exact_matrix(rng, Fq)
        top, bottom = g.a * g.b + LaurentSeries.one(Fq), g.d
        if not top.is_exact_zero() and not bottom.is_exact_zero():
            diag = TreeAutomorphism.diagonal(Fq, top, bottom)
            assert diag.det() == recomputed(diag) == top * bottom
        rough = TreeAutomorphism(Fq, g.a + inexact, g.b, g.c, g.d)
        for h in (g, g * g, rough):
            assert h.adjugate().det() == recomputed(h.adjugate()) == h.det()
            k = rng.randrange(-3, 4)
            for s in (LaurentSeries.pi_power(Fq, k), g.a + LaurentSeries.pi_power(Fq, k)):
                if s.is_exact_zero():
                    continue
                scaled = h.scaled(s)
                assert scaled.det() == recomputed(scaled) == s * s * h.det()
        assert rough.scaled(inexact).det() == recomputed(rough.scaled(inexact))
    zero = LaurentSeries.zero(Fq)
    with pytest.raises(InvalidInputError, match="matrix is singular"):
        TreeAutomorphism.diagonal(Fq, zero, LaurentSeries.one(Fq))
    with pytest.raises(InvalidInputError, match="matrix is singular"):
        TreeAutomorphism.diagonal(Fq, inexact, zero)
    with pytest.raises(InvalidInputError, match="matrix entries must be series"):
        TreeAutomorphism.diagonal(Fq, 1, LaurentSeries.one(Fq))
    with pytest.raises(InvalidInputError, match="matrix entries must be series"):
        TreeAutomorphism.diagonal(field(5), LaurentSeries.one(Fq), LaurentSeries.one(Fq))
    with pytest.raises(InvalidInputError, match="matrix is singular"):
        g.scaled(zero)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_shears_and_the_half_turn_carry_determinant_one(q, data):
    """upper_shear, lower_shear and half_turn attach det 1 without computing
    it; a*d - b*c recomputed by the fused kernel is that exact 1 for exact and
    inexact entries alike, and an entry that is no series over the field is
    refused."""
    Fq = field(q)
    s = data.draw(_entries(Fq, data.draw(st.booleans())))
    for g in (
        TreeAutomorphism.upper_shear(Fq, s),
        TreeAutomorphism.lower_shear(Fq, s),
        TreeAutomorphism.half_turn(Fq),
    ):
        assert g.det() == _fused(g.a, g.d, g.b, g.c, minus=True) == LaurentSeries.one(Fq)
    for bad in (1, Fq.one, LaurentSeries.zero(field(5)), LaurentSeries.one(field(5))):
        for shear in (TreeAutomorphism.upper_shear, TreeAutomorphism.lower_shear):
            with pytest.raises(InvalidInputError, match="matrix entries must be series"):
                shear(Fq, bad)
