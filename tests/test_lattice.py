import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2btree.autom import TreeAutomorphism
from sl2btree.errors import InvalidInputError, SizeGuardExceeded
from sl2btree.field import field
from sl2btree.lattice import (
    CongruenceLattice,
    CosetTable,
    CuspData,
    NagaoLattice,
)
from sl2btree.literals import (
    format_end,
    format_series,
    parse_end,
    parse_matrix,
    parse_series,
    parse_vertex,
)
from sl2btree.polys import all_t_polys, t_degree
from sl2btree.quotient import growth_probe
from sl2btree.series import LaurentSeries, _fused
from sl2btree.tree import Vertex

from brute_force import (
    enumerated_partition,
    passes_digit_test,
    stabilizer_bruteforce,
    stabilizer_images,
)


F = field(2)
nagao = NagaoLattice(F)


def m(text, Fq=F):
    return parse_matrix(Fq, text)


def v(text, Fq=F):
    return parse_vertex(Fq, text)


def test_membership():
    assert nagao.contains(m("[[1,t],[0,1]]"))
    assert nagao.contains(m("[[0,1],[1,0]]"))
    assert not nagao.contains(m("[[1,p],[0,1]]"))
    assert not nagao.contains(m("[[t,0],[0,1]]"))  # determinant t
    assert nagao.contains(m("[[1,t^3+t],[0,1]]"))


def test_base_orders_match_closed_form():
    assert [nagao.base_order(n) for n in range(6)] == [6, 4, 8, 16, 32, 64]
    nag3 = NagaoLattice(field(3))
    assert [nag3.base_order(n) for n in range(4)] == [24, 18, 54, 162]


def test_edge_orders_match_closed_form():
    assert [nagao.edge_order(n) for n in range(5)] == [2, 4, 8, 16, 32]
    nag3 = NagaoLattice(field(3))
    assert [nag3.edge_order(n) for n in range(4)] == [6, 18, 54, 162]


def test_base_stabilizer_elements_are_the_full_stabilizer():
    for n in range(3):
        x = v(f"({n}; 0)")
        elements = list(nagao.base_stabilizer_elements(n))
        assert len(elements) == nagao.base_order(n)
        assert len(set(elements)) == len(elements)
        for g in elements:
            assert nagao.contains(g)
            assert g.act_vertex(x) == x
        # closure spot check
        prod = elements[1] * elements[-1]
        assert prod in set(elements)


def _stabilizer(lattice, x):
    """The closed-form stabilizer of the normal form, conjugated back to x."""
    red = lattice.reduce_vertex(x)
    inv, w = red.witness.adjugate(), red.witness
    return [inv * s * w for s in lattice.base_stabilizer_elements(red.level)]


def test_stabilizer_away_from_the_spine():
    elements = _stabilizer(nagao, v("(1; 1)"))
    assert nagao.base_order(nagao.reduce_vertex(v("(1; 1)")).level) == 4
    assert len(elements) == 4
    for g in elements:
        assert nagao.contains(g)
        assert g.act_vertex(v("(1; 1)")) == v("(1; 1)")


def test_stabilizer_at_negative_levels():
    x = v("(-2; 0)")
    assert nagao.reduce_vertex(x).level == 2
    elements = _stabilizer(nagao, x)
    assert len(elements) == nagao.base_order(2)
    assert all(g.act_vertex(x) == x for g in elements)


def test_stabilizer_order_shortcut():
    for n in range(5):
        x = v(f"({n}; 0)")
        assert nagao.reduce_vertex(x).level == n
        assert len(_stabilizer(nagao, x)) == nagao.base_order(n)


def test_bruteforce_stabilizer_agrees():
    got = stabilizer_bruteforce(nagao, v("(1; 1)"), 2)
    assert len(got) == 4
    for n in range(4):
        x = v(f"({n}; 0)")
        assert len(stabilizer_bruteforce(nagao, x, max(n, 0))) == nagao.base_order(n)


@pytest.mark.parametrize(
    "q,level,top",
    [
        (2, None, 3), (2, "t", 3), (2, "t^2", 3), (2, "t^2+t", 3),
        (3, None, 2), (3, "t", 2), (3, "t^2", 2), (3, "t^2+t", 2),
        (4, "t", 1),
    ],
)
def test_closed_forms_match_brute_force(q, level, top):
    Fq = field(q)
    lat = NagaoLattice(Fq)
    if level is not None:
        lat = CongruenceLattice(Fq, parse_series(Fq, level))
    for n in range(top + 1):
        x, above = v(f"({n}; 0)", Fq), v(f"({n + 1}; 0)", Fq)
        listed = list(lat.base_stabilizer_elements(n))
        elements = set(listed)
        assert len(listed) == len(elements) == lat.base_order(n)
        assert elements == set(stabilizer_bruteforce(lat, x, n))
        assert lat.edge_order(n) == sum(g.act_vertex(above) == above for g in elements)


def test_bruteforce_size_guard():
    with pytest.raises(SizeGuardExceeded):
        stabilizer_bruteforce(nagao, v("(0; 0)"), 7)


def test_reduce_vertex_normal_form():
    for text in ["(-3; 0)", "(2; p)", "(4; p+p^3)", "(0; 0)", "(-1; 0)"]:
        x = v(text)
        red = nagao.reduce_vertex(x)
        assert red.level >= 0
        assert nagao.contains(red.witness)
        assert red.witness.act_vertex(x) == v(f"({red.level}; 0)")
    assert nagao.reduce_vertex(v("(-3; 0)")).level == 3


def _reduction_by_products(lattice, x):
    """`reduce_vertex`'s walk, with every step multiplied in as a matrix."""
    Fq = lattice.field
    g, cur = TreeAutomorphism.identity(Fq), x
    for _ in range(64 + 2 * abs(x.level)):
        poly_part = {k: c for k, c in cur.residue.coeffs.items() if k <= 0}
        if poly_part:
            step = TreeAutomorphism.lower_shear(Fq, -LaurentSeries.exact(Fq, poly_part))
        elif cur.residue.has_terms() or cur.level < 0:
            step = TreeAutomorphism.half_turn(Fq)
        else:
            return g, cur
        cur = step.act_vertex(cur)
        g = step * g
    raise AssertionError(f"no normal form reached from {x}")


REDUCTION_LATTICES = {q: NagaoLattice(field(q)) for q in (2, 3, 4, 9)}


@pytest.mark.parametrize("q", sorted(REDUCTION_LATTICES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_reduction_witness_is_the_product_of_its_steps(q, data):
    lattice = REDUCTION_LATTICES[q]
    Fq = lattice.field
    elems = list(Fq.elements())
    # horoball members of the workloads reach level 12
    n = data.draw(st.integers(-8, 12))
    low = n - data.draw(st.integers(0, 12))
    size = n - low
    digits = data.draw(st.lists(st.sampled_from(elems), min_size=size, max_size=size))
    x = Vertex(n, LaurentSeries(Fq, dict(zip(range(low, n), digits))))
    red = lattice.reduce_vertex(x)
    witness, normal_form = _reduction_by_products(lattice, x)
    assert red.witness == witness
    assert normal_form == Vertex(red.level, LaurentSeries.zero(Fq))
    # the witness carries det 1 unchecked; a*d - b*c recomputed is exactly 1
    g = red.witness
    assert g.det() == _fused(g.a, g.d, g.b, g.c, minus=True) == LaurentSeries.one(Fq)


def test_congruence_orders():
    lat = CongruenceLattice(F, parse_series(F, "t^2"))
    d = t_degree(lat.level)
    assert d == 2
    assert [lat.base_order(n) for n in range(6)] == [1, 1, 2, 4, 8, 16]
    assert [lat.edge_order(n) for n in range(5)] == [1, 1, 2, 4, 8]
    lat1 = CongruenceLattice(F, parse_series(F, "t"))
    assert [lat1.base_order(n) for n in range(4)] == [1, 2, 4, 8]


def test_congruence_membership():
    lat = CongruenceLattice(F, parse_series(F, "t^2"))
    assert lat.contains(m("[[1,t^2],[0,1]]"))
    assert lat.contains(m("[[t^4+1,t^2],[t^2,1]]"))
    assert not lat.contains(m("[[1,t],[0,1]]"))
    assert not lat.contains(m("[[0,1],[1,0]]"))


def test_congruence_level_validation():
    F3 = field(3)
    lat = CongruenceLattice(F3, parse_series(F3, "2*t^2+t"))
    assert format_series(lat.level) == "t^2+2*t"  # stored monic
    for bad in ["2", "0", "p+1"]:
        with pytest.raises(InvalidInputError):
            CongruenceLattice(F3, parse_series(F3, bad))


def test_coset_table_indices():
    assert CongruenceLattice(F, parse_series(F, "t")).coset_table().index == 6
    assert CongruenceLattice(F, parse_series(F, "t^2")).coset_table().index == 48
    assert CongruenceLattice(F, parse_series(F, "t^2+t")).coset_table().index == 36


@pytest.mark.parametrize(
    "q,level,prime_degrees",
    [
        (2, "t^4", [1]),
        (2, "t^4+t+1", [4]),  # irreducible
        (2, "t^4+t^2", [1, 1]),  # t^2 (t+1)^2
        (3, "t^3", [1]),
    ],
)
def test_coset_table_index_closed_form(q, level, prime_degrees):
    # |SL2(F_q[t]/(f))| = q^(3d) prod over the distinct primes P | f of (1 - q^(-2 deg P))
    Fq = field(q)
    f = parse_series(Fq, level)
    expected = Fraction(q) ** (3 * t_degree(f))
    for k in prime_degrees:
        expected *= 1 - Fraction(1, q ** (2 * k))
    table = CosetTable(Fq, f)
    assert table.index == expected
    assert len(set(table.elements)) == table.index
    assert table.elements == sorted(table.elements)


@pytest.mark.parametrize("q,level", [(2, "t^2"), (2, "t^2+t"), (3, "t"), (3, "t^2"), (4, "t")])
def test_coset_table_members_match_a_full_scan(q, level):
    # the row-by-row enumeration against the scan of all |R|^4 matrices
    Fq = field(q)
    table = CosetTable(Fq, parse_series(Fq, level))
    ring = table.ring
    scan = [
        (a, b, c, d)
        for a, b, c, d in itertools.product(ring.elements(), repeat=4)
        if ring.sub(ring.mul(a, d), ring.mul(b, c)) == ring.one
    ]
    assert table.elements == scan


def test_coset_table_size_guard_counts_the_group():
    # 24576 members at t^5 over F_2; the bound sits on either side of it
    f = parse_series(F, "t^5")
    assert CosetTable(F, f, max_candidates=24_576).index == 24_576
    with pytest.raises(SizeGuardExceeded, match="has 24576 elements"):
        CosetTable(F, f, max_candidates=24_575)
    with pytest.raises(SizeGuardExceeded, match="at least 1048576 elements"):
        CosetTable(F, parse_series(F, "t^7"))


def test_coset_table_reduce_lift_roundtrip():
    lat = CongruenceLattice(F, parse_series(F, "t^2"))
    table = lat.coset_table()
    g = m("[[1,t],[0,1]]") * m("[[0,1],[1,0]]") * m("[[1,t^3],[0,1]]")
    image = table.reduce(g)
    lifted = table.lift(image)
    assert nagao.contains(lifted)
    assert table.reduce(lifted) == image
    # lift lands in the same coset: g * lifted^{-1} is in the kernel
    assert lat.contains(g * lifted.adjugate())
    identity = (table.ring.one, table.ring.zero, table.ring.zero, table.ring.one)
    assert table.reduce(TreeAutomorphism.identity(F)) == identity


def test_coset_table_reduce_refuses_non_members():
    table = CongruenceLattice(F, parse_series(F, "t^2")).coset_table()
    with pytest.raises(InvalidInputError):
        table.reduce(m("[[1,p],[0,1]]"))
    # determinant 1 + t over F_2[t], which is not 1 mod t^2
    with pytest.raises(InvalidInputError, match="determinant"):
        table.reduce(m("[[1,t],[1,1]]"))


def _images(table, n):
    """The residue images of the stabilizers of (n, 0) and of the edge to (n + 1, 0).

    Built from the full lattice's closed-form stabilizer, reduced member by
    member: the edge stabilizer is its upper-triangular part.
    """
    members = list(NagaoLattice(table.field).base_stabilizer_elements(n))
    vertex = frozenset(table.reduce(g) for g in members)
    edge = frozenset(table.reduce(g) for g in members if not g.c.has_terms())
    return vertex, edge


def test_coset_table_subgroup_images():
    lat = CongruenceLattice(F, parse_series(F, "t^2"))
    table = lat.coset_table()
    vertex0, _ = _images(table, 0)
    _, edge1 = _images(table, 1)
    assert len(vertex0) == 6
    assert table.index % len(vertex0) == 0
    assert table.index // len(vertex0) == 8
    assert len(edge1) == 4
    assert table.index // len(edge1) == 12
    _, least = table.vertex_partition(0)
    assert len(least) == 8


def _monic_levels(q, max_degree):
    """Every monic level of degree <= max_degree over F_q, None for the level 1."""
    Fq = field(q)
    return [
        (q, format_series(low + LaurentSeries.exact(Fq, {-k: Fq.one})) if k else None)
        for k in range(max_degree + 1)
        for low in all_t_polys(Fq, k - 1)
    ]


PARTITION_LEVELS = [
    (2, None), (2, "t"), (2, "t^2"), (2, "t^2+t"), (2, "t^3"), (2, "t^4+t+1"),
    (2, "t^4+t^3+t^2+t"), (3, None), (3, "t"), (3, "t^2"), (4, "t"), (4, "t^2"), (9, "t"),
]
PARTITION_LEVELS += [
    level
    for level in [
        *_monic_levels(2, 3), (2, "t^4"), *_monic_levels(3, 2), (4, "t^2+t+[x]"), (8, "t"),
    ]
    if level not in PARTITION_LEVELS
]


@pytest.mark.parametrize("q,level", PARTITION_LEVELS)
def test_coset_partition_numbers_cosets_by_least_member(q, level):
    # the partitions derived from finer ones against the enumeration of
    # every member, at every level down to deg f + 1: their least members,
    # `coset_number` of every member, and the number lists that carry the
    # cosets of one level to the next and to the vertex classes; B_0's least
    # members, found by one scaling and one zeroed digit, against the
    # minimum of m * B_0 over B_0's members and against the digit test
    Fq = field(q)
    lat = NagaoLattice(Fq) if level is None else CongruenceLattice(Fq, parse_series(Fq, level))
    table = lat.coset_table()
    images = [_images(table, n) for n in range(lat.level_degree + 2)]
    minima = {g: min(table.matmul(g, s) for s in images[0][1]) for g in table.elements}
    least = table.coset_partition(0)[1]
    assert least == sorted(set(minima.values()))
    assert all(least[table.coset_number(g, 0)] == low for g, low in minima.items())
    assert [g for g in table.elements if passes_digit_test(table, g)] == least
    finer = None
    for n, (vertex, edge) in enumerate(images):
        assert stabilizer_images(table, n) == (vertex, edge)
        edge_of, edge_least = enumerated_partition(table, edge)
        vertex_of, vertex_least = enumerated_partition(table, vertex)
        numbers, least = table.coset_partition(n)
        to_vertex, least_vertex = table.vertex_partition(n)
        assert (least, least_vertex) == (edge_least, vertex_least)
        assert {m: table.coset_number(m, n) for m in table.elements} == edge_of
        assert {m: to_vertex[k] for m, k in edge_of.items()} == vertex_of
        if finer is None:
            assert list(numbers) == list(range(len(least)))
        else:
            assert {m: numbers[k] for m, k in finer.items()} == edge_of
        assert len(least) * len(edge) == len(least_vertex) * len(vertex) == table.index
        finer = edge_of
    if table.index <= 1000:
        # least members in increasing order, one per coset g * subgroup
        for n, (vertex, _) in enumerate(images):
            cosets = {}
            for g in table.elements:
                cosets.setdefault(frozenset(table.matmul(g, s) for s in vertex), g)
            assert table.vertex_partition(n)[1] == sorted(cosets.values())
    constants = {table.ring.constant(c) for c in Fq.elements()}
    assert images[0][0] == {m for m in table.elements if all(x in constants for x in m)}


@pytest.mark.parametrize(
    "q,level",
    [(2, None), (2, "t"), (2, "t^2"), (2, "t^2+t"), (3, "t"), (4, "t"), (9, "t")],
)
def test_diagonal_units_are_the_first_unit_of_a_scan(q, level):
    """At every residue diagonal (a, d), the map gives the unit a scan of
    `Field.units` finds first, or nothing when none matches; over the zero
    ring of the full lattice every diagonal is (0, 0) and gives the first unit."""
    Fq = field(q)
    lat = NagaoLattice(Fq) if level is None else CongruenceLattice(Fq, parse_series(Fq, level))
    table = lat.coset_table()
    ring = table.ring
    diagonal_units = table.diagonal_units()
    for a, d in itertools.product(range(ring.size), repeat=2):
        scan = (
            alpha
            for alpha in Fq.units()
            if ring.constant(alpha) == a and ring.constant(alpha.inverse()) == d
        )
        assert diagonal_units.get((a, d)) is next(scan, None)
    if level is None:
        assert diagonal_units == {(0, 0): next(Fq.units())}
    assert table.diagonal_units() is diagonal_units


def test_cusp_representatives_counts():
    assert len(nagao.cusp_representatives()) == 1
    assert len(CongruenceLattice(F, parse_series(F, "t")).cusp_representatives()) == 3
    assert len(CongruenceLattice(F, parse_series(F, "t^2")).cusp_representatives()) == 12
    # t^2 + t splits, so the residue line doubles up: 3 * 3 classes
    assert (
        len(CongruenceLattice(F, parse_series(F, "t^2+t")).cusp_representatives()) == 9
    )


def test_cusp_data_fields():
    cusp = nagao.cusp_representatives()[0]
    assert isinstance(cusp, CuspData)
    assert format_end(cusp.end) == "rat(0, 1)"
    # the translation module and the index come from the lattice, the same for every cusp
    assert format_series(nagao.level) == "1"
    assert len(nagao.scalar_units) == nagao.q - 1 == 1

    lat = CongruenceLattice(F, parse_series(F, "t"))
    cusps = lat.cusp_representatives()
    assert [format_end(c.end) for c in cusps] == ["up", "rat(0, 1)", "rat(1, 1)"]
    assert format_series(lat.level) == "t"
    assert len(lat.scalar_units) == 1


def _probe_orders(end):
    """Stabilizer orders along a truncated end as far as it is known, up to 9 steps."""
    return growth_probe(nagao, end, min(9, end.known_depth())).orders


def test_is_cuspidal_on_a_short_truncated_end():
    end = parse_end(F, "trunc(p+p^3, 6)")
    assert _probe_orders(end) == [6, 4, 6, 4, 6, 4, 6]


def test_bounded_orbit_along_an_irrational_direction():
    # stabilizer orders along 1 + pi^3 + pi^8 stay bounded: the reduced
    # ray keeps returning toward the origin instead of escaping
    end = parse_end(F, "trunc(1+p^3+p^8, 10)")
    assert _probe_orders(end) == [6, 4, 8, 16, 8, 4, 6, 4, 8, 4]
    # cross-check the first few orders by brute force over the quotient map
    tree = nagao.tree
    levels = [0, 1, 2, 3, 2, 1]
    cur = tree.base
    for k, expected_level in enumerate(levels):
        if k:
            cur = tree.step_to_end(cur, end)
        red = nagao.reduce_vertex(cur)
        assert red.level == expected_level
        assert len(stabilizer_bruteforce(nagao, cur, red.level)) == nagao.base_order(
            red.level
        )


def test_config_roundtrip():
    assert nagao.config() == {"kind": "nagao", "q": 2}
    assert repr(nagao) == "NagaoLattice(q=2)"

    lat = CongruenceLattice(F, parse_series(F, "t^2"))
    assert lat.config() == {"kind": "congruence", "q": 2, "level": "t^2"}
    assert format_series(lat.level) == "t^2"
    assert repr(lat) == "CongruenceLattice(q=2, level=t^2)"


def test_contains_needs_no_coset_table():
    # Gamma(t^5) over F_2: SL2(F_2[t]/(t^5)) has 24576 elements, past the
    # table's size guard, but membership only reduces entries mod t^5
    lat = CongruenceLattice(F, parse_series(F, "t^5"))
    assert lat.contains(TreeAutomorphism.identity(F))
    assert lat.contains(parse_matrix(F, "[[1, t^5], [0, 1]]"))
    assert not lat.contains(parse_matrix(F, "[[1, t^4], [0, 1]]"))
    assert not lat.contains(parse_matrix(F, "[[1, 0], [t^4, 1]]"))
    assert lat._table is None
    with pytest.raises(SizeGuardExceeded):
        lat.coset_table()


def test_full_lattice_is_the_level_one_case():
    # the residue ring F_q[t]/(1) is the zero ring, its matrix group trivial
    for q in (2, 3, 4):
        lat = NagaoLattice(field(q))
        table = lat.coset_table()
        assert table.ring.size == 1
        assert table.elements == [(0, 0, 0, 0)]
        assert table.lift(table.elements[0]) == TreeAutomorphism.identity(lat.field)
        assert _images(table, 0)[0] == _images(table, 1)[1] == {(0, 0, 0, 0)}
        assert table.vertex_partition(0)[1] == table.coset_partition(1)[1] == [(0, 0, 0, 0)]
        assert format_series(lat.level) == "1"
        assert lat.scalar_units == tuple(lat.field.units())
        assert lat.contains(parse_matrix(lat.field, "[[1, t], [0, 1]]"))
