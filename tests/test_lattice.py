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
    UnknownCusp,
    stabilizer_bruteforce,
)
from sl2btree.literals import (
    format_end,
    format_series,
    parse_end,
    parse_matrix,
    parse_series,
    parse_vertex,
)
from sl2btree.polys import t_degree
from sl2btree.series import LaurentSeries
from sl2btree.tree import Vertex


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
    nagao.require_member(m("[[1,t^3+t],[0,1]]"))
    with pytest.raises(InvalidInputError):
        nagao.require_member(m("[[1,p],[0,1]]"))


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


def test_stabilizer_away_from_the_spine():
    stab = nagao.stabilizer(v("(1; 1)"))
    assert stab.order == 4
    assert len(stab.elements) == 4
    for g in stab.elements:
        assert nagao.contains(g)
        assert g.act_vertex(v("(1; 1)")) == v("(1; 1)")


def test_stabilizer_at_negative_levels():
    x = v("(-2; 0)")
    stab = nagao.stabilizer(x)
    assert stab.order == nagao.base_order(2)
    assert all(g.act_vertex(x) == x for g in stab.elements)


def test_stabilizer_order_shortcut():
    for n in range(5):
        assert nagao.stabilizer_order(v(f"({n}; 0)")) == nagao.base_order(n)


def test_bruteforce_stabilizer_agrees():
    got = stabilizer_bruteforce(nagao, v("(1; 1)"), 2)
    assert len(got) == 4
    for n in range(4):
        x = v(f"({n}; 0)")
        assert len(stabilizer_bruteforce(nagao, x, max(n, 0))) == nagao.base_order(n)


def test_bruteforce_size_guard():
    with pytest.raises(SizeGuardExceeded):
        stabilizer_bruteforce(nagao, v("(0; 0)"), 7)


def test_reduce_vertex_normal_form():
    for text in ["(-3; 0)", "(2; p)", "(4; p+p^3)", "(0; 0)", "(-1; 0)"]:
        x = v(text)
        red = nagao.reduce_vertex(x)
        assert red.level >= 0
        assert red.vertex == v(f"({red.level}; 0)")
        assert nagao.contains(red.witness)
        assert red.witness.act_vertex(x) == red.vertex
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
    n = data.draw(st.integers(-6, 8))
    low = n - data.draw(st.integers(0, 8))
    size = n - low
    digits = data.draw(st.lists(st.sampled_from(elems), min_size=size, max_size=size))
    x = Vertex(n, LaurentSeries(Fq, dict(zip(range(low, n), digits))))
    red = lattice.reduce_vertex(x)
    witness, normal_form = _reduction_by_products(lattice, x)
    assert red.witness == witness
    assert red.vertex == normal_form and red.level == normal_form.level


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
    assert table.reduce(TreeAutomorphism.identity(F)) == table.identity()


def test_coset_table_subgroup_images():
    lat = CongruenceLattice(F, parse_series(F, "t^2"))
    table = lat.coset_table()
    assert len(table.vertex_image(0)) == 6
    assert table.index % len(table.vertex_image(0)) == 0
    assert table.index // len(table.vertex_image(0)) == 8
    assert len(table.borel_image(1)) == 4
    assert table.index // len(table.borel_image(1)) == 12
    _, least = table.coset_partition(table.vertex_image(0))
    assert len(least) == 8


@pytest.mark.parametrize("q,level", [(2, "t^2"), (2, "t^2+t"), (3, "t")])
def test_coset_partition_numbers_cosets_by_least_member(q, level):
    Fq = field(q)
    table = CongruenceLattice(Fq, parse_series(Fq, level)).coset_table()
    for n in (0, 1, 2):
        subgroup = table.vertex_image(n)
        coset_of, least = table.coset_partition(subgroup)
        assert set(coset_of) == set(table.elements)
        cosets = {}
        for g in table.elements:
            cosets.setdefault(frozenset(table.matmul(g, s) for s in subgroup), g)
        # least members in increasing order, one per coset g * subgroup
        assert least == sorted(cosets.values())
        for k, g in enumerate(least):
            assert all(coset_of[table.matmul(g, s)] == k for s in subgroup)


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
    assert format_series(cusp.parameter_multiple) == "1"
    assert cusp.stabilizer_index == nagao.q - 1 == 1

    lat = CongruenceLattice(F, parse_series(F, "t"))
    cusps = lat.cusp_representatives()
    assert [format_end(c.end) for c in cusps] == ["up", "rat(0, 1)", "rat(1, 1)"]
    for c in cusps:
        assert format_series(c.parameter_multiple) == "t"
        assert c.stabilizer_index == 1


def test_end_conjugator():
    e = parse_end(F, "rat(1, t^2+t+1)")
    g = nagao.end_conjugator(e)
    assert nagao.contains(g)
    assert g.act_end(e) == parse_end(F, "rat(0, 1)")
    assert nagao.end_conjugator(parse_end(F, "rat(0, 1)")).act_end(
        parse_end(F, "rat(0, 1)")
    ) == parse_end(F, "rat(0, 1)")
    with pytest.raises(InvalidInputError):
        nagao.end_conjugator(parse_end(F, "trunc(p, 3)"))


def test_is_cuspidal_on_rational_ends():
    verdict = nagao.is_cuspidal(parse_end(F, "rat(1, t^2+t+1)"))
    assert not isinstance(verdict, UnknownCusp)
    assert verdict.end == parse_end(F, "rat(1, t^2+t+1)")


def test_is_cuspidal_on_a_short_truncated_end():
    verdict = nagao.is_cuspidal(parse_end(F, "trunc(p+p^3, 6)"))
    assert isinstance(verdict, UnknownCusp)
    assert verdict.orders == [6, 4, 6, 4, 6, 4, 6]
    assert verdict.max_order == 6


def test_bounded_orbit_along_an_irrational_direction():
    # stabilizer orders along 1 + pi^3 + pi^8 stay bounded: the reduced
    # ray keeps returning toward the origin instead of escaping
    end = parse_end(F, "trunc(1+p^3+p^8, 10)")
    verdict = nagao.is_cuspidal(end)
    assert isinstance(verdict, UnknownCusp)
    assert verdict.orders == [6, 4, 8, 16, 8, 4, 6, 4, 8, 4]
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
        assert table.constants_image() == table.borel_image(1) == {(0, 0, 0, 0)}
        assert format_series(lat.unipotent_parameter_multiple()) == "1"
        assert lat.contains(parse_matrix(lat.field, "[[1, t], [0, 1]]"))
