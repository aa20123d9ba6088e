import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2btree import cli, quotient
from sl2btree.autom import TreeAutomorphism
from sl2btree.errors import InvalidInputError, UncertifiedTail
from sl2btree.field import field
from sl2btree.lattice import CongruenceLattice, CosetTable, NagaoLattice
from sl2btree.literals import parse_end, parse_series, parse_vertex
from sl2btree.quotient import (
    CertifiedIndependent,
    CounterexamplePair,
    FamilyCertificate,
    _TransporterAlgebra,
    certify_independent_family,
    certify_independent_horoball,
    contract,
    covolume,
    cusps_report,
    free_product_report,
    growth_probe,
    quotient_graph,
)
from sl2btree.series import LaurentSeries
from sl2btree.tree import Tree, Vertex
from test_euler_characteristic import _index


F2 = field(2)
F3 = field(3)
nagao2 = NagaoLattice(F2)


def _closed_form_covolume(q, degree, prime_degrees):
    """|SL2(F_q[t]/(f))| / (q - 1)^2, from the degrees of f and of its primes."""
    return _index(q, degree, prime_degrees) / (q - 1) ** 2


def test_nagao_quotient_is_a_half_line():
    G = quotient_graph(nagao2, 8)
    assert sorted(G.vertices) == [f"L{n}" for n in range(9)]
    orders = [G.vertices[f"L{n}"].order for n in range(9)]
    assert orders == [6, 4, 8, 16, 32, 64, 128, 256, 512]
    assert [e.order for e in G.edges] == [2, 4, 8, 16, 32, 64, 128, 256]
    assert len(G.rays) == 1
    ray = G.rays[0]
    assert ray.certified and ray.base_level == 1
    assert ray.vertex_ids[0] == "L1" and ray.levels == list(range(1, 9))


def test_nagao_covolume_both_routes():
    cov = covolume(quotient_graph(nagao2, 8))
    assert cov.total == Fraction(1)
    assert str(cov) == "1/1"
    assert cov.core_part == Fraction(1, 2)
    assert cov.tail_parts == [Fraction(1, 2)]
    assert cov.total == _closed_form_covolume(2, 0, [])

    lat3 = NagaoLattice(F3)
    cov3 = covolume(quotient_graph(lat3, 8)).total
    assert cov3 == Fraction(1, 4) == _closed_form_covolume(3, 0, [])


def test_uncertified_tail_at_shallow_depth():
    with pytest.raises(UncertifiedTail):
        covolume(quotient_graph(nagao2, 2))


def test_level_t_quotient_is_a_tripod():
    lat = CongruenceLattice(F2, parse_series(F2, "t"))
    G = quotient_graph(lat, 8)
    by_level = {}
    for vert in G.vertices.values():
        by_level.setdefault(vert.level, []).append(vert)
    assert len(by_level[0]) == 1 and by_level[0][0].order == 1
    for n in range(1, 9):
        assert len(by_level[n]) == 3
        assert all(vert.order == 2**n for vert in by_level[n])
    assert len(G.rays) == 3
    assert all(r.certified and r.base_level == 1 for r in G.rays)
    cov = covolume(G)
    assert cov.total == Fraction(6) == _closed_form_covolume(2, 1, [1])


def test_level_t_squared_quotient():
    lat = CongruenceLattice(F2, parse_series(F2, "t^2"))
    G = quotient_graph(lat, 7)
    by_level = {}
    for vert in G.vertices.values():
        by_level.setdefault(vert.level, []).append(vert)
    assert len(by_level[0]) == 8 and all(vert.order == 1 for vert in by_level[0])
    for n in range(1, 8):
        assert len(by_level[n]) == 12
    bottom = [e for e in G.edges if e.v_from.startswith("L0")]
    assert len(bottom) == 24 and all(e.order == 1 for e in bottom)
    assert len(G.rays) == 12
    assert covolume(G).total == Fraction(48) == _closed_form_covolume(2, 2, [1])


def test_reducible_level_covolume():
    lat = CongruenceLattice(F2, parse_series(F2, "t^2+t"))
    assert covolume(quotient_graph(lat, 7)).total == Fraction(36)


def test_cusps_report_bijections():
    rep = cusps_report(nagao2, 8)
    assert rep.bijective and rep.ray_count == 1 and len(rep.algebraic) == 1

    repT = cusps_report(CongruenceLattice(F2, parse_series(F2, "t")), 8)
    assert repT.bijective
    assert len(repT.algebraic) == 3 and repT.ray_count == 3
    assert sorted(ci for ci, _ in repT.matches) == [0, 1, 2]
    assert sorted(ri for _, ri in repT.matches) == [0, 1, 2]

    rep3 = cusps_report(CongruenceLattice(F3, parse_series(F3, "t")), 6)
    assert rep3.bijective and len(rep3.algebraic) == 4 and rep3.ray_count == 4


def test_growth_probe_along_cusp_directions():
    probe = growth_probe(nagao2, nagao2.tree.end_zero(), 10)
    assert probe.orders == [6, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
    assert probe.entry_radius == 1
    assert probe.reduced_levels == list(range(11))

    probe_up = growth_probe(nagao2, parse_end(F2, "up"), 8)
    assert probe_up.entry_radius == 1
    assert probe_up.orders == probe.orders[:9]

    probe_rat = growth_probe(nagao2, parse_end(F2, "rat(1, t^2+t+1)"), 9)
    assert probe_rat.entry_radius is not None


def test_growth_probe_along_a_truncated_end():
    probe = growth_probe(nagao2, parse_end(F2, "trunc(p+p^3+p^7, 10)"), 12)
    assert probe.orders == [6, 4, 6, 4, 6, 4, 6, 4, 6, 4, 6]
    assert probe.entry_radius is None
    assert probe.truncated_at == 10


def test_horoball_certification():
    cusp = nagao2.cusp_representatives()[0]
    res = certify_independent_horoball(nagao2, cusp, parse_vertex(F2, "(1; 0)"), 8)
    assert isinstance(res, CertifiedIndependent)
    assert res.vertices_checked == 46 and res.pairs_checked == 426

    res3 = certify_independent_horoball(
        NagaoLattice(F3),
        NagaoLattice(F3).cusp_representatives()[0],
        parse_vertex(F3, "(1; 0)"),
        4,
    )
    assert isinstance(res3, CertifiedIndependent)


def test_horoball_counterexample_at_the_origin():
    cusp = nagao2.cusp_representatives()[0]
    res = certify_independent_horoball(nagao2, cusp, parse_vertex(F2, "(0; 0)"), 4)
    assert isinstance(res, CounterexamplePair)
    assert res.gamma.act_vertex(res.y) == res.y_prime
    assert not res.gamma.fixes_end(cusp.end)
    assert nagao2.contains(res.gamma)


def test_family_certification():
    lat = CongruenceLattice(F2, parse_series(F2, "t"))
    cusps = lat.cusp_representatives()
    radii = [
        c.conjugator.adjugate().act_vertex(parse_vertex(F2, "(1; 0)")) for c in cusps
    ]
    fam = certify_independent_family(lat, cusps, radii, 5)
    assert isinstance(fam, FamilyCertificate)
    assert len(fam.singles) == 3
    assert all(isinstance(s, CertifiedIndependent) for s in fam.singles)
    # every ordered pair of same-level vertices from two distinct horoballs
    tree = lat.tree
    levels = [
        Counter(
            lat.reduce_vertex(y).level
            for y in tree.ball(x, 5)
            if tree.horoball_contains(c.end, x, y)
        )
        for c, x in zip(cusps, radii)
    ]
    assert fam.cross_pairs_checked == sum(
        mine[n] * theirs[n]
        for i, mine in enumerate(levels)
        for j, theirs in enumerate(levels)
        if i != j
        for n in mine
    )


def test_family_certification_pays_per_member(monkeypatch):
    """Residues and conjugated witnesses are computed once per horoball
    member, not once per pair (here 42 members, 126 + 252 pairs)."""
    lat = CongruenceLattice(F2, parse_series(F2, "t"))
    cusps = lat.cusp_representatives()
    radii = [
        c.conjugator.adjugate().act_vertex(parse_vertex(F2, "(1; 0)")) for c in cusps
    ]
    reductions = _count_calls(monkeypatch, CosetTable, "reduce")
    products = _count_calls(monkeypatch, TreeAutomorphism, "__mul__")
    fam = certify_independent_family(lat, cusps, radii, 5)
    members = sum(s.vertices_checked for s in fam.singles)
    constants = 2**3 - 2  # the constants map reduces each member of SL2(F_2) once
    assert len(reductions) <= members + constants
    assert len(products) <= 3 * members


@pytest.mark.parametrize("q,level", [(2, "t"), (3, "t"), (2, "t^2")])
def test_family_counterexample_where_horoballs_meet(q, level):
    # horoballs through the carried origins all hold the origin, so each
    # single certificate passes and the cross check finds the first meeting
    F = field(q)
    lat = CongruenceLattice(F, parse_series(F, level))
    cusps = lat.cusp_representatives()
    radii = [c.conjugator.adjugate().act_vertex(lat.tree.base) for c in cusps]
    for c, x in zip(cusps, radii):
        assert isinstance(
            certify_independent_horoball(lat, c, x, 2), CertifiedIndependent
        )
    res = certify_independent_family(lat, cusps, radii, 2)
    assert isinstance(res, CounterexamplePair)
    assert res.y == res.y_prime == parse_vertex(F, "(0; 0)")
    assert res.gamma == TreeAutomorphism.identity(F)


def _base_level_radii(report):
    entry = dict(report.matches)
    F = report.graph.field
    return [
        c.conjugator.adjugate().act_vertex(
            parse_vertex(F, f"({report.graph.rays[entry[i]].base_level}; 0)")
        )
        for i, c in enumerate(report.algebraic)
    ]


def test_family_cross_check_reads_quotient_vertices(monkeypatch):
    """The cross check looks members up by quotient vertex: no residue
    product and no transporter when the horoballs never meet."""
    import sl2btree.quotient as quotient

    lat = CongruenceLattice(F2, parse_series(F2, "t^2"))
    report = cusps_report(lat, 8)
    products = _count_calls(monkeypatch, CosetTable, "matmul")
    transporters = _count_calls(monkeypatch, _TransporterAlgebra, "transporter")
    single = quotient.certify_independent_horoball

    def certify_then_reset(*args):
        # only the calls made after the last single certificate remain
        result = single(*args)
        products.clear()
        transporters.clear()
        return result

    monkeypatch.setattr(quotient, "certify_independent_horoball", certify_then_reset)
    fam = certify_independent_family(lat, report.algebraic, _base_level_radii(report), 4)
    assert isinstance(fam, FamilyCertificate)
    assert fam.cross_pairs_checked == 3432
    assert products == [] and transporters == []


def _cli_json(capsys, argv):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_contract_nagao_to_one_cusp(capsys):
    G = quotient_graph(nagao2, 8)
    C = contract(G)
    assert C.contracted
    assert sorted(C.vertices) == ["L0", "cusp0"]
    assert C.vertices["L0"].order == 6
    assert C.vertices["cusp0"].order is None and C.vertices["cusp0"].is_cusp
    assert C.vertices["cusp0"].cusp is not None
    assert len(C.edges) == 1 and C.edges[0].order == 2
    assert covolume(G).total == Fraction(1)
    assert _cli_json(capsys, ["contract", "--depth", "8"])["covolume"] == "1/1"


def test_contract_tripod_to_a_star(capsys):
    G = quotient_graph(CongruenceLattice(F2, parse_series(F2, "t")), 8)
    C = contract(G)
    assert sorted(C.vertices) == ["L0C0", "cusp0", "cusp1", "cusp2"]
    assert C.vertices["L0C0"].order == 1
    assert len(C.edges) == 3 and all(e.order == 1 for e in C.edges)
    assert covolume(G).total == Fraction(6)
    argv = ["contract", "--lattice", "congruence", "--level", "t", "--depth", "8"]
    assert _cli_json(capsys, argv)["covolume"] == "6/1"


def test_contract_with_explicit_bases():
    G = quotient_graph(nagao2, 8)
    noop = contract(G, bases={})
    assert sorted(noop.vertices) == sorted(G.vertices)
    assert len(noop.edges) == len(G.edges)
    assert len(noop.rays) == 1

    deep = contract(G, bases={0: 3})
    assert sorted(deep.vertices) == ["L0", "L1", "L2", "cusp0"]
    assert [e.order for e in sorted(deep.edges, key=lambda e: e.v_from)] == [2, 4, 8]


def test_free_product_reports():
    GT = quotient_graph(CongruenceLattice(F2, parse_series(F2, "t")), 8)
    fpT = free_product_report(contract(GT))
    assert fpT.applicable and fpT.cusp_factor_count == 3 and fpT.free_rank == 0

    fpN = free_product_report(contract(quotient_graph(nagao2, 8)))
    assert not fpN.applicable and "order 6" in fpN.reason

    GT2 = quotient_graph(CongruenceLattice(F2, parse_series(F2, "t^2")), 7)
    fpT2 = free_product_report(contract(GT2))
    assert fpT2.applicable and fpT2.cusp_factor_count == 12
    assert fpT2.free_rank == 24 - (8 + 12) + 1


def test_json_and_dot_serialization(capsys):
    G = quotient_graph(nagao2, 8)
    state = dict(vars(G))
    assert covolume(G).total == Fraction(1)
    assert vars(G) == state  # covolume is a query: it leaves the graph alone
    j = G.to_json_dict()
    assert j["lattice"] == {"kind": "nagao", "q": 2}
    out = _cli_json(capsys, ["quotient", "--depth", "8"])
    assert list(out)[-1] == "covolume" and out["covolume"] == "1/1"
    assert _cli_json(capsys, ["quotient", "--depth", "2"])["covolume"] is None
    assert j["vertices"][0] == {"id": "L0", "level": 0, "order": 6, "q": 2}
    assert j["edges"][0]["edge_order"] == 2
    assert j["edges"][0]["idx_from"] == 3 and j["edges"][0]["idx_to"] == 2
    assert j["rays"][0]["certified"] is True and j["rays"][0]["base"] == "L1"
    json.dumps(j)

    C = contract(G)
    jc = C.to_json_dict()
    cusp_vertex = [vert for vert in jc["vertices"] if vert["id"] == "cusp0"][0]
    assert cusp_vertex["order"] == "infinite"
    json.dumps(jc)
    dot = C.to_dot()
    assert "doublecircle" in dot
    assert '"L0" -- "cusp0" [label="2"]' in dot


def test_quotient_graph_rejects_bad_depth():
    with pytest.raises(InvalidInputError):
        quotient_graph(nagao2, 0)


def test_quartic_level_covolume():
    # index 3072 of Gamma(t^4) in SL2(F_2[t]), whose covolume is 1
    lat = CongruenceLattice(F2, parse_series(F2, "t^4"))
    assert covolume(quotient_graph(lat, 8)).total == 3072


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


@pytest.mark.parametrize(
    "lattice", [nagao2, CongruenceLattice(F2, parse_series(F2, "t^2"))]
)
def test_cusp_representatives_computed_once_per_report_and_contraction(
    monkeypatch, lattice
):
    calls = _count_calls(monkeypatch, NagaoLattice, "cusp_representatives")
    report = cusps_report(lattice, 8)
    assert len(calls) == 1
    assert report.bijective
    contracted = contract(report.graph)
    assert len(calls) == 2
    assert all(v.cusp is not None for v in contracted.vertices.values() if v.is_cusp)


def test_family_certification_enumerates_each_horoball_once(monkeypatch):
    lat = CongruenceLattice(F2, parse_series(F2, "t^2"))
    report = cusps_report(lat, 8)
    radii = _base_level_radii(report)
    horoballs = _count_calls(monkeypatch, Tree, "horoellipse_vertices")
    balls = _count_calls(monkeypatch, Tree, "ball")
    fam = certify_independent_family(lat, report.algebraic, radii, 4)
    assert isinstance(fam, FamilyCertificate)
    assert len(fam.singles) == 12
    assert len(horoballs) == 12
    # horoballs are built from the ray, not filtered out of a ball
    assert balls == []


def test_quotient_graph_reads_orders_once_per_level(monkeypatch):
    lat = CongruenceLattice(F2, parse_series(F2, "t^3"))
    calls, active = Counter(), []

    def counting(name, method):
        def wrapper(n):
            if not active:  # edge_order reads base_order itself
                calls[name, n] += 1
            active.append(name)
            try:
                return method(n)
            finally:
                active.pop()

        return wrapper

    for name in ("base_order", "edge_order"):
        monkeypatch.setattr(lat, name, counting(name, getattr(lat, name)))
    G = quotient_graph(lat, 8)
    assert len(G.vertices) > 9 and len(G.edges) > 8
    expected = Counter({("base_order", n): 1 for n in range(9)})
    expected.update({("edge_order", n): 1 for n in range(8)})
    assert calls == expected


def test_quotient_vertices_carry_their_coset():
    G = quotient_graph(CongruenceLattice(F2, parse_series(F2, "t^2")), 4)
    for vid, v in G.vertices.items():
        assert vid == f"L{v.level}C{v.coset}"
    assert all(v.coset == 0 for v in quotient_graph(nagao2, 4).vertices.values())


@pytest.mark.parametrize(
    "lattice", [nagao2, CongruenceLattice(F2, parse_series(F2, "t^2"))]
)
def test_quotient_graph_lifts_no_coset_and_moves_no_vertex(monkeypatch, lattice):
    lifts = _count_calls(monkeypatch, CosetTable, "lift")
    moves = _count_calls(monkeypatch, TreeAutomorphism, "act_vertex")
    quotient_graph(lattice, 8)
    assert lifts == [] and moves == []


@pytest.mark.parametrize(
    "lattice", [nagao2, CongruenceLattice(F2, parse_series(F2, "t^2"))]
)
def test_cusps_report_lifts_once_per_cusp(monkeypatch, lattice):
    lifts = _count_calls(monkeypatch, CosetTable, "lift")
    report = cusps_report(lattice, 8)
    assert len(lifts) == len(report.algebraic)


def _transporters_fix_end(lattice, end, y, red_y, yp, red_yp):
    """Brute force: do all lattice elements carrying y to y' fix the end?

    Every such element is w'^-1 s w with s in the full stabilizer of the
    common normal form (n, 0) and w, w' the reduction witnesses.
    """
    inv = red_yp.witness.adjugate()
    fixes = True
    for s in NagaoLattice(lattice.field).base_stabilizer_elements(red_y.level):
        gamma = inv * s * red_y.witness
        assert gamma.act_vertex(y) == yp
        if lattice.contains(gamma) and not gamma.fixes_end(end):
            fixes = False
    return fixes


@pytest.mark.parametrize(
    "lat,radius,truncation",
    [
        (nagao2, "(0; 0)", 3),
        (NagaoLattice(F3), "(0; 0)", 2),
        (CongruenceLattice(F2, parse_series(F2, "t")), "(2; p^-1)", 3),
        (CongruenceLattice(F2, parse_series(F2, "t^2+t")), "(2; p^-1)", 3),
        (CongruenceLattice(F3, parse_series(F3, "t")), "(2; p^-1)", 2),
    ],
)
def test_transporter_algebra_matches_brute_force_on_horoballs(lat, radius, truncation):
    F = lat.field
    cusp = lat.cusp_representatives()[0]
    x = parse_vertex(F, radius)
    tree = lat.tree
    algebra = _TransporterAlgebra(lat)
    members = [
        algebra.member(y)
        for y in tree.ball(x, truncation)
        if tree.horoball_contains(cusp.end, x, y)
    ]
    halves = algebra.conjugated(members, cusp)
    verdicts = set()
    for y, (_, Q) in zip(members, halves):
        for yp, (P, _) in zip(members, halves):
            if y.reduced.level != yp.reduced.level:
                continue
            gamma = algebra.moving_transporter(cusp.end, y, Q, yp, P)
            ok = gamma is None
            assert ok == _transporters_fix_end(
                lat, cusp.end, y.vertex, y.reduced, yp.vertex, yp.reduced
            )
            if gamma is not None:
                assert gamma.act_vertex(y.vertex) == yp.vertex
                assert not gamma.fixes_end(cusp.end)
            verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q", [2, 3])
def test_level_zero_transporters_match_brute_force(q):
    # away from the full lattice the constant family over h0 is a coset
    # of SL2(F_q), not closed under transposition, so this pins which
    # entries of u the bottom-left entry of P u Q reads
    F = field(q)
    lat = CongruenceLattice(F, parse_series(F, "t"))
    algebra = _TransporterAlgebra(lat)
    members = [algebra.member(y) for y in lat.tree.ball(lat.tree.base, 2)]
    origin = [m for m in members if m.reduced.level == 0]
    verdicts = set()
    for cusp in lat.cusp_representatives()[:2]:
        halves = algebra.conjugated(origin, cusp)
        for y, (_, Q) in zip(origin, halves):
            for yp, (P, _) in zip(origin, halves):
                ok = algebra.moving_transporter(cusp.end, y, Q, yp, P) is None
                assert ok == _transporters_fix_end(
                    lat, cusp.end, y.vertex, y.reduced, yp.vertex, yp.reduced
                )
                verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("y", ["(-1; 0)", "(1; p^-1)", "(-2; 0)"])
def test_transporter_algebra_matches_the_stabilizer(q, y):
    F = field(q)
    lat = NagaoLattice(F)
    cusp = lat.cusp_representatives()[0]
    algebra = _TransporterAlgebra(lat)
    m = algebra.member(parse_vertex(F, y))
    [(P, Q)] = algebra.conjugated([m], cusp)
    ok = algebra.moving_transporter(cusp.end, m, Q, m, P) is None
    assert ok == all(s.fixes_end(cusp.end) for s in lat.stabilizer(m.vertex).elements)


CONJUGATION_LATTICES = {
    q: CongruenceLattice(field(q), parse_series(field(q), "t")) for q in (2, 3, 4, 9)
}


@pytest.mark.parametrize("q", sorted(CONJUGATION_LATTICES))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_conjugated_entries_are_those_of_the_full_products(q, data):
    lat = CONJUGATION_LATTICES[q]
    Fq = lat.field
    cusp = data.draw(st.sampled_from(lat.cusp_representatives()))
    n = data.draw(st.integers(-3, 6))
    digits = data.draw(st.lists(st.sampled_from(list(Fq.elements())), min_size=6, max_size=6))
    algebra = _TransporterAlgebra(lat)
    m = algebra.member(Vertex(n, LaurentSeries(Fq, dict(zip(range(n - 6, n), digits)))))
    [(P, Q)] = algebra.conjugated([m], cusp)
    w, conj = m.reduced.witness, cusp.conjugator
    full_P, full_Q = conj * w.adjugate(), w * conj.adjugate()
    assert P == (full_P.c, full_P.d)
    assert Q == (full_Q.a, full_Q.c)


def _transporter_exists(lattice, red_y, red_yp):
    """Brute force: is some w'^-1 s w in the lattice, s in the full stabilizer
    of the common normal form (n, 0)?"""
    inv = red_yp.witness.adjugate()
    return any(
        lattice.contains(inv * s * red_y.witness)
        for s in NagaoLattice(lattice.field).base_stabilizer_elements(red_y.level)
    )


@pytest.mark.parametrize("q,level", [(2, "t"), (2, "t^2+t"), (3, "t")])
def test_cross_transporters_match_brute_force(q, level):
    # horoballs through the carried origins overlap, so both outcomes occur
    F = field(q)
    lat = CongruenceLattice(F, parse_series(F, level))
    tree = lat.tree
    algebra = _TransporterAlgebra(lat)
    horoballs = []
    for c in lat.cusp_representatives():
        x = c.conjugator.adjugate().act_vertex(tree.base)
        horoballs.append(
            [
                algebra.member(y)
                for y in tree.ball(x, 2)
                if tree.horoball_contains(c.end, x, y)
            ]
        )
    outcomes = set()
    for i, mine in enumerate(horoballs):
        for j, theirs in enumerate(horoballs):
            if i == j:
                continue
            for y in mine:
                for yp in theirs:
                    if y.reduced.level != yp.reduced.level:
                        continue
                    gamma = algebra.transporter(y, yp)
                    exists = _transporter_exists(lat, y.reduced, yp.reduced)
                    assert (gamma is not None) == exists
                    assert (y.quotient_vertex == yp.quotient_vertex) == exists
                    if gamma is not None:
                        assert gamma.act_vertex(y.vertex) == yp.vertex
                        assert lat.contains(gamma)
                    outcomes.add(exists)
    assert outcomes == {True, False}
