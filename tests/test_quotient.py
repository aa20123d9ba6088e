import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2btree import cli, quotient
from sl2btree.autom import TreeAutomorphism
from sl2btree.errors import InvalidInputError, NonterminationGuard, UncertifiedTail
from sl2btree.field import field
from sl2btree.lattice import CongruenceLattice, CosetTable, NagaoLattice, _upper
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
    growth_probe,
    quotient_graph,
)
from sl2btree.series import LaurentSeries
from sl2btree.tree import Tree, Vertex
import brute_force
from brute_force import ball, cusp_ray_matches_by_scan, radius_vertices_by_bezout
from test_euler_characteristic import CASES, _index, _lattice


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
    assert ray.certified and ray.vertices[0].level == 1
    assert ray.vertices[0].id == "L1" and [v.level for v in ray.vertices] == list(range(1, 9))


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


def test_ray_detection_on_a_hand_built_graph():
    # C0-C1-C2-C3 is a chain whose steps all multiply the order by q = 2;
    # T1 and T2 hang from the branch M, T3 has no down-edge and T4 two
    G = quotient.GraphOfGroups(NagaoLattice(field(2)), 3)
    for vid, level, order in [("C0", 0, 1), ("C1", 1, 2), ("C2", 2, 4), ("C3", 3, 8),
                              ("B", 1, 1), ("M", 2, 1), ("T1", 3, 1), ("T2", 3, 1),
                              ("T3", 3, 1), ("M2", 2, 1), ("M3", 2, 1), ("T4", 3, 1)]:
        G.vertices[vid] = quotient.QuotientVertex(vid, level, 0, order)
    for lo, hi, order in [("C0", "C1", 1), ("C1", "C2", 2), ("C2", "C3", 4), ("B", "M", 1),
                          ("M", "T1", 1), ("M", "T2", 1), ("M2", "T4", 1), ("M3", "T4", 1)]:
        G.edges.append(quotient.QuotientEdge(G.vertices[lo], G.vertices[hi], order))
    quotient._detect_rays(G)
    assert [_ray_links(G, r) + (r.vertices[0].level, r.certified) for r in G.rays] == [
        (["C0", "C1", "C2", "C3"], [0, 1, 2], 0, True),
        (["T1"], [], 3, False),
        (["T2"], [], 3, False),
    ]


def _ray_links(G, ray):
    """The ray's vertex ids and the positions of its edges in G.edges."""
    return [v.id for v in ray.vertices], [G.edges.index(e) for e in ray.edges]


def _chain_graph(orders, edge_orders):
    """One chain C0-C1-... with the given vertex and edge orders, up to the top depth."""
    G = quotient.GraphOfGroups(NagaoLattice(F2), len(orders) - 1)
    for n, order in enumerate(orders):
        G.vertices[f"C{n}"] = quotient.QuotientVertex(f"C{n}", n, 0, order)
    for n, order in enumerate(edge_orders):
        lo, hi = G.vertices[f"C{n}"], G.vertices[f"C{n + 1}"]
        G.edges.append(quotient.QuotientEdge(lo, hi, order))
    return G


def test_certified_ray_pattern_must_hold_above_its_base():
    # three index-2 steps certify from C0, then C3-C4 keeps the order
    G = _chain_graph([1, 2, 4, 8, 8], [1, 2, 4, 8])
    with pytest.raises(NonterminationGuard, match="certified tail pattern broke"):
        quotient._detect_rays(G)


def test_ray_steps_need_the_edge_group_to_be_the_lower_vertex_group():
    # the orders double at each step, but the middle edge group has order 1, not 2
    G = _chain_graph([1, 2, 4, 8], [1, 1, 4])
    quotient._detect_rays(G)
    assert [_ray_links(G, r) + (r.certified,) for r in G.rays] == [
        (["C0", "C1", "C2", "C3"], [0, 1, 2], False)
    ]


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
    assert all(r.certified and r.vertices[0].level == 1 for r in G.rays)
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
    bottom = [e for e in G.edges if e.v_from.id.startswith("L0")]
    assert len(bottom) == 24 and all(e.order == 1 for e in bottom)
    assert len(G.rays) == 12
    assert covolume(G).total == Fraction(48) == _closed_form_covolume(2, 2, [1])


def test_reducible_level_covolume():
    lat = CongruenceLattice(F2, parse_series(F2, "t^2+t"))
    assert covolume(quotient_graph(lat, 7)).total == Fraction(36)


def test_cusps_report_bijections():
    rep = cusps_report(nagao2, 8)
    assert rep.bijective and len(rep.graph.rays) == 1 and len(rep.algebraic) == 1

    repT = cusps_report(CongruenceLattice(F2, parse_series(F2, "t")), 8)
    assert repT.bijective
    assert len(repT.algebraic) == 3 and len(repT.graph.rays) == 3
    assert sorted(ci for ci, _ in repT.matches) == [0, 1, 2]
    assert sorted(ri for _, ri in repT.matches) == [0, 1, 2]

    rep3 = cusps_report(CongruenceLattice(F3, parse_series(F3, "t")), 6)
    assert rep3.bijective and len(rep3.algebraic) == 4 and len(rep3.graph.rays) == 4


@pytest.mark.parametrize(
    "q,level,degree",
    [case[:3] for case in CASES],
    ids=[f"F{q}-{level or 'full'}" for q, level, *_ in CASES],
)
def test_cusp_lookup_agrees_with_the_scan_over_every_ray(q, level, degree):
    # the depths cover graphs without rays, with uncertified rays and with certified ones
    lattice = _lattice(q, level)
    for depth in range(1, degree + 3):
        report = cusps_report(lattice, depth)
        assert report.matches == cusp_ray_matches_by_scan(report.graph, report.algebraic)


def test_cusp_lookup_skips_a_ray_that_ends_below_the_read_level():
    # the full lattice's ray at depth 2 starts at L0 and is read at level 1
    report = cusps_report(nagao2, 2)
    assert report.matches == [(0, 0)]
    ray = report.graph.rays[0]
    ray.vertices, ray.edges = ray.vertices[:1], []
    assert quotient._match_cusps_to_rays(report.graph) == []
    assert cusp_ray_matches_by_scan(report.graph, report.algebraic) == []


# every monic level of degree 1 to 3 over F_2
F2_LEVELS = ["t", "t+1", "t^2", "t^2+1", "t^2+t", "t^2+t+1"]
F2_LEVELS += ["t^3", "t^3+1", "t^3+t", "t^3+t+1", "t^3+t^2", "t^3+t^2+1", "t^3+t^2+t", "t^3+t^2+t+1"]


RADIUS_CASES = [(q, level, depth) for q, level, *_, depth in CASES]
RADIUS_CASES += [(2, f, 8) for f in F2_LEVELS]


@pytest.mark.parametrize(
    "q,level,depth",
    RADIUS_CASES,
    ids=[f"F{q}-{level or 'full'}-depth{depth}" for q, level, depth in RADIUS_CASES],
)
def test_radius_vertices_agree_with_the_bezout_route(q, level, depth):
    # a cusp's carrier is its coset's lift, not the adjugate of a Bezout
    # matrix; both carry the zero end to its end, and the horoballs they give agree
    lattice = _lattice(q, level)
    report = cusps_report(lattice, depth)
    assert report.radius_vertices() == radius_vertices_by_bezout(report)
    full = NagaoLattice(lattice.field)
    zero_end = lattice.tree.end_zero()
    for cusp in report.algebraic:
        assert full.contains(cusp.carrier)
        # the end read off the carrier's first column is the image of the zero end
        assert cusp.carrier.act_end(zero_end) == cusp.end
        assert cusp.carrier.adjugate().act_end(cusp.end) == zero_end


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
    assert len(res.members) == 46 and res.pairs_checked == 426

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
        c.carrier.act_vertex(parse_vertex(F2, "(1; 0)")) for c in cusps
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
            for y in ball(tree, x, 5)
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
    """Residues, images of the cusp's vector and transporter checks are
    computed once per member of a certified horoball, not once per pair.
    Here the three horoballs are conjugate (42 members, 126 + 252 pairs),
    so only the first cusp's 14 members are computed; the other two cusps
    cost one reduction of their carrier each. A star's root reads nothing
    more than its image."""
    lat = CongruenceLattice(F2, parse_series(F2, "t"))
    cusps = lat.cusp_representatives()
    radii = [
        c.carrier.act_vertex(parse_vertex(F2, "(1; 0)")) for c in cusps
    ]
    reductions = _count_calls(monkeypatch, CosetTable, "reduce")
    products = _count_calls(monkeypatch, TreeAutomorphism, "__mul__")
    checks = _count_calls(monkeypatch, _TransporterAlgebra, "moving_transporter")
    images = _count_calls(monkeypatch, _TransporterAlgebra, "member")
    fam = certify_independent_family(lat, cusps, radii, 5)
    assert isinstance(fam, FamilyCertificate)
    base = fam.singles[0]
    assert all(single is base for single in fam.singles)
    members = len(base.members)
    roots = len({m.quotient_vertex for m in base.members})
    assert roots < members == 14
    assert len(images) == members
    assert not any(hasattr(_TransporterAlgebra, half) for half in ("target_half", "source_half"))
    constants = 2**3 - 2  # the constants map reduces each member of SL2(F_2) once
    assert len(reductions) <= len(cusps) + constants
    assert len(products) <= 3 * members
    assert len(checks) == members


@pytest.mark.parametrize("q,level", [(2, "t"), (3, "t"), (2, "t^2")])
def test_family_counterexample_where_horoballs_meet(q, level):
    # horoballs through the carried origins all hold the origin, so each
    # single certificate passes and the cross check finds the first meeting
    F = field(q)
    lat = CongruenceLattice(F, parse_series(F, level))
    cusps = lat.cusp_representatives()
    radii = [c.carrier.act_vertex(lat.tree.base) for c in cusps]
    for c, x in zip(cusps, radii):
        assert isinstance(
            certify_independent_horoball(lat, c, x, 2), CertifiedIndependent
        )
    res = certify_independent_family(lat, cusps, radii, 2)
    assert isinstance(res, CounterexamplePair)
    assert res.y == res.y_prime == parse_vertex(F, "(0; 0)")
    assert res.gamma == TreeAutomorphism.identity(F)


def test_family_cross_check_reads_quotient_vertices(monkeypatch):
    """The twelve horoballs are conjugate: the first is certified, each
    other one costs one residue product for its carrier and one per
    quotient vertex of the first, and the cross check compares sets of
    quotient vertices: no transporter and no further vertex reduction
    when the horoballs never meet."""
    import sl2btree.quotient as quotient

    lat = CongruenceLattice(F2, parse_series(F2, "t^2"))
    report = cusps_report(lat, 8)
    products = _count_calls(monkeypatch, CosetTable, "matmul")
    transporters = _count_calls(monkeypatch, _TransporterAlgebra, "moving_transporter")
    reductions = _count_calls(monkeypatch, NagaoLattice, "reduce_vertex")
    single = quotient.certify_independent_horoball
    certified = []

    def certify_then_reset(*args):
        # only the calls made after the last single certificate remain
        result = single(*args)
        certified.append((result, len(products), len(reductions), len(transporters)))
        products.clear()
        reductions.clear()
        transporters.clear()
        return result

    monkeypatch.setattr(quotient, "certify_independent_horoball", certify_then_reset)
    fam = certify_independent_family(lat, report.algebraic, report.radius_vertices(), 4)
    assert isinstance(fam, FamilyCertificate)
    assert fam.cross_pairs_checked == 3432
    [(base, star_products, base_reductions, star_checks)] = certified
    members = len(base.members)
    reached = len({m.quotient_vertex for m in base.members})
    assert (members, reached) == (10, 5)
    assert star_products == base_reductions == star_checks == members
    assert len(products) == (len(report.algebraic) - 1) * (reached + 1)
    assert reductions == [] and transporters == []


def _cli_json(capsys, argv):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_contract_nagao_to_one_cusp(capsys):
    G = quotient_graph(nagao2, 8)
    C = contract(G)
    assert C.contracted
    assert sorted(C.vertices) == ["L0", "cusp0"]
    assert C.vertices["L0"].order == 6
    assert C.vertices["cusp0"].order is None
    assert C.vertices["cusp0"].level == 1  # the certified base of the ray
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


def _vertex_rows(vertices):
    return sorted((v.id, v.level, v.coset, v.order) for v in vertices)


def _edge_rows(edges):
    return [(e.v_from.id, e.v_to.id, e.order) for e in edges]


def _ray_rows(G):
    return [_ray_links(G, r) + (r.vertices[0].level, r.certified) for r in G.rays]


def test_contracting_without_a_certified_ray_copies_the_graph():
    graphs = [(nagao2, 2), (CongruenceLattice(F2, parse_series(F2, "t^3")), 4)]
    for lattice, depth in graphs:
        G = quotient_graph(lattice, depth)
        assert G.rays and not any(ray.certified for ray in G.rays)
        C = contract(G)
        assert C.contracted and not G.contracted
        assert _vertex_rows(C.vertices.values()) == _vertex_rows(G.vertices.values())
        assert all(C.vertices[vid] is not v for vid, v in G.vertices.items())
        assert _edge_rows(C.edges) == _edge_rows(G.edges)
        assert not set(C.edges) & set(G.edges)
        assert _ray_rows(C) == _ray_rows(G)
        assert all(set(r.vertices) <= set(C.vertices.values()) for r in C.rays)
        C.contracted = False
        assert C.to_json_dict() == G.to_json_dict()


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
    contract(report.graph)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "lattice,depth",
    [
        (nagao2, 8),
        (CongruenceLattice(F2, parse_series(F2, "t^2")), 8),
        (CongruenceLattice(F3, parse_series(F3, "t")), 6),
    ],
)
def test_contract_reads_no_cusp_data(monkeypatch, lattice, depth):
    G = quotient_graph(lattice, depth)
    counted = [
        (NagaoLattice, "cusp_representatives"),
        (CosetTable, "lift"),
    ]
    calls = [_count_calls(monkeypatch, cls, name) for cls, name in counted]
    C = contract(G)
    assert calls == [[], []]
    cusps = {v.id for v in C.vertices.values() if v.order is None}
    assert cusps == {f"cusp{i}" for i in range(len(G.rays))}


def test_family_certification_enumerates_each_horoball_once(monkeypatch):
    lat = CongruenceLattice(F2, parse_series(F2, "t^2"))
    report = cusps_report(lat, 8)
    radii = report.radius_vertices()
    horoballs = _count_calls(monkeypatch, Tree, "horoellipse_vertices")
    # `sphere` is the one ball-like listing the tree has left
    balls = _count_calls(monkeypatch, Tree, "sphere")
    fam = certify_independent_family(lat, report.algebraic, radii, 4)
    assert isinstance(fam, FamilyCertificate)
    assert len(fam.singles) == 12
    # the twelve horoballs are conjugate: one is enumerated, the rest derived
    assert len(horoballs) == 1
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
        algebra.member(y, cusp)
        for y in ball(tree, x, truncation)
        if tree.horoball_contains(cusp.end, x, y)
    ]
    verdicts = set()
    for y in members:
        for yp in members:
            if y.reduced.level != yp.reduced.level:
                continue
            gamma = algebra.moving_transporter(cusp.end, y, yp)
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
    # entries of u the determinant det(w' v, u w v) reads
    F = field(q)
    lat = CongruenceLattice(F, parse_series(F, "t"))
    algebra = _TransporterAlgebra(lat)
    origin = [y for y in ball(lat.tree, lat.tree.base, 2) if lat.reduce_vertex(y).level == 0]
    verdicts = set()
    for cusp in lat.cusp_representatives()[:2]:
        members = [algebra.member(y, cusp) for y in origin]
        for y in members:
            for yp in members:
                ok = algebra.moving_transporter(cusp.end, y, yp) is None
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
    m = algebra.member(parse_vertex(F, y), cusp)
    ok = algebra.moving_transporter(cusp.end, m, m) is None
    w = m.reduced.witness
    stabilizer = [
        w.adjugate() * s * w for s in lat.base_stabilizer_elements(m.reduced.level)
    ]
    assert all(s.act_vertex(m.vertex) == m.vertex for s in stabilizer)
    assert ok == all(s.fixes_end(cusp.end) for s in stabilizer)


CONJUGATION_LATTICES = {
    q: CongruenceLattice(field(q), parse_series(field(q), "t")) for q in (2, 3, 4, 9)
}


@pytest.mark.parametrize("q", sorted(CONJUGATION_LATTICES))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_conjugated_entries_are_those_of_the_full_products(q, data):
    """A member's image is the first column of witness * carrier, and the
    pair determinant det(w' v, u w v) is the bottom-left entry of the
    conjugated transporter carrier^-1 w'^-1 u w carrier, for each u of the
    family; y' is a lattice translate of y, so the family is never empty."""
    lat = CONJUGATION_LATTICES[q]
    Fq = lat.field
    cusp = data.draw(st.sampled_from(lat.cusp_representatives()))
    carrier = cusp.carrier
    n = data.draw(st.integers(-3, 6))
    elems = list(Fq.elements())
    digits = data.draw(st.lists(st.sampled_from(elems), min_size=6, max_size=6))
    k1, k2 = (
        LaurentSeries(Fq, {-d: data.draw(st.sampled_from(elems)) for d in range(3)})
        for _ in range(2)
    )
    shear = TreeAutomorphism.upper_shear(Fq, lat.level * k1)
    if data.draw(st.booleans()):
        # on the line to the cusp's end, moved by a translation fixing it:
        # there some families fix the end
        y = carrier.act_vertex(Vertex(n, LaurentSeries.zero(Fq)))
        gamma = carrier * shear * carrier.adjugate()
    else:
        y = Vertex(n, LaurentSeries(Fq, dict(zip(range(n - 6, n), digits))))
        gamma = shear * TreeAutomorphism.lower_shear(Fq, lat.level * k2)
    algebra = _TransporterAlgebra(lat)
    m, mp = algebra.member(y, cusp), algebra.member(gamma.act_vertex(y), cusp)
    w, wp = m.reduced.witness, mp.reduced.witness
    for member, witness in ((m, w), (mp, wp)):
        full = witness * carrier
        assert member.image == (full.a, full.c)
    family = algebra._family(m, mp)
    if m.reduced.level >= 1:
        alpha, offsets = family
        family = [_upper(Fq, alpha, b) for b in offsets]
    assert family
    (s1, s2), (t1, t2) = m.image, mp.image
    moves = False
    for u in family:
        det = t1 * (u.c * s1 + u.d * s2) - t2 * (u.a * s1 + u.b * s2)
        full = carrier.adjugate() * wp.adjugate() * u * w * carrier
        assert det == full.c
        moves = moves or det.has_terms()
    assert (algebra.moving_transporter(cusp.end, m, mp) is not None) == moves


def _first_moving_pair(lattice, cusp, x, truncation):
    """The horoball check pair by pair: every ordered pair of members at one
    level, in member order, through `moving_transporter`. Returns the first
    violating (y, y', str(gamma)), or the member count."""
    algebra = _TransporterAlgebra(lattice)
    horoball = lattice.tree.horoellipse_vertices(cusp.end, x, Fraction(1), truncation)
    members = [algebra.member(y, cusp) for y in horoball]
    levels = {}
    for m in members:
        levels.setdefault(m.reduced.level, []).append(m)
    for group in levels.values():
        for y in group:
            for yp in group:
                gamma = algebra.moving_transporter(cusp.end, y, yp)
                if gamma is not None:
                    return y.vertex, yp.vertex, str(gamma)
    return len(members)


@pytest.mark.parametrize(
    "q,level",
    [(2, None), (3, None), (4, None), (9, None), (2, "t"), (2, "t^2"), (3, "t")],
)
def test_star_check_matches_all_pairs(q, level):
    F = field(q)
    lat = NagaoLattice(F) if level is None else CongruenceLattice(F, parse_series(F, level))
    one = parse_vertex(F, "(1; 0)")
    verdicts = Counter()
    for cusp in lat.cusp_representatives():
        for x in (lat.tree.base, one, cusp.carrier.act_vertex(one)):
            for truncation in range(1, 5):
                expected = _first_moving_pair(lat, cusp, x, truncation)
                got = certify_independent_horoball(lat, cusp, x, truncation)
                if isinstance(expected, tuple):
                    assert isinstance(got, CounterexamplePair)
                    assert (got.y, got.y_prime, str(got.gamma)) == expected
                else:
                    assert isinstance(got, CertifiedIndependent)
                    assert len(got.members) == expected
                verdicts[type(got)] += 1
    assert verdicts[CertifiedIndependent] > 0 and verdicts[CounterexamplePair] > 0


FAMILY_ORACLE_LATTICES = [(2, "t"), (2, "t^2"), (2, "t^2+t"), (3, "t"), (4, "t"), (9, "t")]


def _family_radii(lat, kind):
    """Radius vertices per cusp: carried from one vertex, so that every
    cusp shares adj(c) x ("shared", "origin"); from two alternating ones
    ("alternating"); from one each ("distinct"); or one vertex for all."""
    F = lat.field
    cusps = lat.cusp_representatives()
    zero = LaurentSeries.zero(F)
    if kind == "fixed":
        return [parse_vertex(F, "(1; 0)")] * len(cusps)
    level = {
        "shared": lambda i: 1, "origin": lambda i: 0,
        "alternating": lambda i: i % 2, "distinct": lambda i: i,
    }[kind]
    return [c.carrier.act_vertex(Vertex(level(i), zero)) for i, c in enumerate(cusps)]


@pytest.mark.parametrize("q,level", FAMILY_ORACLE_LATTICES)
def test_family_certification_matches_per_cusp_enumeration(q, level):
    """Conjugation gives the verdict, the per-cusp and cross pair counts
    and the counterexample of certifying every horoball in full."""
    F = field(q)
    lat = CongruenceLattice(F, parse_series(F, level))
    cusps = lat.cusp_representatives()
    verdicts = Counter()
    for kind in ("shared", "origin", "alternating", "distinct", "fixed"):
        radii = _family_radii(lat, kind)
        for truncation in range(6):
            expected = brute_force.family_by_enumeration(lat, cusps, radii, truncation)
            got = certify_independent_family(lat, cusps, radii, truncation)
            if isinstance(expected, CounterexamplePair):
                assert isinstance(got, CounterexamplePair)
                assert (got.y, got.y_prime, got.gamma) == (
                    expected.y, expected.y_prime, expected.gamma
                )
                assert str(got.gamma) == str(expected.gamma)
            else:
                assert isinstance(got, FamilyCertificate)
                pairs, cross = expected
                assert [s.pairs_checked for s in got.singles] == pairs
                assert got.cross_pairs_checked == cross
            verdicts[kind, type(got)] += 1
    assert verdicts["origin", CounterexamplePair] > 0
    assert verdicts["shared", FamilyCertificate] > 0
    assert verdicts["distinct", FamilyCertificate] > 0


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
        x = c.carrier.act_vertex(tree.base)
        horoballs.append(
            [
                algebra.member(y, c)
                for y in ball(tree, x, 2)
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
                    gamma = algebra.moving_transporter(None, y, yp)
                    exists = _transporter_exists(lat, y.reduced, yp.reduced)
                    assert (gamma is not None) == exists
                    assert (y.quotient_vertex == yp.quotient_vertex) == exists
                    if gamma is not None:
                        assert gamma.act_vertex(y.vertex) == yp.vertex
                        assert lat.contains(gamma)
                    outcomes.add(exists)
    assert outcomes == {True, False}
