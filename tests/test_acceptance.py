"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line so the run can be audited at a
glance. Expected values are hardcoded: stabilizer orders and covolumes
were derived by hand from the closed forms and cross-checked here
against brute-force enumeration wherever one is feasible.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from sl2btree.autom import TreeAutomorphism
from sl2btree.field import field
from sl2btree.lattice import CongruenceLattice, NagaoLattice
from sl2btree.literals import parse_end, parse_matrix, parse_series, parse_vertex
from sl2btree.quotient import (
    CertifiedIndependent,
    CounterexamplePair,
    certify_independent_horoball,
    contract,
    covolume,
    cusps_report,
    growth_probe,
    quotient_graph,
)
from sl2btree.series import LaurentSeries
from sl2btree.tree import Tree
from sl2btree.verify import SUITES, run_all

from brute_force import ball, stabilizer_bruteforce


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {label}")
        raise
    print(f"[PASS] criterion {num:02d}: {label}")


def _shear(F, offset, lower=False):
    one, zero = LaurentSeries.one(F), LaurentSeries.zero(F)
    if lower:
        return TreeAutomorphism(F, one, zero, offset, one)
    return TreeAutomorphism(F, one, offset, zero, one)


def _random_poly(rng, F, max_degree):
    coeffs = {-d: rng.randrange(F.q) for d in range(max_degree + 1)}
    return LaurentSeries.exact(F, coeffs)


def _random_member(rng, F):
    """A pseudorandom determinant-1 matrix over F_q[t]."""
    g = TreeAutomorphism.identity(F)
    for _ in range(rng.randrange(2, 5)):
        kind = rng.randrange(3)
        if kind == 2:
            g = g * TreeAutomorphism.half_turn(F)
        else:
            g = g * _shear(F, _random_poly(rng, F, rng.randrange(3)), lower=kind)
    return g


def test_criterion_01_polynomial_quotient_is_a_ray_with_known_orders():
    with criterion(1, "polynomial-lattice quotient ray, orders vs brute force"):
        F = field(2)
        lat = NagaoLattice(F)
        G = quotient_graph(lat, 12)

        assert set(G.vertices) == {f"L{n}" for n in range(13)}
        assert G.vertices["L0"].order == 6
        for n in range(1, 13):
            assert G.vertices[f"L{n}"].order == (2 - 1) * 2 ** (n + 1)
        assert len(G.edges) == 12
        for i, e in enumerate(G.edges):
            assert (e.v_from.id, e.v_to.id) == (f"L{i}", f"L{i+1}")
        assert [e.order for e in G.edges] == [2] + [2 ** (n + 1) for n in range(1, 12)]

        # one certified cusp ray; each step along it has index exactly q
        assert len(G.rays) == 1
        ray = G.rays[0]
        assert ray.certified and ray.vertices[0].level == 1
        for lo, hi, edge in zip(ray.vertices, ray.vertices[1:], ray.edges):
            assert (edge.v_from, edge.v_to) == (lo, hi)
            assert hi.order == 2 * lo.order
            assert hi.order // edge.order == 2

        # brute-force enumeration of the small stabilizers agrees
        for n in range(5):
            v = parse_vertex(F, f"({n}; 0)")
            members = stabilizer_bruteforce(lat, v, max(n, 0))
            assert len(members) == G.vertices[f"L{n}"].order
            if n < 4:
                w = parse_vertex(F, f"({n + 1}; 0)")
                edge_members = [g for g in members if g.act_vertex(w) == w]
                assert len(edge_members) == G.edges[n].order


def test_criterion_02_covolume_by_two_independent_routes():
    with criterion(2, "covolume 1 (q=2) and 1/4 (q=3) via tails and in closed form"):
        for q, expected in ((2, Fraction(1)), (3, Fraction(1, 4))):
            lat = NagaoLattice(field(q))
            result = covolume(quotient_graph(lat, 8))
            assert result.total == expected
            # independent route: |SL2(R)| / (q - 1)^2 with R the zero ring
            assert expected == Fraction(1, (q - 1) ** 2)


def test_criterion_03_congruence_covolume_is_index_times_base():
    with criterion(3, "covolume multiplies by the index 6 for the level-t subgroup"):
        F = field(2)
        base = covolume(quotient_graph(NagaoLattice(F), 8)).total
        lat = CongruenceLattice(F, parse_series(F, "t"))
        sub = covolume(quotient_graph(lat, 8)).total
        assert base == Fraction(1)
        assert sub == 6 * base


def test_criterion_04_horospherical_expansion_counts():
    with criterion(4, "sphere-horosphere intersection counts q^l for the standard step"):
        for q in (2, 3):
            F = field(q)
            tree = Tree(F)
            end = tree.end_zero()
            x = tree.base
            step = TreeAutomorphism.standard_step(F)
            for h, length in ((step, 2), (step * step, 4)):
                assert h.translation_length() == length
                image = h.act_vertex(x)
                hits = [
                    y
                    for y in tree.sphere(image, length)
                    if tree.horosphere_contains(end, x, y)
                ]
                assert len(hits) == q**length


def test_criterion_05_orders_grow_along_the_standard_ray():
    with criterion(5, "stabilizer orders >= (q^2)^(k//3) along the cusp ray, k <= 12"):
        for q in (2, 3):
            lat = NagaoLattice(field(q))
            for k in range(13):
                red = lat.reduce_vertex(parse_vertex(lat.field, f"({k}; 0)"))
                order = lat.base_order(red.level)
                assert order >= (q * q) ** (k // 3)


def test_criterion_06_end_stabilizer_samples_are_elliptic():
    with criterion(6, "100 sampled end-stabilizer elements of degree <= 4 are elliptic"):
        for q in (2, 3):
            F = field(q)
            lat = NagaoLattice(F)
            rng = random.Random(f"acceptance:borel:{q}")
            units = list(F.units())
            for _ in range(100):
                alpha = rng.choice(units)
                a = LaurentSeries.monomial(F, alpha, 0)
                d = LaurentSeries.monomial(F, alpha.inverse(), 0)
                b = _random_poly(rng, F, 4)
                g = TreeAutomorphism(F, a, b, LaurentSeries.zero(F), d)
                assert lat.contains(g)
                assert g.fixes_end(lat.tree.end_zero())
                result = g.classify()
                assert result.kind == "elliptic"
                assert g.fixes_vertex(result.fixed_vertex)


def test_criterion_07_growth_separates_cuspidal_from_generic_directions():
    with criterion(7, "orders strictly increase toward the cusp, stay bounded elsewhere"):
        for q in (2, 3):
            lat = NagaoLattice(field(q))
            G = quotient_graph(lat, 12)
            orders = [G.vertices[f"L{n}"].order for n in range(13)]
            assert all(orders[k] < orders[k + 1] for k in range(1, 12))

        # a direction that is aperiodic as far as it is known: the recorded
        # orders never exceed the origin stabilizer (evidence to depth 9 only)
        F = field(2)
        lat = NagaoLattice(F)
        end = parse_end(F, "trunc(p+p^3+p^7, 10)")
        probe = growth_probe(lat, end, 9)
        assert probe.orders == [6, 4, 6, 4, 6, 4, 6, 4, 6, 4]
        assert max(probe.orders) <= 6
        assert probe.entry_radius is None
        assert probe.truncated_at is None  # the walk stayed inside the known window


def test_criterion_08_closed_forms_match_brute_force():
    with criterion(8, "lengths, fixing depths, distances vs literal enumeration"):
        F = field(2)
        tree = Tree(F)
        lat = NagaoLattice(F)

        # translation length and kind against displacement minimization
        rng = random.Random("acceptance:lengths")
        box = ball(tree, tree.base, 6)
        accepted = 0
        attempts = 0
        while accepted < 50:
            attempts += 1
            assert attempts < 3000
            g = _random_member(rng, F)
            if tree.distance(tree.base, g.act_vertex(tree.base)) > 6:
                continue
            accepted += 1
            assert lat.contains(g)
            length = g.translation_length()
            brute = min(tree.distance(v, g.act_vertex(v)) for v in box)
            assert brute == length
            result = g.classify()
            assert result.kind == ("hyperbolic" if length else "elliptic")
            if length == 0:
                assert g.fixes_vertex(result.fixed_vertex)

        # fixing depth against literal ball fixing, radii up to 4
        rng = random.Random("acceptance:depths")
        accepted = 0
        attempts = 0
        while accepted < 50:
            attempts += 1
            assert attempts < 3000
            g = _random_member(rng, F)
            if g.translation_length() != 0:
                continue
            accepted += 1
            v = g.classify().fixed_vertex
            depth = g.fixing_depth(v)
            for r in range(5):
                literal = all(g.fixes_vertex(w) for w in ball(tree, v, r))
                assert literal == (depth >= r)

        # distance against BFS over the neighbor relation, exhaustively
        for q, radius in ((2, 3), (3, 2)):
            Fq = field(q)
            tq = Tree(Fq)
            boxq = ball(tq, tq.base, radius)
            for x in boxq:
                dist = {x: 0}
                frontier = [x]
                while frontier:
                    nxt = []
                    for y in frontier:
                        if dist[y] >= 2 * radius:
                            continue
                        for z in tq.neighbors(y):
                            if z not in dist:
                                dist[z] = dist[y] + 1
                                nxt.append(z)
                    frontier = nxt
                for y in boxq:
                    assert tq.distance(x, y) == dist[y]


def test_criterion_09_unit_shear_fixes_its_horoellipse_and_contracts():
    with criterion(9, "the unit shear fixes its eccentricity-1/3 horoellipse to depth 9"):
        F = field(2)
        tree = Tree(F)
        u = parse_matrix(F, "[[1,1],[0,1]]")
        end = tree.end_zero()
        members = tree.horoellipse_vertices(end, tree.base, Fraction(1, 3), 9)
        assert len(members) == 20
        assert all(u.act_vertex(y) == y for y in members)

        # over F_3 and F_9 too: the first vertex toward the fixed end that
        # the shear fixes is carried with its horoellipse onto itself
        for Fq, text, witness, size in (
            (field(3), "[[1,t],[0,1]]", "(1; 0)", 13),
            (field(9), "[[1,1],[0,1]]", "(0; 0)", 31),
        ):
            tq = Tree(Fq)
            uq = parse_matrix(Fq, text)
            zero = tq.end_zero()
            x = tq.base
            while not uq.fixes_vertex(x):
                x = tq.step_to_end(x, zero)
            assert x == parse_vertex(Fq, witness)
            members = tq.horoellipse_vertices(zero, x, Fraction(1, 3), 6)
            assert len(members) == size
            assert {uq.act_vertex(y) for y in members} == set(members)

        # conjugating by the contracting diagonal deepens the fixed ball by
        # exactly the translation length each step
        pi = LaurentSeries.pi_power(F, 1)
        pi_inv = LaurentSeries.pi_power(F, -1)
        shrink = TreeAutomorphism.diagonal(F, pi, pi_inv)
        depths = []
        g = u
        for _ in range(6):
            depths.append(g.fixing_depth(tree.base))
            g = shrink * g * shrink.adjugate()
        assert depths == [0, 2, 4, 6, 8, 10]


def test_criterion_10_level_t_cusps_star_and_free_product():
    with criterion(10, "level-t subgroup: 3 cusps (q=2) / 4 (q=3), star, free product"):
        F = field(2)
        lat = CongruenceLattice(F, parse_series(F, "t"))
        report = cusps_report(lat, 8)
        assert len(report.algebraic) == 3
        assert len(report.graph.rays) == 3
        assert report.bijective

        G = quotient_graph(lat, 8)
        C = contract(G)
        centers = [v for v in C.vertices.values() if v.order is not None]
        cusps = [v for v in C.vertices.values() if v.order is None]
        assert len(centers) == 1 and centers[0].order == 1
        assert len(cusps) == 3
        assert len(C.edges) == 3
        assert all(e.v_from is centers[0] for e in C.edges)
        assert all(e.order == 1 for e in C.edges)

        # every finite group above is trivial, so the fundamental group is
        # the free product of the 3 cusp groups with a free group of rank
        # E - V + 1 = 0
        assert len(C.edges) - len(C.vertices) + 1 == 0

        F3 = field(3)
        report3 = cusps_report(CongruenceLattice(F3, parse_series(F3, "t")), 6)
        assert len(report3.algebraic) == 4
        assert len(report3.graph.rays) == 4
        assert report3.bijective


def test_criterion_11_independent_horoball_certificate_and_counterexample():
    with criterion(11, "horoball at the entry radius certified; at the origin refuted"):
        F = field(2)
        lat = NagaoLattice(F)
        probe = growth_probe(lat, lat.tree.end_zero(), 8)
        assert probe.entry_radius == 1
        cusp = lat.cusp_representatives()[0]

        entry_vertex = parse_vertex(F, f"({probe.entry_radius}; 0)")
        cert = certify_independent_horoball(lat, cusp, entry_vertex, 8)
        assert isinstance(cert, CertifiedIndependent)
        assert len(cert.members) == 46
        assert cert.pairs_checked == 426

        # enlarging the horoball to pass through the origin breaks it
        bad = certify_independent_horoball(lat, cusp, lat.tree.base, 4)
        assert isinstance(bad, CounterexamplePair)
        assert lat.contains(bad.gamma)
        assert bad.gamma.act_vertex(bad.y) == bad.y_prime
        assert not bad.gamma.fixes_end(cusp.end)


def test_criterion_12_seeded_identity_suites_pass():
    with criterion(12, "all seeded self-verification suites pass"):
        results = run_all(field(2), seed=0)
        assert [r.name for r in results] == list(SUITES)
        for r in results:
            assert r.checks > 0
            assert r.passed, f"{r.name}: {r.failures[:3]}"
