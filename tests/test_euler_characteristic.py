"""Harder's Gauss-Bonnet theorem as an oracle for the quotient graphs.

For a lattice Gamma of finite index in SL2(F_q[t]), the Euler
characteristic of the quotient graph of groups,

    sum_v 1/|Gamma_v| - sum_e 1/|Gamma_e|,

equals [SL2(F_q[t]) : Gamma] * zeta_{F_q[t]}(-1) = [SL2(F_q[t]) : Gamma] / (1 - q^2)
(Serre, *Trees*, Ch. II). The sums run over the whole infinite quotient:
past the enumerated depth each ray continues with vertex orders
|Gamma_top| q^k and edge orders equal to the lower vertex order, so its
tail contributes exactly -1/|Gamma_top|. The index comes from the closed
form q^(3d) prod_{P | f} (1 - q^(-2 deg P)), not from any residue table.
Nothing here shares code with the graph builder beyond reading its output.

The same index |SL2(F_q[t]/(f))| gives the cusp count of Gamma(f),
|SL2(R)| / ((q - 1) q^(deg f)) (one cusp for the full lattice), and the
covolume |SL2(R)| / (q - 1)^2, both checked at every lattice below.

Three further checks read how the edges join the vertices (Serre I.4-5).
Below the top level every vertex of the tree has q + 1 neighbours, so the
star sum sum_e |Gamma_v|/|Gamma_e| over the edges at a quotient vertex is
q + 1. The quotient is connected. For deg f = d >= 1, with N the index
above, level n holds N / (q^3 - q) vertex classes at n = 0 and
N / ((q - 1) q^(min(n, d - 1) + 1)) above it, and as many edge classes
join it to level n + 1 as it holds vertex classes for n >= 1; from level
d on both counts equal the cusp count. So E - V + 1 telescopes to the
cycle rank b1 = 1 + N (q^d - q - 1) / (q^d (q^2 - 1)) at every depth >=
d and for the contracted graph, where each tail is one vertex. The full
lattice's quotient is a half-line, of rank 0.
"""

from fractions import Fraction

import pytest

from sl2btree.field import field
from sl2btree.lattice import CongruenceLattice, NagaoLattice
from sl2btree.literals import parse_series
from sl2btree.quotient import contract, covolume, cusps_report, quotient_graph
from brute_force import covolume_by_edge_sum


def _index(q, degree, prime_degrees):
    index = Fraction(q) ** (3 * degree)
    for k in prime_degrees:
        index *= 1 - Fraction(1, q ** (2 * k))
    return index


CASES = [
    # (q, level or None for the full lattice, deg f, degrees of the primes P | f, depth)
    (2, None, 0, [], 8),
    (3, None, 0, [], 6),
    (4, None, 0, [], 6),
    (2, "t", 1, [1], 8),
    (2, "t^2", 2, [1], 7),
    (2, "t^2+t", 2, [1, 1], 7),
    (2, "t^3", 3, [1], 8),
    (2, "t^4+t+1", 4, [4], 8),
    (3, "t", 1, [1], 6),
    (3, "t^2+1", 2, [2], 6),
    (4, "t+[x]", 1, [1], 6),
]


BY_CASE = pytest.mark.parametrize(
    "q,level,degree,prime_degrees,depth",
    CASES,
    ids=[f"F{q}-{level or 'full'}" for q, level, *_ in CASES],
)


def _lattice(q, level):
    F = field(q)
    if level is None:
        return NagaoLattice(F)
    return CongruenceLattice(F, parse_series(F, level))


@BY_CASE
def test_euler_characteristic_matches_gauss_bonnet(q, level, degree, prime_degrees, depth):
    G = quotient_graph(_lattice(q, level), depth)
    assert G.rays and all(ray.certified for ray in G.rays)
    tops = [ray.vertices[-1] for ray in G.rays]
    chi = sum((Fraction(1, v.order) for v in G.vertices.values()), Fraction(0))
    chi -= sum((Fraction(1, e.order) for e in G.edges), Fraction(0))
    chi -= sum((Fraction(1, top.order) for top in tops), Fraction(0))
    assert chi == _index(q, degree, prime_degrees) / (1 - q**2)


@BY_CASE
def test_cusp_count_and_covolume_closed_forms(q, level, degree, prime_degrees, depth):
    report = cusps_report(_lattice(q, level), depth)
    group = _index(q, degree, prime_degrees)
    cusps = 1 if level is None else group / ((q - 1) * q**degree)
    assert len(report.algebraic) == len(report.graph.rays) == cusps
    assert report.bijective
    assert covolume(report.graph).total == group / (q - 1) ** 2


@BY_CASE
def test_covolume_equals_the_edge_by_edge_sum(q, level, degree, prime_degrees, depth):
    G = quotient_graph(_lattice(q, level), depth)
    core, tails = covolume_by_edge_sum(G)
    result = covolume(G)
    assert result.core_part == core
    assert result.tail_parts == tails
    assert result.total == core + sum(tails)


# the shape checks also run on the full lattice over F_9
SHAPE_CASES = CASES + [(9, None, 0, [], 6)]

BY_SHAPE_CASE = pytest.mark.parametrize(
    "q,level,degree,prime_degrees,depth",
    SHAPE_CASES,
    ids=[f"F{q}-{level or 'full'}" for q, level, *_ in SHAPE_CASES],
)


def _cycle_rank(G):
    """E - V + 1 after checking, by union-find over the edges, that G is connected."""
    parent = {vid: vid for vid in G.vertices}

    def root(vid):
        while parent[vid] != vid:
            parent[vid] = parent[parent[vid]]
            vid = parent[vid]
        return vid

    for e in G.edges:
        parent[root(e.v_from.id)] = root(e.v_to.id)
    assert len({root(vid) for vid in G.vertices}) == 1
    return len(G.edges) - len(G.vertices) + 1


@BY_SHAPE_CASE
def test_star_sums_are_q_plus_one(q, level, degree, prime_degrees, depth):
    G = quotient_graph(_lattice(q, level), depth)
    star = {vid: Fraction(0) for vid in G.vertices}
    for e in G.edges:
        for v in (e.v_from, e.v_to):
            star[v.id] += Fraction(v.order, e.order)
    bad = {
        vid: total
        for vid, total in star.items()
        if G.vertices[vid].level < depth and total != q + 1
    }
    assert bad == {}


@BY_SHAPE_CASE
def test_cycle_rank_matches_the_closed_form(q, level, degree, prime_degrees, depth):
    G = quotient_graph(_lattice(q, level), depth)
    b1 = Fraction(0)
    if degree >= 1:
        N = _index(q, degree, prime_degrees)
        b1 = 1 + N * (q**degree - q - 1) / (q**degree * (q**2 - 1))
    assert b1.denominator == 1
    assert _cycle_rank(G) == b1
    assert _cycle_rank(contract(G)) == b1
