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
"""

from fractions import Fraction

import pytest

from sl2btree.field import field
from sl2btree.lattice import CongruenceLattice, NagaoLattice
from sl2btree.literals import parse_series
from sl2btree.quotient import quotient_graph


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


@pytest.mark.parametrize(
    "q,level,degree,prime_degrees,depth",
    CASES,
    ids=[f"F{q}-{level or 'full'}" for q, level, *_ in CASES],
)
def test_euler_characteristic_matches_gauss_bonnet(q, level, degree, prime_degrees, depth):
    F = field(q)
    if level is None:
        lattice = NagaoLattice(F)
    else:
        lattice = CongruenceLattice(F, parse_series(F, level))
    G = quotient_graph(lattice, depth)
    assert G.rays and all(ray.certified for ray in G.rays)
    tops = [G.vertices[ray.vertex_ids[-1]] for ray in G.rays]
    chi = sum((Fraction(1, v.order) for v in G.vertices.values()), Fraction(0))
    chi -= sum((Fraction(1, e.order) for e in G.edges), Fraction(0))
    chi -= sum((Fraction(1, top.order) for top in tops), Fraction(0))
    assert chi == _index(q, degree, prime_degrees) / (1 - q**2)
