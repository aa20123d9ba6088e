"""Brute-force oracles for the tests, sharing no code with the closed forms."""

from sl2btree.autom import TreeAutomorphism, zero_end_conjugator
from sl2btree.errors import InvalidInputError, NonterminationGuard, SizeGuardExceeded
from sl2btree.lattice import NagaoLattice
from sl2btree.polys import all_t_polys, t_degree, xgcd_t
from sl2btree.series import LaurentSeries
from sl2btree.tree import Tree, Vertex


def ball(tree: Tree, x: Vertex, radius: int) -> list[Vertex]:
    """All vertices within `radius` of x, in breadth-first order.

    A search over `tree.neighbors` with a set of seen vertices.
    """
    if radius < 0:
        raise InvalidInputError(f"ball radius must be >= 0, got {radius}")
    seen, layer, out = {x}, [x], [x]
    for _ in range(radius):
        nxt = []
        for v in layer:
            for u in tree.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        out += nxt
        layer = nxt
    return out


def stabilizer_bruteforce(
    lattice: NagaoLattice, v: Vertex, degree_bound: int
) -> list[TreeAutomorphism]:
    """All lattice members with entry t-degree <= degree_bound fixing v.

    Independent of the closed forms: enumerates coprime first columns,
    solves the determinant equation for the second column, and checks the
    action literally. Exponential in the bound; keep it small.
    """
    if degree_bound > 6:
        raise SizeGuardExceeded("brute-force stabilizers cap at degree 6")
    F = lattice.field
    polys = list(all_t_polys(F, degree_bound))
    # images of v under the shear family, bucketed so each distinct image
    # is pushed through a candidate only once
    buckets: dict[Vertex, list[LaurentSeries]] = {}
    for k in polys:
        w = TreeAutomorphism.upper_shear(F, k).act_vertex(v)
        buckets.setdefault(w, []).append(k)
    out = []
    for a in polys:
        for c in polys:
            if not a.has_terms() and not c.has_terms():
                continue
            g, u, w = xgcd_t(a, c)
            if t_degree(g) != 0:
                continue
            d0, b0 = u, -w
            base = TreeAutomorphism(F, a, b0, c, d0)
            for image, ks in buckets.items():
                if base.act_vertex(image) != v:
                    continue
                for k in ks:
                    b, d = b0 + k * a, d0 + k * c
                    if t_degree(b) > degree_bound or t_degree(d) > degree_bound:
                        continue
                    cand = TreeAutomorphism(F, a, b, c, d)
                    if not lattice.contains(cand):
                        continue
                    if cand.act_vertex(v) != v:
                        raise NonterminationGuard(
                            "shear bucketing disagreed with the literal action"
                        )
                    out.append(cand)
    return out


def cusp_ray_matches_by_scan(G, cusps) -> list[tuple[int, int]]:
    """(cusp index, ray index) for each cusp whose carrier lands in exactly one ray.

    Tests every cusp against every ray, reading each ray in the vertex
    partition of its own read level, max(base level, deg f - 1, 1); a ray
    that ends below that level is skipped.
    """
    table = G.lattice.coset_table()
    stable = G.lattice.level_degree - 1
    matches = []
    for ci, cusp in enumerate(cusps):
        m = table.reduce(cusp.conjugator.adjugate())
        hits = []
        for ri, ray in enumerate(G.rays):
            level = max(ray.base_level, stable, 1)
            if level - ray.base_level >= len(ray.vertices):
                continue
            vertex = ray.vertices[level - ray.base_level]
            coset_of, _ = table.vertex_partition(level)
            if coset_of[m] == vertex.coset:
                hits.append(ri)
        if len(hits) == 1:
            matches.append((ci, hits[0]))
    return matches


def radius_vertices_by_bezout(report) -> list[Vertex]:
    """`CuspsReport.radius_vertices` through a Bezout conjugator of each cusp's end.

    zero_end_conjugator(end) = [[u, w], [-y, x]] with u*x + w*y = 1 carries
    the end (x : y) to the zero end; its adjugate is applied to (b, 0), b the
    base level of the cusp's matched ray, or 1 when it has none.
    """
    ray_of = dict(report.matches)
    zero = LaurentSeries.zero(report.graph.lattice.field)
    return [
        zero_end_conjugator(cusp.end).adjugate().act_vertex(
            Vertex(report.graph.rays[ray_of[i]].base_level if i in ray_of else 1, zero)
        )
        for i, cusp in enumerate(report.algebraic)
    ]
