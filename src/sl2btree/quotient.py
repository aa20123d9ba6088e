"""Quotient graphs of groups, covolumes, and cusp geometry.

`quotient_graph` gives the quotient of the tree by a lattice down to a
chosen depth on coset numbers: finitely many vertex and edge classes,
whose stabilizer orders depend on the level alone, plus the detected ray
tails going off to infinity. Tails whose stabilizer towers are verified
to grow by a factor of q for three consecutive nested steps are
*certified*: beyond that the tower provably continues, which turns the
infinite part of the covolume sum into the exact closed form
q / (c (q - 1)). Vertex, edge and ray records are built only when read.

The rest of the module covers the cusp side: matching algebraic cusp
representatives to geometric rays (`cusps_report`), probing stabilizer
growth along an arbitrary end (`growth_probe`), certifying that a
truncated horoball meets its lattice translates only through elements
fixing the end (`certify_independent_horoball`), and collapsing certified
tails into symbolic cusp vertices (`contract`).
"""

import itertools
from collections import Counter
from fractions import Fraction

from .autom import TreeAutomorphism
from .errors import (
    EndPrecisionExhausted,
    InvalidInputError,
    NonterminationGuard,
    UncertifiedTail,
)
from .lattice import CuspData, NagaoLattice, ReducedVertex, _upper
from .polys import t_degree
from .series import LaurentSeries, _fused
from .tree import End, Vertex


class QuotientVertex:
    __slots__ = ("id", "level", "coset", "order")

    def __init__(self, id: str, level: int, coset: int | None, order: int | None):
        self.id = id
        self.level = level
        self.coset = coset  # coset number in the level's partition; None for a cusp vertex
        self.order = order  # None marks a symbolic cusp vertex (infinite order)


class QuotientEdge:
    __slots__ = ("v_from", "v_to", "order")

    def __init__(self, v_from: QuotientVertex, v_to: QuotientVertex, order: int):
        self.v_from = v_from  # lower level
        self.v_to = v_to  # higher level (or a cusp vertex)
        self.order = order


class RayTail:
    """A certified-or-not chain of vertex classes heading to infinity."""

    __slots__ = ("vertices", "edges", "certified")

    def __init__(self, vertices: list[QuotientVertex], edges: list[QuotientEdge],
                 certified: bool):
        self.vertices = vertices  # one per level, from the base level vertices[0].level up
        self.edges = edges  # edges between consecutive chain vertices
        self.certified = certified


class CovolumeResult:
    __slots__ = ("total", "core_part", "tail_parts")

    def __init__(self, total: Fraction, core_part: Fraction, tail_parts: list[Fraction]):
        self.total = total
        self.core_part = core_part
        self.tail_parts = tail_parts

    def __str__(self) -> str:
        return f"{self.total.numerator}/{self.total.denominator}"


class GrowthProbe:
    __slots__ = ("orders", "reduced_levels", "entry_radius", "truncated_at")

    def __init__(self, orders: list[int], reduced_levels: list[int], entry_radius: int | None,
                 truncated_at: int | None = None):
        self.orders = orders
        self.reduced_levels = reduced_levels
        self.entry_radius = entry_radius
        self.truncated_at = truncated_at


class HoroballMember:
    """A horoball vertex with its normal form, witness residue, cusp image and quotient vertex.

    `residue` is the image r of `reduced.witness` in the residue group.
    `image` is the witness applied to the cusp's vector, w v with v the
    first column of the cusp's carrier, as a pair of series.
    `quotient_vertex` is (n, k) for the vertex L{n}C{k} of the quotient
    graph that the vertex maps to: n is its reduced level and k the coset
    number of r^{-1} in `CosetTable.vertex_partition(n)`.
    """

    __slots__ = ("vertex", "reduced", "residue", "image", "quotient_vertex")

    def __init__(self, vertex: Vertex, reduced: ReducedVertex, residue: tuple,
                 image: tuple, quotient_vertex: tuple[int, int]):
        self.vertex = vertex
        self.reduced = reduced
        self.residue = residue
        self.image = image
        self.quotient_vertex = quotient_vertex


class CertifiedIndependent:
    __slots__ = ("pairs_checked", "members")

    def __init__(self, pairs_checked: int, members: list[HoroballMember]):
        self.pairs_checked = pairs_checked
        self.members = members


class CounterexamplePair:
    """Two horoball vertices carried to each other by a bad element."""

    __slots__ = ("y", "y_prime", "gamma")

    def __init__(self, y: Vertex, y_prime: Vertex, gamma: TreeAutomorphism):
        self.y = y
        self.y_prime = y_prime
        self.gamma = gamma


class FamilyCertificate:
    """Per cusp, the certificate that decides it, and the cross pair count.

    `singles[i]` is the certificate of the first cusp k of cusp i's group
    in `certify_independent_family`, whose horoball is conjugate to i's.
    The cusps of a group share it, and its members are k's horoball.
    """

    __slots__ = ("singles", "cross_pairs_checked")

    def __init__(self, singles: list[CertifiedIndependent], cross_pairs_checked: int):
        self.singles = singles
        self.cross_pairs_checked = cross_pairs_checked


class CuspsReport:
    __slots__ = ("algebraic", "matches", "bijective", "graph")

    def __init__(self, algebraic: list[CuspData], matches: list[tuple[int, int]], bijective: bool,
                 graph: "GraphOfGroups"):
        self.algebraic = algebraic
        self.matches = matches  # (cusp index, ray index)
        self.bijective = bijective
        self.graph = graph  # the quotient graph the rays were read from

    def radius_vertices(self) -> list[Vertex]:
        """Per cusp, its horoball's radius vertex: the carrier applied to (b, 0).

        b is the base level of the cusp's matched ray, or 1 when it has none.
        """
        ray_of = dict(self.matches)
        zero = LaurentSeries.zero(self.graph.lattice.field)
        return [
            cusp.carrier.act_vertex(
                Vertex(self.graph.tails[ray_of[i]][0] if i in ray_of else 1, zero)
            )
            for i, cusp in enumerate(self.algebraic)
        ]


class GraphOfGroups:
    """Finite quotient data with ray tails; see the module docstring.

    Level n holds `sizes[n]` vertex classes, numbered as the cosets of
    `CosetTable.vertex_partition(n)`; edge class j of level n joins vertex
    lower[j] at level n to upper[j] at level n + 1, (lower, upper) =
    `edge_ends[n]`, a `range` for the identity. `orders` reads the orders
    off `origin` and `steps` (see `_steps`). `tails` holds per ray (base
    level, vertex and edge numbers from the base up, certified). The records
    `vertices`, `edges` and `rays` are built when first read; a graph
    assigned them, as `contract`'s, holds no numbers, which `covolume` and
    the cusp readers need.
    """

    def __init__(self, lattice: NagaoLattice, depth: int, sizes=(), edge_ends=(), steps=(0, ())):
        self.lattice = lattice
        self.depth = depth
        self.sizes: list[int] = sizes
        self.edge_ends: list[tuple] = edge_ends
        self.origin, self.steps = steps
        self.tails: list[tuple] = []
        self.contracted = False

    def orders(self):
        """Per level, its vertex order and the order of the edges up from it (None at the top)."""
        order, q = self.origin, self.lattice.q
        for step in self.steps:
            edge, up = step or (order, q * order)
            yield order, edge
            order = up
        yield order, None

    def __getattr__(self, name):
        if name not in ("vertices", "edges", "rays") or "vertices" in vars(self):
            raise AttributeError(name)
        lattice, verts, edges = self.lattice, [], []  # per level, records by number
        orders = list(self.orders())
        for n, (size, (order, _)) in enumerate(zip(self.sizes, orders)):
            verts.append(
                [QuotientVertex(_vertex_id(lattice, n, k), n, k, order) for k in range(size)]
            )
        for n, ((lower, upper), (_, order)) in enumerate(zip(self.edge_ends, orders)):
            below, above = verts[n], verts[n + 1]
            edges.append([QuotientEdge(below[k], above[h], order) for k, h in zip(lower, upper)])
        self.vertices = {v.id: v for level in verts for v in level}
        self.edges = [e for level in edges for e in level]
        self.rays = [
            RayTail([verts[b + i][k] for i, k in enumerate(ks)],
                    [edges[b + i][j] for i, j in enumerate(js)], certified)
            for b, ks, js, certified in self.tails
        ]
        return getattr(self, name)

    # -- serialization -----------------------------------------------------------

    def _sorted(self):
        """Vertices and edges in the order both serializations print them."""
        verts = sorted(self.vertices.values(), key=lambda v: (v.order is None, v.level, v.id))
        edges = sorted(self.edges, key=lambda e: (e.v_from.id, e.v_to.id, e.order))
        return verts, edges

    def to_json_dict(self) -> dict:
        q = self.lattice.q
        verts, edges = self._sorted()
        vertex_list = [
            {
                "id": v.id,
                "level": v.level,
                "order": v.order if v.order is not None else "infinite",
                "q": q,
            }
            for v in verts
        ]
        edge_list = [
            {
                "from": e.v_from.id,
                "to": e.v_to.id,
                "edge_order": e.order,
                "idx_from": e.v_from.order // e.order,
                "idx_to": e.v_to.order // e.order if e.v_to.order is not None else "infinite",
            }
            for e in edges
        ]
        ray_list = [
            {
                "base": ray.vertices[0].id,
                "base_level": ray.vertices[0].level,
                "step_index": q,
                "certified": ray.certified,
                # a graph holds no cusps; `CuspsReport.matches` pairs them with rays
                "cusp": None,
            }
            for ray in self.rays
        ]
        return {
            "lattice": self.lattice.config(),
            "depth": self.depth,
            "contracted": self.contracted,
            "vertices": vertex_list,
            "edges": edge_list,
            "rays": ray_list,
        }

    def to_dot(self) -> str:
        lines = ["graph quotient {", "  node [shape=circle];"]
        verts, edges = self._sorted()
        for v in verts:
            if v.order is None:
                label = f"{v.id}\\ninfinite"
                lines.append(f'  "{v.id}" [shape=doublecircle, label="{label}"];')
            else:
                lines.append(f'  "{v.id}" [label="{v.id}\\n{v.order}"];')
        for e in edges:
            lines.append(f'  "{e.v_from.id}" -- "{e.v_to.id}" [label="{e.order}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _vertex_id(lattice: NagaoLattice, n: int, k: int) -> str:
    # the full lattice has one vertex class per level, named by the level alone
    return f"L{n}" if lattice.level_degree == 0 else f"L{n}C{k}"


def quotient_graph(lattice: NagaoLattice, depth: int) -> GraphOfGroups:
    """The quotient graph of groups down to the given level depth.

    The vertex classes at level n are the cosets of the residue image of
    the stabilizer of (n, 0), and the edge classes below them the cosets k
    of the edge stabilizer's image; edge k joins the classes holding it at
    levels n and n + 1, read off the partitions' number lists.
    """
    if depth < 1:
        raise InvalidInputError("quotient depth must be at least 1")
    table = lattice.coset_table()
    sizes = [len(table.vertex_partition(n)[1]) for n in range(depth + 1)]
    edge_ends = [
        (table.vertex_partition(n)[0], table.coset_partition(n + 1)[0]) for n in range(depth)
    ]
    G = GraphOfGroups(lattice, depth, sizes, edge_ends, _steps(lattice, depth))
    G.tails = _find_tails(G)
    return G


def _steps(lattice: NagaoLattice, depth: int) -> tuple[int, list]:
    """The vertex order at level 0 and per level n < depth its step up, reading each order once.

    A step is None where it passes the nested index-q test (the edge order is
    the vertex order, the next vertex order q times it), else the pair (edge
    order, next vertex order).
    """
    q, order = lattice.q, lattice.base_order(0)
    origin, steps = order, []
    for n in range(depth):
        up, edge = lattice.base_order(n + 1), lattice.edge_order(n)
        steps.append(None if up == q * order and edge == order else (edge, up))
        order = up
    return origin, steps


def _first_three_steps(ok: list[bool]) -> int | None:
    """The least k with steps k, k + 1 and k + 2 all ok."""
    return next((k for k in range(len(ok) - 2) if all(ok[k : k + 3])), None)


def _lone(numbers, size: int):
    """Per vertex k < size, the one j with numbers[j] == k, or -1 for none and -2 for several."""
    if type(numbers) is range:  # the identity: j = k alone
        return numbers
    lone = [-1] * size
    for j, k in enumerate(numbers):
        lone[k] = j if lone[k] == -1 else -2
    return lone


def _find_tails(G: GraphOfGroups) -> list[tuple]:
    """The `GraphOfGroups.tails` of a graph given by its numbers and steps.

    A chain goes down from each top vertex, all chains a level at a time,
    while the vertex has one down-edge and the vertex below it one up-edge.
    It is certified from the first of three consecutive passing steps, and
    every step above must pass too. Steps depend on the level alone, so the
    lowest chain's base b certifies every chain from max(b, its lowest
    level) on, if three steps remain.
    """
    sizes, edge_ends, depth = G.sizes, G.edge_ends, G.depth
    tops = sorted(range(sizes[depth]), key=lambda k: _vertex_id(G.lattice, depth, k))
    down = _lone(edge_ends[-1][1], sizes[depth])
    chains = [([k], []) for k in tops if down[k] >= 0]  # numbers from the top down
    walking, n = chains, depth
    while walking and n:
        lower, still = edge_ends[n - 1][0], []
        up = _lone(lower, sizes[n - 1])
        for ks, js in walking:
            j = down[ks[-1]]
            if j >= 0 and up[lower[j]] >= 0:
                ks.append(lower[j])
                js.append(j)
                still.append((ks, js))
        walking, n = still, n - 1
        if walking and n:
            down = _lone(edge_ends[n - 1][1], sizes[n])
    low = depth - max((len(js) for _, js in chains), default=0)
    ok = [step is None for step in G.steps[low:]]
    first = _first_three_steps(ok)
    if first is not None and not all(ok[first:]):
        raise NonterminationGuard("certified tail pattern broke inside the enumerated range")
    tails = []
    for ks, js in chains:
        n = depth - len(js)
        base = n if first is None else max(n, low + first)
        certified = first is not None and depth - base >= 3
        tails.append((base, ks[::-1][base - n :], js[::-1][base - n :], certified))
    return tails


# -- covolume ---------------------------------------------------------------------


def covolume(G: GraphOfGroups) -> CovolumeResult:
    """Exact covolume: finite edge sum plus certified geometric tails.

    Every edge contributes 1/|edge group|; a certified tail contributes
    the closed form q / (c (q - 1)) where c is the order at its first
    edge. Edge orders depend on the level alone, so the edges outside the
    tails count once per level. Raises UncertifiedTail when some ray is
    not certified at this depth, or when some vertex at the top depth
    heads no ray: at depths below deg f no top vertex has a single
    down-edge, and the graph holds no tail yet.
    """
    if G.contracted:
        raise InvalidInputError("covolume is computed on the uncontracted graph")
    lattice, depth, q = G.lattice, G.depth, G.lattice.q
    for base, ks, _, certified in G.tails:
        if not certified:
            raise UncertifiedTail(
                f"ray at {_vertex_id(lattice, base, ks[0])} lacks three nested index-q steps; "
                f"increase the depth"
            )
    if len(G.tails) < G.sizes[depth]:  # each top vertex heads at most one ray
        heads = {ks[-1] for _, ks, _, _ in G.tails}
        k = next(k for k in range(G.sizes[depth]) if k not in heads)
        raise UncertifiedTail(
            f"vertex {_vertex_id(lattice, depth, k)} at depth {depth} heads no ray; "
            f"increase the depth"
        )
    # a tail holds one edge of each level from its base up
    bases, in_tails, core, parts = Counter(base for base, *_ in G.tails), 0, Fraction(0), {}
    for n, ((lower, _), (_, edge)) in enumerate(zip(G.edge_ends, G.orders())):
        in_tails += bases[n]
        if len(lower) > in_tails:  # a Fraction per level costs more than the rest of the loop
            core += Fraction(len(lower) - in_tails, edge)
        if n in bases:
            parts[n] = Fraction(q, edge * (q - 1))
    total = sum((count * parts[base] for base, count in bases.items()), core)
    return CovolumeResult(total=total, core_part=core, tail_parts=[parts[b] for b, *_ in G.tails])


# -- cusp reporting ------------------------------------------------------------------


def _match_cusps_to_rays(G: GraphOfGroups) -> list[tuple[int, int]]:
    """(cusp index, ray index) for each cusp that lands in exactly one ray.

    A ray is read at the first of its levels where the vertex partition is
    the one of the end stabilizer, `coset_partition(read)` for every level
    from `read` = max(deg f - 1, 1) on; a ray that ends below `read` is not
    read. That partition numbers the cusps too (both are the cosets of
    B_(deg f - 1)), so cusp i belongs to the ray whose vertex there has
    coset number i.
    """
    read = max(G.lattice.level_degree - 1, 1)
    rays_at: dict[int, list[int]] = {}  # coset number at the read level -> its rays
    for ri, (base, cosets, _, _) in enumerate(G.tails):
        step = max(read - base, 0)
        if step < len(cosets):
            rays_at.setdefault(cosets[step], []).append(ri)
    return [(ci, hits[0]) for ci, hits in sorted(rays_at.items()) if len(hits) == 1]


def cusps_report(lattice: NagaoLattice, depth: int) -> CuspsReport:
    """Match the algebraic cusp list against the geometric ray tails."""
    G = quotient_graph(lattice, depth)
    cusps = lattice.cusp_representatives()
    matches = _match_cusps_to_rays(G)
    # the matches pair distinct cusps with distinct rays
    bijective = len(matches) == len(cusps) == len(G.tails) and all(c for *_, c in G.tails)
    return CuspsReport(algebraic=cusps, matches=matches, bijective=bijective, graph=G)


def growth_probe(lattice: NagaoLattice, end: End, depth: int) -> GrowthProbe:
    """Stabilizer orders along the geodesic from the origin toward an end.

    Walks k = 0..depth, recording the order and the reduced level of each
    vertex; the entry radius is the first k from which three consecutive
    steps multiply the order by exactly q while the reduced level climbs
    by 1. For a truncated end the walk stops at its known depth.
    """
    if depth < 0:
        raise InvalidInputError("probe depth must be >= 0")
    tree = lattice.tree
    orders: list[int] = []
    levels: list[int] = []
    truncated_at = None
    x = tree.base
    for k in range(depth + 1):
        red = lattice.reduce_vertex(x)
        orders.append(lattice.base_order(red.level))
        levels.append(red.level)
        if k == depth:
            break
        try:
            x = tree.step_to_end(x, end)
        except EndPrecisionExhausted:
            truncated_at = k
            break
    ok = [
        hi == lattice.q * lo and up == down + 1
        for lo, hi, down, up in zip(orders, orders[1:], levels, levels[1:])
    ]
    entry = _first_three_steps(ok)
    return GrowthProbe(orders, levels, entry_radius=entry, truncated_at=truncated_at)


# -- horoball certification ------------------------------------------------------------


class _TransporterAlgebra:
    """Shared closed-form machinery for transporter cosets.

    For vertices y, y' with the same normal form (n, 0), the lattice
    elements carrying y to y' form the coset w'^{-1} S w where S is the
    stabilizer of (n, 0) and w, w' are the reduction witnesses. The
    residue h0 = r' r^{-1} of w' w^{-1}, with r, r' the residues of the
    witnesses, picks out the members of the full stabilizer of (n, 0) that
    can occur in S; over the zero ring (the full lattice) all of them can.
    Some member occurs exactly when h0 lies in the image V of that
    stabilizer, that is when r^{-1} V = r'^{-1} V: y and y' share a vertex
    of the quotient graph.

    The cusp end is the vector v, the first column of the cusp's carrier.
    A transporter w'^{-1} u w fixes it exactly when u w v is proportional
    to w' v, that is when det(w' v, u w v) = 0; for n >= 1 that
    determinant is linear in the offset of u.

    Everything that depends on one vertex is computed once per vertex:
    `member` reduces it and takes its residue, its quotient vertex and its
    image w v of the cusp's vector. A pair within a quotient vertex then
    costs one product in the residue group and a few series products; a
    pair across two quotient vertices has no transporter and costs nothing.

    Transporter sets compose: with T(y, y') the lattice elements carrying
    y to y', T(y, y') = T(y1, y') T(y1, y)^{-1} for any y1 of the same
    quotient vertex, and products and inverses of elements fixing the end
    fix it. So every transporter within a quotient vertex fixes the end
    exactly when every transporter from one of its members does, and a
    quotient vertex is decided by one `moving_transporter` call per member.
    Asked with no end, the same search returns the first transporter of the
    family; the cross check of two horoballs builds its counterexample so,
    and every transporter returned passes the checks of `_finish`.
    """

    def __init__(self, lattice: NagaoLattice):
        self.lattice = lattice
        self.F = lattice.field
        self.table = lattice.coset_table()
        self.ring = self.table.ring

    def member(self, y: Vertex, cusp: CuspData) -> HoroballMember:
        red = self.lattice.reduce_vertex(y)
        w, c = red.witness, cusp.carrier
        # the witness is a product of polynomial shears and half turns, so its
        # determinant is 1 and `CosetTable.reduce` need not check it again
        residue = tuple(map(self.ring.reduce, w.entries()))
        numbers, _ = self.table.vertex_partition(red.level)
        image = _fused(w.a, c.a, w.b, c.c), _fused(w.c, c.a, w.d, c.c)
        coset = numbers[self.table.coset_number(self.table.inverse(residue), red.level)]
        return HoroballMember(y, red, residue, image, (red.level, coset))

    def moving_transporter(self, end: End | None, y: HoroballMember, yp: HoroballMember):
        """A transporter from y to y' that moves the end, or None if all fix it.

        With (s1, s2) the source's image w v and (t1, t2) the target's
        w' v, a transporter w'^{-1} u w moves the end exactly when
        det(w' v, u w v) = t1 (u.c s1 + u.d s2) - t2 (u.a s1 + u.b s2) is
        nonzero. With no end, the first transporter of the family, or None
        when y and y' share no quotient vertex.
        """
        family = self._family(y, yp)
        if family is None:
            return None
        (s1, s2), (t1, t2) = y.image, yp.image
        if y.reduced.level == 0:
            for u in family:
                top, bottom = _fused(u.a, s1, u.b, s2), _fused(u.c, s1, u.d, s2)
                if end is None or _fused(t1, bottom, t2, top, minus=True).has_terms():
                    return self._finish(end, y, yp, u)
            return None
        # for u = [[alpha, b], [0, alpha^-1]] the determinant is rest - b*t2*s2
        # with rest = alpha^{-1}*t1*s2 - alpha*t2*s1, linear in b: if some
        # b = b0 + f*c exposes it, b0 or b0 + f does, with the unit
        # `_upper_family` picks
        alpha, offsets = family
        rest = _fused(t1.scale(alpha.inverse()), s2, t2.scale(alpha), s1, minus=True)
        B = t2 * s2
        for b in offsets:
            if end is None or _fused(rest, None, b, B, minus=True).has_terms():
                return self._finish(end, y, yp, _upper(self.F, alpha, b))
        return None

    # -- internals ------------------------------------------------------------

    def _family(self, y, yp):
        """The members of S that can occur over the residue h0 of w' w^{-1}, or None.

        At level 0 the list of constant matrices with image h0, above it
        the `_upper_family` of h0.
        """
        h0 = self.table.matmul(yp.residue, self.table.inverse(y.residue))
        n = y.reduced.level
        if n == 0:
            return self.table.constant_lifts().get(h0)
        return self._upper_family(h0, n)

    def _finish(self, end, y, yp, u):
        gamma = yp.reduced.witness.adjugate() * u * y.reduced.witness
        if gamma.act_vertex(y.vertex) != yp.vertex:
            raise NonterminationGuard("transporter algebra produced a non-transporter")
        if end is not None and gamma.fixes_end(end):
            raise NonterminationGuard("counterexample construction fixed the end")
        if not self.lattice.contains(gamma):
            raise NonterminationGuard("counterexample fell outside the lattice")
        return gamma

    def _upper_family(self, h0, n):
        """(alpha, offsets) for the stabilizer of (n, 0) over h0, or None.

        The members of the stabilizer of (n, 0) inside the residue coset h0
        are [[alpha, b0 + f*c], [0, alpha^-1]] with alpha a constant unit of
        matching image and deg(b0 + f*c) <= n. The offsets are b0, and
        b0 + f when n >= deg f. Only the first matching unit of `F.units()`
        is returned (`CosetTable.diagonal_units`): over the zero ring all
        q - 1 match, but if the determinant rest - b*t2*s2 vanishes at both
        offsets for one alpha then t2*s2 = 0, so rest is alpha^{-1}*t1*s2
        or -alpha*t2*s1 and vanishes for every alpha; with one offset
        (n < deg f) constants inject into R and one alpha matches.
        """
        ring = self.ring
        a_bar, b_bar, c_bar, d_bar = h0
        if c_bar != ring.zero:
            return None
        alpha = self.table.diagonal_units().get((a_bar, d_bar))
        b0 = ring.lift(b_bar)
        if alpha is None or t_degree(b0) > n:
            return None
        if n < self.lattice.level_degree:
            return alpha, (b0,)
        return alpha, (b0, b0 + self.lattice.level)


def _grouped(items, key) -> dict:
    """Items by key, each group in the items' order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def _members(lattice, algebra, cusp, radius_vertex, truncation) -> list[HoroballMember]:
    """The truncated horoball at the cusp's end through `radius_vertex`, as members."""
    # the horoellipse of eccentricity 1 is the horoball, busemann >= 0
    horoball = lattice.tree.horoellipse_vertices(cusp.end, radius_vertex, Fraction(1), truncation)
    return [algebra.member(y, cusp) for y in horoball]


def certify_independent_horoball(
    lattice: NagaoLattice,
    cusp: CuspData,
    radius_vertex: Vertex,
    truncation: int,
):
    """Check a truncated horoball against all lattice transporters.

    Enumerates the horoball at the cusp end through `radius_vertex` out
    to the truncation distance, and for every ordered pair of members
    with the same normal form requires that every lattice element
    carrying one to the other fixes the end. Such an element exists only
    within a quotient vertex. Within one, T(y, y') = T(y1, y') T(y1, y)^{-1}
    for its first member y1, so all its pairs pass exactly when the star
    of pairs (y1, y') does: one transporter check per member decides every
    pair, and every same-level pair counts as checked.

    Returns a certificate or the first violating pair in the order of the
    pairs (y, y'): levels by first member, then members, then members of
    y's quotient vertex. A member after y1 has a violating pair only if y1
    has one, so the first violating pair is the first failure of the first
    failing star, taken level by level and within a level by first member.
    """
    if truncation < 0:
        raise InvalidInputError(f"horoball truncation must be >= 0, got {truncation}")
    algebra = _TransporterAlgebra(lattice)
    members = _members(lattice, algebra, cusp, radius_vertex, truncation)
    levels = _grouped(members, lambda m: m.reduced.level)
    for group in levels.values():
        for cls in _grouped(group, lambda m: m.quotient_vertex).values():
            y = cls[0]
            for yp in cls:
                gamma = algebra.moving_transporter(cusp.end, y, yp)
                if gamma is not None:
                    return CounterexamplePair(y=y.vertex, y_prime=yp.vertex, gamma=gamma)
    return CertifiedIndependent(
        pairs_checked=sum(len(group) ** 2 for group in levels.values()),
        members=members,
    )


def certify_independent_family(
    lattice: NagaoLattice,
    cusps: list[CuspData],
    radius_vertices: list[Vertex],
    truncation: int,
):
    """Certify each cusp's horoball and their pairwise disjointness.

    Certifies one horoball per orbit and derives the rest by conjugation.
    The lattice is normal in SL2(F_q[t]): the full lattice is the whole
    group and a congruence lattice is the kernel of reduction mod its
    level. So for g in SL2(F_q[t]) the lattice elements carrying g y to
    g y' are g T(y, y') g^{-1}, and they fix g e exactly when T(y, y')
    fixes e. Cusp i's horoball is c_i applied to the horoball at the zero
    end through adj(c_i) x_i, c_i its carrier and x_i its radius vertex,
    so cusps with the same adj(c_i) x_i form a group whose horoballs are
    g = c_i c_k^{-1} applied to the horoball of its first cusp k. Only k
    is certified; every cusp of the group passes or fails with it, so the
    first failing cusp is the first cusp of a group and its counterexample
    the first one. Nagao levels are SL2(F_q[t])-invariant, so cusp i has
    the pairs and level counts of cusp k, and `singles[i]` is the
    certificate of k. The quotient vertex of g y is (n, coset of
    gbar r^{-1}), n and r the level and residue of y and gbar the residue
    of g. Multiplying by gbar on the left permutes the cosets of a level,
    so cusp i's quotient vertices are k's moved by gbar: one residue
    product per quotient vertex, and no vertex reduction.

    On top of the per-cusp check, distinct horoballs must not meet under
    the lattice: any member carrying a vertex of one truncated horoball
    to a vertex of another is a violation. Such a member exists exactly
    when the two vertices share a quotient vertex, so the cross check
    compares the horoballs' sets of quotient vertices. For the first
    ordered pair (i, j) whose sets meet it enumerates both horoballs and
    builds a transporter from the first member of i at a quotient vertex
    of j to the first member of j there. Every ordered same-level pair
    across two horoballs counts as checked.
    """
    if len(cusps) != len(radius_vertices):
        raise InvalidInputError("one radius vertex per cusp is required")
    table = lattice.coset_table()
    groups = _grouped(
        range(len(cusps)),
        lambda i: cusps[i].carrier.adjugate().act_vertex(radius_vertices[i]),
    )
    singles = [None] * len(cusps)
    reached = [None] * len(cusps)  # per cusp, the quotient vertices of its horoball
    for k, *others in groups.values():
        single = certify_independent_horoball(lattice, cusps[k], radius_vertices[k], truncation)
        if isinstance(single, CounterexamplePair):
            return single
        singles[k] = single
        reached[k] = {m.quotient_vertex for m in single.members}
        back = table.inverse(table.reduce(cusps[k].carrier))
        for i in others:
            g = table.matmul(table.reduce(cusps[i].carrier), back)
            singles[i], reached[i] = single, set()
            for n, coset in reached[k]:
                numbers, least = table.vertex_partition(n)
                reached[i].add((n, numbers[table.coset_number(table.matmul(g, least[coset]), n)]))
    for i, j in itertools.permutations(range(len(cusps)), 2):
        if not reached[i].isdisjoint(reached[j]):
            return _cross_counterexample(lattice, cusps, radius_vertices, truncation, i, j)
    counts = [Counter(m.reduced.level for m in single.members) for single in singles]
    same_level = sum(counts, Counter())
    cross = sum(c * c for c in same_level.values()) - sum(
        c * c for count in counts for c in count.values()
    )
    return FamilyCertificate(singles=singles, cross_pairs_checked=cross)


def _cross_counterexample(lattice, cusps, radius_vertices, truncation, i, j):
    """The lattice element carrying the first member of horoball i at a
    quotient vertex of horoball j to the first member of j there."""
    algebra = _TransporterAlgebra(lattice)
    mine, theirs = (
        _members(lattice, algebra, cusps[h], radius_vertices[h], truncation) for h in (i, j)
    )
    first = {}
    for m in theirs:
        first.setdefault(m.quotient_vertex, m)
    y = next((m for m in mine if m.quotient_vertex in first), None)
    if y is None:
        raise NonterminationGuard("conjugated quotient vertices missed the horoball")
    yp = first[y.quotient_vertex]
    gamma = algebra.moving_transporter(None, y, yp)
    if gamma is None:
        raise NonterminationGuard("cross transporter failed to check")
    return CounterexamplePair(y=y.vertex, y_prime=yp.vertex, gamma=gamma)


# -- contraction ------------------------------------------------------------------------


def contract(G: GraphOfGroups) -> GraphOfGroups:
    """Collapse every certified ray tail, from its base on, into a cusp vertex.

    Uncertified rays survive on the copies of their vertices and edges, so
    a graph without a certified ray contracts to an identical copy.
    """
    out = GraphOfGroups(G.lattice, G.depth)
    out.contracted, out.vertices = True, {}
    image = {}  # old vertex -> its copy, or the cusp vertex of the certified tail holding it
    for i, ray in enumerate(G.rays):
        if ray.certified:
            cusp = QuotientVertex(f"cusp{i}", ray.vertices[0].level, None, None)
            out.vertices[cusp.id] = cusp
            image.update(dict.fromkeys(ray.vertices, cusp))
    for v in G.vertices.values():
        if v not in image:
            image[v] = out.vertices[v.id] = QuotientVertex(v.id, v.level, v.coset, v.order)
    # an edge into a tail now ends at its cusp; edges inside a tail disappear with it
    copies = {}  # old edge -> its copy
    for e in G.edges:
        lo, hi = image[e.v_from], image[e.v_to]
        if lo.order is None and hi.order is None:
            continue
        if lo.order is None:
            lo, hi = hi, lo  # the cusp goes at v_to
        copies[e] = QuotientEdge(lo, hi, e.order)
    out.edges = list(copies.values())
    out.rays = [
        RayTail([image[v] for v in ray.vertices], [copies[e] for e in ray.edges], False)
        for ray in G.rays if not ray.certified
    ]
    return out
