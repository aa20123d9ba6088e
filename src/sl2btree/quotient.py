"""Quotient graphs of groups, covolumes, and cusp geometry.

`quotient_graph` materializes the quotient of the tree by a lattice down
to a chosen depth: finitely many vertex and edge classes, each carrying
the order of its stabilizer, plus the detected ray tails going off to
infinity. Tails whose stabilizer towers are verified to grow by a factor
of q for three consecutive nested steps are *certified*: beyond that the
tower provably continues, which turns the infinite part of the covolume
sum into the exact closed form q / (c (q - 1)).

The rest of the module covers the cusp side: matching algebraic cusp
representatives to geometric rays (`cusps_report`), probing stabilizer
growth along an arbitrary end (`growth_probe`), certifying that a
truncated horoball meets its lattice translates only through elements
fixing the end (`certify_independent_horoball`), collapsing certified
tails into symbolic cusp vertices (`contract`), and reading off a free
product decomposition when all finite pieces are trivial
(`free_product_report`).
"""

from collections import Counter
from dataclasses import dataclass, replace
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
from .tree import End, Vertex


@dataclass
class QuotientVertex:
    id: str
    level: int
    coset: int | None  # coset number in the level's partition; None for a cusp vertex
    order: int | None  # None marks a symbolic cusp vertex (infinite order)
    is_cusp: bool = False
    cusp: CuspData | None = None


@dataclass
class QuotientEdge:
    v_from: str  # lower level
    v_to: str  # higher level (or a cusp vertex)
    order: int


@dataclass
class RayTail:
    """A certified-or-not chain of vertex classes heading to infinity."""

    vertex_ids: list[str]
    levels: list[int]
    edge_indices: list[int]  # edges between consecutive chain vertices
    base_level: int
    step_index: int
    certified: bool
    cusp_index: int | None = None


@dataclass
class CovolumeResult:
    total: Fraction
    core_part: Fraction
    tail_parts: list[Fraction]

    def __str__(self) -> str:
        return f"{self.total.numerator}/{self.total.denominator}"


@dataclass
class GrowthProbe:
    orders: list[int]
    reduced_levels: list[int]
    entry_radius: int | None
    step_index: int
    truncated_at: int | None = None


@dataclass(slots=True, eq=False)
class HoroballMember:
    """A horoball vertex with its normal form, witness residue and quotient vertex.

    `residue` is the image r of `reduced.witness` in the residue group.
    `quotient_vertex` is (n, k) for the vertex L{n}C{k} of the quotient
    graph that the vertex maps to: n is its reduced level and k the coset
    number of r^{-1} in the partition of `vertex_image(n)`.
    """

    vertex: Vertex
    reduced: ReducedVertex
    residue: tuple
    residue_inverse: tuple
    quotient_vertex: tuple[int, int]


@dataclass
class CertifiedIndependent:
    cusp: CuspData
    radius_vertex: Vertex
    truncation: int
    vertices_checked: int
    pairs_checked: int
    members: list[HoroballMember]


@dataclass
class CounterexamplePair:
    """Two horoball vertices carried to each other by a bad element."""

    y: Vertex
    y_prime: Vertex
    gamma: TreeAutomorphism


@dataclass
class FamilyCertificate:
    singles: list[CertifiedIndependent]
    cross_pairs_checked: int


@dataclass
class CuspsReport:
    algebraic: list[CuspData]
    ray_count: int
    matches: list[tuple[int, int]]  # (cusp index, ray index)
    bijective: bool
    graph: "GraphOfGroups"  # the quotient graph the rays were read from


@dataclass
class FreeProductReport:
    applicable: bool
    cusp_factor_count: int
    free_rank: int
    reason: str


class GraphOfGroups:
    """Finite quotient data with ray tails; see the module docstring."""

    def __init__(self, lattice: NagaoLattice, depth: int):
        self.lattice = lattice
        self.field = lattice.field
        self.depth = depth
        self.vertices: dict[str, QuotientVertex] = {}
        self.edges: list[QuotientEdge] = []
        self.rays: list[RayTail] = []
        self.contracted = False

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        q = self.field.q
        verts = sorted(
            self.vertices.values(), key=lambda v: (v.is_cusp, v.level, v.id)
        )
        vertex_list = [
            {
                "id": v.id,
                "level": v.level,
                "order": v.order if v.order is not None else "infinite",
                "q": q,
            }
            for v in verts
        ]
        edge_list = []
        for e in sorted(self.edges, key=lambda e: (e.v_from, e.v_to, e.order)):
            fro, to = self.vertices[e.v_from], self.vertices[e.v_to]
            edge_list.append(
                {
                    "from": e.v_from,
                    "to": e.v_to,
                    "edge_order": e.order,
                    "idx_from": (
                        fro.order // e.order if fro.order is not None else "infinite"
                    ),
                    "idx_to": (
                        to.order // e.order if to.order is not None else "infinite"
                    ),
                }
            )
        ray_list = [
            {
                "base": ray.vertex_ids[0],
                "base_level": ray.base_level,
                "step_index": ray.step_index,
                "certified": ray.certified,
                "cusp": ray.cusp_index,
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
        for v in sorted(self.vertices.values(), key=lambda v: (v.is_cusp, v.level, v.id)):
            if v.is_cusp:
                label = f"{v.id}\\ninfinite"
                lines.append(f'  "{v.id}" [shape=doublecircle, label="{label}"];')
            else:
                lines.append(f'  "{v.id}" [label="{v.id}\\n{v.order}"];')
        for e in sorted(self.edges, key=lambda e: (e.v_from, e.v_to, e.order)):
            lines.append(f'  "{e.v_from}" -- "{e.v_to}" [label="{e.order}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _vertex_id(lattice: NagaoLattice, n: int, k: int) -> str:
    # the full lattice has one vertex class per level, named by the level alone
    return f"L{n}" if lattice.level_degree == 0 else f"L{n}C{k}"


def quotient_graph(lattice: NagaoLattice, depth: int) -> GraphOfGroups:
    """The quotient graph of groups down to the given level depth.

    The vertex classes at level n are the cosets of the residue image of
    the stabilizer of (n, 0), and the edge classes below them the cosets
    of the edge stabilizer's image; an edge joins the classes holding its
    coset's least member.
    """
    if depth < 1:
        raise InvalidInputError("quotient depth must be at least 1")
    G = GraphOfGroups(lattice, depth)
    table = lattice.coset_table()
    levels = []  # per level, ({member: coset number}, [vertex id by coset number])
    for n in range(depth + 1):
        numbering, least = table.coset_partition(table.vertex_image(n))
        ids = [_vertex_id(lattice, n, k) for k in range(len(least))]
        levels.append((numbering, ids))
        order = lattice.base_order(n)
        for k, vid in enumerate(ids):
            G.vertices[vid] = QuotientVertex(id=vid, level=n, coset=k, order=order)
    for n in range(depth):
        _, least = table.coset_partition(table.edge_image(n))
        (lower, lower_ids), (upper, upper_ids) = levels[n], levels[n + 1]
        order = lattice.edge_order(n)
        G.edges.extend(
            QuotientEdge(lower_ids[lower[m]], upper_ids[upper[m]], order) for m in least
        )
    _detect_rays(G)
    return G


def _detect_rays(G: GraphOfGroups) -> None:
    """Find the chains going to the top depth and certify their tails.

    A chain is walked down from each deepest vertex while the edges are
    one-to-one; the base then slides up until three consecutive steps
    multiply the stabilizer order by exactly q with the edge group equal
    to the lower vertex group (the nested index-q condition). Once those
    three steps certify, the rest of the enumerated chain is required to
    continue the pattern.
    """
    q = G.field.q
    down_edges: dict[str, list[int]] = {}
    up_edges: dict[str, list[int]] = {}
    for i, e in enumerate(G.edges):
        up_edges.setdefault(e.v_from, []).append(i)
        down_edges.setdefault(e.v_to, []).append(i)
    tops = sorted(
        (v.id for v in G.vertices.values() if v.level == G.depth),
    )
    for top in tops:
        chain = [top]
        chain_edges: list[int] = []
        cur = top
        while True:
            dn = down_edges.get(cur, [])
            if len(dn) != 1:
                break
            edge = G.edges[dn[0]]
            lower = edge.v_from
            if len(up_edges.get(lower, [])) != 1:
                chain.append(lower)
                chain_edges.append(dn[0])
                break
            chain.append(lower)
            chain_edges.append(dn[0])
            cur = lower
        chain.reverse()
        chain_edges.reverse()
        # If the walk stopped because of branching below, the branch point
        # itself cannot be part of the tail.
        if chain and len(up_edges.get(chain[0], [])) != 1:
            chain = chain[1:]
            chain_edges = chain_edges[1:]
        if not chain:
            continue

        def step_ok(i: int) -> bool:
            lo = G.vertices[chain[i]]
            hi = G.vertices[chain[i + 1]]
            e = G.edges[chain_edges[i]]
            return hi.order == q * lo.order and e.order == lo.order

        base_idx = 0
        while base_idx + 3 <= len(chain) - 1 and not all(
            step_ok(base_idx + j) for j in range(3)
        ):
            base_idx += 1
        certified = base_idx + 3 <= len(chain) - 1 and all(
            step_ok(base_idx + j) for j in range(3)
        )
        if certified:
            for j in range(base_idx, len(chain) - 1):
                if not step_ok(j):
                    raise NonterminationGuard(
                        "certified tail pattern broke inside the enumerated range"
                    )
            ids = chain[base_idx:]
            eidx = chain_edges[base_idx:]
        else:
            ids = chain
            eidx = chain_edges
        G.rays.append(
            RayTail(
                vertex_ids=ids,
                levels=[G.vertices[v].level for v in ids],
                edge_indices=eidx,
                base_level=G.vertices[ids[0]].level,
                step_index=q,
                certified=certified,
            )
        )


# -- covolume ---------------------------------------------------------------------


def covolume(G: GraphOfGroups) -> CovolumeResult:
    """Exact covolume: finite edge sum plus certified geometric tails.

    Every edge contributes 1/|edge group|; a certified tail contributes
    the closed form q / (c (q - 1)) where c is the order at its first
    edge. Raises UncertifiedTail when some ray is not certified at this
    depth.
    """
    if G.contracted:
        raise InvalidInputError("covolume is computed on the uncontracted graph")
    q = G.field.q
    tail_edge_set = set()
    tails = []
    for ray in G.rays:
        if not ray.certified:
            raise UncertifiedTail(
                f"ray at {ray.vertex_ids[0]} lacks three nested index-q steps; "
                f"increase the depth"
            )
        tail_edge_set.update(ray.edge_indices)
        c = G.edges[ray.edge_indices[0]].order
        tails.append(Fraction(q, c * (q - 1)))
    # one term per distinct edge order: count/order sums the same 1/order terms
    per_order = Counter(
        e.order for i, e in enumerate(G.edges) if i not in tail_edge_set
    )
    core = sum(
        (Fraction(count, order) for order, count in per_order.items()), Fraction(0)
    )
    total = core + sum(tails, Fraction(0))
    return CovolumeResult(total=total, core_part=core, tail_parts=tails)


# -- cusp reporting ------------------------------------------------------------------


def _match_cusps_to_rays(
    G: GraphOfGroups, cusps: list[CuspData]
) -> list[tuple[int, int]]:
    """(cusp index, ray index) for each cusp whose carrier lands in exactly one ray.

    A ray is read at the first level where the vertex partition is the
    one of the end stabilizer; the cusp belongs to the ray whose vertex
    coset there holds the residue of the cusp's carrier.
    """
    table = G.lattice.coset_table()
    stable = G.lattice.level_degree - 1
    matches = []
    for ci, cusp in enumerate(cusps):
        m = table.reduce(cusp.conjugator.adjugate())
        hits = []
        for ri, ray in enumerate(G.rays):
            level = max(ray.base_level, stable, 1)
            if level not in ray.levels:
                continue
            vertex = G.vertices[ray.vertex_ids[ray.levels.index(level)]]
            coset_of, _ = table.coset_partition(table.vertex_image(level))
            if coset_of[m] == vertex.coset:
                hits.append(ri)
        if len(hits) == 1:
            matches.append((ci, hits[0]))
    return matches


def cusps_report(lattice: NagaoLattice, depth: int) -> CuspsReport:
    """Match the algebraic cusp list against the geometric ray tails."""
    G = quotient_graph(lattice, depth)
    cusps = lattice.cusp_representatives()
    matches = _match_cusps_to_rays(G, cusps)
    for ci, ri in matches:
        G.rays[ri].cusp_index = ci
    bijective = (
        len(matches) == len(cusps) == len(G.rays)
        and len({ci for ci, _ in matches}) == len(cusps)
        and len({ri for _, ri in matches}) == len(G.rays)
        and all(ray.certified for ray in G.rays)
    )
    return CuspsReport(
        algebraic=cusps,
        ray_count=len(G.rays),
        matches=matches,
        bijective=bijective,
        graph=G,
    )


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
    entry = None
    for k in range(len(orders) - 3):
        if all(
            orders[k + j + 1] == lattice.q * orders[k + j]
            and levels[k + j + 1] == levels[k + j] + 1
            for j in range(3)
        ):
            entry = k
            break
    return GrowthProbe(
        orders=orders,
        reduced_levels=levels,
        entry_radius=entry,
        step_index=lattice.q,
        truncated_at=truncated_at,
    )


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
    of the quotient graph. Whether every member fixes a cusp end reduces,
    for n >= 1, to linear conditions on three series A, B, C built from
    the witnesses and the end conjugator.

    Everything that depends on one vertex is computed once per vertex:
    `member` reduces it and takes its residue, the residue's inverse and
    its quotient vertex, `conjugated` takes the four entries of its
    witness times the end conjugator that a pair reads. A pair within a
    quotient vertex then costs one product in the residue group and a few
    series products; a pair across two quotient vertices has no
    transporter and costs nothing.
    """

    def __init__(self, lattice: NagaoLattice):
        self.lattice = lattice
        self.F = lattice.field
        self.table = lattice.coset_table()
        self.ring = self.table.ring

    def member(self, y: Vertex) -> HoroballMember:
        red = self.lattice.reduce_vertex(y)
        residue = self.table.reduce(red.witness)
        inverse = self.table.inverse(residue)
        coset_of, _ = self.table.coset_partition(self.table.vertex_image(red.level))
        return HoroballMember(y, red, residue, inverse, (red.level, coset_of[inverse]))

    def conjugated(self, members: list[HoroballMember], cusp: CuspData):
        """((P.c, P.d), (Q.a, Q.c)) for P = conj w^{-1}, Q = w conj^{-1}.

        w is each member's witness and conj the cusp's end conjugator; a
        pair reads no other entry of P or Q. In a pair, P is read from the
        target y' and Q from the source y.
        """
        g = cusp.conjugator
        out = []
        for m in members:
            w = m.reduced.witness
            P = (g.c * w.d - g.d * w.c, g.d * w.a - g.c * w.b)
            Q = (w.a * g.d - w.b * g.c, w.c * g.d - w.d * g.c)
            out.append((P, Q))
        return out

    def moving_transporter(self, end: End, y, Q, yp, P):
        """A transporter from y to y' that moves the end, or None if all fix it.

        Q is the source's and P the target's half of `conjugated`. A
        transporter w'^{-1} u w moves the end exactly when the bottom-left
        entry of P u Q, P.c (u.a Q.a + u.b Q.c) + P.d (u.c Q.a + u.d Q.c),
        is nonzero.
        """
        family = self._family(y, yp)
        if family is None:
            return None
        (Pc, Pd), (Qa, Qc) = P, Q
        if y.reduced.level == 0:
            for u in family:
                if (Pc * (u.a * Qa + u.b * Qc) + Pd * (u.c * Qa + u.d * Qc)).has_terms():
                    return self._finish(end, y, yp, u)
            return None
        # for u = [[alpha, b], [0, alpha^-1]] the entry is
        # alpha*A + b*B + alpha^{-1}*C, linear in b: if some b = b0 + f*c
        # exposes it, b0 or b0 + f does, with the unit `_upper_family` picks
        A = Pc * Qa
        B = Pc * Qc
        C = Pd * Qc
        alpha, offsets = family
        for b in offsets:
            if (A.scale(alpha) + b * B + C.scale(alpha.inverse())).has_terms():
                return self._finish(end, y, yp, _upper(self.F, alpha, b))
        return None

    def transporter(self, y: HoroballMember, yp: HoroballMember):
        """Some lattice element carrying y to y', if one exists."""
        family = self._family(y, yp)
        if family is None:
            return None
        if y.reduced.level == 0:
            u = family[0]
        else:
            alpha, (b, *_) = family
            u = _upper(self.F, alpha, b)
        return self._carrier(y, yp, u)

    # -- internals ------------------------------------------------------------

    def _family(self, y, yp):
        """The members of S that can occur over the residue h0 of w' w^{-1}, or None.

        At level 0 the list of constant matrices with image h0, above it
        the `_upper_family` of h0.
        """
        h0 = self.table.matmul(yp.residue, y.residue_inverse)
        n = y.reduced.level
        if n == 0:
            return self.table.constant_lifts().get(h0)
        return self._upper_family(h0, n)

    def _carrier(self, y, yp, u):
        return yp.reduced.witness.adjugate() * u * y.reduced.witness

    def _finish(self, end, y, yp, u):
        gamma = self._carrier(y, yp, u)
        if gamma.act_vertex(y.vertex) != yp.vertex:
            raise NonterminationGuard("transporter algebra produced a non-transporter")
        if gamma.fixes_end(end):
            raise NonterminationGuard("counterexample construction fixed the end")
        if not self.lattice.contains(gamma):
            raise NonterminationGuard("counterexample fell outside the lattice")
        return gamma

    def _upper_family(self, h0, n):
        """(alpha, offsets) for the stabilizer of (n, 0) over h0, or None.

        The members of the stabilizer of (n, 0) inside the residue coset h0
        are [[alpha, b0 + f*c], [0, alpha^-1]] with alpha a constant unit of
        matching image and deg(b0 + f*c) <= n. The offsets are b0, and
        b0 + f when n >= deg f. Only the first matching unit is returned:
        over the zero ring all q - 1 match, but if the bottom-left entry
        vanishes at both offsets for one alpha then B = 0, which forces
        A = 0 or C = 0, and the entry vanishes for every alpha; with one
        offset (n < deg f) constants inject into R and one alpha matches.
        """
        ring = self.ring
        a_bar, b_bar, c_bar, d_bar = h0
        if c_bar != ring.zero:
            return None
        units = (
            a
            for a in self.F.units()
            if ring.constant(a) == a_bar and ring.constant(a.inverse()) == d_bar
        )
        alpha = next(units, None)
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
    within a quotient vertex, so only those pairs are examined; every
    same-level pair counts as checked. Returns a certificate or the first
    explicit violating pair.
    """
    if truncation < 0:
        raise InvalidInputError(f"horoball truncation must be >= 0, got {truncation}")
    tree = lattice.tree
    algebra = _TransporterAlgebra(lattice)
    # the horoellipse of eccentricity 1 is the horoball, busemann >= 0
    horoball = tree.horoellipse_vertices(cusp.end, radius_vertex, Fraction(1), truncation)
    members = [algebra.member(y) for y in horoball]
    entries = list(zip(members, algebra.conjugated(members, cusp)))
    levels = _grouped(entries, lambda e: e[0].reduced.level)
    classes = _grouped(entries, lambda e: e[0].quotient_vertex)
    for group in levels.values():
        for y, (_, Q) in group:
            for yp, (P, _) in classes[y.quotient_vertex]:
                gamma = algebra.moving_transporter(cusp.end, y, Q, yp, P)
                if gamma is not None:
                    return CounterexamplePair(
                        y=y.vertex, y_prime=yp.vertex, gamma=gamma
                    )
    return CertifiedIndependent(
        cusp=cusp,
        radius_vertex=radius_vertex,
        truncation=truncation,
        vertices_checked=len(members),
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

    On top of the per-cusp check, distinct horoballs must not meet under
    the lattice: any member carrying a vertex of one truncated horoball
    to a vertex of another is a violation. Such a member exists exactly
    when the two vertices share a quotient vertex, so the cross check
    looks each member up among the quotient vertices of the other
    horoballs, and builds a transporter only for the first hit. Every
    ordered same-level pair across two horoballs counts as checked.
    """
    if len(cusps) != len(radius_vertices):
        raise InvalidInputError("one radius vertex per cusp is required")
    singles = []
    for cusp, x in zip(cusps, radius_vertices):
        result = certify_independent_horoball(lattice, cusp, x, truncation)
        if isinstance(result, CounterexamplePair):
            return result
        singles.append(result)
    firsts = []  # per horoball, quotient vertex -> its first member there
    for single in singles:
        first = {}
        for m in single.members:
            first.setdefault(m.quotient_vertex, m)
        firsts.append(first)
    for i, single in enumerate(singles):
        for j, first in enumerate(firsts):
            if i == j:
                continue
            for y in single.members:
                yp = first.get(y.quotient_vertex)
                if yp is None:
                    continue
                gamma = _TransporterAlgebra(lattice).transporter(y, yp)
                if gamma is None or gamma.act_vertex(y.vertex) != yp.vertex:
                    raise NonterminationGuard("cross transporter failed to check")
                return CounterexamplePair(y=y.vertex, y_prime=yp.vertex, gamma=gamma)
    counts = [Counter(m.reduced.level for m in single.members) for single in singles]
    same_level = sum(counts, Counter())
    cross = sum(c * c for c in same_level.values()) - sum(
        c * c for count in counts for c in count.values()
    )
    return FamilyCertificate(singles=singles, cross_pairs_checked=cross)


# -- contraction and the free product ---------------------------------------------------


def contract(G: GraphOfGroups, bases: dict[int, int] | None = None) -> GraphOfGroups:
    """Collapse certified ray tails into symbolic cusp vertices.

    `bases` maps ray indices to the level at which each tail is cut; by
    default every certified ray is cut at its base. The tail must sit at
    or beyond the certified base (and, for the result to be a faithful
    picture, at or beyond a certified independent horoball boundary).
    Contracting nothing returns an identical copy.
    """
    cusps = G.lattice.cusp_representatives()
    matches = {ri: ci for ci, ri in _match_cusps_to_rays(G, cusps)}
    chosen: dict[int, int] = {}
    if bases is None:
        for i, ray in enumerate(G.rays):
            if ray.certified:
                chosen[i] = ray.base_level
    else:
        for i, cut in bases.items():
            ray = G.rays[i]
            if not ray.certified:
                raise UncertifiedTail("cannot contract an uncertified ray")
            if cut < ray.base_level or cut >= G.depth:
                raise InvalidInputError(
                    f"cut level {cut} outside the certified tail "
                    f"[{ray.base_level}, {G.depth - 1}]"
                )
            chosen[i] = cut
    out = GraphOfGroups(G.lattice, G.depth)
    out.contracted = True
    ray_of: dict[str, int] = {}  # absorbed vertex -> its ray
    for i, cut in chosen.items():
        ray = G.rays[i]
        pos = ray.levels.index(cut)
        for vid in ray.vertex_ids[pos:]:
            ray_of[vid] = i
    for vid, v in G.vertices.items():
        if vid not in ray_of:
            out.vertices[vid] = replace(v)
    for i, cut in sorted(chosen.items()):
        cusp_id = f"cusp{i}"
        out.vertices[cusp_id] = QuotientVertex(
            id=cusp_id,
            level=cut,
            coset=None,
            order=None,
            is_cusp=True,
            cusp=cusps[matches[i]] if i in matches else None,
        )
    # every edge crossing into an absorbed tail is rerouted to its cusp;
    # edges inside a tail disappear with it
    for e in G.edges:
        fa = e.v_from in ray_of
        ta = e.v_to in ray_of
        if fa and ta:
            continue
        if not fa and not ta:
            out.edges.append(QuotientEdge(e.v_from, e.v_to, e.order))
        elif ta:
            out.edges.append(QuotientEdge(e.v_from, f"cusp{ray_of[e.v_to]}", e.order))
        else:
            out.edges.append(QuotientEdge(e.v_to, f"cusp{ray_of[e.v_from]}", e.order))
    # rays that were not contracted survive
    for i, ray in enumerate(G.rays):
        if i not in chosen:
            out.rays.append(ray)
    return out


def free_product_report(G: GraphOfGroups) -> FreeProductReport:
    """Whether the contracted graph exhibits a free product of cusp groups.

    Applicable exactly when every finite vertex group and every edge
    group is trivial; then the fundamental group is the free product of
    the cusp factors with a free group of rank |E| - |V| + 1.
    """
    cusp_count = sum(1 for v in G.vertices.values() if v.is_cusp)
    blockers = []
    for v in sorted(G.vertices.values(), key=lambda v: v.id):
        if not v.is_cusp and v.order != 1:
            blockers.append(f"vertex {v.id} has order {v.order}")
    for e in G.edges:
        if e.order != 1:
            blockers.append(f"edge {e.v_from}--{e.v_to} has order {e.order}")
    applicable = not blockers
    rank = len(G.edges) - len(G.vertices) + 1
    reason = (
        "all finite vertex and edge groups are trivial"
        if applicable
        else "; ".join(blockers[:4])
    )
    return FreeProductReport(
        applicable=applicable,
        cusp_factor_count=cusp_count,
        free_rank=rank,
        reason=reason,
    )
