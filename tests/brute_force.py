"""Brute-force oracles for the tests, sharing no code with the closed forms."""

import itertools
from collections import Counter

from sl2btree.autom import TreeAutomorphism
from sl2btree.errors import (
    DoesNotFixEnd,
    EndPrecisionExhausted,
    EqualEndsError,
    IndeterminateValuation,
    InsufficientPrecision,
    InvalidInputError,
    NonterminationGuard,
    NotTypePreserving,
    SizeGuardExceeded,
)
from sl2btree.lattice import NagaoLattice
from sl2btree.polys import all_t_polys, from_t_coeffs, t_coeffs, t_degree
from sl2btree.quotient import (
    CounterexamplePair,
    GraphOfGroups,
    QuotientEdge,
    QuotientVertex,
    RayTail,
    _TransporterAlgebra,
    _vertex_id,
    certify_independent_horoball,
)
from sl2btree.series import INFINITY, LaurentSeries
from sl2btree.tree import End, RationalEnd, Tree, TruncatedEnd, UpEnd, Vertex


def neighbors_by_definition(tree: Tree, v: Vertex) -> list[Vertex]:
    """The parent of v, then its q children by digit in `Field.elements` order.

    Each is `Tree.vertex` of a series that the validating `LaurentSeries`
    constructor builds from v's digits: the parent truncates them below
    level - 1, a child adds its digit at the level.
    """
    F, n = tree.field, v.level
    digits = dict(v.residue.coeffs)
    parent = tree.vertex(n - 1, LaurentSeries(F, digits))
    children = [tree.vertex(n + 1, LaurentSeries(F, {**digits, n: c})) for c in F.elements()]
    return [parent, *children]


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
        m = table.reduce(cusp.carrier)
        hits = []
        for ri, ray in enumerate(G.rays):
            base = ray.vertices[0].level
            level = max(base, stable, 1)
            if level - base >= len(ray.vertices):
                continue
            vertex = ray.vertices[level - base]
            numbers, _ = table.vertex_partition(level)
            if numbers[table.coset_number(m, level)] == vertex.coset:
                hits.append(ri)
        if len(hits) == 1:
            matches.append((ci, hits[0]))
    return matches


def stabilizer_images(table, n: int) -> tuple[frozenset, frozenset]:
    """The residue images of the stabilizers of (n, 0) and of the edge to (n + 1, 0).

    From their definitions over F_q[t]: the edge stabilizer is the
    matrices [[alpha, b], [0, alpha^-1]] with alpha in F_q^x and
    deg b <= n, reduced entry by entry through `ResidueRing.reduce` (b of
    degree at least deg f reduces like b mod f, so the degrees stop
    there); the vertex stabilizer is SL2(F_q) at the origin and the edge
    stabilizer above it.
    """
    F, ring = table.field, table.ring
    const = {x: ring.reduce(LaurentSeries.exact(F, {0: x} if x else {})) for x in F.elements()}
    offsets = {ring.reduce(b) for b in all_t_polys(F, min(n, ring.degree - 1))}
    units = [x for x in F.elements() if x]
    edge = frozenset(
        (const[a], b, const[F.zero], const[a.inverse()]) for a in units for b in offsets
    )
    if n >= 1:
        return edge, edge
    vertex = frozenset(
        tuple(const[x] for x in m)
        for m in itertools.product(F.elements(), repeat=4)
        if m[0] * m[3] - m[1] * m[2] == F.one
    )
    return vertex, edge


def enumerated_partition(table, subgroup) -> tuple[dict, list]:
    """The cosets g * subgroup numbered by walking every sorted member."""
    coset_of, least = {}, []
    for g in table.elements:
        if g not in coset_of:
            for s in subgroup:
                coset_of[table.matmul(g, s)] = len(least)
            least.append(g)
    return coset_of, least


def rays_by_chain_walk(G) -> list:
    """`quotient._detect_rays` as a walk over G.edges: the up-edge count of
    each vertex by a Counter, its one down-edge (or None) by a dict."""
    q = G.lattice.q
    ups = Counter(e.v_from for e in G.edges)
    down = {}
    for e in G.edges:
        down[e.v_to] = None if e.v_to in down else e
    rays = []
    for top in sorted((v for v in G.vertices.values() if v.level == G.depth), key=lambda v: v.id):
        e, chain, chain_edges = down.get(top), [top], []
        if e is None:
            continue
        while e is not None and ups[e.v_from] == 1:
            chain.append(e.v_from)
            chain_edges.append(e)
            e = down.get(e.v_from)
        chain.reverse()
        chain_edges.reverse()
        orders = [v.order for v in chain]
        ok = [hi == q * lo and e.order == lo for lo, hi, e in zip(orders, orders[1:], chain_edges)]
        base = next((k for k in range(len(ok) - 2) if all(ok[k : k + 3])), None)
        if base is not None and not all(ok[base:]):
            raise NonterminationGuard("certified tail pattern broke inside the enumerated range")
        start = base or 0
        rays.append(RayTail(chain[start:], chain_edges[start:], base is not None))
    return rays


def quotient_graph_by_lookup(lattice, depth: int):
    """`quotient_graph` by member lookups.

    Per level, {member: coset number} dicts of the vertex and edge
    partitions from `enumerated_partition` of `stabilizer_images`; each
    edge class, the coset of its least member m, joins the vertex classes
    holding m at its two levels; the rays come from `rays_by_chain_walk`.
    Vertex ids and orders are the lattice's.
    """
    table = lattice.coset_table()
    G = GraphOfGroups(lattice, depth)
    levels = []  # per level, (vertex dict, edge partition, vertices by coset number)
    for n in range(depth + 1):
        vertex, edge = stabilizer_images(table, n)
        vertex_of, least = enumerated_partition(table, vertex)
        order = lattice.base_order(n)
        verts = [QuotientVertex(_vertex_id(lattice, n, k), n, k, order) for k in range(len(least))]
        G.vertices.update((v.id, v) for v in verts)
        levels.append((vertex_of, enumerated_partition(table, edge), verts))
    for (lower, (_, least), lower_verts), (upper, _, upper_verts) in zip(levels, levels[1:]):
        order = lattice.edge_order(lower_verts[0].level)
        G.edges.extend(
            QuotientEdge(lower_verts[lower[m]], upper_verts[upper[m]], order) for m in least
        )
    G.rays = rays_by_chain_walk(G)
    return G


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
            Vertex(report.graph.rays[ray_of[i]].vertices[0].level if i in ray_of else 1, zero)
        )
        for i, cusp in enumerate(report.algebraic)
    ]


class BorelDecomposition:
    """g = conjugator^{-1} * (diagonal * step^power * shear) * conjugator.

    `diagonal` has unit diagonal entries (elliptic), `step` is the standard
    distance-2 translation toward the fixed end, and `shear` is a projective
    representative of a unipotent fixing the end. The product of the three
    parts equals the conjugated matrix up to a scalar.
    """

    __slots__ = ("diagonal", "power", "shear", "conjugator")

    def __init__(self, diagonal: "TreeAutomorphism", power: int, shear: "TreeAutomorphism",
                 conjugator: "TreeAutomorphism"):
        self.diagonal = diagonal
        self.power = power
        self.shear = shear
        self.conjugator = conjugator


def zero_end_conjugator(end: End) -> TreeAutomorphism:
    """[[u, w], [-y, x]] with u*x + w*y = gcd(x, y), for the end (x : y).

    The up end is (0 : 1). When x and y are coprime the determinant is 1
    and the matrix carries the end to the zero end. The gcd is this
    module's `xgcd_t`.
    """
    x, y = end.x, end.y
    _, u, w = xgcd_t(x, y)
    return TreeAutomorphism(end.field, u, w, -y, x)


def decompose_end_stabilizer(g: TreeAutomorphism, end: End) -> BorelDecomposition:
    """Factor an element fixing an exact end into diagonal, step power, shear.

    Conjugates the end to the zero end, checks the conjugate is upper
    triangular (else DoesNotFixEnd), and splits it as
    unit-diagonal * standard-step^power * unipotent-shear, all projectively.
    The drift along the end is twice the power: the oracle of
    `autom.drift_along_end`, which reads the end's eigenvalue instead.
    """
    F = g.field
    if isinstance(end, TruncatedEnd):
        raise InvalidInputError("decomposition needs an exact end")
    conj = zero_end_conjugator(end)
    gp = conj * g * conj.adjugate()
    if not gp.c.is_exact_zero():
        raise DoesNotFixEnd(f"element does not fix the end {end}")
    det_val = gp.det().valuation()
    if det_val % 2:
        raise NotTypePreserving("odd determinant valuation swaps the vertex types")
    gp = gp.scaled(LaurentSeries.pi_power(F, -(det_val // 2)))
    m = gp.d.valuation()
    diag = TreeAutomorphism.diagonal(F, gp.a.shift(m), gp.d.shift(-m))
    shear = TreeAutomorphism(F, gp.a, gp.b, LaurentSeries.zero(F), gp.a)
    recomposed = diag * TreeAutomorphism.standard_step_power(F, m) * shear
    if not recomposed.proportional_to(gp):
        raise NonterminationGuard("decomposition failed to recompose projectively")
    return BorelDecomposition(diagonal=diag, power=m, shear=shear, conjugator=conj)

def family_by_enumeration(lattice, cusps, radius_vertices, truncation):
    """`certify_independent_family` with every horoball enumerated.

    `certify_independent_horoball` on every cusp in order, then each member
    of every horoball looked up among the first members per quotient vertex
    of every other horoball, ordered pairs (i, j) in order. Returns the
    first CounterexamplePair, or the per-cusp `pairs_checked` with the
    count of same-level pairs across distinct horoballs, summed pair by
    pair.
    """
    singles = []
    for cusp, x in zip(cusps, radius_vertices):
        result = certify_independent_horoball(lattice, cusp, x, truncation)
        if isinstance(result, CounterexamplePair):
            return result
        singles.append(result)
    firsts = []
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
                if yp is not None:
                    gamma = _TransporterAlgebra(lattice).moving_transporter(None, y, yp)
                    return CounterexamplePair(y=y.vertex, y_prime=yp.vertex, gamma=gamma)
    counts = [Counter(m.reduced.level for m in single.members) for single in singles]
    cross = sum(
        mine[n] * theirs[n]
        for i, mine in enumerate(counts)
        for j, theirs in enumerate(counts)
        if i != j
        for n in mine
    )
    return [single.pairs_checked for single in singles], cross


def mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    """a * b for coefficient vectors, modulo the monic modulus over F_p."""
    out = (0,) * len(a)
    for c in b:
        out = tuple((o + c * y) % p for o, y in zip(out, a))
        # a *= x: shift up, then cancel the x^e term with the modulus
        a = tuple((y - a[-1] * m) % p for y, m in zip((0,) + a[:-1], modulus))
    return out


def pow_mod(g: tuple, n: int, modulus: tuple, p: int) -> tuple:
    """g^n for a coefficient vector, by repeated squaring."""
    out = (1,) + (0,) * (len(g) - 1)
    while n:
        if n & 1:
            out = mul_mod(out, g, modulus, p)
        g = mul_mod(g, g, modulus, p)
        n >>= 1
    return out


def power_tables(p: int, modulus: tuple) -> tuple[list, list]:
    """The coefficient tuples of g^0, ..., g^(q-2) and the Zech logarithms,
    zech[k] the log of 1 + g^k (None for zero), for the least g of order
    q - 1, from products of coefficient tuples. The modulus is taken to be
    irreducible."""
    e = len(modulus) - 1
    q = p**e
    vectors = list(itertools.product(range(p), repeat=e))
    one = vectors[q // p]
    cofactors = [(q - 1) // r for r in range(2, q) if (q - 1) % r == 0 and _is_prime(r)]
    g = next(g for g in vectors[1:] if all(pow_mod(g, k, modulus, p) != one for k in cofactors))
    powers = [one]
    for _ in range(q - 2):
        powers.append(mul_mod(powers[-1], g, modulus, p))
    log = {v: k for k, v in enumerate(powers)}
    return powers, [log.get(((v[0] + 1) % p,) + v[1:]) for v in powers]


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def series_inverse(s: LaurentSeries, terms: int) -> LaurentSeries:
    """`LaurentSeries.inverse` by the convolution recurrence on field
    elements, through their `*`, `+` and `inverse`, with the same refusals."""
    if terms < 1:
        raise InvalidInputError("term budget must be positive")
    if not s.coeffs:
        if s.is_exact():
            raise ZeroDivisionError("inverse of the zero series")
        raise IndeterminateValuation("the series vanishes to its precision")
    v = min(s.coeffs)
    if not s.is_exact() and s.prec < v + terms:
        raise InsufficientPrecision(
            f"inverse to {terms} terms needs the input mod pi^{v + terms}, have mod pi^{s.prec}",
            needed=v + terms,
        )
    if len(s.coeffs) == 1 and s.is_exact():
        return LaurentSeries(s.field, {-v: s.coeffs[v].inverse()})
    u = {d - v: c for d, c in s.coeffs.items() if d - v < terms}
    inv0 = u[0].inverse()
    b = {0: inv0}
    for k in range(1, terms):
        acc = s.field.zero
        for j, uj in u.items():
            if 1 <= j <= k and (k - j) in b:
                acc = acc + uj * b[k - j]
        ck = -(inv0 * acc)
        if ck:
            b[k] = ck
    return LaurentSeries(s.field, {d - v: c for d, c in b.items()}, terms - v)


def series_quotient(num: LaurentSeries, den: LaurentSeries, n: int) -> LaurentSeries:
    """`LaurentSeries.quotient` as (num * series_inverse(den, k)).truncate(n),
    k the count of degrees from v(num/den) up to n, so with the refusals of
    that inverse and that truncation; a divisor with no visible digit is
    refused first, and a numerator that vanishes to its precision gives
    zero as far as its vanishing reaches."""
    zero = LaurentSeries.zero(num.field)
    if not den.coeffs:
        return series_inverse(den, 1)  # raises
    vd = min(den.coeffs)
    if not num.coeffs:
        if num.is_exact() or num.prec - vd >= n:
            return zero
        raise InsufficientPrecision(
            f"ratio needed mod pi^{n}, numerator only vanishes mod pi^{num.prec}",
            needed=n + vd,
        )
    k = n - min(num.coeffs) + vd
    if k < 1:
        return zero
    return (num * series_inverse(den, k)).truncate(n)


def divmod_t(a: LaurentSeries, b: LaurentSeries):
    """Euclidean division in F_q[t] on lists of coefficients by t-degree,
    through field-element arithmetic; b is checked before a."""
    F = a.field
    bc = t_coeffs(b)
    if not bc:
        raise ZeroDivisionError("division by the zero polynomial")
    rc = t_coeffs(a)
    inv_lead = bc[-1].inverse()
    qc = [F.zero] * max(0, len(rc) - len(bc) + 1)
    while len(rc) >= len(bc):
        factor = rc[-1] * inv_lead
        shift = len(rc) - len(bc)
        qc[shift] = factor
        for i, c in enumerate(bc):
            rc[shift + i] = rc[shift + i] - factor * c
        while rc and not rc[-1]:
            rc.pop()
    return from_t_coeffs(F, qc), from_t_coeffs(F, rc)


def xgcd_t(a: LaurentSeries, b: LaurentSeries):
    """(g, u, v) with u*a + v*b = g monic, by Euclid over the list division."""
    F = a.field
    r0, r1 = a, b
    u0, u1 = LaurentSeries.one(F), LaurentSeries.zero(F)
    v0, v1 = LaurentSeries.zero(F), LaurentSeries.one(F)
    while r1.has_terms():
        q, r = divmod_t(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    cs = t_coeffs(r0)
    if cs:
        c = cs[-1].inverse()
        r0, u0, v0 = r0.scale(c), u0.scale(c), v0.scale(c)
    return r0, u0, v0


# -- the routes for truncated ends that their vector (1 : w) replaced -----------------


def act_truncated_end_by_division(g: TreeAutomorphism, end: TruncatedEnd) -> TruncatedEnd:
    """The image (c + d*w) / (a + b*w) of a truncated end w, as numerator
    times an inverse of the denominator to as many terms as the two
    support, with the refusals of that route in its order."""
    w = end.y
    num, den = g.d * w + g.c, g.b * w + g.a
    budget = INFINITY
    if not den.is_exact():
        budget = min(budget, den.prec - den.valuation())
    if not num.is_exact():
        budget = min(budget, num.prec - (min(num.coeffs) if num.coeffs else num.prec))
    if budget < 1:
        raise InsufficientPrecision("no determined digits survive the division")
    return TruncatedEnd(g.field, num * series_inverse(den, budget))


def difference_valuation_by_expansion(e1: End, e2: End) -> int:
    """v(w1 - w2) from the two expansions to the shared horizon, where a
    truncated end takes part; two rational ends compare by cross product."""
    if isinstance(e1, UpEnd) or isinstance(e2, UpEnd):
        raise InvalidInputError("difference valuation needs two finite-coordinate ends")
    if isinstance(e1, RationalEnd) and isinstance(e2, RationalEnd):
        cross = e1.y * e2.x - e2.y * e1.x
        if cross.is_exact_zero():
            raise EqualEndsError("the two rational ends coincide")
        return cross.valuation() - e1.x.valuation() - e2.x.valuation()
    m = min(e1.known_depth(), e2.known_depth())
    diff = e1.coordinate_mod(m) - e2.coordinate_mod(m)
    if diff.has_terms():
        return diff.valuation()
    raise EndPrecisionExhausted(
        f"ends agree modulo pi^{m}, the shared horizon; cannot separate them"
    )


def _height(v: Vertex, end: End) -> int:
    """level - 2 m(v), m(v) the first degree below the level (and the
    horizon) where v's residue and the end's digits differ."""
    bound = min(v.level, end.known_depth())
    digits, residue = end.digits(bound), v.residue.coeffs
    differ = [d for d in {*digits, *residue} if d < bound and digits.get(d) is not residue.get(d)]
    return v.level - 2 * min(differ, default=bound)


def busemann_after_walk(tree: Tree, x: Vertex, y: Vertex, end: End) -> int:
    """`Tree.busemann` toward a truncated end as a walk of d(x, y) steps
    from x, which raises where `step_to_end` does, then h(x) - h(y)."""
    if x == y:
        return 0
    if isinstance(end, UpEnd):
        return x.level - y.level
    if isinstance(end, TruncatedEnd):
        z = x
        for _ in range(tree.distance(x, y)):
            z = tree.step_to_end(z, end)
    return _height(x, end) - _height(y, end)


# -- the search for an attracting end that its closed-form power replaced -------------


def attracting_end_by_stepping(g: TreeAutomorphism, depth: int, cap: int = 4096):
    """The attracting end of a hyperbolic full matrix to `depth`, and the
    power that certified it, by one power of g at a time.

    The candidate of g^k is its image of the up end, read to the level
    max(depth, v(tr) - v(b) + 1); it is certified when g carries the
    branch at that level strictly into itself, from the inside. Errors of
    each step propagate, and `cap` powers without a certified branch raise
    `NonterminationGuard`.
    """
    F = g.field
    tree = Tree(F)
    level = max(depth, g.trace().valuation() - g.b.valuation() + 1)
    h = g
    for k in range(1, cap + 1):
        if k > 1:
            h = g * h
        res = h.act_end(UpEnd(F)).coordinate_mod(level)
        branch = Vertex(level, res)
        image = g.act_vertex(branch)
        if not tree.is_descendant(image, branch):
            continue
        parent_image = g.act_vertex(tree.parent(branch))
        if tree.distance(branch, parent_image) != tree.distance(branch, image) + 1:
            return TruncatedEnd(F, res.reduce_precision(depth)), k
    raise NonterminationGuard(f"no certified attracting branch within {cap} powers")
