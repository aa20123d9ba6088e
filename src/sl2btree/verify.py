"""Seeded self-verification suites.

Each suite samples structured random data (vertices, ends, matrices) and
checks an identity that the rest of the package relies on: the Busemann
cocycle relation, equivariance of horospheres, additivity of the drift
homomorphism, simple transitivity of the shear group on ends and on
horospheres, compatibility of the vertex and boundary actions, and the
agreement of closed-form distances with a bidirectional breadth-first
search, of closed-form Busemann values with a walk toward the end and of
horoball membership with a union of balls along a ray. A
failure reports the offending sample; sampling is deterministic in the
seed.
"""

import itertools
import random

from .autom import TreeAutomorphism, drift_along_end
from .errors import EqualEndsError, Sl2BTreeError
from .series import LaurentSeries
from .tree import Tree, TruncatedEnd, UpEnd, end_difference_valuation, end_from_vector


class SuiteResult:
    __slots__ = ("name", "checks", "failures")

    def __init__(self, name: str, checks: int, failures: list[str]):
        self.name = name
        self.checks = checks
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        state = "ok" if self.passed else f"FAILED ({len(self.failures)})"
        return f"{self.name}: {self.checks} checks, {state}"


# -- samplers -------------------------------------------------------------------------


def _rand_element(rng, F):
    return rng.choice(list(F.elements()))


def _rand_unit(rng, F):
    return rng.choice(list(F.units()))


def _rand_poly(rng, F, max_deg, nonzero=False):
    """A random polynomial in t, i.e. an exact series in degrees <= 0."""
    while True:
        deg = rng.randrange(-1, max_deg + 1)
        if deg < 0:
            s = LaurentSeries.zero(F)
        else:
            coeffs = {-i: _rand_element(rng, F) for i in range(deg)}
            coeffs[-deg] = _rand_unit(rng, F)
            s = LaurentSeries.exact(F, coeffs)
        if not nonzero or s.has_terms():
            return s


def _rand_vertex(rng, F, tree, lo=-3, hi=4):
    n = rng.randrange(lo, hi + 1)
    coeffs = {}
    for d in range(max(n - 4, -4), n):
        if rng.random() < 0.6:
            coeffs[d] = _rand_element(rng, F)
    return tree.vertex(n, LaurentSeries.exact(F, coeffs))


def _rand_rational_end(rng, F, coordinates=False):
    """A random exact boundary end; with `coordinates`, one with both
    vector entries nonzero (so neither the zero end nor the one above)."""
    while True:
        x = _rand_poly(rng, F, 3)
        y = _rand_poly(rng, F, 3)
        if not (x.has_terms() or y.has_terms()):
            continue
        if coordinates and not (x.has_terms() and y.has_terms()):
            continue
        return end_from_vector(F, x, y)


def _rand_truncated_end(rng, F, precision=14):
    coeffs = {}
    for d in range(1, precision):
        if rng.random() < 0.5:
            coeffs[d] = _rand_element(rng, F)
    body = LaurentSeries.exact(F, coeffs)
    return TruncatedEnd(F, body.truncate(precision).reduce_precision(precision))


def _rand_lattice_element(rng, F):
    g = TreeAutomorphism.identity(F)
    for _ in range(rng.randrange(2, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            g = g * TreeAutomorphism.upper_shear(F, _rand_poly(rng, F, 2))
        elif kind == 1:
            g = g * TreeAutomorphism.lower_shear(F, _rand_poly(rng, F, 2))
        else:
            g = g * TreeAutomorphism.half_turn(F)
    return g


def _rand_automorphism(rng, F):
    """A random invertible matrix, sometimes non-type-preserving."""
    g = _rand_lattice_element(rng, F)
    k = rng.randrange(-1, 2)
    if k:
        g = g * TreeAutomorphism.diagonal(
            F, LaurentSeries.pi_power(F, -k), LaurentSeries.pi_power(F, k)
        )
    if rng.random() < 0.25:
        g = g * TreeAutomorphism.standard_step(F)
    return g


# -- suites ---------------------------------------------------------------------------


def _walking_busemann(tree, x, y, end):
    """The Busemann function by its definition, the oracle for the closed form.

    Sees the tree only through `step_to_end` and `distance`: walk d(x, y)
    steps from x toward the end, to a vertex z past the point where the
    rays from x and y merge; the value is d(x, y) - d(y, z).
    """
    k = tree.distance(x, y)
    z = x
    for _ in range(k):
        z = tree.step_to_end(z, end)
    return k - tree.distance(y, z)


def _closed_form_mismatches(tree, pairs, values, end):
    """A failure line for each closed-form value the walk disagrees with."""
    out = []
    for (x, y), value in zip(pairs, values):
        walked = _walking_busemann(tree, x, y, end)
        if walked != value:
            out.append(f"busemann({x}, {y}) = {value}, walk said {walked} ({end})")
    return out


def _suite_busemann_cocycle(F, rng):
    tree = Tree(F)
    checks, fails = 0, []
    ends = [tree.end_zero(), tree.end_up()]
    ends += [_rand_rational_end(rng, F) for _ in range(3)]
    ends.append(_rand_truncated_end(rng, F, precision=16))
    for end in ends:
        for _ in range(6):
            x = _rand_vertex(rng, F, tree, -2, 3)
            y = _rand_vertex(rng, F, tree, -2, 3)
            z = _rand_vertex(rng, F, tree, -2, 3)
            checks += 1
            pairs = [(x, y), (y, z), (x, z)]
            try:
                bxy, byz, bxz = values = [tree.busemann(a, b, end) for a, b in pairs]
                fails += _closed_form_mismatches(tree, pairs, values, end)
            except Sl2BTreeError as exc:
                fails.append(f"cocycle raised {exc!r} at {x}, {y}, {z}, {end}")
                continue
            if bxy + byz != bxz:
                fails.append(f"cocycle {bxy + byz} != {bxz} at {x}, {y}, {z}, {end}")
    return checks, fails


def _suite_horosphere_equivariance(F, rng):
    tree = Tree(F)
    checks, fails = 0, []
    for _ in range(6):
        g = _rand_automorphism(rng, F)
        end = rng.choice(
            [tree.end_zero(), tree.end_up(), _rand_rational_end(rng, F)]
        )
        x = _rand_vertex(rng, F, tree, -2, 3)
        gx = g.act_vertex(x)
        gend = g.act_end(end)
        samples = [x]
        for r in (1, 2, 3):
            sphere = tree.sphere(x, r)
            samples += rng.sample(sphere, min(3, len(sphere)))
        for y in samples:
            gy = g.act_vertex(y)
            checks += 1
            if tree.horosphere_contains(end, x, y) != tree.horosphere_contains(
                gend, gx, gy
            ):
                fails.append(f"horosphere not equivariant: g={g}, end={end}, y={y}")
            if tree.horoball_contains(end, x, y) != tree.horoball_contains(
                gend, gx, gy
            ):
                fails.append(f"horoball not equivariant: g={g}, end={end}, y={y}")
    return checks, fails


def _suite_drift_additivity(F, rng):
    tree = Tree(F)
    checks, fails = 0, []
    end = tree.end_zero()

    def rand_fixing(k_range=2):
        k = rng.randrange(-k_range, k_range + 1)
        alpha = _rand_unit(rng, F)
        b = _rand_poly(rng, F, 2)
        diag = TreeAutomorphism.diagonal(
            F,
            LaurentSeries.exact(F, {0: alpha}),
            LaurentSeries.exact(F, {0: alpha.inverse()}),
        )
        step = TreeAutomorphism.standard_step(F)
        return diag * step**k * TreeAutomorphism.upper_shear(F, b)

    for _ in range(12):
        g, h = rand_fixing(), rand_fixing()
        checks += 1
        if drift_along_end(g * h, end) != drift_along_end(g, end) + drift_along_end(
            h, end
        ):
            fails.append(f"drift not additive on {g}, {h}")
        d = drift_along_end(g, end)
        cls = g.classify()
        if d == 0 and cls.kind != "elliptic":
            fails.append(f"zero drift but {cls.kind}: {g}")
        if d != 0 and (cls.kind != "hyperbolic" or cls.length != abs(d)):
            fails.append(f"drift {d} but classified {cls}: {g}")
    # under conjugation the drift follows the end
    for _ in range(4):
        g = rand_fixing()
        c = _rand_automorphism(rng, F)
        checks += 1
        moved = c * g * c.adjugate()  # inverse up to the determinant scalar
        if drift_along_end(moved, c.act_end(end)) != drift_along_end(g, end):
            fails.append(f"drift not conjugation-invariant for {g} by {c}")
    return checks, fails


_SHEAR_DIGITS = 8


def _suite_unipotent_transitivity(F, rng):
    """The shear group moves any non-fixed end to any other, uniquely."""
    tree = Tree(F)
    checks, fails = 0, []
    # exact construction: w2 = shear(b) . w1 must invert to b
    for _ in range(5):
        w1 = _rand_rational_end(rng, F, coordinates=True)
        b = _rand_poly(rng, F, 3)
        w2 = TreeAutomorphism.upper_shear(F, b).act_end(w1)
        # solve back: the shear carrying w1 to w2 has offset
        # (x2 y1 - x1 y2) / (y1 y2), which here must be exactly b
        num = w2.x * w1.y - w1.x * w2.y
        den = w1.y * w2.y
        checks += 1
        if num != b * den:
            fails.append(f"exact shear solve failed: w1={w1}, b={b}")
    # truncated construction between independent random ends
    for _ in range(5):
        w1 = _rand_rational_end(rng, F, coordinates=True)
        w2 = _rand_rational_end(rng, F, coordinates=True)
        if w1 == w2:
            continue
        num = w2.x * w1.y - w1.x * w2.y
        den = w1.y * w2.y
        # the offset num/den = 1/w2 - 1/w1; cut off at degree N it moves w1
        # to the end with 1/w = 1/w2 + e, v(e) >= N, which agrees with w2 to
        # N + 2 v(w2) digits
        digits = _SHEAR_DIGITS - 2 * w2.valuation()
        if num.has_terms():
            shift = num.valuation() - den.valuation()
            b = (num * den.inverse(max(digits - shift, 1))).truncate(digits)
        else:
            b = LaurentSeries.zero(F)
        moved = TreeAutomorphism.upper_shear(F, b).act_end(w1)
        checks += 1
        if _agreement(moved, w2) < _SHEAR_DIGITS:
            fails.append(f"truncated shear only matched to depth {_agreement(moved, w2)}")
        delta = _rand_poly(rng, F, 2, nonzero=True)
        spoiled = TreeAutomorphism.upper_shear(F, b + delta).act_end(w1)
        if _agreement(spoiled, w2) >= _SHEAR_DIGITS:
            fails.append(f"uniqueness violated: offset {delta} also matches")
    return checks, fails


def _agreement(e1, e2) -> int:
    """Depth to which two ends agree; exact coincidence counts as huge.

    The up end (w = infinity) agrees with itself exactly and with a finite
    end at no depth.
    """
    if isinstance(e1, UpEnd) or isinstance(e2, UpEnd):
        return 10**9 if e1 == e2 else -(10**9)
    try:
        return end_difference_valuation(e1, e2)
    except EqualEndsError:
        return 10**9


def _suite_horosphere_transitivity(F, rng):
    """Shears fixing the zero end sweep out each of its horospheres."""
    tree = Tree(F)
    checks, fails = 0, []
    x0 = tree.vertex(3, LaurentSeries.zero(F))
    end = tree.end_zero()
    members = tree.horosphere_vertices(end, x0, 6)
    expected = {x0}
    for j in (4, 5, 6):
        # vertices (2j-3, r) with r of valuation exactly j
        m = 2 * j - 3
        for r in _all_series_supported(F, j, m):
            expected.add(tree.vertex(m, r))
    if set(members) != expected:
        fails.append(
            f"horosphere enumeration mismatch: {len(members)} found, "
            f"{len(expected)} expected"
        )
    checks += 1
    for y in sorted(members, key=str):
        checks += 1
        if y == x0:
            continue
        r = y.residue
        j = r.valuation()
        b = r.inverse(3 * j).truncate(2 * j)
        img = TreeAutomorphism.upper_shear(F, b).act_vertex(x0)
        if img != y:
            fails.append(f"shear with offset {b} sent {x0} to {img}, wanted {y}")
    return checks, fails


def _all_series_supported(F, val, mod):
    """All residues mod pi^mod with valuation exactly val."""
    elems = list(F.elements())
    return [
        LaurentSeries.exact(F, dict(zip(itertools.count(val), digits)))
        for digits in itertools.product(F.units(), *[elems] * (mod - val - 1))
    ]


def _suite_action_compatibility(F, rng):
    """Vertex and boundary actions agree through Busemann functions and steps."""
    tree = Tree(F)
    checks, fails = 0, []
    for _ in range(8):
        g = _rand_automorphism(rng, F)
        end = rng.choice([tree.end_zero(), tree.end_up(), _rand_rational_end(rng, F)])
        x = _rand_vertex(rng, F, tree, -2, 3)
        y = _rand_vertex(rng, F, tree, -2, 3)
        gend = g.act_end(end)
        checks += 1
        if tree.busemann(g.act_vertex(x), g.act_vertex(y), gend) != tree.busemann(
            x, y, end
        ):
            fails.append(f"busemann not equivariant: g={g}, end={end}")
        stepped = tree.step_to_end(x, end)
        if g.act_vertex(stepped) != tree.step_to_end(g.act_vertex(x), gend):
            fails.append(f"step toward end not equivariant: g={g}, end={end}")
    return checks, fails


def _suite_unipotents_elliptic(F, rng):
    checks, fails = 0, []
    for _ in range(10):
        b = _rand_poly(rng, F, 4)
        if rng.random() < 0.5:
            u = TreeAutomorphism.upper_shear(F, b)
        else:
            u = TreeAutomorphism.lower_shear(F, b)
        c = _rand_lattice_element(rng, F)
        g = c * u * c.adjugate()
        checks += 1
        if g.translation_length() != 0:
            fails.append(f"shear conjugate {g} is not elliptic")
            continue
        cls = g.classify()
        if cls.kind != "elliptic" or not g.fixes_vertex(cls.fixed_vertex):
            fails.append(f"classification broken for {g}: {cls}")
    return checks, fails


_SEARCH_CAP = 14


def _search_distance(tree, x, y):
    """Length of a shortest x-y path in the abstract graph, or None past the cap.

    A bidirectional breadth-first search that sees the tree only through
    `tree.neighbors` and vertex equality. Each side maps the vertices it has
    reached to their depth; the side with the smaller frontier grows by one
    full layer at a time. Once the depths sum to the distance the two sides
    share a vertex, and the least depth sum over the shared vertices of that
    layer is the distance. Each side reaches about half the distance, so the
    search visits about q^(d/2) vertices instead of q^d.
    """
    if x == y:
        return 0
    seen = ({x: 0}, {y: 0})
    frontiers = [[x], [y]]
    depths = [0, 0]
    while depths[0] + depths[1] < _SEARCH_CAP:
        i = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = seen[i], seen[1 - i]
        depths[i] += 1
        layer = []
        for v in frontiers[i]:
            for w in tree.neighbors(v):
                if w not in mine:
                    mine[w] = depths[i]
                    layer.append(w)
        frontiers[i] = layer
        meets = [mine[w] + other[w] for w in layer if w in other]
        if meets:
            return min(meets)
    return None


def _suite_distance_bfs(F, rng):
    tree = Tree(F)
    checks, fails = 0, []
    for _ in range(10):
        x = _rand_vertex(rng, F, tree, -2, 3)
        y = _rand_vertex(rng, F, tree, -2, 3)
        d = tree.distance(x, y)
        found = _search_distance(tree, x, y)
        checks += 1
        if found != d:
            fails.append(f"distance({x}, {y}) = {d}, search said {found}")
    return checks, fails


def _suite_busemann_stabilization(F, rng):
    """Walking toward an end eventually gains height one per step."""
    tree = Tree(F)
    checks, fails = 0, []
    for _ in range(8):
        end = rng.choice([tree.end_zero(), _rand_rational_end(rng, F)])
        x = _rand_vertex(rng, F, tree, -2, 2)
        walk = tree.ray(x, end, 12)
        values = [tree.busemann(x, v, end) for v in walk]
        increments = [b - a for a, b in zip(values, values[1:])]
        checks += 1
        mismatches = _closed_form_mismatches(tree, [(x, v) for v in walk], values, end)
        if mismatches:
            fails += mismatches
            continue
        if any(i not in (-1, 1) for i in increments):
            fails.append(f"increment outside +-1 along walk from {x} to {end}")
            continue
        if increments and increments[-1] != 1:
            fails.append(f"walk from {x} to {end} does not end climbing")
            continue
        seen_up = False
        for i in increments:
            if i == 1:
                seen_up = True
            elif seen_up:
                fails.append(f"walk from {x} to {end} climbed then fell")
                break
    return checks, fails


def _union_of_balls(tree, x, walk, radius):
    """Each vertex within `radius` of x, with whether it lies in some B(walk[k], k).

    `walk` is a ray of at least `radius` steps from x = walk[0]. A
    breadth-first search from x that sees the tree only through
    `tree.neighbors`, the walk and vertex equality; in a tree the neighbors
    of a vertex other than its predecessor are new, so it meets the
    vertices in breadth-first order. Each vertex y
    carries s(y) = max_k (k - d(walk[k], y)) and is in the union exactly
    when s(y) >= 0. The walk vertex walk[j] has s = j. Any other vertex is
    one step farther than its predecessor from every walk vertex, since the
    walk, a geodesic from x, cannot run past it; its s is its predecessor's
    s - 1.
    """
    yield x, True
    # (vertex, its predecessor, s, whether it is walk[s])
    frontier = [(x, None, 0, True)]
    for _ in range(radius):
        nxt = []
        for v, back, s, on_walk in frontier:
            ahead = walk[s + 1] if on_walk else None
            for u in tree.neighbors(v):
                if u == ahead:
                    nxt.append((u, v, s + 1, True))
                elif u != back:
                    nxt.append((u, v, s - 1, False))
        for u, _, s, _ in nxt:
            yield u, s >= 0
        frontier = nxt


def _suite_horoball_union(F, rng):
    """A horoball is the union of balls of radius k at the k-th ray vertices."""
    tree = Tree(F)
    checks, fails = 0, []
    for _ in range(3):
        end = rng.choice([tree.end_zero(), _rand_rational_end(rng, F)])
        x = _rand_vertex(rng, F, tree, -1, 2)
        walk = tree.ray(x, end, 8)
        for y, union in _union_of_balls(tree, x, walk, 5):
            checks += 1
            direct = tree.horoball_contains(end, x, y)
            if direct != union:
                fails.append(
                    f"horoball disagreement at y={y} (end={end}, x={x}): "
                    f"membership {direct}, union {union}"
                )
    return checks, fails


SUITES = {
    "busemann-cocycle": _suite_busemann_cocycle,
    "horosphere-equivariance": _suite_horosphere_equivariance,
    "drift-additivity": _suite_drift_additivity,
    "unipotent-transitivity": _suite_unipotent_transitivity,
    "horosphere-transitivity": _suite_horosphere_transitivity,
    "action-compatibility": _suite_action_compatibility,
    "unipotents-elliptic": _suite_unipotents_elliptic,
    "distance-bfs": _suite_distance_bfs,
    "busemann-stabilization": _suite_busemann_stabilization,
    "horoball-union": _suite_horoball_union,
}


def run_suite(field, name: str, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    rng = random.Random(f"{seed}:{name}")
    checks, fails = SUITES[name](field, rng)
    return SuiteResult(name=name, checks=checks, failures=fails)


def run_all(field, seed: int = 0, names=None) -> list[SuiteResult]:
    chosen = list(SUITES) if names is None else list(names)
    return [run_suite(field, name, seed) for name in chosen]
