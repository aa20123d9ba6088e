"""The (q+1)-regular tree of lattice classes over F_q((pi)), exactly.

Vertices are pairs (level n, residue a) with a an exact series taken modulo
pi^n; the vertex one level up forgets the top residue digit, and the q
children refine it. Level is unbounded in both directions, so the tree is
homogeneous of degree q+1. A child remembers the vertex it was built from,
and its parent is that very object; the link is a cache, neither compared
nor hashed, and it keeps the source vertex alive, as the search that built
the child does anyway.

Every boundary end is a projective vector (x : y) with boundary
coordinate w = y/x, and every question about an end reads that vector:
the matrix action and the separation of two ends alike.

* the single "up" end, reached by passing to coarser and coarser
  residues, is (0 : 1), w = infinity;
* a rational end is a pair (x, y) of coprime polynomials in t = pi^{-1}
  with x nonzero (the zero end w = 0 is (1 : 0)). The digits of w are
  expanded once and the expansion is doubled only when a deeper digit is
  asked for;
* a truncated end is (1 : w) with w known modulo pi^N only, its horizon.
  Any geometry that would need digits of w beyond N raises
  EndPrecisionExhausted instead of guessing.

A finite end w is reached from the up end along the line of vertices
(n; w mod pi^n). A vertex v leaves that line at level m(v), the lowest
degree below its level at which its residue differs from w (its level if
there is none), so its height toward the end is h(v) = level - 2 m(v); for
the up end h(v) = level. The Busemann function is busemann(x, y) =
h(x) - h(y), read off digits. It means walking d(x, y) steps along the
ray from x, and toward a truncated end that walk runs out of digits
exactly when m(x) reaches the horizon or d(x, y) exceeds
level(x) + N - 2 m(x), which is checked without walking. One walk from
the ray lists every horo-region: a vertex that leaves the ray from x at
its j-th vertex and goes k steps off it has busemann j - k, the
horoellipse of eccentricity lam admits it when k <= lam j, and the
horosphere is the horoball's (lam = 1) layer k = j.

On top of the vertex combinatorics this module provides distances, geodesic
paths, spheres, the step-toward-an-end map, Busemann relative
position, the horoball/horosphere membership tests and the horo-region
lists. Everything is decided by exact arithmetic on the stored coefficients;
nothing is sampled or approximated.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    EndPrecisionExhausted,
    EqualEndsError,
    InvalidInputError,
    SizeGuardExceeded,
)
from .field import Field
from .polys import gcd_t, divmod_t
from .series import INFINITY, LaurentSeries, _fused

# the most members `Tree.horoellipse_vertices` lists before refusing
_HOROELLIPSE_MEMBER_BOUND = 20_000


class Vertex:
    """Lattice class at depth `level` with residue a mod pi^level.

    An immutable value, equal to no tuple. The residue is exact with digits
    below the level only, so neighbors share it where they can. The hash is
    computed once; `_meet` keeps (end, m(v)) for the last end asked about.
    A child or parent built from v inherits it where v's value settles
    theirs: a child when m(v) < v.level, since it adds a digit at v.level
    only, and the parent always, as min(m(v), v.level - 1).

    A child keeps the vertex it was built from in `_up`, and `Tree.parent`
    returns that object, so a search that steps back to where it came from
    meets the vertex it holds and equality answers by identity. `_up` is a
    cache like `_meet`: neither takes part in equality or hashing. It keeps
    the source vertex alive, as the search that built the child does.
    """

    __slots__ = ("level", "residue", "_hash", "_meet", "_up")

    def __init__(self, level: int, residue: LaurentSeries):
        self.level = level
        self.residue = residue
        self._hash = None
        self._meet = None
        self._up = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Vertex or self.level != other.level:
            return False
        mine, theirs = self.residue, other.residue
        return (
            mine.coeffs == theirs.coeffs
            and mine.field is theirs.field
            and mine.prec == theirs.prec
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.level, self.residue))
        return self._hash

    def __repr__(self) -> str:
        return f"Vertex(level={self.level!r}, residue={self.residue!r})"

    def __str__(self) -> str:
        return f"({self.level}; {self.residue})"


class End:
    """Common base for boundary ends, each its vector (x : y); see the module docstring."""

    field: Field
    x: LaurentSeries
    y: LaurentSeries

    def digits(self, n: int) -> dict:
        """The digits of w below degree n, as a {degree: coefficient} dict.

        The dict may also hold deeper digits; callers read degrees < n only.
        """
        raise NotImplementedError

    def coordinate_mod(self, n: int) -> LaurentSeries:
        return LaurentSeries(
            self.field, {d: c for d, c in self.digits(n).items() if d < n}
        )

    def known_depth(self):
        """Horizon up to which the boundary coordinate is determined."""
        return INFINITY


class UpEnd(End):
    """The unique end in the direction of coarser lattices: (0 : 1), w = infinity."""

    def __init__(self, field: Field):
        self.field = field
        self.x, self.y = LaurentSeries.zero(field), LaurentSeries.one(field)

    def __eq__(self, other) -> bool:
        return isinstance(other, UpEnd) and other.field is self.field

    def __hash__(self) -> int:
        return hash(("up", id(self.field)))

    def digits(self, n: int) -> dict:
        raise InvalidInputError("the up end has no finite boundary coordinate")

    def __str__(self) -> str:
        return "up"


class RationalEnd(End):
    """End with coordinate w = y/x for coprime polynomials x, y in t.

    The pair is normalized (coprime, first nonzero entry monic) so equality
    and hashing are structural. x must be nonzero; w = infinity is UpEnd.
    """

    def __init__(self, field: Field, x: LaurentSeries, y: LaurentSeries):
        if not (x.is_exact() and y.is_exact()):
            raise InvalidInputError("rational ends need exact coordinates")
        if x.is_exact_zero() and y.is_exact_zero():
            raise InvalidInputError("(0, 0) is not a projective point")
        if x.is_exact_zero():
            raise InvalidInputError("w = infinity is the up end, not a rational end")
        shift = 0
        for s in (x, y):
            if s.coeffs:
                shift = max(shift, max(s.coeffs))
        x, y = x.shift(-shift), y.shift(-shift)
        if y.has_terms():
            g = gcd_t(x, y)
            x, _ = divmod_t(x, g)
            y, _ = divmod_t(y, g)
        else:
            x = LaurentSeries.one(field)
        inv = x.coeffs[min(x.coeffs)].inverse()
        self.field = field
        self.x = x.scale(inv)
        self.y = y.scale(inv)
        # w is known mod pi^_depth: every digit below v(w) is zero
        self._depth = self.valuation()
        self._digits = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalEnd)
            and other.field is self.field
            and other.x == self.x
            and other.y == self.y
        )

    def __hash__(self) -> int:
        return hash(("rat", self.x, self.y))

    def valuation(self):
        """v(w); INFINITY for the zero end."""
        return self.y.valuation() - self.x.valuation() if self.y.has_terms() else INFINITY

    def digits(self, n: int) -> dict:
        """The cached expansion of w, deepened by doubling its term count."""
        if n > self._depth:
            v = self.valuation()
            terms = max(n - v, 2 * (self._depth - v))
            self._digits = self.y.quotient(self.x, v + terms).coeffs
            self._depth = v + terms
        return self._digits

    def __str__(self) -> str:
        # numerator first: this is the end with coordinate w = y/x
        return f"rat({self.y}, {self.x})"


class TruncatedEnd(End):
    """A branch of ends: the vector (1 : w), w = y known modulo pi^N only."""

    def __init__(self, field: Field, y: LaurentSeries):
        if y.prec is INFINITY:
            raise InvalidInputError(
                "a truncated end needs a finite-precision coordinate; "
                "exact coordinates define a rational end"
            )
        self.field = field
        self.x, self.y = LaurentSeries.one(field), y

    def known_depth(self):
        return self.y.prec

    def digits(self, n: int) -> dict:
        if n > self.y.prec:
            raise EndPrecisionExhausted(
                f"end known mod pi^{self.y.prec}, digit at pi^{n - 1} requested"
            )
        return self.y.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedEnd)
            and other.field is self.field
            and other.y == self.y
        )

    def __hash__(self) -> int:
        return hash(("trunc", self.y))

    def __str__(self) -> str:
        return f"trunc({self.y.truncate(self.y.prec)}, {self.y.prec})"


def _first_difference(a: dict, b: dict, bound: int) -> int:
    """Lowest degree below `bound` at which two digit dicts differ, else `bound`.

    Field elements are canonical, so digits compare by identity; a missing
    digit is zero.
    """
    w = bound
    for d, c in a.items():
        if d < w and b.get(d) is not c:
            w = d
    for d in b:
        if d < w and d not in a:
            w = d
    return w


def _children(v: Vertex, digits) -> list[Vertex]:
    """The children of v with the given digits at pi^level, each keeping v.

    None or zero is the zero digit, whose child shares v's residue: no
    series changes after construction. v's residue is canonical with every
    degree below its level, so a nonzero digit appended to one copy of its
    digits keeps it canonical. Each child keeps v as `_up`, and v's m(v)
    when m(v) < v.level. A child is built by setting every slot of
    `Vertex`, without a call of its `__init__`.
    """
    level, residue = v.level, v.residue
    F, coeffs = residue.field, residue.coeffs
    meet = v._meet
    if meet is not None and meet[1] >= level:
        meet = None
    new, below = object.__new__, level + 1
    out = []
    for c in digits:
        child = new(Vertex)
        if c:
            grown = dict(coeffs)
            grown[level] = c
            child.residue = LaurentSeries._canonical(F, grown)
        else:
            child.residue = residue
        child.level, child._hash, child._meet, child._up = below, None, meet, v
        out.append(child)
    return out


def _require_nonnegative(what: str, value: int) -> None:
    if value < 0:
        raise InvalidInputError(f"{what} must be >= 0, got {value}")


def end_from_vector(field: Field, x: LaurentSeries, y: LaurentSeries) -> End:
    """The end of the projective vector (x, y), w = y/x; UpEnd when x = 0."""
    if x.is_exact_zero():
        return UpEnd(field)
    return RationalEnd(field, x, y)


def end_difference_valuation(e1: End, e2: End) -> int:
    """v(w1 - w2) for two non-up ends, from the cross product of their vectors.

    y1 x2 - y2 x1 = x1 x2 (w1 - w2), so v(w1 - w2) is its valuation less
    v(x1) + v(x2); a truncated end's x is 1. Raises EqualEndsError when
    the product is an exact zero (two equal rational ends) and
    EndPrecisionExhausted when it vanishes to its precision, which less
    v(x1) + v(x2) is the shared horizon of the two ends.
    """
    if isinstance(e1, UpEnd) or isinstance(e2, UpEnd):
        raise InvalidInputError("difference valuation needs two finite-coordinate ends")
    cross = _fused(e1.y, e2.x, e2.y, e1.x, minus=True)
    if cross.is_exact_zero():
        raise EqualEndsError("the two rational ends coincide")
    shift = e1.x.valuation() + e2.x.valuation()
    if cross.has_terms():
        return cross.valuation() - shift
    raise EndPrecisionExhausted(
        f"ends agree modulo pi^{cross.prec - shift}, the shared horizon; cannot separate them"
    )


class Tree:
    """The Bruhat-Tits tree over F_q((pi)); all geometry routes through here."""

    def __init__(self, field: Field):
        self.field = field
        self.base = Vertex(0, LaurentSeries.zero(field))
        self._zero_end = None

    # -- vertex bookkeeping --------------------------------------------------

    def vertex(self, level: int, residue: LaurentSeries) -> Vertex:
        """Canonical vertex: the residue is truncated to degrees < level."""
        if residue.field is not self.field:
            raise InvalidInputError("residue over the wrong field")
        return Vertex(level, residue.truncate(level))

    def end_up(self) -> UpEnd:
        return UpEnd(self.field)

    def end_zero(self) -> RationalEnd:
        """The end with boundary coordinate w = 0, built on first use."""
        if self._zero_end is None:
            F = self.field
            self._zero_end = RationalEnd(F, LaurentSeries.one(F), LaurentSeries.zero(F))
        return self._zero_end

    def parent(self, v: Vertex) -> Vertex:
        """v without its top digit, handed v's kept m(v).

        The vertex v was built from when v is a child; otherwise a new
        vertex on v's residue itself when the top digit is zero, else on one
        copy of its digits without it.
        """
        n, up = v.level - 1, v._up
        if up is None:
            residue = v.residue
            if n in residue.coeffs:
                coeffs = dict(residue.coeffs)
                del coeffs[n]
                residue = LaurentSeries._canonical(residue.field, coeffs)
            up = Vertex(n, residue)
        if v._meet is not None:
            up._meet = (v._meet[0], min(v._meet[1], n))
        return up

    def children(self, v: Vertex) -> list[Vertex]:
        """The q vertices below v, one per digit at pi^level (see `_children`)."""
        return _children(v, self.field.elements())

    def neighbors(self, v: Vertex) -> list[Vertex]:
        return [self.parent(v)] + _children(v, self.field.elements())

    def is_descendant(self, y: Vertex, x: Vertex) -> bool:
        """Whether y lies in the subtree hanging below x (y = x counts)."""
        return y.level >= x.level and y.residue.truncate(x.level) == x.residue

    # -- metric ---------------------------------------------------------------

    def meeting_level(self, x: Vertex, y: Vertex) -> int:
        """Level of the highest common ancestor.

        The lower of the two levels, or the lowest degree at which the
        residues differ if that comes first.
        """
        return _first_difference(
            x.residue.coeffs, y.residue.coeffs, min(x.level, y.level)
        )

    def distance(self, x: Vertex, y: Vertex) -> int:
        w = self.meeting_level(x, y)
        return (x.level - w) + (y.level - w)

    def path(self, x: Vertex, y: Vertex) -> list[Vertex]:
        """The geodesic from x to y, inclusive."""
        w = self.meeting_level(x, y)
        up = [Vertex(n, x.residue.truncate(n)) for n in range(x.level, w - 1, -1)]
        down = [Vertex(n, y.residue.truncate(n)) for n in range(w + 1, y.level + 1)]
        return up + down

    def midpoint(self, x: Vertex, y: Vertex) -> Vertex:
        d = self.distance(x, y)
        if d % 2:
            raise InvalidInputError("midpoint of an odd-length geodesic is an edge")
        return self.path(x, y)[d // 2]

    def sphere(self, x: Vertex, radius: int) -> list[Vertex]:
        """All vertices at distance exactly `radius`, BFS order, without a seen set."""
        _require_nonnegative("sphere radius", radius)
        layer = [(x, None)]
        for _ in range(radius):
            layer = [(u, v) for v, back in layer for u in self.neighbors(v) if u != back]
        return [v for v, _ in layer]

    # -- ends and rays ---------------------------------------------------------

    def step_to_end(self, x: Vertex, end: End) -> Vertex:
        """The neighbor of x one step along the geodesic toward the end."""
        if isinstance(end, UpEnd):
            return self.parent(x)
        n = x.level
        limit = end.known_depth()
        if self._end_meeting(x, end) < min(n, limit):
            return self.parent(x)
        if limit < n:
            raise EndPrecisionExhausted(
                f"end known mod pi^{limit} cannot steer below a level-{n} vertex "
                f"it agrees with"
            )
        return _children(x, (end.digits(n + 1).get(n),))[0]

    def ray(self, x: Vertex, end: End, steps: int) -> list[Vertex]:
        """x and its first `steps` successors toward the end."""
        out = [x]
        for _ in range(steps):
            out.append(self.step_to_end(out[-1], end))
        return out

    # -- relative position and horoellipses -------------------------------------

    def _end_meeting(self, v: Vertex, end: End) -> int:
        """m(v): the level at which v's path up meets the line of the end.

        The lowest degree below v's level at which its residue differs from
        the end's coordinate, else the level. A truncated end caps this at
        its horizon. The value for the last end asked about, compared by
        identity, is kept on the vertex.
        """
        meet = v._meet
        if meet is not None and meet[0] is end:
            return meet[1]
        bound = min(v.level, end.known_depth())
        m = _first_difference(v.residue.coeffs, end.digits(bound), bound)
        v._meet = (end, m)
        return m

    def busemann(self, x: Vertex, y: Vertex, end: End) -> int:
        """Signed overlap of [x, end) with the position of y: h(x) - h(y).

        Equals d(x, y) when y lies on the ray from x to the end, is negated
        when the ray to y points away, and interpolates additively: moving y
        one step toward the end raises the value by one. Vanishes exactly on
        the horosphere through x. Toward a truncated end of horizon N it is
        the value of walking d(x, y) steps from x toward the end, and that
        walk climbs to level m(x) and descends the end's line to level N:
        it runs out of digits exactly when m(x) = N or d(x, y) > level(x) +
        N - 2 m(x). Only then is the walk taken, to raise where it does;
        otherwise every completion of the end gives the same value, so the
        height of y reads only the known digits.
        """
        if x == y:
            return 0
        if isinstance(end, UpEnd):
            return x.level - y.level
        mx = self._end_meeting(x, end)
        limit = end.known_depth()
        if limit is not INFINITY:
            steps = self.distance(x, y)
            if mx >= limit or steps > x.level + limit - 2 * mx:
                self.ray(x, end, steps)
        return (x.level - 2 * mx) - (y.level - 2 * self._end_meeting(y, end))

    def horoball_contains(self, end: End, x: Vertex, y: Vertex) -> bool:
        return self.busemann(x, y, end) >= 0

    def horosphere_contains(self, end: End, x: Vertex, y: Vertex) -> bool:
        return self.busemann(x, y, end) == 0

    def horoellipse_vertices(
        self, end: End, x: Vertex, lam: Fraction, depth: int
    ) -> list[Vertex]:
        """Members of the horoellipse within distance `depth` of x (BFS order).

        See `_horoellipse_walk`; the horoball's member count grows like
        q^(depth/2).
        """
        lam = Fraction(lam)
        if not 0 <= lam <= 1:
            raise InvalidInputError("horoellipse eccentricity must lie in [0, 1]")
        _require_nonnegative("horoellipse depth", depth)
        return [v for v, *_ in self._horoellipse_walk(end, x, lam, depth)]

    def horosphere_vertices(self, end: End, x: Vertex, depth: int) -> list[Vertex]:
        """Members of the horosphere within distance `depth` of x (BFS order).

        The horoball's members with k = j (see `_horoellipse_walk`): they
        leave the ray from x at its j-th vertex and lie j steps from it.
        """
        _require_nonnegative("horosphere depth", depth)
        walk = self._horoellipse_walk(end, x, Fraction(1), depth)
        return [v for v, _, j, k in walk if j == k]

    def _horoellipse_walk(self, end, x, lam, depth):
        """(vertex, its predecessor toward x, j, k) per horoellipse member.

        A vertex j steps along the ray from x and then k steps off it has
        busemann j - k and distance j + k, so it is a member exactly when
        lam.den * k <= lam.num * j. The search from x expands members only;
        they are closed under stepping back toward x, so it lists them in
        the order a breadth-first search of the ball meets them. The ray
        is always a member, so for a truncated end walking it `depth` steps
        raises exactly when some vertex of the ball would. More members
        than `_HOROELLIPSE_MEMBER_BOUND` raise SizeGuardExceeded as soon as
        they are listed; the ray alone has depth + 1, so a depth past the
        bound is refused before the first step.
        """
        bound = _HOROELLIPSE_MEMBER_BOUND

        def refuse(count):
            return SizeGuardExceeded(
                f"horoellipse within distance {depth} of {x} has at least "
                f"{count} members (bound {bound})"
            )

        if depth + 1 > bound:
            raise refuse(depth + 1)
        num, den = lam.numerator, lam.denominator
        ray = self.ray(x, end, depth)
        frontier = [(x, None, 0, 0)]
        out = list(frontier)
        for _ in range(depth):
            nxt = []
            for v, back, j, k in frontier:
                ahead = ray[j + 1] if k == 0 else None
                if den * (k + 1) > num * j:
                    # no neighbor further off the ray is a member
                    if ahead is not None:
                        nxt.append((ahead, v, j + 1, 0))
                else:
                    for u in self.neighbors(v):
                        if u == ahead:
                            nxt.append((u, v, j + 1, 0))
                        elif u != back:
                            nxt.append((u, v, j, k + 1))
                if len(out) + len(nxt) > bound:
                    raise refuse(len(out) + len(nxt))
            out += nxt
            frontier = nxt
        return out
