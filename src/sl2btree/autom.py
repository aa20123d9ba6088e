"""Invertible 2x2 matrices over F_q((pi)) acting on the tree.

A matrix acts on vertices through its action on lattice classes and on the
boundary through the induced projective map; scalar multiples act
identically, and all predicates here are projective. The central dichotomy
for a type-preserving element (even valuation of the determinant) is read
off valuations alone:

    twice the trace valuation >= determinant valuation  => elliptic
                                                           (fixes a vertex)
    twice the trace valuation <  determinant valuation  => hyperbolic
          (translates a line by  det valuation - 2 * trace valuation)

Elliptic elements come with a certified fixed vertex (the midpoint of a
displacement geodesic, which the element is checked to fix). Hyperbolic
elements come with their translation length and their attracting/repelling
ends: exact rational ends for triangular matrices, and for full matrices a
truncated end certified to the requested depth by an explicit
subtree-trapping test (the candidate branch is mapped into itself
strictly, which pins every computed digit of the attracting end).

Also here: the depth to which an element fixes the subtree below a vertex,
and the drift of an end stabilizer along its end (the Busemann character
of the Borel subgroup, Serre, Trees II.2), read off the eigenvalue: for
the end's vector v and g*v = lam*v it is v(det g) - 2 v(lam).
"""

from __future__ import annotations

from .errors import (
    DoesNotFixEnd,
    InsufficientPrecision,
    InvalidInputError,
    NonterminationGuard,
    NotFixingError,
    NotTypePreserving,
)
from .field import Field
from .series import INFINITY, LaurentSeries, _fused
from .tree import (
    End,
    RationalEnd,
    Tree,
    TruncatedEnd,
    UpEnd,
    Vertex,
    end_from_vector,
)

# Caps of `_attracting_end_iterated`. Squarings of an exact element: round r
# certifies about 2^(r-1) times the translation length digits, and the
# entries of its power span 2^r times the element's degrees, so the guard
# fires before they can exhaust memory. Steps of an inexact element: each
# gains about half the translation length, until the precision runs out.
_SQUARING_CAP = 20
_STEP_CAP = 512


def _divide_available(num: LaurentSeries, den: LaurentSeries) -> LaurentSeries:
    """num/den to the precision the operands support (at least one inexact)."""
    budget = INFINITY
    if den.prec is not INFINITY:
        budget = min(budget, den.prec - den.valuation())
    if num.prec is not INFINITY:
        budget = min(budget, num.prec - num.valuation_lower_bound())
    if budget is INFINITY:
        raise InvalidInputError("unbounded exact division has no term budget")
    if budget < 1:
        raise InsufficientPrecision("no determined digits survive the division")
    return num * den.inverse(budget)


def _end_of(field: Field, x: LaurentSeries, y: LaurentSeries) -> End:
    """The end (x : y): exact when x and y are exact or either is an exact zero.

    Otherwise a truncated end, y/x to the precision the two support.
    """
    if y.is_exact_zero():
        x = LaurentSeries.one(field)  # the zero end, however x is known
    if x.is_exact_zero() or (x.is_exact() and y.is_exact()):
        return end_from_vector(field, x, y)
    return TruncatedEnd(field, _divide_available(y, x))


def _check_entries(field: Field, entries) -> None:
    for entry in entries:
        if not isinstance(entry, LaurentSeries) or entry.field is not field:
            raise InvalidInputError("matrix entries must be series over the field")


class Classification:
    """Outcome of the elliptic/hyperbolic dichotomy.

    Hyperbolic results carry the translation length; the attracting and
    repelling ends are filled in on request (`TreeAutomorphism.classify`
    with `ends_depth`). Elliptic results carry a checked fixed vertex.
    """

    __slots__ = ("kind", "length", "fixed_vertex", "attracting", "repelling")

    def __init__(self, kind: str, length: int | None = None, fixed_vertex: Vertex | None = None,
                 attracting: End | None = None, repelling: End | None = None):
        self.kind = kind  # "elliptic" | "hyperbolic"
        self.length = length
        self.fixed_vertex = fixed_vertex
        self.attracting = attracting
        self.repelling = repelling

    def __repr__(self) -> str:
        # printed in the failure messages of the drift and classification suites
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"Classification({fields})"


class TreeAutomorphism:
    """An element of GL2(F_q((pi))) together with its tree action."""

    __slots__ = ("field", "a", "b", "c", "d", "_det")

    def __init__(self, field: Field, a, b, c, d):
        _check_entries(field, (a, b, c, d))
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d
        self._det = None
        if self.det().is_exact_zero():
            raise InvalidInputError("matrix is singular")

    @classmethod
    def _product(cls, field: Field, a, b, c, d, det=None) -> "TreeAutomorphism":
        """An invertible matrix, unchecked: a product of exact matrices,
        det(gh) = det(g) det(h) != 0, or one whose nonzero `det` is known."""
        g = object.__new__(cls)
        g.field, g.a, g.b, g.c, g.d, g._det = field, a, b, c, d, det
        return g

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, field: Field) -> "TreeAutomorphism":
        one, zero = LaurentSeries.one(field), LaurentSeries.zero(field)
        return cls._product(field, one, zero, zero, one, one)

    @classmethod
    def diagonal(cls, field: Field, top: LaurentSeries, bottom: LaurentSeries):
        """diag(top, bottom), with determinant top * bottom."""
        _check_entries(field, (top, bottom))
        if top.is_exact_zero() or bottom.is_exact_zero():
            raise InvalidInputError("matrix is singular")
        zero = LaurentSeries.zero(field)
        return cls._product(field, top, zero, zero, bottom, top * bottom)

    @classmethod
    def upper_shear(cls, field: Field, b: LaurentSeries) -> "TreeAutomorphism":
        """[[1, b], [0, 1]]: fixes the zero end. The determinant is exactly 1,
        since the entry under b is an exact zero."""
        _check_entries(field, (b,))
        one, zero = LaurentSeries.one(field), LaurentSeries.zero(field)
        return cls._product(field, one, b, zero, one, one)

    @classmethod
    def lower_shear(cls, field: Field, c: LaurentSeries) -> "TreeAutomorphism":
        """[[1, 0], [c, 1]]: translates residues by c; determinant exactly 1."""
        _check_entries(field, (c,))
        one, zero = LaurentSeries.one(field), LaurentSeries.zero(field)
        return cls._product(field, one, zero, c, one, one)

    @classmethod
    def standard_step(cls, field: Field) -> "TreeAutomorphism":
        """diag(pi^{-1}, pi): translation by 2 toward the zero end."""
        return cls.standard_step_power(field, 1)

    @classmethod
    def standard_step_power(cls, field: Field, m: int) -> "TreeAutomorphism":
        """standard_step(field)**m = diag(pi^{-m}, pi^m)."""
        return cls.diagonal(
            field, LaurentSeries.pi_power(field, -m), LaurentSeries.pi_power(field, m)
        )

    @classmethod
    def half_turn(cls, field: Field) -> "TreeAutomorphism":
        """[[0,-1],[1,0]]: swaps the zero end and the up end."""
        one, zero = LaurentSeries.one(field), LaurentSeries.zero(field)
        return cls._product(field, zero, -one, one, zero, one)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def det(self) -> LaurentSeries:
        if self._det is None:
            self._det = _fused(self.a, self.d, self.b, self.c, minus=True)
        return self._det

    def trace(self) -> LaurentSeries:
        return self.a + self.d

    def adjugate(self) -> "TreeAutomorphism":
        """[[d,-b],[-c,a]]; the projective inverse (exact inverse when det = 1)."""
        return TreeAutomorphism._product(
            self.field, self.d, -self.b, -self.c, self.a, self.det()
        )

    def __mul__(self, other: "TreeAutomorphism") -> "TreeAutomorphism":
        if other.field is not self.field:
            raise InvalidInputError("matrices over different fields")
        exact = all(e.prec is INFINITY for e in (*self.entries(), *other.entries()))
        return (TreeAutomorphism._product if exact else TreeAutomorphism)(
            self.field,
            _fused(self.a, other.a, self.b, other.c),
            _fused(self.a, other.b, self.b, other.d),
            _fused(self.c, other.a, self.d, other.c),
            _fused(self.c, other.b, self.d, other.d),
        )

    def __pow__(self, k: int) -> "TreeAutomorphism":
        """Square and multiply: bit_length(|k|) + popcount(|k|) - 2 products, k != 0."""
        if k < 0:
            return self.adjugate() ** (-k)
        if k <= 1:
            return self if k else TreeAutomorphism.identity(self.field)
        half = self ** (k >> 1)
        return half * half * self if k & 1 else half * half

    def scaled(self, s: LaurentSeries) -> "TreeAutomorphism":
        """s * self; an exact nonzero s scales the determinant by s^2."""
        a, b, c, d = self.a * s, self.b * s, self.c * s, self.d * s
        if s.prec is INFINITY and s.coeffs:
            return TreeAutomorphism._product(self.field, a, b, c, d, s * s * self.det())
        return TreeAutomorphism(self.field, a, b, c, d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TreeAutomorphism)
            and other.field is self.field
            and self.entries() == other.entries()
        )

    def __hash__(self) -> int:
        return hash(self.entries())

    def proportional_to(self, other: "TreeAutomorphism") -> bool:
        """Equality in the projective group (entries agree up to one scalar)."""
        e1, e2 = self.entries(), other.entries()
        for i in range(4):
            for j in range(i + 1, 4):
                if not _fused(e1[i], e2[j], e1[j], e2[i], minus=True).is_exact_zero():
                    return False
        return True

    def is_scalar(self) -> bool:
        return self.proportional_to(TreeAutomorphism.identity(self.field))

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    def __repr__(self) -> str:
        return f"TreeAutomorphism({self})"

    # -- the action ------------------------------------------------------------

    def act_vertex(self, v: Vertex) -> Vertex:
        """Image of a vertex: column-reduce the transformed lattice basis.

        The transformed basis has first row (g11 + g12*a, g12*pi^n); the
        entry of smaller valuation is the pivot, the new level follows from
        the determinant valuation, and the new residue is the ratio of the
        pivot column's entries.
        """
        n, res = v.level, v.residue
        A = _fused(self.b, res, self.a)
        B = self.b.shift(n)
        det_val = self.det().valuation() + n
        vA, vB = (s.valuation() if s.has_terms() else None for s in (A, B))
        if vA is None and vB is None:
            raise InsufficientPrecision(
                "top row of the transformed basis has no visible pivot"
            )
        use_A = vB is None or (vA is not None and vA <= vB)
        if use_A and not A.is_exact() and (vA is None or vA >= A.prec):
            raise InsufficientPrecision("pivot valuation beyond stored precision")
        if use_A and vB is None and not B.is_exact():
            # B invisible but inexact: it could still undercut A.
            if B.prec <= vA:
                raise InsufficientPrecision("cannot compare pivot valuations")
        if not use_A and vA is None and not A.is_exact():
            if A.prec <= vB:
                raise InsufficientPrecision("cannot compare pivot valuations")
        if use_A:
            new_level = det_val - 2 * vA
            residue = _fused(self.d, res, self.c).quotient(A, new_level)
        else:
            new_level = det_val - 2 * vB
            residue = self.d.shift(n).quotient(B, new_level)
        return Vertex(new_level, residue)

    def act_end(self, end: End) -> End:
        """Image of a boundary end under the projective action.

        The end (x : y), the up end being (0 : 1), goes to
        (a*x + b*y : c*x + d*y) through `_end_of`, so an exact vector keeps
        its exact coordinates whatever the matrix's precision. A truncated
        end w goes to (c + d*w) / (a + b*w), to the digits that determine.
        """
        F = self.field
        if isinstance(end, TruncatedEnd):
            w = end.coordinate
            num, den = _fused(self.d, w, self.c), _fused(self.b, w, self.a)
            return TruncatedEnd(F, _divide_available(num, den))
        x, y = end.x, end.y
        return _end_of(F, _fused(self.a, x, self.b, y), _fused(self.c, x, self.d, y))

    def fixes_vertex(self, v: Vertex) -> bool:
        return self.act_vertex(v) == v

    def fixes_end(self, end: End) -> bool:
        """Exact test for exact data; truncated ends compare to their horizon."""
        image = self.act_end(end)
        if isinstance(end, TruncatedEnd) or isinstance(image, TruncatedEnd):
            depth = min(end.known_depth(), image.known_depth())
            return end.coordinate_mod(depth) == image.coordinate_mod(depth)
        return image == end

    # -- classification ----------------------------------------------------------

    def translation_length(self) -> int:
        """0 for elliptic elements, the axis step length for hyperbolic ones.

        A visible trace term settles the comparison of 2 v(trace) with
        v(det); a trace that merely vanishes to its precision settles it
        only when the precision alone already forces the elliptic side.
        """
        det_val = self.det().valuation()
        if det_val % 2:
            raise NotTypePreserving(
                "odd determinant valuation swaps the two vertex types"
            )
        tr = self.trace()
        if tr.has_terms():
            return max(0, det_val - 2 * tr.valuation())
        if tr.is_exact() or 2 * tr.prec >= det_val:
            return 0
        raise InsufficientPrecision(
            "trace valuation unresolved at this precision",
            needed=(det_val + 1) // 2 + 1,
        )

    def classify(self, ends_depth: int | None = None) -> Classification:
        """Elliptic/hyperbolic dichotomy with a checked witness.

        With `ends_depth` set, a hyperbolic result also carries the
        attracting and repelling ends (exact where the element is
        triangular, truncated at that depth otherwise).
        """
        if ends_depth is not None and ends_depth < 1:
            raise InvalidInputError("end depth must be >= 1")
        length = self.translation_length()
        if length > 0:
            result = Classification(kind="hyperbolic", length=length)
            if ends_depth is not None:
                result.attracting = self.attracting_end(depth=ends_depth)
                result.repelling = self.repelling_end(depth=ends_depth)
            return result
        tree = Tree(self.field)
        image = self.act_vertex(tree.base)
        mid = tree.midpoint(tree.base, image)
        if self.act_vertex(mid) != mid:
            raise NonterminationGuard(
                "displacement midpoint not fixed; classification is inconsistent"
            )
        return Classification(kind="elliptic", fixed_vertex=mid)

    def _triangular_fixed_ends(self):
        """(end, eigenvalue) pairs when an off-diagonal entry is an exact zero, else None."""
        F = self.field
        if self.c.is_exact_zero():
            first = (
                RationalEnd(F, LaurentSeries.one(F), LaurentSeries.zero(F)),
                self.a,
            )
            return [first, (_end_of(F, self.b, self.d - self.a), self.d)]
        if self.b.is_exact_zero():
            return [
                (UpEnd(F), self.d),
                (_end_of(F, self.a - self.d, self.c), self.a),
            ]
        return None

    def attracting_end(self, depth: int = 12) -> End:
        """The forward end of a hyperbolic element.

        Exact (rational or up) for triangular matrices. Otherwise a
        truncated end to the requested depth, certified by mapping the
        candidate subtree strictly into itself.
        """
        if depth < 1:
            raise InvalidInputError("end depth must be >= 1")
        length = self.translation_length()
        if length == 0:
            raise InvalidInputError("elliptic elements have no attracting end")
        pairs = self._triangular_fixed_ends()
        if pairs is not None:
            (e1, l1), (e2, l2) = pairs
            return e1 if l1.valuation() < l2.valuation() else e2
        return self._attracting_end_iterated(depth)

    def repelling_end(self, depth: int = 12) -> End:
        return self.adjugate().attracting_end(depth)

    def _attracting_end_iterated(self, depth: int) -> End:
        F = self.field
        tree = Tree(F)
        # The fixed ends w solve b w^2 + (a - d) w - c = 0, so (w+ - w-)^2 is
        # (tr^2 - 4 det) / b^2, of valuation 2 v(tr) - 2 v(b) when hyperbolic.
        # Only a branch below the level where they part holds w+ without w-.
        level = max(depth, self.trace().valuation() - self.b.valuation() + 1)
        # The candidate is (h.b : h.d), the image of the up end. An exact
        # element is squared, h = g^(2^r) in round r, which doubles the
        # candidate's agreement with w+ each round. An inexact one steps,
        # h = g^k: a square can skip the few powers whose candidate still
        # has the digits to certify.
        exact = all(e.prec is INFINITY for e in self.entries())
        cap = _SQUARING_CAP if exact else _STEP_CAP
        h = self
        for round_ in range(cap):
            if round_:
                h = h * h if exact else self * h
            candidate = _end_of(F, h.b, h.d)
            if isinstance(candidate, UpEnd):
                continue
            res = candidate.coordinate_mod(level)
            branch = Vertex(level, res)
            image = self.act_vertex(branch)
            if not tree.is_descendant(image, branch):
                continue
            parent_image = self.act_vertex(tree.parent(branch))
            if tree.distance(branch, parent_image) == tree.distance(branch, image) + 1:
                # the branch is carried inward from the outside: wrong side
                continue
            return TruncatedEnd(F, res.reduce_precision(depth))
        raise NonterminationGuard(
            f"no certified attracting branch within {cap} iterations"
        )

    # -- fixing depth --------------------------------------------------------------

    def fixing_depth(self, v: Vertex):
        """How far below v the element fixes the subtree pointwise.

        0 means v is fixed but some child moves; INFINITY means the element
        is scalar. Raises NotFixingError when v itself moves.
        """
        if not self.fixes_vertex(v):
            raise NotFixingError(f"element does not fix {v}")
        F = self.field
        one, zero = LaurentSeries.one(F), LaurentSeries.zero(F)
        basis = TreeAutomorphism(
            F, one, zero, v.residue, LaurentSeries.pi_power(F, v.level)
        )
        h = basis.adjugate() * self * basis
        entries = h.entries()
        visible = [e.valuation() for e in entries if e.has_terms()]
        if not visible:
            raise InsufficientPrecision("matrix has no visible entry in this basis")
        shift = min(visible)
        for e in entries:
            if not e.has_terms() and not e.is_exact() and e.prec <= shift:
                raise InsufficientPrecision(
                    "an entry vanishes to its precision; depth is unresolved"
                )
        ha, hb, hc, hd = (e.shift(-shift) for e in entries)
        probes = (hc, hb, ha - hd)
        depths = []
        for s in probes:
            if s.has_terms():
                depths.append(s.valuation())
            elif not s.is_exact():
                raise InsufficientPrecision(
                    "fixing depth unresolved: an off-diagonal entry vanishes "
                    "to its precision only"
                )
        if not depths:
            return INFINITY
        return min(depths)


def drift_along_end(g: TreeAutomorphism, end: End) -> int:
    """Signed distance the element translates along the given fixed end.

    Positive values move toward the end; the map is additive on the end's
    stabilizer and vanishes exactly on its elliptic part. It is the
    Busemann character read off the eigenvalue: g*v = lam*v for the end's
    vector v = (x : y), and the drift is v(det g) - 2 v(lam), with v(lam)
    = v((g*v)_i) - v(v_i) at the first nonzero coordinate i of v.

    This is twice the step power m of the factorization diagonal *
    step^m * shear of g at the end. There a determinant-1 conjugator c
    with c*v = (1, 0) makes h = c*g*adj(c) upper triangular with diagonal
    (lam, det g / lam); h scaled by pi^(-v(det g)/2) has a unit
    determinant, and m is the valuation of its bottom-right entry,
    v(det g) - v(lam) - v(det g)/2. The refusals come in the
    factorization's order: a truncated end, then det(v, g*v) != 0
    (DoesNotFixEnd, that determinant being h's bottom-left entry), then an
    odd v(det g) (NotTypePreserving).
    """
    if isinstance(end, TruncatedEnd):
        raise InvalidInputError("the drift needs an exact end")
    x, y = end.x, end.y
    gx, gy = _fused(g.a, x, g.b, y), _fused(g.c, x, g.d, y)
    # det(v, g*v), the bottom-left entry of c*g*adj(c)
    if not _fused(x, gy, y, gx, minus=True).is_exact_zero():
        raise DoesNotFixEnd(f"element does not fix the end {end}")
    det_val = g.det().valuation()
    if det_val % 2:
        raise NotTypePreserving("odd determinant valuation swaps the vertex types")
    image, coordinate = (gx, x) if x.coeffs else (gy, y)
    return det_val - 2 * (image.valuation() - coordinate.valuation())
