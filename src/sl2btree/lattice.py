"""Polynomial lattices acting on the tree.

`NagaoLattice` is SL2 of the polynomial ring F_q[t] sitting inside the
tree's automorphisms, with t the degree -1 monomial: every vertex is
equivalent under it to exactly one vertex (n, 0) on the standard ray with
n >= 0, and `reduce_vertex` computes that normal form together with a
group element witnessing it. `CongruenceLattice` is the kernel of entrywise
reduction modulo a nonconstant polynomial f. The global structure of
either is driven by the finite matrix group over F_q[t]/(f), materialized
in `CosetTable`: the full lattice is the level f = 1 case, whose residue
ring F_q[t]/(1) is the zero ring and whose residue group is trivial.

Vertex stabilizers come in closed form (constant matrices at the origin,
upper-triangular matrices with bounded offset along the ray) and are
conjugated to arbitrary vertices through the reduction witness;
`stabilizer_bruteforce` recomputes them by direct enumeration for
cross-checking. Boundary ends that are fixed by nontrivial translations
of the lattice are recognized by `is_cuspidal`, which hands back the
conjugator into standard position and the parameter module of the
fixing translations.
"""

import functools
import itertools
import operator
from dataclasses import dataclass

from .autom import TreeAutomorphism
from .errors import (
    EndPrecisionExhausted,
    InvalidInputError,
    NonterminationGuard,
    SizeGuardExceeded,
)
from .field import Field
from .polys import (
    ResidueRing,
    all_t_polys,
    is_t_poly,
    mod_t,
    monic_t,
    t_degree,
    xgcd_t,
)
from .series import LaurentSeries
from .tree import End, RationalEnd, Tree, TruncatedEnd, UpEnd, Vertex

_REDUCE_CAP_BASE = 64


def _const(field: Field, value) -> LaurentSeries:
    return LaurentSeries.exact(field, {0: field.element(value)})


def _upper(field: Field, alpha, offset: LaurentSeries) -> TreeAutomorphism:
    """[[alpha, offset], [0, alpha^{-1}]] for a unit constant alpha."""
    zero = LaurentSeries.zero(field)
    return TreeAutomorphism(
        field, _const(field, alpha), offset, zero, _const(field, alpha.inverse())
    )


@dataclass
class ReducedVertex:
    """Normal form of a vertex under the polynomial lattice.

    witness * original = (level, 0), with level >= 0.
    """

    level: int
    witness: TreeAutomorphism
    vertex: Vertex


@dataclass
class StabilizerGroup:
    """A vertex stabilizer in closed form.

    `conjugator` carries the vertex to its normal form (level, 0); the
    group is the conjugate of the closed-form group there. `elements` is
    populated only when the order is within the materialization bound.
    """

    vertex: Vertex
    level: int
    order: int
    conjugator: TreeAutomorphism
    elements: list[TreeAutomorphism] | None = None


@dataclass
class CuspData:
    """A boundary end fixed by nontrivial translations of the lattice.

    `conjugator` is a determinant-1 polynomial matrix carrying the end to
    the zero end. The translations fixing the end are the conjugates of
    [[1, b], [0, 1]] for b in parameter_multiple * F_q[t], sitting inside
    the full end stabilizer with the given finite index.
    """

    end: End
    conjugator: TreeAutomorphism
    parameter_multiple: LaurentSeries
    stabilizer_index: int


@dataclass
class UnknownCusp:
    """Bounded evidence about a truncated end: no verdict is possible.

    A branch known to finite depth never determines whether the ends in
    it are rational, so the report carries the stabilizer orders of the
    vertices along the branch as far as they are determined.
    """

    end: End
    orders: list[int]
    max_order: int
    note: str = "end truncated; stabilizer orders along the known branch only"


class NagaoLattice:
    """SL2(F_q[t]) on the (q+1)-regular tree: the congruence lattice of level 1."""

    kind = "nagao"

    def __init__(self, field: Field):
        self.field = field
        self.tree = Tree(field)
        self.level = LaurentSeries.one(field)
        self.level_degree = 0
        self._table = None

    @property
    def q(self) -> int:
        return self.field.q

    def __repr__(self) -> str:
        return f"NagaoLattice(q={self.q})"

    def config(self) -> dict:
        return {"kind": "nagao", "q": self.q}

    # -- membership ---------------------------------------------------------

    def contains(self, g: TreeAutomorphism) -> bool:
        """Polynomial entries, determinant 1, and g = I entrywise mod the level."""
        if not all(is_t_poly(e) for e in g.entries()):
            return False
        one = LaurentSeries.one(self.field)
        det = g.det()
        if not (det.is_exact() and det == one):
            return False
        return not any(
            mod_t(e, self.level).has_terms() for e in (g.a - one, g.b, g.c, g.d - one)
        )

    def coset_table(self) -> "CosetTable":
        if self._table is None:
            self._table = CosetTable(self.field, self.level)
        return self._table

    def require_member(self, g: TreeAutomorphism) -> None:
        if not self.contains(g):
            raise InvalidInputError(f"{g} is not in {self!r}")

    # -- vertex reduction ---------------------------------------------------

    def reduce_vertex(self, v: Vertex) -> ReducedVertex:
        """Carry a vertex to its unique normal form (n, 0), n >= 0.

        Alternates translating away the polynomial part of the residue
        (a lower shear) and inverting through the origin (the half turn),
        which strictly lowers the level. Both steps act on (level, residue)
        directly: the shear drops the polynomial part, the half turn maps
        (n; 0) to (-n; 0) and (n; r) with v(r) = m >= 1 to
        (n - 2m; -r^{-1} mod pi^{n-2m}). The witness is the product of
        those steps, kept as row operations on its four entries: a lower
        shear by s adds s times the first row to the second, the half turn
        maps rows (r1, r2) to (-r2, r1). It is verified before returning.
        """
        F = self.field
        one, zero = LaurentSeries.one(F), LaurentSeries.zero(F)
        a, b, c, d = one, zero, zero, one
        cur = v
        for _ in range(_REDUCE_CAP_BASE + 2 * abs(v.level)):
            n, res = cur.level, cur.residue
            poly_part = {k: x for k, x in res.coeffs.items() if k <= 0}
            if poly_part:
                s = -LaurentSeries.exact(F, poly_part)
                cur = Vertex(n, res + s)
                c, d = c + s * a, d + s * b
                continue
            if not res.has_terms() and n >= 0:
                break
            # residue zero above the origin, or all of positive degree: invert
            if res.has_terms():
                m = res.valuation()
                cur = Vertex(n - 2 * m, -res.inverse(n - m).truncate(n - 2 * m))
            else:
                cur = Vertex(-n, res)
            a, b, c, d = -c, -d, a, b
        else:
            raise NonterminationGuard(f"vertex reduction did not settle for {v}")
        g = TreeAutomorphism(F, a, b, c, d)
        if g.act_vertex(v) != cur:
            raise NonterminationGuard(f"reduction witness failed to check for {v}")
        return ReducedVertex(level=cur.level, witness=g, vertex=cur)

    # -- stabilizers ---------------------------------------------------------

    def base_order(self, n: int) -> int:
        """Order of the stabilizer of the standard-ray vertex (n, 0)."""
        q = self.q
        if n < 0:
            raise InvalidInputError("normal forms have level >= 0")
        if n == 0:
            return q**3 - q
        return (q - 1) * q ** (n + 1)

    def edge_order(self, n: int) -> int:
        """Order of the common stabilizer of (n, 0) and (n+1, 0)."""
        q = self.q
        if n < 0:
            raise InvalidInputError("standard-ray edges start at level 0")
        if n == 0:
            return q * (q - 1)
        return self.base_order(n)

    def base_stabilizer_elements(self, n: int):
        """The closed-form stabilizer of (n, 0), deterministically ordered."""
        F = self.field
        if n == 0:
            elems = list(F.elements())
            for a, b, c, d in itertools.product(elems, repeat=4):
                if a * d - b * c == F.one:
                    yield TreeAutomorphism(
                        F, _const(F, a), _const(F, b), _const(F, c), _const(F, d)
                    )
            return
        for alpha in F.units():
            for b in all_t_polys(F, n):
                yield _upper(F, alpha, b)

    def stabilizer_order(self, v: Vertex) -> int:
        return self.base_order(self.reduce_vertex(v).level)

    def stabilizer(self, v: Vertex, materialize_bound: int = 10_000) -> StabilizerGroup:
        """The stabilizer of any vertex, conjugated from its normal form."""
        red = self.reduce_vertex(v)
        order = self.base_order(red.level)
        conj = red.witness
        elements = None
        if order <= materialize_bound:
            inv = conj.adjugate()
            elements = [
                inv * s * conj for s in self.base_stabilizer_elements(red.level)
            ]
        return StabilizerGroup(
            vertex=v,
            level=red.level,
            order=order,
            conjugator=conj,
            elements=elements,
        )

    # -- cusps ----------------------------------------------------------------

    def unipotent_parameter_multiple(self) -> LaurentSeries:
        """b runs over multiples of this in the standard cusp translations."""
        return self.level

    def cusp_stabilizer_index(self) -> int:
        """Index of the translation part inside a full end stabilizer."""
        return self.q - 1

    def end_conjugator(self, end: End) -> TreeAutomorphism:
        """A member of the lattice carrying a non-truncated end to the zero end."""
        F = self.field
        if isinstance(end, UpEnd):
            x, y = LaurentSeries.zero(F), LaurentSeries.one(F)
        elif isinstance(end, RationalEnd):
            x, y = end.x, end.y
        else:
            raise InvalidInputError("truncated ends have no exact conjugator")
        g, u, w = xgcd_t(x, y)
        if t_degree(g) != 0:
            raise NonterminationGuard(
                "end coordinates were not coprime; normalization is broken"
            )
        zero_end = self.tree.end_zero()
        conj = TreeAutomorphism(F, u, w, -y, x)
        if conj.act_end(end) != zero_end:
            raise NonterminationGuard("end conjugator failed to check")
        return conj

    def is_cuspidal(self, end: End, probe_depth: int = 9):
        """CuspData for a rational or up end; bounded evidence if truncated.

        For an end known only to finite depth no verdict is possible, so
        the result is an `UnknownCusp` carrying the stabilizer orders of
        the vertices along the branch (at most probe_depth of them).
        """
        if isinstance(end, TruncatedEnd):
            orders = []
            x = self.tree.base
            for _ in range(min(probe_depth, max(end.known_depth(), 0)) + 1):
                orders.append(self.stabilizer_order(x))
                try:
                    x = self.tree.step_to_end(x, end)
                except EndPrecisionExhausted:
                    break
            return UnknownCusp(end=end, orders=orders, max_order=max(orders))
        conj = self.end_conjugator(end)
        return CuspData(
            end=end,
            conjugator=conj,
            parameter_multiple=self.unipotent_parameter_multiple(),
            stabilizer_index=self.cusp_stabilizer_index(),
        )

    def cusp_representatives(self) -> list[CuspData]:
        """One cusp per orbit, via the finite residue group.

        Orbits of ends correspond to cosets g*B in the residue group,
        where B is the image of the full upper-triangular stabilizer of
        the zero end; each representative is lifted to a determinant-1
        polynomial matrix and applied to the zero end.
        """
        table = self.coset_table()
        _, reps = table.coset_partition(table.borel_image(self.level_degree))
        zero_end = self.tree.end_zero()
        return [self.is_cuspidal(table.lift(rep).act_end(zero_end)) for rep in reps]


class CongruenceLattice(NagaoLattice):
    """The kernel of entrywise reduction mod f inside SL2(F_q[t])."""

    kind = "congruence"

    def __init__(self, field: Field, level: LaurentSeries):
        super().__init__(field)
        if not is_t_poly(level) or t_degree(level) < 1:
            raise InvalidInputError(
                "congruence level must be a nonconstant polynomial in t"
            )
        self.level = monic_t(level)
        self.level_degree = t_degree(self.level)

    def __repr__(self) -> str:
        return f"CongruenceLattice(q={self.q}, level={self.level})"

    def config(self) -> dict:
        return {"kind": "congruence", "q": self.q, "level": str(self.level)}

    def base_order(self, n: int) -> int:
        if n < 0:
            raise InvalidInputError("normal forms have level >= 0")
        if n == 0:
            return 1
        return self.q ** max(0, n + 1 - self.level_degree)

    def edge_order(self, n: int) -> int:
        if n < 0:
            raise InvalidInputError("standard-ray edges start at level 0")
        if n == 0:
            return 1
        return self.base_order(n)

    def base_stabilizer_elements(self, n: int):
        F = self.field
        if n == 0:
            yield TreeAutomorphism.identity(F)
            return
        bound = max(n - self.level_degree, -1)
        for c in all_t_polys(F, bound):
            yield TreeAutomorphism.upper_shear(F, self.level * c)

    def cusp_stabilizer_index(self) -> int:
        return 1


class CosetTable:
    """The finite matrix group over F_q[t]/(f) with lifts back to F_q[t].

    Materializes all determinant-1 matrices over the residue ring (the
    image of the polynomial lattice, which reduction maps onto), provides
    subgroup images of the standard stabilizers, deterministic coset
    decompositions, and a constructive section: `lift` rebuilds a
    determinant-1 polynomial matrix from any residue matrix by splitting
    it into elementary shears.

    Residue matrices are 4-tuples (a, b, c, d) of ring elements, which are
    integers (see `ResidueRing`); tuple order is the lexicographic order of
    their coefficients, and `elements` is sorted in it.
    """

    def __init__(self, field: Field, modulus: LaurentSeries, max_candidates: int = 20_000):
        self.field = field
        q, d = field.q, t_degree(modulus)
        # |SL2(F_q[t]/(f))| = q^(3d) prod_{P | f} (1 - q^(-2 deg P)), and the
        # product over all primes P is 1/zeta(2) = 1 - 1/q: refuse before
        # building the ring's |R|^2 tables when even that bound is too big.
        at_least = (q - 1) * q ** (3 * d - 1) if d >= 1 else 0
        if at_least > max_candidates:
            raise SizeGuardExceeded(
                f"residue group SL2(R) has at least {at_least} elements "
                f"(bound {max_candidates})"
            )
        self.ring = ring = ResidueRing(field, modulus)
        n = ring.size
        add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
        self._add, self._mul, self._neg = add, mul, neg
        # first rows (a, b) with a solution a*d0 - b*c0 = 1: from the least r
        # making u = a + r*b a unit, (c0, d0) = (-r*u^-1, u^-1)
        rows = []
        for a in range(n):
            for b in range(n):
                r = ring.unit_shift(a, b)
                if r is not None:
                    u = ring.inverse(add[a][mul[r][b]])
                    rows.append((a, b, neg[mul[r][u]], u))
        size = len(rows) * n
        if size > max_candidates:
            raise SizeGuardExceeded(
                f"residue group SL2(R) has {size} elements (bound {max_candidates})"
            )
        # the second rows of a first row (a, b) are (c0, d0) + s*(a, b), s in R
        members = []
        for a, b, c0, d0 in rows:
            ra, rb = add[c0], add[d0]
            members.extend(sorted((a, b, ra[mul[s][a]], rb[mul[s][b]]) for s in range(n)))
        self.elements = members
        self.index = len(members)
        self._borel = {}
        self._constants = None
        self._constant_lifts = None
        self._partitions = {}

    def __repr__(self) -> str:
        return (
            f"CosetTable(q={self.field.q}, modulus={self.ring.modulus}, "
            f"size={self.index})"
        )

    # -- group operations on residue matrices --------------------------------

    def matmul(self, m1, m2):
        add, mul = self._add, self._mul
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        ra, rb, rc, rd = mul[a1], mul[b1], mul[c1], mul[d1]
        return (
            add[ra[a2]][rb[c2]],
            add[ra[b2]][rb[d2]],
            add[rc[a2]][rd[c2]],
            add[rc[b2]][rd[d2]],
        )

    def identity(self):
        return (self.ring.one, self.ring.zero, self.ring.zero, self.ring.one)

    def inverse(self, m):
        a, b, c, d = m
        return (d, self._neg[b], self._neg[c], a)

    def reduce(self, g: TreeAutomorphism):
        """Image of a polynomial matrix in the residue group."""
        for entry in g.entries():
            if not is_t_poly(entry):
                raise InvalidInputError("only polynomial matrices reduce")
        ring = self.ring
        a, b, c, d = (ring.reduce(entry) for entry in g.entries())
        if ring.sub(ring.mul(a, d), ring.mul(b, c)) != ring.one:
            raise InvalidInputError("matrix does not have determinant 1 mod the level")
        return (a, b, c, d)

    # -- the constructive section ----------------------------------------------

    def lift(self, m) -> TreeAutomorphism:
        """A determinant-1 polynomial matrix reducing to m.

        Shifts m by a lower shear until the bottom-left entry is a unit,
        splits the result into three elementary shears, and lifts each
        shear through the canonical polynomial representatives; the
        product has determinant exactly 1. Shears by 0 are left out, so
        the identity of the zero ring lifts to the identity at no cost.
        """
        ring = self.ring
        F = self.field
        a, b, c, d = m
        shift = ring.unit_shift(c, a)
        if shift is None:
            raise InvalidInputError("matrix rows are not unimodular mod the level")
        c1 = ring.add(c, ring.mul(shift, a))
        d1 = ring.add(d, ring.mul(shift, b))
        inv_c1 = ring.inverse(c1)
        u = ring.mul(ring.sub(a, ring.one), inv_c1)
        w = ring.mul(ring.sub(d1, ring.one), inv_c1)
        factors = [
            shear(F, ring.lift(x))
            for shear, x in (
                (TreeAutomorphism.lower_shear, ring.neg(shift)),
                (TreeAutomorphism.upper_shear, u),
                (TreeAutomorphism.lower_shear, c1),
                (TreeAutomorphism.upper_shear, w),
            )
            if x != ring.zero
        ]
        lifted = (
            functools.reduce(operator.mul, factors)
            if factors
            else TreeAutomorphism.identity(F)
        )
        if self.reduce(lifted) != m:
            raise NonterminationGuard("constructive lift failed to check")
        return lifted

    # -- images of the standard stabilizers -------------------------------------

    def borel_image(self, n: int):
        """Image of the upper-triangular stabilizer of (n, 0).

        At n = 0 that is the common stabilizer of (0, 0) and (1, 0). For
        n >= deg(f) - 1 this is the image of the full stabilizer of the
        zero end and stops growing.
        """
        ring = self.ring
        k = min(n, ring.degree - 1)
        if k not in self._borel:
            self._borel[k] = frozenset(
                (ring.constant(alpha), b, ring.zero, ring.constant(alpha.inverse()))
                for alpha in self.field.units()
                for b in ring.low_degree(k)
            )
        return self._borel[k]

    def constants_image(self):
        """Image of the constant-matrix stabilizer of the origin.

        These are the members whose four entries are images of constants:
        the constants embed in R (or all map to 0 in the zero ring), so the
        determinant condition is the one over F_q.
        """
        if self._constants is None:
            consts = {self.ring.constant(c) for c in self.field.elements()}
            self._constants = frozenset(
                m for m in self.elements if all(x in consts for x in m)
            )
        return self._constants

    def constant_lifts(self) -> dict:
        """Residue matrix -> the constant lattice members reducing to it.

        The members are the stabilizer of the origin in SL2(F_q[t]), each
        list in the order of `NagaoLattice.base_stabilizer_elements(0)`;
        the map is built once per table.
        """
        if self._constant_lifts is None:
            mapping = {}
            for g in NagaoLattice(self.field).base_stabilizer_elements(0):
                mapping.setdefault(self.reduce(g), []).append(g)
            self._constant_lifts = mapping
        return self._constant_lifts

    def vertex_image(self, n: int):
        """Image of the stabilizer of the standard-ray vertex (n, 0)."""
        if n == 0:
            return self.constants_image()
        return self.borel_image(n)

    def edge_image(self, n: int):
        """Image of the common stabilizer of (n, 0) and (n+1, 0)."""
        return self.borel_image(n) if n >= 1 else self.borel_image(0)

    # -- coset bookkeeping -------------------------------------------------------

    def coset_partition(self, subgroup):
        """The cosets g * subgroup as ({member: coset number}, least members).

        Cosets are numbered in increasing order of least member. `subgroup`
        is a frozenset such as `vertex_image(n)`. The partition is computed
        once per subgroup; callers share the returned dict and list and must
        not modify them. `elements` is sorted, so the first member not yet
        numbered is the least member of its coset.
        """
        part = self._partitions.get(subgroup)
        if part is None:
            coset_of, least = {}, []
            for g in self.elements:
                if g in coset_of:
                    continue
                for s in subgroup:
                    coset_of[self.matmul(g, s)] = len(least)
                least.append(g)
            part = self._partitions[subgroup] = (coset_of, least)
        return part


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
