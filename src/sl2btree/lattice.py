"""Polynomial lattices acting on the tree.

`NagaoLattice` is the principal congruence subgroup of level f inside
SL2(F_q[t]), the kernel of entrywise reduction modulo f, acting on the
tree with t the degree -1 monomial. The full lattice is the level f = 1
case, whose residue ring F_q[t]/(1) is the zero ring; `CongruenceLattice`
only checks and names a nonconstant level. Every vertex is equivalent under
SL2(F_q[t]) to exactly one vertex (n, 0) with n >= 0, and `reduce_vertex`
computes that normal form together with a witnessing group element. The
global structure is driven by the finite matrix group over F_q[t]/(f),
whose cosets `CosetTable` numbers.

Vertex stabilizers come in one closed form in d = deg f and the scalar
units, the constants alpha = 1 mod f (all of F_q^x when d = 0, else only
1): constant matrices at the origin of the full lattice, [[alpha, f*c],
[0, alpha^-1]] with bounded deg c everywhere else on the ray. They are
conjugated to arbitrary vertices through the reduction witness; the
tests recompute them by direct enumeration. The cusps are
the cosets of the image of the zero end's stabilizer in `CosetTable`:
each cusp is carried by the lift of its coset's least member, and its end
is that lift's first column, the image of the zero end (1 : 0).
"""

import functools
import itertools

from .autom import TreeAutomorphism
from .errors import InvalidInputError, NonterminationGuard, SizeGuardExceeded
from .field import Field
from .polys import (
    ResidueRing,
    all_t_polys,
    is_t_poly,
    mod_t,
    monic_t,
    t_degree,
)
from .series import LaurentSeries
from .tree import End, Tree, Vertex, end_from_vector

_REDUCE_CAP_BASE = 64


def _const(field: Field, value) -> LaurentSeries:
    return LaurentSeries.exact(field, {0: field.element(value)})


def _upper(field: Field, alpha, offset: LaurentSeries) -> TreeAutomorphism:
    """[[alpha, offset], [0, alpha^{-1}]] for a unit constant alpha."""
    zero = LaurentSeries.zero(field)
    return TreeAutomorphism(
        field, _const(field, alpha), offset, zero, _const(field, alpha.inverse())
    )


class ReducedVertex:
    """Normal form of a vertex under the polynomial lattice.

    witness * original = (level, 0), with level >= 0.
    """

    __slots__ = ("level", "witness")

    def __init__(self, level: int, witness: TreeAutomorphism):
        self.level = level
        self.witness = witness


class CuspData:
    """A boundary end fixed by nontrivial translations of the lattice.

    `carrier` is a determinant-1 polynomial matrix carrying the zero end to
    the end, which is the vector of its first column. The translations
    fixing the end are the conjugates carrier [[1, b], [0, 1]] carrier^-1
    for b in `NagaoLattice.level` * F_q[t], sitting inside the full end
    stabilizer with index len(`NagaoLattice.scalar_units`).
    """

    __slots__ = ("end", "carrier")

    def __init__(self, end: End, carrier: TreeAutomorphism):
        self.end = end
        self.carrier = carrier


class NagaoLattice:
    """SL2(F_q[t]) on the (q+1)-regular tree: the congruence lattice of level 1."""

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
        maps rows (r1, r2) to (-r2, r1). The residue and the entries are
        digit dicts {degree: nonzero element} until the loop ends, so a
        step builds no series but the half turn's inverse, whose digits all
        lie below n - 2m. The witness is a product of determinant-1 steps,
        so it is built with determinant 1, as `CosetTable.lift` builds its
        product; its action is verified before returning.
        """
        F = self.field
        a, b, c, d = {0: F.one}, {}, {}, {0: F.one}
        n, res = v.level, v.residue.coeffs
        for _ in range(_REDUCE_CAP_BASE + 2 * abs(v.level)):
            s = F._negated({k: x for k, x in res.items() if k <= 0})
            if s:
                # adding s leaves exactly the digits of positive degree
                res = {k: x for k, x in res.items() if k >= 1}
                F._add_products(c, s, a, None)
                F._add_products(d, s, b, None)
                continue
            if not res and n >= 0:
                break
            # residue zero above the origin, or all of positive degree: invert
            if res:
                m = min(res)
                inverse = LaurentSeries._canonical(F, res).inverse(n - m)
                n -= 2 * m
                res = F._negated(inverse.coeffs)
            else:
                n = -n
            a, b, c, d = F._negated(c), F._negated(d), a, b
        else:
            raise NonterminationGuard(f"vertex reduction did not settle for {v}")
        cur = Vertex(n, LaurentSeries._canonical(F, res))
        entries = (LaurentSeries._canonical(F, x) for x in (a, b, c, d))
        g = TreeAutomorphism._product(F, *entries, LaurentSeries.one(F))
        if g.act_vertex(v) != cur:
            raise NonterminationGuard(f"reduction witness failed to check for {v}")
        return ReducedVertex(level=cur.level, witness=g)

    # -- stabilizers ---------------------------------------------------------

    @functools.cached_property
    def scalar_units(self) -> tuple:
        """The constants alpha = 1 mod the level: F_q^x at level 1, else only 1."""
        F = self.field
        return tuple(F.units()) if self.level_degree == 0 else (F.one,)

    def base_order(self, n: int) -> int:
        """Order of the stabilizer of the standard-ray vertex (n, 0)."""
        if n < 0:
            raise InvalidInputError("normal forms have level >= 0")
        if n == 0 == self.level_degree:
            return self.q**3 - self.q
        return self.edge_order(n)

    def edge_order(self, n: int) -> int:
        """Order of the common stabilizer of (n, 0) and (n+1, 0)."""
        if n < 0:
            raise InvalidInputError("standard-ray edges start at level 0")
        return len(self.scalar_units) * self.q ** max(0, n + 1 - self.level_degree)

    def base_stabilizer_elements(self, n: int):
        """The closed-form stabilizer of (n, 0), deterministically ordered.

        SL2(F_q) at the origin of the full lattice; everywhere else the
        matrices [[alpha, f*c], [0, alpha^-1]] with alpha a scalar unit and
        deg c <= n - deg f.
        """
        F = self.field
        if n == 0 == self.level_degree:
            elems = list(F.elements())
            for a, b, c, d in itertools.product(elems, repeat=4):
                if a * d - b * c == F.one:
                    yield TreeAutomorphism(
                        F, _const(F, a), _const(F, b), _const(F, c), _const(F, d)
                    )
            return
        for alpha in self.scalar_units:
            for c in all_t_polys(F, max(n - self.level_degree, -1)):
                yield _upper(F, alpha, self.level * c)

    # -- cusps ----------------------------------------------------------------

    def cusp_representatives(self) -> list[CuspData]:
        """One cusp per orbit, via the finite residue group.

        Orbits of ends correspond to cosets g*B in the residue group,
        where B is the image of the full upper-triangular stabilizer of
        the zero end; cusp i is coset number i. Its carrier, the lift of
        the coset's least member, is a determinant-1 polynomial matrix
        that reduces to it, and the cusp's end is the carrier's image of
        the zero end (1 : 0), the vector (carrier.a : carrier.c).
        """
        F, table = self.field, self.coset_table()
        carriers = map(table.lift, table.coset_partition(self.level_degree)[1])
        return [CuspData(end_from_vector(F, c.a, c.c), c) for c in carriers]


class CongruenceLattice(NagaoLattice):
    """The kernel of entrywise reduction mod a nonconstant f inside SL2(F_q[t])."""

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


class CosetTable:
    """The finite matrix group over F_q[t]/(f) with lifts back to F_q[t].

    Counts the determinant-1 matrices over the residue ring (the image of
    the polynomial lattice, which reduction maps onto) by their first rows,
    provides the coset partitions by the images of the standard
    stabilizers, level by level, and a constructive section: `lift`
    rebuilds a determinant-1 polynomial matrix from any residue matrix by
    splitting it into elementary shears. Cosets are numbered from column
    data: B_0's by a digit test on their least members, the coarser levels
    by a key of the first column (see `_b0_number` and `_borel`). No table
    holds every member; `elements` lists them only when read.

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
        self._rows = rows
        self.index = size
        self._constant_lifts = None
        self._diagonal_units = None
        self._borel_cosets = {}  # n -> `_borel(n)`
        self._vertex_cosets = {}  # n -> `vertex_partition(n)`

    def __repr__(self) -> str:
        return (
            f"CosetTable(q={self.field.q}, modulus={self.ring.modulus}, "
            f"size={self.index})"
        )

    @functools.cached_property
    def elements(self) -> list:
        """Every member in increasing order, listed when first read."""
        members = []
        for row in self._rows:
            members += self._row_members(*row)
        return members

    def _row_members(self, a, b, c0, d0) -> list:
        """The members with first row (a, b) in increasing order: their second
        rows are (c0, d0) + s*(a, b), s in R, and s*a is row a of the
        (symmetric) multiplication table."""
        cs = map(self._add[c0].__getitem__, self._mul[a])
        ds = map(self._add[d0].__getitem__, self._mul[b])
        return sorted(zip(itertools.repeat(a), itertools.repeat(b), cs, ds))

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

    def inverse(self, m):
        a, b, c, d = m
        return (d, self._neg[b], self._neg[c], a)

    def reduce(self, g: TreeAutomorphism):
        """Image of a polynomial matrix in the residue group.

        `ResidueRing.reduce` refuses an entry that is not a polynomial.
        """
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
        product has determinant exactly 1. The product is built as row
        operations on the four entries' digit dicts, as in
        `NagaoLattice.reduce_vertex`: an upper shear by s adds s times the
        second row to the first, a lower shear the first to the second.
        Shears by 0 are left out, so the identity of the zero ring lifts to
        the identity with no digit arithmetic.
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
        top, bottom = [{0: F.one}, {}], [{}, {0: F.one}]  # the rows (a, b) and (c, d)
        # lower(-shift) * upper(u) * lower(c1) * upper(w), rightmost factor first
        for x, target, source in (
            (w, top, bottom), (c1, bottom, top), (u, top, bottom), (ring.neg(shift), bottom, top)
        ):
            if x == ring.zero:
                continue
            s = ring.lift(x).coeffs
            for out, entry in zip(target, source):
                F._add_products(out, s, entry, None)
        entries = (LaurentSeries._canonical(F, x) for x in (*top, *bottom))
        lifted = TreeAutomorphism._product(F, *entries, LaurentSeries.one(F))
        if self.reduce(lifted) != m:
            raise NonterminationGuard("constructive lift failed to check")
        return lifted

    def constant_lifts(self) -> dict:
        """Residue matrix -> the constant lattice members reducing to it.

        The members are the stabilizer of the origin in SL2(F_q[t]), each
        list in the order of `NagaoLattice.base_stabilizer_elements(0)`;
        the map is built once per table.
        """
        if self._constant_lifts is None:
            self._constant_lifts = mapping = {}
            for g in NagaoLattice(self.field).base_stabilizer_elements(0):
                mapping.setdefault(self.reduce(g), []).append(g)
        return self._constant_lifts

    def diagonal_units(self) -> dict:
        """(a, d) -> the first unit alpha of `Field.units` whose constants
        alpha and alpha^-1 reduce to a and d; built once per table."""
        if self._diagonal_units is None:
            ring, mapping = self.ring, {}
            for alpha in self.field.units():
                key = (ring.constant(alpha), ring.constant(alpha.inverse()))
                mapping.setdefault(key, alpha)
            self._diagonal_units = mapping
        return self._diagonal_units

    # -- coset partitions by level -------------------------------------------------

    def coset_partition(self, n: int):
        """The cosets g * B_k, k = min(n, deg f - 1), as (numbers, least members).

        B_k is the image of the upper-triangular stabilizer of (k, 0), the
        [[alpha, beta], [0, alpha^-1]] with alpha in F_q^x and deg beta <= k:
        at k = 0 the common stabilizer of (0, 0) and (1, 0), from
        k = deg f - 1 on the full stabilizer of the zero end. Cosets are
        numbered in increasing order of least member. numbers[j] is the coset
        holding coset j of `coset_partition(n - 1)`: the identity `range` at
        n = 0 and where the two are equal. Built once per level; callers must
        not modify it.
        """
        numbers, least, _ = self._borel(n)
        return numbers, least

    def vertex_partition(self, n: int):
        """The cosets of the image of the stabilizer of (n, 0), as `coset_partition`.

        numbers[j] is the coset holding coset j of `coset_partition(n)`, and
        the two are equal above the origin. At the origin the image is SL2(F_q),
        the union of the cosets x * B_0 over the q + 1 points x of P^1(F_q),
        the lower shears [[1, 0], [gamma, 1]] and the half turn: the coset
        g * SL2(F_q) of a least member g of B_0's cosets, met in increasing
        order, is numbered at the cosets of B_0 holding the products g * x.
        """
        part = self._vertex_cosets.get(n)
        if part is None:
            _, fine_least, _ = self._borel(n)
            number, least = range(len(fine_least)), fine_least
            if n < 1:
                add, neg, number_of = self._add, self._neg, self._b0_number
                shears = [self._mul[self.ring.constant(gamma)] for gamma in self.field.units()]
                number, least = [None] * len(fine_least), []
                for k, g in enumerate(fine_least):
                    if number[k] is None:
                        a, b, c, d = g
                        number[k] = number[number_of((neg[b], a, neg[d], c))] = len(least)
                        # g * [[1, 0], [gamma, 1]] adds gamma times the second column to the first
                        for s in shears:
                            number[number_of((add[a][s[b]], b, add[c][s[d]], d))] = len(least)
                        least.append(g)
            part = self._vertex_cosets[n] = number, least
        return part

    def coset_number(self, m, n: int) -> int:
        """The coset of `coset_partition(n)` holding m: B_0's, carried up by a list."""
        return self._borel(n)[2][self._b0_number(m)]

    def _b0_number(self, m) -> int:
        """The coset of B_0 holding m, numbered by its least member.

        m * [[alpha, beta], [0, alpha^-1]] scales the first column (a, c)
        by alpha and the second (b, d) by alpha^-1, then adds beta times the
        first to it. So the least member of m * B_0 is one digit zeroed and
        one scaling away from m. With a != 0 it has e_1 as a's first nonzero
        digit and 0 as b's digit at that place; with a = 0, e_1 as b's first
        nonzero digit and 0 as d's digit at c's first nonzero place.
        """
        a, b, c, d = m
        if a or b:  # not the zero ring's one member
            add, q, normalizers = self._add, self.field.q, self._normalizers
            if a:
                w, shifts, scale, unscale = normalizers[a]
                s = shifts[b // w % q]
                if s:
                    b, d = add[b][s[a]], add[d][s[c]]
                m = scale[a], unscale[b], scale[c], unscale[d]
            else:
                w, shifts, _, _ = normalizers[c]
                s = shifts[d // w % q]
                if s:
                    d = add[d][s[c]]
                _, _, scale, unscale = normalizers[b]
                m = 0, scale[b], unscale[c], scale[d]
        return self._b0_numbers[m]

    @functools.cached_property
    def _b0_numbers(self) -> dict:
        """B_0's least member -> its coset number, one entry per coset."""
        least = self._borel(0)[1]
        return dict(zip(least, range(len(least))))

    @functools.cached_property
    def _normalizers(self) -> list:
        """Per residue x != 0, (w, shifts, scale, unscale) for the digit test.

        A residue's base-q digits, most significant first, are its
        coefficients from t^0 up. w is the place of x's first nonzero digit
        e_i, i = x // w; scale and unscale are the multiplication rows of
        e_1 / e_i and e_i / e_1, and shifts[j] that of -e_j / e_i (None for
        j = 0). Built when a partition of a nonzero ring first reads it.
        """
        q, ring, mul, neg = self.field.q, self.ring, self._mul, self._neg
        e = list(map(ring.constant, self.field.elements()))
        inverse = [None] + list(map(ring.inverse, e[1:]))
        normalizers = [None]
        for k in range(ring.degree):
            for i in range(1, q):
                shifts = [None] + [mul[neg[mul[x][inverse[i]]]] for x in e[1:]]
                scale, unscale = mul[mul[e[1]][inverse[i]]], mul[mul[e[i]][inverse[1]]]
                normalizers += [(q**k, shifts, scale, unscale)] * q**k
        return normalizers

    def _borel(self, n: int):
        """`coset_partition(n)` and the coset holding each coset of B_0.

        B_0's least members pass the digit test of `_b0_number`: a row
        (a, b) with a != 0 with all its second rows or with none, a row
        (0, b) with the second rows whose d has a zero digit at c's first
        nonzero place. For k >= 1, the members with first column (a, c) have
        second column (b0, d0) + s*(a, c), s in R, and if x*a + y*c = 1 then
        x*b + y*d is s up to a constant of the column. g * [[1, beta], [0, 1]]
        adds beta to s, so a coset of B_k is keyed by its first column and
        the last deg f - 1 - k digits of x*b + y*d, and is met first at its
        least member among the least members of B_{k-1}'s cosets.
        """
        part = self._borel_cosets.get(n)
        if part is None:
            ring, q, add, mul = self.ring, self.field.q, self._add, self._mul
            top = ring.degree - 1
            if n > top:
                _, least, fine = self._borel(top)
                part = range(len(least)), least, fine
            elif n < 0:  # only in the zero ring, whose one member is its own coset
                part = range(1), [(0, 0, 0, 0)], range(1)
            elif n == 0:
                normalizers, least = self._normalizers, []
                for row in self._rows:
                    a, b, c0, _ = row
                    if a:
                        w = normalizers[a][0]
                        if a // w == 1 and not b // w % q:
                            least += self._row_members(*row)
                    elif b // normalizers[b][0] == 1:
                        w = normalizers[c0][0]
                        least += [g for g in self._row_members(*row) if not g[3] // w % q]
                part = range(len(least)), least, range(len(least))
            else:
                _, finer, fine = self._borel(n - 1)
                inverse, place = ring.inverse_table, q ** (top - n)
                keys, least, numbers = {}, [], []
                for g in finer:
                    a, b, c, d = g
                    x = inverse[a]
                    if x is None:  # x*b + y*d = u^-1 * (b + r*d), u = a + r*c a unit
                        r = ring.unit_shift(a, c)
                        x, b = inverse[add[a][mul[r][c]]], add[b][mul[r][d]]
                    number = keys.setdefault((a, c, mul[x][b] % place), len(least))
                    if number == len(least):
                        least.append(g)
                    numbers.append(number)
                part = numbers, least, [numbers[j] for j in fine]
            self._borel_cosets[n] = part
        return part
