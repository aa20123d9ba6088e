"""Polynomials in t = pi^{-1} and their residue rings.

The ring F_q[t] sits inside F_q((pi)) as the exact series supported in
degrees <= 0. This module provides the Euclidean toolkit for that subring
(division, gcd, deterministic enumeration) plus the finite quotient rings
F_q[t]/(f) used for congruence-subgroup bookkeeping.

A t-polynomial is its series' digit dict: t-degree k is pi-degree -k.
Division works on that dict through the field's log tables; `t_coeffs`
and `from_t_coeffs` convert to and from lists indexed by t-degree.
"""

from __future__ import annotations

import itertools
import operator

from .errors import InvalidInputError
from .field import Field, FieldElement
from .series import LaurentSeries


def is_t_poly(s: LaurentSeries) -> bool:
    """Exact and supported in pi-degrees <= 0, i.e. an element of F_q[t]."""
    return s.is_exact() and all(d <= 0 for d in s.coeffs)


def t_coeffs(s: LaurentSeries) -> list[FieldElement]:
    """Coefficients by ascending t-degree (empty for zero); input must be in F_q[t]."""
    if not is_t_poly(s):
        raise InvalidInputError(f"not a polynomial in t: {s}")
    if not s.coeffs:
        return []
    deg = -min(s.coeffs)
    F = s.field
    return [s.coeffs.get(-k, F.zero) for k in range(deg + 1)]


def from_t_coeffs(field: Field, coeffs) -> LaurentSeries:
    return LaurentSeries(field, {-k: field.element(c) for k, c in enumerate(coeffs)})


def t_degree(s: LaurentSeries) -> int:
    """Degree in t; the zero polynomial gets -1 by convention."""
    if not is_t_poly(s):
        raise InvalidInputError(f"not a polynomial in t: {s}")
    return -min(s.coeffs) if s.coeffs else -1


def divmod_t(a: LaurentSeries, b: LaurentSeries) -> tuple[LaurentSeries, LaurentSeries]:
    """Euclidean division a = q*b + r in F_q[t] with deg r < deg b.

    Runs on the digit dicts, t-degree k being pi-degree -k: the remainder's
    lead at pi-degree k >= -deg a is cancelled by subtracting
    (r_k / b_lead) pi^(k - lb) * b, lb = -deg b, through `Field._add_products`,
    which deletes the cancelled digit.
    """
    if not is_t_poly(b):
        raise InvalidInputError(f"not a polynomial in t: {b}")
    if not b.coeffs:
        raise ZeroDivisionError("division by the zero polynomial")
    if not is_t_poly(a):
        raise InvalidInputError(f"not a polynomial in t: {a}")
    F = a.field
    if b.field is not F:
        raise InvalidInputError("series over different fields")
    rc, qc = dict(a.coeffs), {}
    if rc:
        exp, period, lb = F._exp, F.q - 1, min(b.coeffs)
        lead, half = b.coeffs[lb]._log, F._minus_one_log
        for k in range(min(rc), lb + 1):
            c = rc.get(k)
            if c is not None:
                n = c._log - lead
                qc[k - lb] = exp[n % period]
                F._add_products(rc, {k - lb: exp[(n + half) % period]}, b.coeffs, None)
    return LaurentSeries._canonical(F, qc), LaurentSeries._canonical(F, rc)


def gcd_t(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Monic gcd in F_q[t] (zero if both arguments are zero)."""
    while b.has_terms():
        a, b = b, divmod_t(a, b)[1]
    return monic_t(a)


def monic_t(a: LaurentSeries) -> LaurentSeries:
    d = t_degree(a)
    return a if d < 0 else a.scale(a.coeffs[-d].inverse())


def mod_t(a: LaurentSeries, f: LaurentSeries) -> LaurentSeries:
    return divmod_t(a, f)[1]


def all_t_polys(field: Field, max_degree: int):
    """Every polynomial of t-degree <= max_degree, deterministically ordered.

    Yields q^(max_degree+1) polynomials, the zero polynomial first.
    """
    if max_degree < -1:
        raise InvalidInputError("max_degree must be >= -1")
    elems = list(field.elements())
    for coeffs in itertools.product(elems, repeat=max_degree + 1):
        yield from_t_coeffs(field, coeffs)


class ResidueRing:
    """The finite ring R = F_q[t]/(f), elements encoded as integers.

    With d = deg(f), the residue c_0 + c_1 t + ... + c_{d-1} t^{d-1} is the
    integer 0 <= x < q^d whose base-q digits, most significant first, are
    the positions of c_0, ..., c_{d-1} in `Field.elements()`. Integer order
    is then the lexicographic order of the coefficient tuples, and
    `elements()` is range(q^d). Sums, products, negatives and inverses are
    looked up in tables built at construction (|R|^2 entries for sums and
    products), so the ring is meant for the small moduli whose matrix
    groups get materialized. The modulus is normalized to be monic; only
    its ideal matters. A constant modulus gives the zero ring, whose only
    element 0 is both its zero and its one.
    """

    def __init__(self, field: Field, modulus: LaurentSeries):
        d = t_degree(modulus)
        if d < 0:
            raise InvalidInputError("residue-ring modulus must be a nonzero polynomial")
        self.field = field
        self.modulus = monic_t(modulus)
        self.degree = d
        q = field.q
        self.size = n = q**d
        self._unit_place = n // q  # weight of the t^0 digit; 0 in the zero ring
        self.zero = 0
        self.one = self.constant(field.one)
        elems = list(field.elements())
        coeffs = self._coeffs = list(itertools.product(elems, repeat=d))
        index = {c: x for x, c in enumerate(coeffs)}
        add = [[index[tuple(map(operator.add, a, b))] for b in coeffs] for a in coeffs]
        # scaled[i][x]: the field element of position i times x
        scaled = [[index[tuple(map(c.__mul__, a))] for a in coeffs] for c in elems]
        # t * x drops the t^{d-1} digit (x % q) and adds that digit times
        # t^d = -(f - t^d) mod f
        top = index[tuple(map(operator.neg, t_coeffs(self.modulus)[:d]))]

        def times_t(x):
            return add[x // q][scaled[x % q][top]]

        mul = [[0] * n for _ in range(n)]
        for y in range(n):
            shifts = [y]
            for _ in range(d - 1):
                shifts.append(times_t(shifts[-1]))
            for x, cs in enumerate(coeffs):
                acc = 0
                for c, s in zip(cs, shifts):
                    acc = add[acc][scaled[c.index][s]]
                mul[x][y] = acc
        self.add_table = add
        self.mul_table = mul
        self.neg_table = [index[tuple(map(operator.neg, a))] for a in coeffs]
        one = self.one
        self.inverse_table = [row.index(one) if one in row else None for row in mul]
        self._scaled = scaled
        self._times_t = times_t
        self._t_powers = [one]  # t^k mod f, extended on demand

    def constant(self, c: FieldElement) -> int:
        """Image of a constant polynomial."""
        return c.index * self._unit_place

    def low_degree(self, k: int) -> range:
        """The residues of the polynomials of t-degree <= k, for -1 <= k < deg(f)."""
        return range(0, self.size, self.field.q ** (self.degree - 1 - k))

    def reduce(self, s: LaurentSeries) -> int:
        """Image of a polynomial in R."""
        if not is_t_poly(s):
            raise InvalidInputError(f"not a polynomial in t: {s}")
        add, scaled, powers = self.add_table, self._scaled, self._t_powers
        acc = 0
        for deg, c in s.coeffs.items():
            while len(powers) <= -deg:
                powers.append(self._times_t(powers[-1]))
            acc = add[acc][scaled[c.index][powers[-deg]]]
        return acc

    def lift(self, elem: int) -> LaurentSeries:
        """The canonical polynomial representative of degree < deg(f)."""
        return from_t_coeffs(self.field, self._coeffs[elem])

    def elements(self):
        return range(self.size)

    def add(self, a, b):
        return self.add_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inverse(self, a):
        inv = self.inverse_table[a]
        if inv is None:
            raise ZeroDivisionError("element is not a unit in the residue ring")
        return inv

    def unit_shift(self, a, b):
        """The least r with a + r*b a unit, or None when (a, b) is not unimodular."""
        add, row, inverse = self.add_table[a], self.mul_table[b], self.inverse_table
        for r in range(self.size):
            if inverse[add[row[r]]] is not None:
                return r
        return None
