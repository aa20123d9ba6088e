"""Laurent series over F_q in the uniformizer pi, with explicit precision.

A series is a finite dict {degree: nonzero coefficient} plus a precision
mark: either exact (the dict is the whole series) or "known modulo pi^N"
(every coefficient of degree < N is stored, nothing is known from degree N
on). All arithmetic tracks how far the result is determined by the inputs
and never invents coefficients:

* adding two series known mod pi^M and pi^N yields a series known mod
  min(M, N);
* multiplying by a series of valuation >= v shifts the reliable window by v,
  so the product of (a mod pi^M) with b is known mod M + v(b) at best;
* asking for a coefficient at or beyond the precision raises
  InsufficientPrecision rather than returning a guessed zero;
* a term-free inexact series ("0 mod pi^N") has no determined valuation --
  the true valuation is only bounded below by N -- so valuation() raises
  IndeterminateValuation for it. The exact zero series has valuation
  INFINITY.

Inversion is the one operation that introduces genuinely infinite tails: it
takes an explicit term budget and returns a series known to exactly that
many coefficients (exact only when the input is a monomial, whose inverse
terminates).

All of it runs on the field's discrete-log tables: sums, differences,
scalings and products go through one kernel, `_fused` (x*y +- u*v into one
digit dict), and division runs its convolution recurrence on the digits'
logs: `quotient(den, n)` gives the exact digits of self/den below degree
n, with no inverse series built, no product and no digits past n thrown
away. The inverse is the same recurrence with the numerator one, and the
vertex action and a rational end's expansion divide through `quotient`.
The kernel `_fused` decides the result's precision first by one test per
operand: exact operands give an exact result, and only an inexact one
brings in the rules above. A series hashes its digit dict as a frozenset,
so equal series hash equal in any insertion order, without a sort.

Negative degrees are first-class: the coordinate t = pi^{-1} gives the
polynomial ring F_q[t] inside F_q((pi)) as the exact series supported in
degrees <= 0.
"""

from __future__ import annotations

from .errors import IndeterminateValuation, InsufficientPrecision, InvalidInputError
from .field import Field, FieldElement


class _InfinityType:
    """Positive infinity for valuations and precisions (no floats anywhere)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("negative infinity is never needed here")

    def __repr__(self):
        return "INFINITY"


INFINITY = _InfinityType()


class LaurentSeries:
    """Element of F_q((pi)), exact or known modulo pi^prec."""

    __slots__ = ("field", "coeffs", "prec", "_hash")

    def __init__(self, field: Field, coeffs: dict[int, FieldElement], prec=INFINITY):
        clean = {}
        for deg, c in coeffs.items():
            if not isinstance(c, FieldElement) or c.field is not field:
                raise InvalidInputError("coefficient from the wrong field")
            if c and (prec is INFINITY or deg < prec):
                clean[deg] = c
        self.field = field
        self.coeffs = clean
        self.prec = prec
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _canonical(cls, field: Field, coeffs: dict[int, FieldElement], prec=INFINITY):
        """A series from a dict that is already canonical, without checks.

        Every coefficient must be a nonzero element of `field` and every
        degree below `prec`: what `__init__` would keep of it unchanged.
        The dict is taken over, not copied. For the series' own arithmetic
        and the tree's digit appends; input from outside goes through
        `__init__`.
        """
        s = object.__new__(cls)
        s.field = field
        s.coeffs = coeffs
        s.prec = prec
        s._hash = None
        return s

    @classmethod
    def exact(cls, field: Field, coeffs: dict[int, object]) -> "LaurentSeries":
        return cls(field, {d: field.element(c) for d, c in coeffs.items()})

    @classmethod
    def inexact(cls, field: Field, coeffs: dict[int, object], prec: int) -> "LaurentSeries":
        return cls(field, {d: field.element(c) for d, c in coeffs.items()}, prec)

    @classmethod
    def monomial(cls, field: Field, coeff, degree: int) -> "LaurentSeries":
        return cls(field, {degree: field.element(coeff)})

    @classmethod
    def zero(cls, field: Field) -> "LaurentSeries":
        return cls(field, {})

    @classmethod
    def one(cls, field: Field) -> "LaurentSeries":
        return cls(field, {0: field.one})

    @classmethod
    def pi_power(cls, field: Field, k: int) -> "LaurentSeries":
        return cls(field, {k: field.one})

    # -- structure queries -------------------------------------------------

    def is_exact(self) -> bool:
        return self.prec is INFINITY

    def is_exact_zero(self) -> bool:
        return self.prec is INFINITY and not self.coeffs

    def has_terms(self) -> bool:
        return bool(self.coeffs)

    def __bool__(self):
        raise TypeError(
            "truth value of a Laurent series is ambiguous under truncation; "
            "use is_exact_zero() or has_terms()"
        )

    def valuation(self):
        """pi-adic valuation; INFINITY for exact zero.

        For an inexact series with no visible terms the valuation is not a
        number the known coefficients determine, so this raises.
        """
        if self.coeffs:
            return min(self.coeffs)
        if self.prec is INFINITY:
            return INFINITY
        raise IndeterminateValuation(
            f"series vanishes mod pi^{self.prec}; valuation only bounded below"
        )

    def valuation_lower_bound(self):
        """A degree v with series = 0 below v: valuation if visible, else prec."""
        if self.coeffs:
            return min(self.coeffs)
        return self.prec  # INFINITY for exact zero

    def coefficient(self, degree: int) -> FieldElement:
        if self.prec is not INFINITY and degree >= self.prec:
            raise InsufficientPrecision(
                f"coefficient at degree {degree} of a series known mod pi^{self.prec}",
                needed=degree + 1,
            )
        return self.coeffs.get(degree, self.field.zero)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return _fused(self, None, other)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return _fused(self, None, other, minus=True)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries._canonical(
            self.field, self.field._negated(self.coeffs), self.prec
        )

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        return _fused(self, other)

    def scale(self, coeff) -> "LaurentSeries":
        """Multiply by a field element (exact scalar)."""
        c = self.field.element(coeff)
        return _fused(LaurentSeries._canonical(self.field, {0: c} if c else {}), self)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by pi^k (degree shift)."""
        prec = self.prec if self.prec is INFINITY else self.prec + k
        return LaurentSeries._canonical(
            self.field, {d + k: c for d, c in self.coeffs.items()}, prec
        )

    def truncate(self, n: int) -> "LaurentSeries":
        """The exact series of the terms of degree < n.

        Requires every coefficient below n to be determined, i.e. prec >= n.
        """
        _known_to(self.prec, n)
        return LaurentSeries._canonical(
            self.field, {d: c for d, c in self.coeffs.items() if d < n}
        )

    def reduce_precision(self, n: int) -> "LaurentSeries":
        """The same series viewed only modulo pi^n (precision can only drop)."""
        if self.prec is not INFINITY and self.prec < n:
            raise InsufficientPrecision(
                f"cannot view mod pi^{n} a series known only mod pi^{self.prec}",
                needed=n,
            )
        return LaurentSeries(self.field, self.coeffs, n)

    def inverse(self, terms: int) -> "LaurentSeries":
        """Multiplicative inverse, determined to `terms` coefficients.

        The input must have a visible leading term (valuation v) and be known
        at least mod pi^{v+terms}; the result is then correct mod
        pi^{terms-v}. A monomial inverts exactly.
        """
        if terms < 1:
            raise InvalidInputError("term budget must be positive")
        v = _divisor_valuation(self)
        F = self.field
        if len(self.coeffs) == 1 and self.prec is INFINITY:
            return LaurentSeries._canonical(F, {-v: self.coeffs[v].inverse()})
        start = [None] * terms
        start[0] = F._minus_one_log  # the numerator 1
        return LaurentSeries._canonical(F, _divided(start, self, v, -v), terms - v)

    def quotient(self, den: "LaurentSeries", n: int) -> "LaurentSeries":
        """The exact series of the digits of self/den below degree n.

        With v = v(self) and vd = v(den), these are the digits of
        (self * den.inverse(k)).truncate(n), k = n - v + vd the count of
        degrees from v(self/den) = v - vd up to n, with that route's
        refusals in its order: den with no visible digit, den known mod
        pi^(vd + k), then self mod pi^(n + vd). A numerator that vanishes
        to its precision divides to zero where that vanishing reaches n.
        """
        F = self.field
        vd = _divisor_valuation(den)
        if not self.coeffs:
            if self.prec is INFINITY or self.prec - vd >= n:
                return LaurentSeries._canonical(F, {})
            raise InsufficientPrecision(
                f"ratio needed mod pi^{n}, numerator only vanishes mod pi^{self.prec}",
                needed=n + vd,
            )
        v = min(self.coeffs)
        terms = n - v + vd
        if terms < 1:
            return LaurentSeries._canonical(F, {})
        start, minus = [None] * terms, F._minus_one_log
        for d, c in self.coeffs.items():
            if d < v + terms:
                start[d - v] = c._log + minus
        # _divided refuses a divisor known to too few digits, and only then
        # is a numerator known to too few refused, as in the route
        # (self * den.inverse(k)).truncate(n); INFINITY absorbs the shift
        digits = _divided(start, den, vd, v - vd)
        _known_to(self.prec + -vd, n)
        return LaurentSeries._canonical(F, digits)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.field is other.field
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        if self._hash is None:
            key = (id(self.field), self.prec if self.prec is INFINITY else int(self.prec))
            self._hash = hash((key, frozenset(self.coeffs.items())))
        return self._hash

    # -- printing ------------------------------------------------------------

    def _term_str(self, degree: int, coeff: FieldElement) -> str:
        if degree == 0:
            var = ""
        elif degree < 0:
            var = "t" if degree == -1 else f"t^{-degree}"
        else:
            var = "p" if degree == 1 else f"p^{degree}"
        if self.field.e == 1:
            c = coeff.coeffs[0]
            if not var:
                return str(c)
            return var if c == 1 else f"{c}*{var}"
        cs = _element_str(coeff)
        if not var:
            return f"[{cs}]" if len(coeff.coeffs) > 1 and any(coeff.coeffs[1:]) else cs
        if coeff == self.field.one:
            return var
        return f"[{cs}]*{var}"

    def __str__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            body = "+".join(self._term_str(d, self.coeffs[d]) for d in sorted(self.coeffs))
        if self.prec is INFINITY:
            return body
        return f"{body} mod p^{self.prec}"

    def __repr__(self) -> str:
        return f"LaurentSeries({self})"


def _fused(x: LaurentSeries, y=None, u=None, v=None, minus=False) -> LaurentSeries:
    """x*y + u*v, or x*y - u*v when `minus`, as one series.

    A missing y or v stands for 1 and a missing u for no second term, so
    this is also the sum, difference and product of two series. The terms
    go into one digit dict through `Field._add_products`, and no series is
    built for a term. The result's precision is given by `_term_prec`.
    """
    F = x.field
    prec = _term_prec(F, x, y, u, v)
    cap = None if prec is INFINITY else prec
    if y is not None:
        out = {}
        F._add_products(out, x.coeffs, y.coeffs, cap)
    elif prec == x.prec:
        out = dict(x.coeffs)
    else:
        # the more precise operand's terms at or past prec are unknown
        out = {d: c for d, c in x.coeffs.items() if d < prec}
    if v is not None:
        F._add_products(out, F._negated(u.coeffs) if minus else u.coeffs, v.coeffs, cap)
    elif u is not None:
        F._add_products(out, {0: -F.one if minus else F.one}, u.coeffs, cap)
    return LaurentSeries._canonical(F, out, prec)


def _divisor_valuation(den: LaurentSeries) -> int:
    """v(den), refusing a divisor that shows no digit."""
    if not den.coeffs:
        if den.prec is INFINITY:
            raise ZeroDivisionError("inverse of the zero series")
        raise IndeterminateValuation(f"cannot invert a series that vanishes mod pi^{den.prec}")
    return min(den.coeffs)


def _known_to(prec, n: int) -> None:
    """Refuse a truncation at pi^n of a series known only mod pi^prec."""
    if prec is not INFINITY and prec < n:
        raise InsufficientPrecision(
            f"truncation at pi^{n} of a series known only mod pi^{prec}", needed=n
        )


def _divided(start: list, den: LaurentSeries, vd: int, shift: int) -> dict:
    """The digits of num/den at the len(start) degrees from shift, as a dict.

    den has its lead at vd, and start[j] is the log of -r_j, None for zero,
    r_j the digit of num at shift + vd + j. With u = pi^-vd * den the digit
    q_j at shift + j is (r_j - sum_{1 <= i <= j} u_i q_(j-i)) / u_0. It runs
    on discrete logs, g^m + g^n = g^(m + zech[n - m]) with None for zero,
    and acc holds the log of that sum minus r_j. den must be known mod
    pi^(vd + len(start)), as an inverse to that many terms needs.
    """
    terms = len(start)
    if den.prec is not INFINITY and den.prec < vd + terms:
        raise InsufficientPrecision(
            f"inverse to {terms} terms needs the input mod pi^{vd + terms}, "
            f"have mod pi^{den.prec}",
            needed=vd + terms,
        )
    F = den.field
    exp, zech, period = F._exp, F._zech, F.q - 1
    scale = (F._minus_one_log - den.coeffs[vd]._log) % period  # the log of -1/u_0
    unit = sorted((d - vd, c._log) for d, c in den.coeffs.items() if vd < d < vd + terms)
    q = []
    for j, acc in enumerate(start):
        for i, m in unit:
            if i > j:
                break
            k = q[j - i]
            if k is None:
                continue
            if acc is None:
                acc = m + k
            else:
                z = zech[(m + k - acc) % period]
                acc = None if z is None else acc + z
        q.append(None if acc is None else (acc + scale) % period)
    return {j + shift: exp[k] for j, k in enumerate(q) if k is not None}


def _term_prec(F: Field, x, y, u, v):
    """The precision of x*y +- u*v over F, with `_fused`'s missing operands.

    Exact operands give an exact result, so that case is decided first, by
    one test per operand. Otherwise the result is known mod the least
    precision of its two terms: an exact-zero factor makes a product exact
    zero, and (a mod pi^M) * b is known mod M + v(b), v(b) the valuation's
    lower bound. An operand that is no series over F is refused.
    """
    S = LaurentSeries
    if (
        isinstance(x, S) and x.prec is INFINITY
        and (y is None or isinstance(y, S) and y.field is F and y.prec is INFINITY)
        and (u is None or isinstance(u, S) and u.field is F and u.prec is INFINITY)
        and (v is None or isinstance(v, S) and v.field is F and v.prec is INFINITY)
    ):
        return INFINITY
    prec = INFINITY
    for a, b in ((x, y), (u, v)):
        if a is None:
            continue
        if not all(s is None or isinstance(s, S) and s.field is F for s in (a, b)):
            raise InvalidInputError("series over different fields")
        if b is None or a.prec is INFINITY and b.prec is INFINITY:
            prec = min(prec, a.prec)
        elif not (a.is_exact_zero() or b.is_exact_zero()):
            prec = min(
                prec, a.prec + b.valuation_lower_bound(), b.prec + a.valuation_lower_bound()
            )
    return prec


def _element_str(c: FieldElement) -> str:
    """Polynomial-in-x notation for an extension-field coefficient."""
    terms = []
    for i, a in enumerate(c.coeffs):
        if not a:
            continue
        if i == 0:
            terms.append(str(a))
        elif i == 1:
            terms.append("x" if a == 1 else f"{a}*x")
        else:
            terms.append(f"x^{i}" if a == 1 else f"{a}*x^{i}")
    return "+".join(terms) if terms else "0"
