"""Finite fields F_q, q = p^e, as explicit quotients F_p[x]/(m(x)).

Elements are coefficient vectors of length e over F_p, multiplied modulo a
monic irreducible m of degree e. Irreducibility is verified at construction
by trial division, so an invalid modulus fails loudly instead of producing a
ring with zero divisors. For the small extension sizes used on the tree
(q = 4, 8, 9) canonical default moduli are provided:

    F_4 = F_2[x]/(x^2 + x + 1)
    F_8 = F_2[x]/(x^3 + x + 1)
    F_9 = F_3[x]/(x^2 + 1)

Prime fields take e = 1 with modulus x. Everything is immutable and
hashable; arithmetic is exact integer arithmetic mod p throughout.
"""

from __future__ import annotations

import functools
import itertools

from .errors import InvalidInputError

CANONICAL_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mod(num: tuple[int, ...], den: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of num by den over F_p (dense ascending coefficients)."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    while len(num) - 1 >= dd and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd:
            break
        shift = len(num) - 1 - dd
        factor = (num[-1] * inv_lead) % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
    while num and num[-1] == 0:
        num.pop()
    return tuple(num)


def _check_irreducible(modulus: tuple[int, ...], p: int) -> None:
    """Trial division by every monic polynomial of degree <= deg/2."""
    e = len(modulus) - 1
    if e < 1:
        raise InvalidInputError("modulus must have degree >= 1")
    if modulus[-1] % p != 1:
        raise InvalidInputError("modulus must be monic")
    for d in range(1, e // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            trial = tuple(lower) + (1,)
            if not _poly_mod(modulus, trial, p):
                raise InvalidInputError(
                    f"modulus is reducible: divisible by {trial} over F_{p}"
                )


class FieldElement:
    """An element of F_q, stored as a coefficient tuple of length e."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "Field", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.coeffs))

    def __add__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        return FieldElement(
            f, tuple((a + b) % f.p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "FieldElement":
        f = self.field
        return FieldElement(f, tuple((-a) % f.p for a in self.coeffs))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if f.e == 1:
            return FieldElement(f, ((self.coeffs[0] * other.coeffs[0]) % f.p,))
        prod = [0] * (2 * f.e - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + a * b) % f.p
        rem = _poly_mod(tuple(prod), f.modulus, f.p)
        return FieldElement(f, rem + (0,) * (f.e - len(rem)))

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        # a^(q-2); q is tiny here, square-and-multiply is plenty
        result = self.field.one
        base = self
        n = self.field.q - 2
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def sqrt(self) -> "FieldElement":
        """Square root; unique in characteristic 2, checked otherwise."""
        f = self.field
        if f.p == 2:
            # Frobenius is bijective: a^(q/2) squares to a^q = a.
            out, base, n = f.one, self, f.q // 2
            while n:
                if n & 1:
                    out = out * base
                base = base * base
                n >>= 1
            return out
        for cand in f.elements():
            if cand * cand == self:
                return cand
        raise InvalidInputError("element has no square root")

    def __repr__(self) -> str:
        return f"FieldElement({self.field.q}, {self.coeffs})"


class Field:
    """F_q with explicit modulus; use the ``field(q)`` factory to share instances."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | None = None):
        if not _is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
        if e < 1:
            raise InvalidInputError("extension degree must be >= 1")
        if modulus is None:
            if e == 1:
                modulus = (0, 1)
            elif p**e in CANONICAL_MODULI:
                modulus = CANONICAL_MODULI[p**e]
            else:
                raise InvalidInputError(
                    f"no canonical modulus stored for q={p**e}; pass one explicitly"
                )
        modulus = tuple(c % p for c in modulus)
        if len(modulus) - 1 != e:
            raise InvalidInputError("modulus degree must equal the extension degree")
        if e > 1:
            _check_irreducible(modulus, p)
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self.zero = FieldElement(self, (0,) * e)
        self.one = FieldElement(self, (1,) + (0,) * (e - 1))
        self.gen = FieldElement(self, ((0, 1) + (0,) * (e - 2)) if e > 1 else (1,))

    def element(self, value) -> FieldElement:
        """Coerce an int (mod p) or coefficient sequence into the field."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise InvalidInputError("element from a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.e - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.e:
            raise InvalidInputError("too many coefficients for this field")
        return FieldElement(self, coeffs + (0,) * (self.e - len(coeffs)))

    def elements(self):
        """All q elements, in deterministic lexicographic order."""
        for coeffs in itertools.product(range(self.p), repeat=self.e):
            yield FieldElement(self, coeffs)

    def units(self):
        for x in self.elements():
            if x:
                yield x

    def __repr__(self) -> str:
        return f"Field(q={self.q})"


@functools.cache
def _field_cached(p: int, e: int, modulus: tuple[int, ...] | None) -> Field:
    return Field(p, e, modulus)


def field(q: int, modulus=None) -> Field:
    """The field with q elements. q must be a prime power."""
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise InvalidInputError(f"{q} is not a prime power")
            return _field_cached(p, e, tuple(modulus) if modulus else None)
    raise InvalidInputError(f"{q} is not a prime power")
