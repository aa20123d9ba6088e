"""Finite fields F_q, q = p^e, as explicit quotients F_p[x]/(m(x)).

Elements are coefficient vectors of length e over F_p, multiplied modulo a
monic irreducible m of degree e. Construction divides m by every monic
polynomial of degree at most e/2 before it builds anything, so an invalid
modulus fails loudly instead of producing a ring with zero divisors, and
then takes the least element of multiplicative order q - 1 as the
primitive element. For the small extension sizes used on the tree
(q = 4, 8, 9) canonical default moduli are provided:

    F_4 = F_2[x]/(x^2 + x + 1)
    F_8 = F_2[x]/(x^3 + x + 1)
    F_9 = F_3[x]/(x^2 + 1)

Prime fields take e = 1 with modulus x. Everything is immutable and
hashable. Each field holds its q elements once; sums, products and
inverses are looked up in log/antilog tables of O(q) entries built at
construction, so no arithmetic allocates. The tables are built on
coefficient vectors packed into integers (see `_primitive_powers`).
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import InvalidInputError, SizeGuardExceeded

CANONICAL_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
}
# the largest q that `Field` builds: Field(16381) and F_{2^14} take about 0.03 s
MAX_Q = 1 << 14


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _primitive_powers(modulus: tuple[int, ...], p: int) -> list[int]:
    """The positions of g^0, ..., g^(q-2) for the least g of multiplicative order q - 1.

    Positions are those of `Field.elements()`. Such a g exists exactly when
    the quotient ring is a field, that is when the modulus is irreducible;
    that is tested first, since a reducible modulus has a monic factor of
    degree at most e/2. In the field, g has order q - 1 exactly when
    g^((q-1)/r) != 1 for each prime r dividing q - 1.

    Over F_p, e = 1, a vector is its one coefficient and products are taken
    mod p. Otherwise a vector is packed into an integer, w bits per
    coefficient and c_0 the most significant, as in a position. A sum adds
    the integers and takes p off each digit that reached p, XOR for p = 2;
    times x shifts down a digit and adds the multiple of -m that the
    shifted-out top coefficient c_(e-1) stands for. A product by b sums the
    multiples of b x^i picked by each digit of the other factor.
    """
    e, q = len(modulus) - 1, p ** (len(modulus) - 1)
    for d in range(1, e // 2 + 1):
        for factor in itertools.product(range(p), repeat=d):
            rest = list(modulus)  # modulus mod x^d + factor, by long division
            for i in range(e, d - 1, -1):
                rest[i - d : i] = [(r - rest[i] * c) % p for r, c in zip(rest[i - d : i], factor)]
            if not any(rest[:d]):
                raise InvalidInputError(f"modulus {modulus} is reducible over F_{p}")
    w = 1 if p == 2 else (2 * p).bit_length() + 1  # a digit and a sum of two, below the top bit
    mask = (1 << w) - 1

    def pack(position):
        out = 0
        for i in range(e):
            position, c = divmod(position, p)
            out |= c << (w * i)
        return out

    def position(packed):
        out, place = 0, 1
        for _ in range(e):
            out += (packed & mask) * place
            packed >>= w
            place *= p
        return out

    if e == 1:
        def multiplier(b):
            return lambda a: a * b % p
    else:
        if p == 2:
            add = operator.xor
        else:
            high = sum(1 << (w * i + w - 1) for i in range(e))
            bias = high - sum(p << (w * i) for i in range(e))

            def add(a, b):
                s = a + b
                return s - (((s + bias) & high) >> (w - 1)) * p

        # c * x^e = -c * (m_0 + ... + m_(e-1) x^(e-1)), packed with c_0 on top
        reduce = [sum((-c * m) % p << (w * (e - 1 - i)) for i, m in enumerate(modulus[:e]))
                  for c in range(p)]

        def multiplier(b):
            rows = []  # rows[i][c] = c * b * x^i, reversed below: a's lowest digit is c_(e-1)
            for _ in range(e):
                row = [0]
                for _ in range(p - 1):
                    row.append(add(row[-1], b))
                rows.append(row)
                b = add(b >> w, reduce[b & mask])
            rows.reverse()

            def times(a):
                out = 0
                for row in rows:
                    out = add(out, row[a & mask])
                    a >>= w
                return out

            return times

    one = 1 << (w * (e - 1))

    def power(a, n):
        out = one
        while n:
            if n & 1:
                out = multiplier(a)(out)
            a = multiplier(a)(a)
            n >>= 1
        return out

    cofactors = [(q - 1) // r for r in range(2, q) if (q - 1) % r == 0 and _is_prime(r)]
    g = next(g for g in map(pack, range(1, q)) if all(power(g, k) != one for k in cofactors))
    times_g, powers = multiplier(g), [one]
    for _ in range(q - 2):
        powers.append(times_g(powers[-1]))
    # with one bit or one digit per vector, the packed vector is its position
    return powers if p == 2 or e == 1 else list(map(position, powers))


class FieldElement:
    """An element of F_q, stored as a coefficient tuple of length e.

    Every field owns exactly one instance per element (see `Field`):
    `index` is its position in `Field.elements()`; `_log` is its discrete
    logarithm to the field's primitive element (None for zero). Arithmetic
    returns those shared instances by table lookup, so elements compare and
    hash by identity, in C.
    """

    __slots__ = ("field", "coeffs", "index", "_log")

    def __init__(self, field: "Field", coeffs: tuple[int, ...], index: int, log: int | None):
        self.field = field
        self.coeffs = coeffs
        self.index = index
        self._log = log

    def __bool__(self) -> bool:
        return self.index != 0

    def __add__(self, other: "FieldElement") -> "FieldElement":
        m = self._log
        if m is None:
            return other
        n = other._log
        if n is None:
            return self
        # g^m + g^n = g^m (1 + g^(n-m)); a negative n - m wraps mod q - 1
        f = self.field
        z = f._zech[n - m]
        return f.zero if z is None else f._exp[m + z]

    def __neg__(self) -> "FieldElement":
        m = self._log
        if m is None:
            return self
        return self.field._exp[m + self.field._minus_one_log]

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        m = self._log
        n = other._log
        if m is None or n is None:
            return self.field.zero
        return self.field._exp[m + n]

    def inverse(self) -> "FieldElement":
        m = self._log
        if m is None:
            raise ZeroDivisionError("inverse of zero field element")
        # _exp holds two periods, so index -m is g^(2(q-1) - m) = g^-m
        return self.field._exp[-m]

    def __repr__(self) -> str:
        return f"FieldElement({self.field.q}, {self.coeffs})"


class Field:
    """F_q with explicit modulus; use the ``field(q)`` factory to share instances.

    The q elements are built once, in lexicographic order of their
    coefficient tuples. Multiplication and inversion look up the antilog
    table of a primitive element g; addition looks up its Zech logarithms
    (1 + g^k = g^zech[k]). Both tables have O(q) entries.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | None = None):
        # before any table, and without p^e for an e past the bound's bit length
        if e >= 1 and p >= 2 and (p > MAX_Q or e >= MAX_Q.bit_length() or p**e > MAX_Q):
            raise SizeGuardExceeded(f"field size {p}^{e} exceeds the bound {MAX_Q}")
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
        if modulus[-1] != 1:
            raise InvalidInputError("modulus must be monic")
        self.p = p
        self.e = e
        self.q = q = p**e
        self.modulus = modulus
        powers = _primitive_powers(modulus, p)
        log = [None] * q
        for k, i in enumerate(powers):
            log[i] = k
        vectors = itertools.product(range(p), repeat=e)
        self._elements = [FieldElement(self, v, i, log[i]) for i, v in enumerate(vectors)]
        self.zero = self._elements[0]
        self.one = self._elements[q // p]
        self.gen = self.element((0, 1)) if e > 1 else self.one
        # two periods, so that log sums and -log index without reduction
        self._exp = [self._elements[i] for i in powers] * 2
        # adding 1 adds 1 mod p to c_0, the leading base-p digit of a position
        top = q - q // p
        self._zech = [log[i + q // p if i < top else i - top] for i in powers]
        self._minus_one_log = 0 if p == 2 else (q - 1) // 2

    def _add_products(self, out: dict, x: dict, y: dict, cap) -> None:
        """Add x[i] * y[j] into out[i + j] for every degree i + j below cap.

        The dicts map degrees to nonzero elements, as series digits do; the
        sums run on discrete logs: g^m + g^n = g^(m + zech[n - m]), and no
        zech entry means the two cancel, so the degree is deleted. cap is
        None for no bound.
        """
        exp, zech, period = self._exp, self._zech, self.q - 1
        for d1, c1 in x.items():
            m = c1._log
            for d2, c2 in y.items():
                d = d1 + d2
                if cap is not None and d >= cap:
                    continue
                n = m + c2._log
                s = out.get(d)
                if s is None:
                    out[d] = exp[n]
                    continue
                z = zech[(n - s._log) % period]
                if z is None:
                    del out[d]
                else:
                    out[d] = exp[s._log + z]

    def _negated(self, x: dict) -> dict:
        """-x for a dict of degrees to nonzero elements, through the antilog table."""
        exp, half = self._exp, self._minus_one_log
        return {d: exp[c._log + half] for d, c in x.items()}

    def _position(self, coeffs: tuple[int, ...]) -> int:
        index = 0
        for c in coeffs:
            index = index * self.p + c
        return index

    def element(self, value) -> FieldElement:
        """Coerce an int (mod p) or coefficient sequence into the field."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise InvalidInputError("element from a different field")
            return value
        if isinstance(value, int):
            return self._elements[(value % self.p) * (self.q // self.p)]
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.e:
            raise InvalidInputError("too many coefficients for this field")
        return self._elements[self._position(coeffs + (0,) * (self.e - len(coeffs)))]

    def elements(self):
        """All q elements, in deterministic lexicographic order."""
        return iter(self._elements)

    def units(self):
        return iter(self._elements[1:])

    def __repr__(self) -> str:
        return f"Field(q={self.q})"


@functools.cache
def _field_cached(p: int, e: int, modulus: tuple[int, ...] | None) -> Field:
    return Field(p, e, modulus)


def field(q: int, modulus=None) -> Field:
    """The field with q elements. q must be a prime power of at most MAX_Q."""
    if q > MAX_Q:
        raise SizeGuardExceeded(f"field size q = {q} exceeds the bound {MAX_Q}")
    # the least divisor >= 2 of q is prime
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise InvalidInputError(f"{q} is not a prime power")
            return _field_cached(p, e, tuple(modulus) if modulus else None)
    raise InvalidInputError(f"{q} is not a prime power")
