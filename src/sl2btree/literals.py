"""Text forms for series, vertices, boundary ends, and matrices.

The same little grammar is shared by the command line, the JSON reports,
and the test fixtures:

* series     ``1+t+t^3``, ``p^-2+1``, ``2*t^2``, ``[x+1]*t^2``, ``0``,
  and a series known mod pi^N: ``1+p mod p^3``
* vertex     ``(n; series)``
* end        ``up`` | ``rat(num, den)`` | ``trunc(series, N)``
* matrix     ``[[a,b],[c,d]]`` with series entries: two bracketed rows of
  two entries, one comma between rows and between entries

``t`` is the degree -1 monomial (polynomial variable), ``p`` the degree +1
monomial (uniformizer); ``t^k`` has degree ``-k`` and ``p^k`` degree ``+k``,
with negative exponents allowed on either. Coefficients over an extension
field are written in brackets as polynomials in ``x``, the field generator;
``x^k`` is reduced mod q - 1.
Formatting goes through the classes' ``str`` forms, which stay inside this
grammar and prefer ``t`` powers for negative degrees.
"""

import re

from .autom import TreeAutomorphism
from .errors import InvalidInputError
from .field import Field
from .series import INFINITY, LaurentSeries
from .tree import End, Tree, TruncatedEnd, UpEnd, Vertex, end_from_vector

_VAR_RE = re.compile(r"^(t|p)\s*(?:\^\s*(-?\d+))?$")
_INT_RE = re.compile(r"^-?\d+$")
_MOD_RE = re.compile(r"^(.*\S)\s+mod\s+p\s*\^\s*(-?\d+)$")
_XTERM_RE = re.compile(r"^(?:(\d+)\s*\*?\s*)?x\s*(?:\^\s*(\d+))?$|^(\d+)$")
_OPENER = {"]": "[", ")": "("}


def _split_top(text: str, seps: str, what: str) -> list[tuple[str, str]]:
    """Cut text at the characters of seps that lie outside ``[]`` and ``()``.

    Returns (separator, piece) pairs, the first separator being ``""``, with
    each piece stripped. A ``+`` or ``-`` right after ``^`` belongs to an
    exponent and never cuts. Unbalanced brackets are refused.
    """
    pieces = []
    open_ = []
    sep, start, prev = "", 0, ""
    for i, ch in enumerate(text):
        if ch in "[(":
            open_.append(ch)
        elif ch in _OPENER:
            if not open_ or open_.pop() != _OPENER[ch]:
                raise InvalidInputError(f"unbalanced {ch!r} in {what} {text!r}")
        elif ch in seps and not open_ and not (ch in "+-" and prev == "^"):
            pieces.append((sep, text[start:i].strip()))
            sep, start = ch, i + 1
        if not ch.isspace():
            prev = ch
    if open_:
        raise InvalidInputError(f"unbalanced {open_[-1]!r} in {what} {text!r}")
    pieces.append((sep, text[start:].strip()))
    return pieces


def _split_on_signs(text: str, what: str) -> list[tuple[int, str]]:
    """Split an additive expression into (sign, term) pairs.

    One leading sign is allowed; an empty or dangling term is refused.
    """
    pieces = _split_top(text, "+-", what)
    if len(pieces) > 1 and not pieces[0][1]:
        del pieces[0]
    if not all(term for _, term in pieces):
        raise InvalidInputError(f"empty or dangling term in {what} {text!r}")
    return [(-1 if sep == "-" else 1, term) for sep, term in pieces]


def _parse_ext_coeff(field: Field, body: str):
    """A bracketed coefficient: a polynomial in x over the prime field.

    The generator x is a unit, so x^k is x^(k mod (q - 1)).
    """
    total = field.zero
    for sign, chunk in _split_on_signs(body, "coefficient"):
        m = _XTERM_RE.match(chunk)
        if m is None:
            raise InvalidInputError(f"bad extension coefficient term {chunk!r}")
        if m.group(3) is not None:
            value = field.element(sign * int(m.group(3)))
        elif field.e == 1:
            raise InvalidInputError(f"x names no generator of the prime field F_{field.q}")
        else:
            c = int(m.group(1)) if m.group(1) else 1
            k = int(m.group(2)) if m.group(2) else 1
            value = field.element(sign * c)
            for _ in range(k % (field.q - 1)):
                value = value * field.gen
        total = total + value
    return total


def _parse_coeff(field: Field, text: str):
    if text.startswith("[") and text.endswith("]"):
        return _parse_ext_coeff(field, text[1:-1])
    if _INT_RE.match(text):
        return field.element(int(text))
    if "x" in text:
        # unbracketed generator term, e.g. a lone "x" constant
        return _parse_ext_coeff(field, text)
    raise InvalidInputError(f"bad coefficient {text!r}")


def parse_series(field: Field, text: str) -> LaurentSeries:
    """Parse a series literal like ``1+t+t^3``, ``[x+1]*t^2+p`` or ``1+p mod p^3``."""
    if not isinstance(text, str):
        raise InvalidInputError("series literal must be a string")
    text = text.strip()
    known = _MOD_RE.match(text)
    prec = INFINITY
    if known is not None:
        text, prec = known.group(1), int(known.group(2))
    coeffs: dict[int, object] = {}
    for sign, term in _split_on_signs(text, "series literal"):
        parts = [part for _, part in _split_top(term, "*", "series term")]
        m = _VAR_RE.match(parts[-1])
        if len(parts) == 1 and m is None:
            coeff, degree = _parse_coeff(field, term), 0
        elif len(parts) > 2 or m is None:
            raise InvalidInputError(f"bad monomial in {term!r}")
        else:
            coeff = _parse_coeff(field, parts[0]) if len(parts) == 2 else field.one
            k = int(m.group(2)) if m.group(2) is not None else 1
            degree = -k if m.group(1) == "t" else k
        if sign < 0:
            coeff = -coeff
        total = coeffs.get(degree, field.zero) + coeff
        if total:
            coeffs[degree] = total
        else:
            coeffs.pop(degree, None)
    return LaurentSeries(field, coeffs, prec)


def format_series(s: LaurentSeries) -> str:
    return str(s)


_VERTEX_RE = re.compile(r"^\(\s*(-?\d+)\s*;\s*(.*?)\s*\)$")


def parse_vertex(field: Field, text: str) -> Vertex:
    """Parse a vertex literal ``(n; series)``."""
    m = _VERTEX_RE.match(text.strip())
    if m is None:
        raise InvalidInputError(f"bad vertex literal {text!r}; expected '(n; series)'")
    level = int(m.group(1))
    residue = parse_series(field, m.group(2))
    return Tree(field).vertex(level, residue)


def format_vertex(v: Vertex) -> str:
    return str(v)


def _call_args(text: str, name: str, count: int) -> list[str]:
    """The comma-separated arguments of ``name(...)``."""
    body = text[len(name) + 1 : -1]
    args = [arg for _, arg in _split_top(body, ",", f"{name}(...)")]
    if len(args) != count:
        raise InvalidInputError(
            f"{name}(...) takes {count} arguments, got {len(args)} in {text!r}"
        )
    return args


def parse_end(field: Field, text: str) -> End:
    """Parse an end literal: ``up``, ``rat(num, den)`` or ``trunc(series, N)``."""
    text = text.strip()
    if text == "up":
        return UpEnd(field)
    if text.startswith("rat(") and text.endswith(")"):
        num_text, den_text = _call_args(text, "rat", 2)
        num = parse_series(field, num_text)
        den = parse_series(field, den_text)
        if den.is_exact_zero() and num.is_exact_zero():
            raise InvalidInputError("rat(0, 0) does not name an end")
        return end_from_vector(field, den, num)
    if text.startswith("trunc(") and text.endswith(")"):
        series_text, depth_text = _call_args(text, "trunc", 2)
        if not _INT_RE.match(depth_text):
            raise InvalidInputError(f"bad truncation depth {depth_text!r}")
        depth = int(depth_text)
        body = parse_series(field, series_text)
        return TruncatedEnd(field, body.truncate(depth).reduce_precision(depth))
    raise InvalidInputError(
        f"bad end literal {text!r}; expected 'up', 'rat(num, den)' "
        f"or 'trunc(series, N)'"
    )


def format_end(e: End) -> str:
    return str(e)


def _bracketed_pair(text: str, what: str) -> list[str]:
    """The two comma-separated items of ``[a,b]``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InvalidInputError(f"{what} {text!r} is not bracketed")
    items = [item for _, item in _split_top(text[1:-1], ",", what)]
    if len(items) != 2:
        raise InvalidInputError(f"{what} {text!r} needs 2 items, got {len(items)}")
    return items


def parse_matrix(field: Field, text: str) -> TreeAutomorphism:
    """Parse a matrix literal ``[[a,b],[c,d]]`` with series entries."""
    rows = _bracketed_pair(text, "matrix literal")
    entries = [
        parse_series(field, cell) for row in rows for cell in _bracketed_pair(row, "matrix row")
    ]
    return TreeAutomorphism(field, *entries)


def format_matrix(g: TreeAutomorphism) -> str:
    return str(g)
