"""Text forms for series, vertices, boundary ends, and matrices.

The same little grammar is shared by the command line, the JSON reports,
and the test fixtures:

* series     ``1+t+t^3``, ``p^-2+1``, ``2*t^2``, ``[x+1]*t^2``, ``0``,
  and a series known mod pi^N: ``1+p mod p^3``
* vertex     ``(n; series)``
* end        ``up`` | ``rat(num, den)`` | ``trunc(series, N)``
* matrix     ``[[a,b],[c,d]]`` with series entries

``t`` is the degree -1 monomial (polynomial variable), ``p`` the degree +1
monomial (uniformizer); ``t^k`` has degree ``-k`` and ``p^k`` degree ``+k``,
with negative exponents allowed on either. Coefficients over an extension
field are written in brackets as polynomials in ``x``, the field generator.
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


def _split_on_signs(text: str, what: str):
    """Split an additive expression into (sign, chunk) pairs.

    Minus signs directly after ``^`` belong to an exponent and do not
    split. Brackets suspend splitting so extension-field coefficients
    survive intact.
    """
    terms = []
    depth = 0
    cur = []
    sign = 1
    prev = ""
    pending = True  # a term is still owed (at the start and after every sign)
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise InvalidInputError(f"unbalanced ']' in {what} {text!r}")
        if depth == 0 and ch in "+-" and prev != "^":
            chunk = "".join(cur).strip()
            if chunk:
                terms.append((sign, chunk))
                sign = 1
            elif terms or prev in ("+", "-"):
                raise InvalidInputError(f"dangling sign in {what} {text!r}")
            if ch == "-":
                sign = -sign
            cur = []
            pending = True
        else:
            cur.append(ch)
        if not ch.isspace():
            prev = ch
    if depth != 0:
        raise InvalidInputError(f"unbalanced '[' in {what} {text!r}")
    chunk = "".join(cur).strip()
    if chunk:
        terms.append((sign, chunk))
    elif pending:
        raise InvalidInputError(f"empty or dangling term in {what} {text!r}")
    return terms


def _parse_ext_coeff(field: Field, body: str):
    """A bracketed coefficient: a polynomial in x over the prime field."""
    total = field.zero
    for sign, chunk in _split_on_signs(body, "coefficient"):
        m = _XTERM_RE.match(chunk)
        if m is None:
            raise InvalidInputError(f"bad extension coefficient term {chunk!r}")
        if m.group(3) is not None:
            value = field.element(sign * int(m.group(3)))
        else:
            c = int(m.group(1)) if m.group(1) else 1
            k = int(m.group(2)) if m.group(2) else 1
            value = field.element(sign * c)
            for _ in range(k):
                value = value * field.gen
        total = total + value
    return total


def _parse_coeff(field: Field, text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        return _parse_ext_coeff(field, text[1:-1])
    if _INT_RE.match(text):
        return field.element(int(text))
    if "x" in text:
        # unbracketed generator term, e.g. a lone "x" constant
        return _parse_ext_coeff(field, text)
    raise InvalidInputError(f"bad coefficient {text!r}")


def _split_star(text: str):
    """Split at the single top-level ``*`` separating coefficient and power."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "*" and depth == 0:
            return text[:i], text[i + 1 :]
    return None


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
    for sign, chunk in _split_on_signs(text, "series literal"):
        split = _split_star(chunk)
        if split is not None:
            coeff_text, power_text = split
            coeff = _parse_coeff(field, coeff_text)
            m = _VAR_RE.match(power_text.strip())
            if m is None:
                raise InvalidInputError(f"bad monomial {power_text.strip()!r}")
        else:
            m = _VAR_RE.match(chunk)
            if m is not None:
                coeff = field.one
            else:
                coeff = _parse_coeff(field, chunk)
                m = None
        if m is None:
            degree = 0
        else:
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


def _call_args(text: str, name: str, count: int):
    """The comma-separated arguments of ``name(...)``, split at depth 0."""
    body = text[len(name) + 1 : -1]
    args = []
    depth = 0
    cur = []
    for ch in body:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    args.append("".join(cur).strip())
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
        if depth < 1:
            raise InvalidInputError("truncation depth must be at least 1")
        body = parse_series(field, series_text)
        return TruncatedEnd(field, body.truncate(depth).reduce_precision(depth))
    raise InvalidInputError(
        f"bad end literal {text!r}; expected 'up', 'rat(num, den)' "
        f"or 'trunc(series, N)'"
    )


def format_end(e: End) -> str:
    return str(e)


def parse_matrix(field: Field, text: str) -> TreeAutomorphism:
    """Parse a matrix literal ``[[a,b],[c,d]]`` with series entries.

    Bracket depth 1 is the matrix, depth 2 a row, depth 3 a bracketed
    extension-field coefficient inside an entry.
    """
    stripped = text.strip()
    rows: list[list[str]] = []
    row: list[str] | None = None
    depth = 0
    cur: list[str] = []
    for ch in stripped:
        if ch == "[":
            depth += 1
            if depth == 2:
                row = []
                cur = []
            elif depth == 3:
                cur.append(ch)
            elif depth > 3:
                raise InvalidInputError(f"brackets nest too deep in {text!r}")
        elif ch == "]":
            if depth == 3:
                cur.append(ch)
            elif depth == 2:
                row.append("".join(cur).strip())
                rows.append(row)
                row = None
            elif depth < 1:
                raise InvalidInputError(f"unbalanced brackets in matrix {text!r}")
            depth -= 1
        elif ch == "," and depth == 2:
            row.append("".join(cur).strip())
            cur = []
        elif depth >= 2:
            cur.append(ch)
        elif not ch.isspace() and not (ch == "," and depth == 1):
            raise InvalidInputError(f"unexpected {ch!r} in matrix literal {text!r}")
    if depth != 0:
        raise InvalidInputError(f"unbalanced brackets in matrix {text!r}")
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise InvalidInputError(f"matrix literal needs 2x2 entries: {text!r}")
    entries = [parse_series(field, cell) for row in rows for cell in row]
    return TreeAutomorphism(field, *entries)


def format_matrix(g: TreeAutomorphism) -> str:
    return str(g)
