"""The ideal file format: parser and renderer.

Line 1: ``ring <poly|ext> <n> QQ [order]``.  Every following nonempty,
non-comment line holds one or more generators separated by commas.  A
generator is terms joined by ``+`` or ``-``, a term is factors joined by
``*``, and a factor is an integer, ``p/q``, or a variable with an optional
``^`` power; an implicit product (``2x1``, ``x1 x2``) is a parse error.
``#`` starts a comment.  Rendering one generator per line round-trips
through the parser up to whitespace.
"""

import re
from fractions import Fraction

from .ideals import Ideal
from .rings import (
    EXT,
    POLY,
    TERM_ORDERS,
    Element,
    Ring,
    monomial_product,
    render_element,
)


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col else "")
        super().__init__(message + where)


_TOKEN = re.compile(
    r"\s*(?:(?P<var>[a-zA-Z]+\d+)|(?P<num>\d+)|(?P<op>[-+*/^])|(?P<bad>\S))"
)
_END = (None, "end of generator", None)


def _integer(text, lineno, col):
    """int(text), or a ParseError past Python's limit on digits."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer of {len(text)} digits is too long", lineno, col)


def _parse_generator(ring, text, lineno, offset):
    """One generator: ``sign? term (sign term)*``, a term being factors
    joined by ``*`` and a factor ``num[/num]`` or ``var[^num]``.  text
    starts at column offset + 1 of its line.

    Terms are summed in one {monomial: coefficient} dict.  Every variable
    factor goes through monomial_product, and a vanishing exterior product
    keeps its term at coefficient 0 through the factors that follow.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        col = offset + m.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", lineno, col)
        tokens.append((kind, m.group(kind), col))
    tokens.append(_END)

    def number(i, what):
        kind, val, col = tokens[i]
        if kind != "num":
            raise ParseError(f"expected {what}, found {val}", lineno, col)
        return _integer(val, lineno, col)

    exterior = ring.is_exterior
    prefix = "e" if exterior else "x"
    terms, i = {}, 0
    while tokens[i] is not _END:
        sign = -1 if tokens[i][1] == "-" else 1
        if tokens[i][1] in ("+", "-"):
            i += 1
        coeff, mono = Fraction(1), ring.unit_monomial()
        while True:
            kind, val, col = tokens[i]
            i += 1
            if kind == "num":
                coeff *= _integer(val, lineno, col)
                if tokens[i][1] == "/":
                    den = number(i + 1, "integer denominator")
                    if not den:
                        raise ParseError("zero denominator", lineno, tokens[i + 1][2])
                    coeff /= den
                    i += 2
            elif kind == "var":
                exp = 1
                if tokens[i][1] == "^":
                    exp = number(i + 1, "integer exponent")
                    i += 2
                if val[0] != prefix or not val[1:].isdecimal():
                    raise ParseError(
                        f"unknown variable {val!r} (expected {prefix}1..{prefix}{ring.n})",
                        lineno,
                        col,
                    )
                idx = _integer(val[1:], lineno, col)
                if not 1 <= idx <= ring.n:
                    raise ParseError(
                        f"variable {val!r} out of range 1..{ring.n}", lineno, col
                    )
                if exterior and exp > 1:
                    raise ParseError("exterior variables square to zero", lineno, col)
                var = (0,) * (idx - 1) + (exp,) + (0,) * (ring.n - idx)
                sgn, product = monomial_product(exterior, mono, var)
                coeff *= sgn
                if sgn:
                    mono = product
            else:
                raise ParseError(
                    f"expected a number or variable, found {val}", lineno, col
                )
            if tokens[i][1] != "*":
                break
            i += 1
        kind, val, col = tokens[i]
        if kind is not None and val not in ("+", "-"):
            raise ParseError(f"expected *, + or - before {val!r}", lineno, col)
        s = terms.get(mono, 0) + sign * coeff
        if s:
            terms[mono] = s
        else:
            terms.pop(mono, None)
    return Element(ring, terms)


def parse_ideal(text):
    """Parse the file format into a graded Ideal."""
    lines = text.splitlines()
    header = None
    header_line = 0
    for i, raw in enumerate(lines, 1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            header = stripped
            header_line = i
            break
    if header is None:
        raise ParseError("missing ring header")
    parts = header.split()
    if len(parts) not in (4, 5) or parts[0] != "ring":
        raise ParseError(
            "expected `ring <poly|ext> <n> QQ [order]`", header_line
        )
    kind = {"poly": POLY, "ext": EXT}.get(parts[1])
    if kind is None:
        raise ParseError(f"unknown ring kind {parts[1]!r}", header_line)
    try:
        n = int(parts[2])
    except ValueError:
        raise ParseError("variable count must be an integer", header_line)
    if n < 1:
        raise ParseError("variable count must be positive", header_line)
    if parts[3] != "QQ":
        raise ParseError("only QQ coefficients are supported", header_line)
    order = parts[4] if len(parts) == 5 else "degrevlex"
    if order not in TERM_ORDERS:
        raise ParseError(f"unknown order {order!r}", header_line)
    ring = Ring(kind, n, order)

    gens = []
    for i, raw in enumerate(lines, 1):
        if i <= header_line:
            continue
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        offset = 0  # columns count from the start of the line
        for chunk in body.split(","):
            if not chunk.strip():
                raise ParseError("empty generator between commas", i)
            f = _parse_generator(ring, chunk, i, offset)
            offset += len(chunk) + 1
            if f.is_zero():
                raise ParseError("generator is zero", i)
            if not f.is_homogeneous():
                raise ParseError(f"inhomogeneous generator: {chunk.strip()}", i)
            gens.append(f)
    try:
        return Ideal(ring, gens)
    except ValueError as exc:
        raise ParseError(str(exc))


def render_ideal(ideal):
    """Render an Ideal in the file format (one generator per line)."""
    ring = ideal.ring
    kind = "ext" if ring.is_exterior else "poly"
    lines = [f"ring {kind} {ring.n} QQ {ring.order}"]
    for g in ideal.generators:
        lines.append(render_element(g))
    return "\n".join(lines) + "\n"
