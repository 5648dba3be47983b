"""The ideal file format: parser and renderer.

Line 1: ``ring <poly|ext> <n> QQ [order]``.  Every following nonempty,
non-comment line holds one or more generators separated by commas, written
as ``coef*mon +- ...`` with ``^`` powers and ``*`` products.  ``#`` starts
a comment.  Rendering one generator per line round-trips through the
parser up to whitespace.
"""

import re
from fractions import Fraction

from .ideals import Ideal
from .rings import EXT, POLY, TERM_ORDERS, Element, Ring, render_element


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col else "")
        super().__init__(message + where)


_TOKEN = re.compile(
    r"\s*(?:(?P<var>[a-zA-Z]+\d+)|(?P<num>\d+)|(?P<op>[-+*/^]))"
)


def _tokenize(text, lineno):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and text[pos:].strip():
            raise ParseError(
                f"unexpected character {text[pos:].strip()[:1]!r}",
                lineno,
                pos + 1,
            )
        if m.end() == pos:
            break
        kind = m.lastgroup
        out.append((kind, m.group(kind), pos + 1))
        pos = m.end()
        if pos >= len(text) or not text[pos:].strip():
            break
    return out


class _TermParser:
    def __init__(self, ring, tokens, lineno):
        self.ring = ring
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of generator", self.lineno)
        self.i += 1
        return tok

    def parse_element(self):
        total = Element.zero(self.ring)
        sign = 1
        first = True
        while self.peek() is not None:
            kind, val, col = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                sign = 1 if val == "+" else -1
            elif not first:
                raise ParseError(
                    f"expected + or - before {val!r}", self.lineno, col
                )
            total = total + self.parse_term().scale(sign)
            sign = 1
            first = False
        if first:
            raise ParseError("empty generator", self.lineno)
        return total

    def parse_term(self):
        ring = self.ring
        coeff = Fraction(1)
        mono = Element.monomial(ring, ring.unit_monomial())
        saw_factor = False
        while True:
            tok = self.peek()
            if tok is None or (tok[0] == "op" and tok[1] in "+-"):
                break
            kind, val, col = self.take()
            if kind == "num":
                c = Fraction(int(val))
                nxt = self.peek()
                if nxt and nxt[0] == "op" and nxt[1] == "/":
                    self.take()
                    dkind, dval, dcol = self.take()
                    if dkind != "num" or int(dval) == 0:
                        raise ParseError(
                            "expected nonzero integer denominator",
                            self.lineno,
                            dcol,
                        )
                    c /= int(dval)
                coeff *= c
            elif kind == "var":
                exp = 1
                nxt = self.peek()
                if nxt and nxt[0] == "op" and nxt[1] == "^":
                    self.take()
                    ekind, eval_, ecol = self.take()
                    if ekind != "num":
                        raise ParseError(
                            "expected integer exponent", self.lineno, ecol
                        )
                    exp = int(eval_)
                mono = mono * self._variable_power(val, exp, col)
            else:
                raise ParseError(
                    f"unexpected operator {val!r}", self.lineno, col
                )
            saw_factor = True
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "*":
                self.take()
                nxt2 = self.peek()
                if nxt2 is None or (nxt2[0] == "op" and nxt2[1] in "+-"):
                    raise ParseError("dangling *", self.lineno)
        if not saw_factor:
            raise ParseError("empty term", self.lineno)
        return mono.scale(coeff)

    def _variable_power(self, name, exp, col):
        ring = self.ring
        prefix = "e" if ring.is_exterior else "x"
        m = re.fullmatch(prefix + r"(\d+)", name)
        if not m:
            raise ParseError(
                f"unknown variable {name!r} (expected {prefix}1..{prefix}{ring.n})",
                self.lineno,
                col,
            )
        idx = int(m.group(1))
        if not 1 <= idx <= ring.n:
            raise ParseError(
                f"variable {name!r} out of range 1..{ring.n}", self.lineno, col
            )
        if ring.is_exterior and exp > 1:
            raise ParseError(
                "exterior variables square to zero", self.lineno, col
            )
        exps = [0] * ring.n
        exps[idx - 1] = exp
        return Element.monomial(ring, tuple(exps))


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
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        for chunk in stripped.split(","):
            chunk = chunk.strip()
            if not chunk:
                raise ParseError("empty generator between commas", i)
            tokens = _tokenize(chunk, i)
            f = _TermParser(ring, tokens, i).parse_element()
            if f.is_zero():
                raise ParseError("generator is zero", i)
            if not f.is_homogeneous():
                raise ParseError(f"inhomogeneous generator: {chunk}", i)
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
