"""Exact arithmetic in polynomial rings and exterior algebras over QQ.

Monomials are exponent vectors of length n over both ring kinds; over
the exterior algebra the entries are 0 or 1, so a squarefree monomial is
the same tuple in S and in E.  Only the product tells the rings apart,
and monomial_product is its one home: over E, e_i ^ e_i = 0, and a sign
for reordering the factors.  Elements map monomials to nonzero exact
rational coefficients (int or Fraction).  Everything is immutable after
construction and all operations are pure functions.

The random draws of the certified generic computations live here too:
certified_draw draws one prime per round and seed, and for each trial an
upper-unitriangular matrix mod that prime (GenericSequence), and hands it
to the route, a gin trial or a generic sequence.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, prod
from operator import add

from .linalg import IntRank, ModRank, scale_to_int

POLY = "poly"
EXT = "ext"

DEGREVLEX = "degrevlex"
DEGLEX = "deglex"
LEX = "lex"

TERM_ORDERS = (DEGREVLEX, DEGLEX, LEX)

ROUNDS = 5  # rounds of certified_draw; round e doubles the bound e times
PRIME_BOUND = 1 << 60  # the default B: round 0 draws its prime from [B, 2B)


@dataclass(frozen=True)
class Ring:
    """A polynomial ring QQ[x1..xn] or exterior algebra over an n-dim space."""

    kind: str
    n: int
    order: str = DEGREVLEX
    # Ring.memo, and the hot path of Ring.monomials: (d, order) -> tuple
    _memo: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.kind not in (POLY, EXT):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.order not in TERM_ORDERS:
            raise ValueError(f"unknown term order {self.order!r}")

    @property
    def is_exterior(self):
        return self.kind == EXT

    def variable_name(self, i):
        """Display name of the 0-based variable i."""
        return ("e" if self.is_exterior else "x") + str(i + 1)

    def unit_monomial(self):
        return (0,) * self.n

    def variable(self, i):
        """The i-th variable (0-based) as an Element."""
        exps = [0] * self.n
        exps[i] = 1
        return Element(self, {tuple(exps): 1})

    def memo(self, key, build):
        """build() once per key on this Ring, for what depends only on the
        ring and key: the monomials of a degree, the round primes.
        Nothing is stored when build raises."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def monomials(self, d, order=None):
        """All monomials of total degree d, descending in order (default the
        ring's), as a tuple built once per (d, order) on this Ring (Ring.memo
        under the key (d, order), inlined: this is a hot path).  Over E the
        variables of a monomial are distinct."""
        order = order or self.order
        if (d, order) not in self._memo:
            monos = exponent_vectors(self.n, d, self.is_exterior)
            monos.sort(key=order_key(self, order), reverse=True)
            self._memo[(d, order)] = tuple(monos)
        return self._memo[(d, order)]

    def dim(self, d):
        """Vector space dimension of the degree-d graded piece."""
        if d < 0:
            return 0
        if self.is_exterior:
            return binom(self.n, d)
        return binom(d + self.n - 1, self.n - 1)


def polynomial_ring(n, order=DEGREVLEX):
    return Ring(POLY, n, order)


def exterior_ring(n, order=DEGREVLEX):
    return Ring(EXT, n, order)


def binom(a, b):
    """a choose b, and 0 outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


# ---------------------------------------------------------------------------
# monomial helpers


def exponent_vectors(n, d, squarefree):
    """The degree-d monomials in n >= 0 variables of E (squarefree) or S,
    in the order of combinations (resp. combinations_with_replacement)."""
    pick = combinations if squarefree else combinations_with_replacement
    out = []
    for c in pick(range(n), d):
        exps = [0] * n
        for i in c:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def max_variable(ring, m):
    """m(u): the largest 1-based variable index dividing u, 0 for the unit."""
    for i in range(ring.n - 1, -1, -1):
        if m[i]:
            return i + 1
    return 0


def monomial_mul(a, b):
    """Product of two polynomial-ring exponent vectors."""
    return tuple(map(add, a, b))


def monomial_divides(a, b):
    """Whether exponent vector a divides b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    """Quotient a / b of exponent vectors; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def wedge_supports(s, t):
    """Wedge e_s ^ e_t of two 0/1 exponent vectors: (sign, product), or
    (0, None) if they share a variable.

    The sign is (-1)^inversions, the pairs i in s, j in t with j < i, for
    interleaving the two increasing products of variables.  Every other
    exterior sign in the package is derived from this one normalization
    point.
    """
    inv = seen = 0  # seen: the variables of t below the current one
    for a, b in zip(s, t):
        if b:
            if a:
                return 0, None
            seen += 1
        elif a:
            inv += seen
    return -1 if inv & 1 else 1, tuple(map(add, s, t))


def monomial_product(exterior, a, b):
    """The one product rule of both ring kinds: a * b as (sign, monomial),
    or (0, None) when it vanishes.  Over E (exterior) it is wedge_supports;
    over S it is (1, monomial_mul(a, b)), inlined: this is a hot path."""
    if exterior:
        return wedge_supports(a, b)
    return 1, tuple(map(add, a, b))


def order_key(ring, order=None):
    """Sort key: larger key means larger monomial in the term order."""
    order = order or ring.order
    if order == DEGREVLEX:

        def key(m):
            return (sum(m), tuple(-x for x in reversed(m)))

    elif order == DEGLEX:

        def key(m):
            return (sum(m), m)

    elif order == LEX:

        def key(m):
            return m

    else:
        raise ValueError(f"unknown term order {order!r}")
    return key


def check_monomials(ring, monomials):
    """Raise ValueError unless each is a monomial of ring: a tuple of n
    nonnegative ints, at most 1 over E.  The entry points check; products
    of checked monomials are not checked again."""
    top = 1 if ring.is_exterior else float("inf")
    for m in monomials:
        if type(m) is not tuple or len(m) != ring.n:
            raise ValueError("monomials from a different ring")
        if not all(type(e) is int and 0 <= e <= top for e in m):
            raise ValueError(f"{m} is not a monomial of the {ring.kind} ring")


def compare_monomials(ring, a, b, order=None):
    """Total multiplicative order; returns -1, 0 or 1 for a <, =, > b."""
    check_monomials(ring, (a, b))
    k = order_key(ring, order)
    ka, kb = k(a), k(b)
    return (ka > kb) - (ka < kb)


# ---------------------------------------------------------------------------
# elements


class Element:
    """A ring element: finite map monomial -> nonzero rational coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def monomial(cls, ring, m, coeff=1):
        return cls(ring, {m: coeff})

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree of a homogeneous element; None for zero."""
        if not self.terms:
            return None
        degs = {sum(m) for m in self.terms}
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Element(self.ring, out)

    def __neg__(self):
        return Element(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return Element.zero(self.ring)
        return Element(self.ring, {m: c * x for m, x in self.terms.items()})

    def term_mul(self, mono, coeff=1):
        """Multiply by coeff * (monomial)."""
        return self._times(((mono, coeff),))

    def __mul__(self, other):
        return self._times(other.terms.items())

    def _times(self, terms):
        """self times the sum of the (monomial, coeff) terms: the one
        product loop of term_mul and __mul__, over monomial_product."""
        exterior = self.ring.is_exterior
        out = {}
        for mono, coeff in terms:
            for m, c in self.terms.items():
                sgn, t = monomial_product(exterior, m, mono)
                if sgn:
                    s = out.get(t, 0) + sgn * c * coeff
                    if s:
                        out[t] = s
                    else:
                        out.pop(t, None)
        return Element(self.ring, out)

    def leading_monomial(self, order=None):
        if not self.terms:
            return None
        return max(self.terms, key=order_key(self.ring, order))

    def leading_coefficient(self, order=None):
        lm = self.leading_monomial(order)
        return self.terms[lm] if lm is not None else 0

    def monic(self, order=None):
        lc = self.leading_coefficient(order)
        if not lc or lc == 1:
            return self
        return self.scale(Fraction(1, 1) / lc)

    def normalized_integer(self):
        """Scale by a positive rational so coefficients are coprime integers."""
        return Element(self.ring, scale_to_int(self.terms))

    def __str__(self):
        return render_element(self)

    __repr__ = __str__


def render_monomial(ring, m):
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(ring.variable_name(i))
        elif e > 1:
            parts.append(f"{ring.variable_name(i)}^{e}")
    return "*".join(parts) if parts else "1"


def render_element(f):
    if f.is_zero():
        return "0"
    key = order_key(f.ring)
    parts = []
    for m in sorted(f.terms, key=key, reverse=True):
        c = f.terms[m]
        mono = render_monomial(f.ring, m)
        neg = c < 0
        c = abs(Fraction(c))
        if c == 1 and mono != "1":
            body = mono
        elif mono == "1":
            body = str(c)
        else:
            body = f"{c}*{mono}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# linear changes of coordinates


def random_unitriangular_matrix_mod(rng, n, p):
    """The upper-unitriangular n x n matrix mod the prime p whose entries
    above the diagonal are drawn uniformly from [0, p) by the random.Random
    rng, row by row: row t is the form x_t + sum_{s > t} c_{t,s} x_s."""
    return [
        [0] * t + [1] + [rng.randrange(p) for _ in range(t + 1, n)]
        for t in range(n)
    ]


_SMALL_PRIMES = tuple(
    q for q in range(2, 256) if all(q % r for r in range(2, int(q**0.5) + 1))
)
_SCREEN = prod(_SMALL_PRIMES)  # a candidate sharing a factor with it is composite
# Miller-Rabin bases that decide primality: seven below 2^64 (Sinclair
# 2011), the first thirteen primes below PRIME_LIMIT (Sorenson and
# Webster, Math. Comp. 86, 2017)
_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Whether 0 <= n < PRIME_LIMIT is prime: a gcd screen against the
    primes below 256, then a deterministic Miller-Rabin test."""
    if n < 256:
        return n in _SMALL_PRIMES
    if gcd(n, _SCREEN) != 1:
        return False
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality is certified below {PRIME_LIMIT} only")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
    d = (n - 1) >> s
    for a in _BASES_64 if n < 1 << 64 else _SMALL_PRIMES[:13]:
        if a % n == 0:  # n divides the base, which then proves nothing
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo):
    """An odd prime drawn uniformly from [lo, 2 lo) by rejection, for
    2 <= lo and 2 lo <= PRIME_LIMIT; by Bertrand's postulate the range
    holds one (for lo = 2 it is 3)."""
    while True:
        n = rng.randrange(lo | 1, 2 * lo, 2)
        if is_prime(n):
            return n


def check_bound(bound):
    """Refuse a bound B unless every round draws a certified prime:
    B >= 2 and B 2^ROUNDS <= PRIME_LIMIT."""
    if bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    if bound == 1:
        raise ValueError(
            "coefficient bound 1: round 0 draws its prime from [1, 2), "
            "which holds none"
        )
    if bound << ROUNDS > PRIME_LIMIT:
        raise ValueError(
            f"coefficient bound must be at most {PRIME_LIMIT >> ROUNDS}: "
            f"the primes of all {ROUNDS} rounds are certified below {PRIME_LIMIT}"
        )


def round_prime(ring, seed, bound):
    """The odd prime of bound B under seed, uniform in [B, 2B), drawn once
    per (seed, B) on the ring (Ring.memo): the gin trials and generic
    sequences of a seed and round share it, as it costs more than a gin."""
    return ring.memo(("prime", seed, bound), lambda: random_prime(
        random.Random(f"gin-prime:{seed}:{bound}"), bound
    ))


class GenericityError(Exception):
    """A certified generic draw failed in every round of escalation."""


class BadPrime(GenericityError):
    """A draw mod p met a bad prime or point: a rank fell short of its exact
    value, or p divides a Piece.den that a reduction along a sequence needs."""

    def __init__(self, p, why):
        super().__init__(f"prime {p}: {why}")


@dataclass(frozen=True)
class GenericSequence:
    """A drawn matrix: n x n rows mod the prime, upper unitriangular.  Its
    rows are the forms y_t = x_t + sum_{s > t} c_{t,s} x_s of a generic
    sequence; a gin trial sends x_i to column i (change_coordinates mod the
    prime).  Certificates, Ideal.memo keys and every route read these rows.

    The homology of a prefix, its delta numbers, the prefix ideals J_p and
    a gin trial's initial ideals depend on the flag span(y_1) < span(y_1,
    y_2) < ... alone: another basis of the flag changes a trial by
    x_k -> c x_k + (smaller variables), c != 0, which keeps every leading
    monomial.  A flag in general position has one basis of this shape,
    its echelon form, so the unitriangular cell meets every nonempty open
    set of flags, and its n(n - 1)/2 entries carry the Schwartz-Zippel
    bound (GinCertificate).
    """

    ring: object
    rows: tuple
    key: object
    bound: int
    prime: int

    @classmethod
    def draw(cls, ring, seed, key, bound=PRIME_BOUND, label="forms"):
        """The matrix of label and key: uniform among the upper-unitriangular
        matrices mod p from the stream "{label}:{key}:{bound}",
        p = round_prime(ring, seed, bound), after check_bound(bound)."""
        check_bound(bound)
        return cls._draw(ring, seed, key, bound, label)

    @classmethod
    def _draw(cls, ring, seed, key, bound, label):
        # certified_draw checks its base bound once: a later round's bound
        # may pass the check's headroom and still draw a certified prime
        p = round_prime(ring, seed, bound)
        rows = random_unitriangular_matrix_mod(
            random.Random(f"{label}:{key}:{bound}"), ring.n, p
        )
        return cls(ring, tuple(map(tuple, rows)), key, bound, p)

    @classmethod
    def first(cls, ring, seed):
        """Round 0's forms a of certified_draw, the one draw of the
        single-draw routes, whose homology state they share with it."""
        return cls.draw(ring, seed, f"{seed}:0:a")


def certified_draw(ring, seed, bound, label, tags, compute, key=None, check=None):
    """The one escalation loop of every certified generic computation.

    Round e = 0..4 doubles the coefficient bound e times and, once per
    tag, draws the matrix GenericSequence.draw(ring, seed,
    f"{seed}:{e}:{tag}", bound_e, label) and hands it to compute; label
    names the route's random stream ("gin", "forms"), while the round's
    prime, round_prime(ring, seed, bound_e), is shared by all of them.  A
    round succeeds, returning (results, e, bound_e), when key(result) is
    the same for every draw and check, given that value, returns None.
    Otherwise the round fails with a compute's BadPrime, as "trials
    disagree" or with the text check returned, and after the fifth
    GenericityError lists every round's failure.
    """
    check_bound(bound)
    failures = []
    for escalation in range(ROUNDS):
        round_bound = bound << escalation
        try:
            results = [
                compute(GenericSequence._draw(
                    ring, seed, f"{seed}:{escalation}:{tag}", round_bound, label
                ))
                for tag in tags
            ]
        except BadPrime as exc:
            failures.append(str(exc))
            continue
        values = [key(r) for r in results] if key else results
        if any(v != values[0] for v in values):
            failure = "trials disagree"
        else:
            failure = check(values[0]) if check else None
        if failure is None:
            return results, escalation, round_bound
        failures.append(failure)
    raise GenericityError(
        "genericity not reached after escalation: " + "; ".join(failures)
    )


def linear_form(ring, coeffs):
    """The linear form sum_j coeffs[j] * (variable j)."""
    terms = {}
    for j, c in enumerate(coeffs):
        (m,) = ring.variable(j).terms
        terms[m] = c
    return Element(ring, terms)


def change_coordinates(ring, elements, g, p=None):
    """Substitute variable i by sum_j g[j][i] * (variable j) in every element.

    g must be an invertible n x n matrix over QQ, or with p, of integer
    elements, mod the prime p, and the images are then reduced mod p.  The
    substitution is a graded ring homomorphism for both ring kinds, so
    degrees are preserved.  The rank of g is checked once (IntRank, or
    ModRank(p)); substitute does the rest.
    """
    n = ring.n
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError("matrix size does not match the ring")
    eng = IntRank() if p is None else ModRank(p)
    if not all(eng.add(dict(enumerate(row))) for row in g):
        raise ValueError("singular change of coordinates")
    linear = [linear_form(ring, [row[i] for row in g]) for i in range(n)]
    return substitute(ring, elements, linear, p)


def substitute(target, elements, linear, p=None):
    """Images of the elements under the graded ring map that sends variable
    i to the linear form linear[i] of target, a ring of the same kind;
    with p, of integer elements, reduced mod p.

    The image of each monomial is built once for all the elements, as the
    image of the monomial with one factor fewer times the image of that
    factor, its last variable, so exterior products run left to right.
    """
    unit = (0,) * len(linear)
    images = {unit: Element.monomial(target, target.unit_monomial())}

    def image(m):
        img = images.get(m)
        if img is None:
            i = max(j for j, e in enumerate(m) if e)
            rest = m[:i] + (m[i] - 1,) + m[i + 1:]
            img = images[m] = image(rest) * linear[i]
        return img

    out = []
    for f in elements:
        terms = {}
        for m, c in f.terms.items():
            for t, x in image(m).terms.items():
                s = terms.get(t, 0) + c * x
                if s:
                    terms[t] = s
                else:
                    del terms[t]
        if p:
            terms = {t: c % p for t, c in terms.items()}
        out.append(Element(target, terms))
    return out


def apply_linear_change(f, g):
    """change_coordinates for the one element f."""
    return change_coordinates(f.ring, [f], g)[0]
