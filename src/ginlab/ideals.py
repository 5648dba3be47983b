"""Graded ideals, their degreewise linear algebra and monomial combinatorics.

The degreewise engine, eliminate_degree, is shared by everything
downstream: a graded piece I_d is echelonized once (columns ordered by the
ring's term order, descending) and cached.  Pivot monomials give the
degree-d part of the initial ideal (over E, pieces 0..n give all of it),
non-pivot monomials are a basis of (R/I)_d, and reduced tails give normal
forms, so no Groebner machinery is needed for quotient arithmetic.

The per-trial initial ideals inside gin and lexsegment ideals are built
degree by degree by one scan, degree_scan: it checks the ideal property
between degrees, stops over S and E alike once the candidate has the
target's Hilbert numerator, honours a truncation degree, and raises
ComputationLimit past the one SCAN_CAP.
"""

from dataclasses import dataclass
from itertools import count
from math import comb, lcm

from .linalg import Rref
from .rings import (
    DEGREVLEX,
    LEX,
    Element,
    Ring,
    check_monomials,
    exponent_vectors,
    max_variable,
    monomial_divides,
    monomial_product,
    order_key,
    render_element,
    render_monomial,
)


class ImplementationFault(Exception):
    """A computed object broke a proved invariant; indicates a bug."""


class ComputationLimit(Exception):
    """A degree scan ran past its cap before it could certify a result."""


# the one degree cap of degree_scan; proved bounds are still open
SCAN_CAP = 64


def degree_rows(ring, gens, d, index):
    """Rows {index[t]: c} of the nonzero products g * m, deg m = d - deg g."""
    for g in gens:
        e = g.degree()
        if e is None or e > d:
            continue
        for m in ring.monomials(d - e):
            prod = g.term_mul(m)
            if prod.terms:
                yield {index[t]: c for t, c in prod.terms.items()}


def eliminate_degree(ring, gens, d, engine, order=None, target=None):
    """Feed engine the degree-d rows of gens, sparsest first, until its rank
    is target (default dim R_d, past which no row adds a pivot); returns
    (monomials, engine), the columns indexing ring.monomials(d, order).

    Sparse rows first keep the elimination basis short and the integer
    growth down when monomial and dense generators mix.  Rank, pivots and
    the reduced echelon form (Rref.reduced) depend only on the span and
    the column order, so neither the row order nor the stop moves them."""
    monos = ring.monomials(d, order)
    stop = len(monos) if target is None else target
    index = {m: i for i, m in enumerate(monos)}
    for row in sorted(degree_rows(ring, gens, d, index), key=len):
        if engine.rank == stop:
            break
        engine.add(row)
    return monos, engine


class Piece:
    """Echelonized degree-d piece of a graded ideal: rows maps each lead
    column of monomials to its reduced integer row {column: coefficient}."""

    def __init__(self, ring, d, monomials, rows):
        self.ring = ring
        self.d = d
        self.monomials = monomials  # descending in the term order
        self.index = {m: i for i, m in enumerate(monomials)}
        self.rows = rows
        self.pivots = {monomials[c] for c in rows}
        # lcm of the leads: den times a normal form is integer
        self.den = lcm(*(r[c] for c, r in rows.items()))
        self.dim = len(rows)
        self.std_monomials = [m for m in monomials if m not in self.pivots]
        self._std_index = {m: i for i, m in enumerate(self.std_monomials)}

    def nf_monomial(self, m):
        """den times the normal form of a monomial: std monomial -> int."""
        if m not in self.pivots:
            return {m: self.den}
        col = self.index[m]
        row = self.rows[col]
        f = self.den // row[col]
        return {self.monomials[c]: -f * v for c, v in row.items() if c != col}

    def basis_elements(self):
        """Reduced echelon basis of I_d as Elements (deterministic)."""
        return [
            Element(self.ring, {self.monomials[c]: v for c, v in r.items()})
            for _, r in sorted(self.rows.items())
        ]


class Ideal:
    """A graded ideal given by homogeneous generators with exact coefficients,
    stored primitive integer, so that none vanishes mod a prime."""

    def __init__(self, ring, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if not isinstance(g, Element) or g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero():
                raise ValueError("zero generator")
            check_monomials(ring, g.terms)
            if not g.is_homogeneous():
                raise ValueError(f"inhomogeneous generator: {g}")
            gens.append(g.normalized_integer())
        self.generators = tuple(gens)
        self._pieces = {}  # piece(d), the hot path, keeps its own dict
        self._memo = {}

    def __repr__(self):
        body = ", ".join(render_element(g) for g in self.generators)
        return f"({body})" if body else "(0)"

    @classmethod
    def zero(cls, ring):
        return cls(ring, [])

    def is_zero(self):
        return not self.generators

    def min_degree(self):
        return min((g.degree() for g in self.generators), default=None)

    def max_degree(self):
        return max((g.degree() for g in self.generators), default=None)

    def contains_unit(self):
        return any(g.degree() == 0 for g in self.generators)

    def memo(self, key, build):
        """build() once per key, the one memo of what is derived from I.

        A key is a tuple of a name and every argument that affects the
        value, as ("initial", order), so all callers share one result.
        Nothing is stored when build raises.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def monomial_image(self):
        """The same ideal as a MonomialIdeal if all generators are monomials."""

        def build():
            if all(len(g.terms) == 1 for g in self.generators):
                gens = [next(iter(g.terms)) for g in self.generators]
                return minimal_generators(self.ring, gens)
            return None

        return self.memo(("monomial",), build)

    def piece(self, d):
        if d < 0:
            raise ValueError("negative degree")
        if d not in self._pieces:
            self._pieces[d] = self._build_piece(d)
        return self._pieces[d]

    def _build_piece(self, d):
        """I_d echelonized; a monomial ideal's rows are its unit rows."""
        ring = self.ring
        monos = ring.monomials(d)
        mono_ideal = self.monomial_image()
        if mono_ideal is None:
            rows = eliminate_degree(ring, self.generators, d, Rref())[1].reduced()
        else:
            inside = set(mono_ideal.monomials(d))
            rows = {c: {c: 1} for c, m in enumerate(monos) if m in inside}
        return Piece(ring, d, monos, rows)

    def dim_piece(self, d):
        return self.piece(d).dim


def graded_piece_basis(ideal, d):
    """Deterministic reduced echelon basis of I_d: primitive integer rows
    with a positive lead, the form Ideal stores its generators in."""
    return ideal.piece(d).basis_elements()


def component_ideal(ideal, k):
    """I_<k>: the ideal generated by a reduced echelon basis of I_k."""
    return Ideal(ideal.ring, graded_piece_basis(ideal, k))


@dataclass
class HilbertFunction:
    ring: Ring
    values: dict
    quotient: bool = False

    def __getitem__(self, d):
        return self.values[d]


def hilbert_function(ideal, d_max, quotient=False):
    """Dimensions of I_d (or of (R/I)_d) for 0 <= d <= d_max."""
    ring = ideal.ring
    values = {}
    for d in range(d_max + 1):
        dim = ideal.dim_piece(d)
        values[d] = ring.dim(d) - dim if quotient else dim
    return HilbertFunction(ring, values, quotient)


# ---------------------------------------------------------------------------
# monomial ideals


class MonomialIdeal:
    """A monomial ideal by its minimal generators (unique, sorted)."""

    def __init__(self, ring, gens):
        self.ring = ring
        gens = set(gens)
        check_monomials(ring, gens)
        key = order_key(ring)
        ordered = sorted(gens, key=key, reverse=True)
        ordered.sort(key=sum)
        self.gens = tuple(ordered)
        self._degree_cache = {}
        self._ideal = None

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        body = ", ".join(render_monomial(self.ring, m) for m in self.gens)
        return f"({body})" if body else "(0)"

    def is_zero(self):
        return not self.gens

    def contains(self, m):
        return any(monomial_divides(g, m) for g in self.gens)

    def monomials(self, d):
        """All degree-d monomials of the ideal, descending in the order."""
        if d not in self._degree_cache:
            self._degree_cache[d] = [
                m for m in self.ring.monomials(d) if self.contains(m)
            ]
        return self._degree_cache[d]

    def dim(self, d):
        if d < 0:
            return 0
        return len(self.monomials(d))

    def max_gen_degree(self):
        return max((sum(m) for m in self.gens), default=0)

    def to_ideal(self):
        """The Ideal of these generators, built once: its memo is shared."""
        if self._ideal is None:
            self._ideal = Ideal(
                self.ring, [Element.monomial(self.ring, m) for m in self.gens]
            )
        return self._ideal


def minimal_generators(ring, monomials):
    """Inclusion-minimal generating set of the monomial ideal they span."""
    key = order_key(ring)
    by_degree = sorted(set(monomials), key=lambda m: (sum(m), key(m)))
    minimal = []
    for m in by_degree:
        if not any(monomial_divides(g, m) for g in minimal):
            minimal.append(m)
    return MonomialIdeal(ring, minimal)


def is_strongly_stable(ideal):
    """Borel exchange test: replacing a variable by any earlier one stays inside.

    For monomial ideals it suffices to test the exchanges on minimal
    generators: x_i * g / x_j for i < j, where monomial_product decides
    whether the exchange is a monomial (over E, x_i must not divide g / x_j).
    """
    ring = ideal.ring
    units = exponent_vectors(ring.n, 1, True)
    for g in ideal.gens:
        for j in range(ring.n):
            if not g[j]:
                continue
            rest = g[:j] + (g[j] - 1,) + g[j + 1:]
            for i in range(j):
                sgn, moved = monomial_product(ring.is_exterior, rest, units[i])
                if sgn and not ideal.contains(moved):
                    return False
    return True


def m_leq(ideal, q, k):
    """Count of degree-k monomials u in the ideal with m(u) <= q (1-based q)."""
    if not 1 <= q <= ideal.ring.n:
        raise ValueError("q out of range")
    return sum(
        1
        for m in ideal.monomials(k)
        if max_variable(ideal.ring, m) <= q
    )


# ---------------------------------------------------------------------------
# Hilbert series of monomial quotients


def _poly_add(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, v in enumerate(b):
        out[i] += v
    while out and not out[-1]:
        out.pop()
    return out


def _poly_shift(a, k):
    return [0] * k + list(a) if a else []


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def hilbert_numerator(ideal):
    """N(t) = HS_{R/J}(t) (1-t)^n for a monomial ideal J, over S or E (where
    HS_{E/J}(t) is the polynomial sum_{d<=n} dim (E/J)_d t^d)."""
    ring = ideal.ring
    n = ring.n
    if ring.is_exterior:
        # dim (E/J)_d counts the supports of size d that hold no generator;
        # each is reached from its prefix without its last variable
        masks = [sum(e << i for i, e in enumerate(g)) for g in ideal.gens]
        series, stack = [0] * (n + 1), [(0, 0)]
        while stack:
            mask, first = stack.pop()
            if not any(g & mask == g for g in masks):
                series[mask.bit_count()] += 1
                stack.extend((mask | 1 << v, v + 1) for v in range(first, n))
        return _poly_mul(series, [(-1) ** k * comb(n, k) for k in range(n + 1)])

    def supports_disjoint(gens):
        seen = set()
        for g in gens:
            sup = {i for i in range(n) if g[i]}
            if sup & seen:
                return False
            seen |= sup
        return True

    def colon_var(gens, i):
        out = []
        for g in gens:
            if g[i]:
                h = list(g)
                h[i] -= 1
                out.append(tuple(h))
            else:
                out.append(g)
        return tuple(minimal_generators(ring, out).gens)

    def plus_var(gens, i):
        var = tuple(1 if t == i else 0 for t in range(n))
        return tuple(minimal_generators(ring, list(gens) + [var]).gens)

    memo = {}

    def rec(gens):
        if gens in memo:
            return memo[gens]
        if not gens:
            res = [1]
        elif any(sum(g) == 0 for g in gens):
            res = []
        elif supports_disjoint(gens):
            res = [1]
            for g in gens:
                res = _poly_mul(res, _poly_add([1], _poly_shift([-1], sum(g))))
        else:
            counts = [0] * n
            for g in gens:
                for i in range(n):
                    if g[i]:
                        counts[i] += 1
            i = max(range(n), key=lambda t: counts[t])
            res = _poly_add(
                rec(plus_var(gens, i)), _poly_shift(rec(colon_var(gens, i)), 1)
            )
        memo[gens] = res
        return res

    return rec(ideal.gens)


def quotient_dim_from_numerator(num, n, d):
    """dim (R/J)_d from the Hilbert numerator over n variables."""
    return sum(
        c * comb(d - k + n - 1, n - 1) for k, c in enumerate(num) if k <= d
    )


# ---------------------------------------------------------------------------
# the degree scan


def variable_multiples(ring, monomials):
    """All nonzero products of the given monomials with one variable."""
    units = exponent_vectors(ring.n, 1, True)
    out = set()
    for m in monomials:
        for unit in units:
            sgn, up = monomial_product(ring.is_exterior, m, unit)
            if sgn:
                out.add(up)
    return out


def check_scan_reach(degree, up_to=None):
    """Raise the scan's ComputationLimit unless degree_scan can reach degree.

    A scan truncated at up_to <= SCAN_CAP never fails, so only a scan that
    must see a degree above the cap is refused.
    """
    if degree > SCAN_CAP and (up_to is None or up_to > SCAN_CAP):
        raise ComputationLimit(f"degree scan passed the degree cap {SCAN_CAP}")


def degree_scan(ring, piece, start, up_to, numerator):
    """The monomial ideal with degree-d monomials piece(d, grown); (ideal, cut).

    The scan of the gin trials and of Lex(I).  From degree start upward,
    piece(d, grown) must contain grown, the one-variable multiples of the
    degree-(d - 1) piece; what is left are the minimal generators of
    degree d.  Every monomial found must lie in the target ideal.  The
    scan ends, over S and E alike, once the candidate, the ideal of the
    generators found so far, has Hilbert numerator numerator, the
    target's: containment with equal Hilbert series is equality.  The
    candidate changes only at degrees that add generators, so the stop is
    tested there and at degree start; cut is then None.  Past up_to the
    scan stops with cut = d - 1: the result then holds exactly the
    generators of degree <= cut.
    """
    below, found = set(), set()
    for d in count(start):
        if up_to is not None and d > up_to:
            return minimal_generators(ring, found), d - 1
        check_scan_reach(d, up_to)
        grown = variable_multiples(ring, below)
        span = piece(d, grown)
        if not grown <= span:
            raise ImplementationFault(
                f"degree {d} of a scanned ideal misses multiples of degree {d - 1}"
            )
        new = span - grown
        found |= new
        if new or d == start:
            candidate = minimal_generators(ring, found)
            if hilbert_numerator(candidate) == numerator:
                return candidate, None
        below = span


# ---------------------------------------------------------------------------
# lexsegment ideals


def lex_ideal(ideal):
    """Lex(I): the lexsegment ideal with the Hilbert function of I."""
    return lex_segment_ideal(ideal, None)[0]


def lex_segment_ideal(ideal, up_to):
    """The generators of Lex(I) of degree <= up_to; (ideal, complete) pair.

    The degree-d piece is the lex-first dim I_d monomials.  The scan stops
    once the candidate, which lies inside Lex(I), has the Hilbert series
    of I; equal series then force equality in every degree.  up_to=None
    scans to the end.
    """
    from .groebner import _scan_plan, initial_ideal

    ring = ideal.ring
    if ideal.contains_unit():
        raise ValueError("proper ideal expected")
    numerator, dims = _scan_plan(ideal, up_to)
    if not ring.is_exterior:
        # Lex(I) has a generator in every degree in(I) has one
        # (Bigatti-Hulett-Pardue)
        check_scan_reach(initial_ideal(ideal, DEGREVLEX).max_gen_degree(), up_to)

    def piece(d, grown):
        return set(ring.monomials(d, LEX)[: dims(d)])

    J, cut = degree_scan(ring, piece, ideal.min_degree() or 1, up_to, numerator)
    return J, cut is None
