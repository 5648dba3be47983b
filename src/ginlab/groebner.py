"""Initial ideals and generic initial ideals.

Polynomial initial ideals come from a reduced Groebner basis, exterior
ones from the pivot monomials of the echelonized pieces I_0..I_n
(E_d = 0 for d > n).  Both are exact over QQ.  One Buchberger loop
(_groebner: normal selection, the chain criterion, and the coprime
criterion for ideals only) runs on terms keyed (position, monomial).
Over QQ its coefficients are fraction-free integers, made primitive after
each reduction; over F_p (a prime given) they are residues mod p and every
element is kept monic.  An ideal is its rank-1 case (buchberger); the
submodules of S^m of the exterior Betti tables, over QQ, and of the
Cartan homology along a generic sequence, over F_p, are the others
(initial_submodule).

The per-trial initial ideals inside gin run the one degree scan of
ideals.py, degree_scan, which stops over both ring kinds and under every
term order once the candidate has the Hilbert numerator of the input,
which is exact.

gin runs its trials over F_p on the upper-unitriangular matrices of
rings.certified_draw, which draws them and their prime p: each trial
sends x_i to column i of its matrix mod p and eliminates each degree mod
p (ideals.eliminate_degree).  All trials must agree and the result must be
strongly stable, otherwise the next round runs, and after five rounds
GenericityError says why.

A trial is wrong only one way.  For V = g.I_d the Pluecker coordinate
p_S(V) of a monomial set S is a polynomial of degree at most d dim I_d in
the entries of g, and gin(I)_d is the largest S with p_S nonzero; a trial
finds the largest S with p_S(g) nonzero mod p, so S <= gin(I)_d, and
unless p is bad S < gin(I)_d has probability at most d dim I_d / p on a
unitriangular g (see GinCertificate).  Only the degrees where gin(I) has
generators can differ.

Each trial's scan reads its stop and its target ranks dim I_d off one
Hilbert numerator over QQ, which every trial and every gin of I share
(see _scan_plan).  A degree whose one-variable multiples of the degree
below already number dim I_d is not eliminated.  A trial whose rank mod p
falls short of dim I_d met a bad prime or point and raises BadPrime,
which fails its round.
Buchberger over QQ in each certified trial's coordinates, an integer
trial over QQ, and the full degreewise scan of exterior inputs are the
tests' references.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import gcd

from .ideals import (
    MonomialIdeal,
    check_scan_reach,
    degree_scan,
    eliminate_degree,
    hilbert_numerator,
    is_strongly_stable,
    minimal_generators,
    quotient_dim_from_numerator,
)
from .linalg import IntRank, ModRank
from .rings import (
    DEGREVLEX,
    PRIME_BOUND,
    BadPrime,
    Element,
    GenericityError,  # re-exported: gin raises it through certified_draw
    certified_draw,
    change_coordinates,
    check_bound,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    order_key,
)


# ---------------------------------------------------------------------------
# Buchberger


@dataclass(frozen=True)
class GroebnerBasis:
    ring: object
    order: str
    elements: tuple


def _term_key(mkey):
    """Sort key of terms (position, monomial), cached per term: term over
    position, the monomial's key mkey first, and on a tie the lower
    position is the larger term."""
    return cache(lambda term: (mkey(term[1]), -term[0]))


def _primitive(f):
    """f divided by the gcd of its integer coefficients."""
    g = gcd(*f.values())
    return f if g == 1 else {t: c // g for t, c in f.items()}


def _monic(f, lead, prime):
    """f mod prime, scaled so that its lead coefficient is 1."""
    inv = pow(f[lead], -1, prime)
    return {t: c * inv % prime for t, c in f.items()}


def _add_multiple(f, c, g, shift, prime=None):
    """f += c * shift * g in place, for terms (position, monomial), mod
    prime when one is given."""
    for (pos, m), v in g.items():
        t = (pos, monomial_mul(m, shift))
        x = f.get(t, 0) + c * v
        if prime is not None:
            x %= prime
        if x:
            f[t] = x
        else:
            del f[t]


def _normal_form(f, basis, leads, key, tail, prime=None):
    """f reduced by basis.  Over QQ (prime None) fraction-free: each step
    scales f by an integer so that a multiple of the reducer cancels the
    term, and makes f primitive again.  Over F_p the reducers are monic,
    so a step subtracts the term's coefficient times the reducer, mod
    prime.  Without tail only the lead term is reduced, until no lead of
    basis divides it; with tail every term is."""
    f, kept = dict(f), set()
    while len(kept) < len(f):
        t = max(f.keys() - kept if kept else f, key=key)
        pos, mono = t
        hit = next((
            idx for idx, (p, lm) in enumerate(leads)
            if p == pos and monomial_divides(lm, mono)
        ), None)
        if hit is None:
            if not tail:
                break
            kept.add(t)
            continue
        g, lt = basis[hit], leads[hit]
        h = gcd(g[lt], f[t])
        a, c = g[lt] // h, f[t] // h
        if a != 1:
            f = {s: a * v for s, v in f.items()}
        _add_multiple(f, -c, g, monomial_div(mono, lt[1]), prime)  # cancels t
        if f and prime is None:
            f = _primitive(f)
    return f


def _groebner(gens, key, rank_one, prime=None):
    """A Groebner basis of the submodule of S^m spanned by gens, terms
    {(position, monomial): coefficient}, and the lead terms of its
    elements: over QQ for integer coefficients (prime None), over F_p for
    nonzero residues mod prime.

    The one pair loop: normal selection (smallest lcm first), the chain
    criterion, and the coprime criterion where it holds, for an ideal
    (rank_one).  S-polynomials are reduced at the lead only; over QQ they
    are fraction-free and each element is primitive, over F_p each element
    is monic, so an S-polynomial is the difference of the two shifts.
    """
    basis, leads = [], []
    pairs = set()
    heap = []

    def add(f):
        idx = len(basis)
        lead = max(f, key=key)
        basis.append(_primitive(f) if prime is None else _monic(f, lead, prime))
        leads.append(lead)
        pos, lm = lead
        for i in range(idx):
            if leads[i][0] == pos:
                pairs.add((i, idx))
                lcm = (pos, monomial_lcm(leads[i][1], lm))
                heapq.heappush(heap, (key(lcm), (i, idx)))

    for f in gens:
        if f:
            add(f)
    while pairs:
        while True:
            _, (i, j) = heapq.heappop(heap)
            if (i, j) in pairs:
                break
        pairs.remove((i, j))
        (pos, a), (_, b) = leads[i], leads[j]
        lcm = monomial_lcm(a, b)
        if rank_one and lcm == monomial_mul(a, b):
            continue  # coprime leading monomials
        if any(
            k not in (i, j) and leads[k][0] == pos
            and monomial_divides(leads[k][1], lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(basis))
        ):
            continue  # chain criterion
        ci, cj = basis[i][leads[i]], basis[j][leads[j]]
        h = gcd(ci, cj)
        s = {}
        _add_multiple(s, cj // h, basis[i], monomial_div(lcm, a), prime)
        _add_multiple(s, -ci // h, basis[j], monomial_div(lcm, b), prime)
        r = _normal_form(s, basis, leads, key, False, prime)
        if r:
            add(r)
    return basis, leads


def buchberger(ideal, order=None):
    """Reduced Groebner basis of a homogeneous polynomial ideal: the rank-1
    case of _groebner, minimalized, tail-reduced and made monic."""
    ring = ideal.ring
    if ring.is_exterior:
        raise ValueError("Buchberger runs over the polynomial ring only")
    order = order or ring.order
    key = _term_key(order_key(ring, order))
    gens = [{(0, m): c for m, c in g.terms.items()} for g in ideal.generators]
    basis, leads = _groebner(gens, key, True)

    # minimalize, then interreduce tails for the unique reduced basis; the
    # leads stay, so the basis comes out in increasing order of its leads
    minimal = []
    for t in sorted(range(len(basis)), key=lambda t: key(leads[t])):
        if not any(monomial_divides(leads[s][1], leads[t][1]) for s in minimal):
            minimal.append(t)
    reduced = []
    for t in minimal:
        others = [s for s in minimal if s != t]
        r = _normal_form(
            basis[t], [basis[s] for s in others], [leads[s] for s in others],
            key, True,
        )
        f = Element(ring, {m: c for (_, m), c in r.items()})
        reduced.append(f.monic(order))
    return GroebnerBasis(ring, order, tuple(reduced))


def initial_submodule(ring, gens, rank, prime=None):
    """in(N) for the submodule N of S^rank spanned by gens, terms
    {(position, monomial): coefficient} over the polynomial ring, with
    integer coefficients over QQ, or nonzero residues over F_p for a prime:
    the monomial ideals J_0..J_{rank-1} with in(N) = sum of J_u e_u, term
    over position in the ring's order (_term_key)."""
    key = _term_key(order_key(ring))
    _, leads = _groebner(gens, key, rank == 1, prime)
    return [
        minimal_generators(ring, [m for p, m in leads if p == u])
        for u in range(rank)
    ]


# ---------------------------------------------------------------------------
# initial ideals


def _degree_pivot_monomials(ring, gens, d, order, target=None, engine=IntRank):
    """Leading monomials of the degree-d piece of the span of gens, from
    ideals.eliminate_degree on engine() (IntRank over QQ, ModRank over F_p).

    With target = the dimension of that piece over QQ, the elimination
    stops as soon as the rank reaches it; running out of rows below it
    mod p (over QQ the target is reached) raises BadPrime.
    """
    monos, eng = eliminate_degree(ring, gens, d, engine(), order, target)
    if target is not None and eng.rank < target:
        raise BadPrime(
            eng.p, f"degree {d} has rank {eng.rank}, below dim I_{d} = {target}"
        )
    return {monos[c] for c in eng.pivots}


def initial_ideal(ideal, order=None):
    """in(I): minimal monomial generators of the initial ideal.

    Over E the pivots of I_0..I_n: the memoized graded pieces in the
    ring's order, one elimination per degree in any other.  Kept in
    Ideal.memo under the resolved order.
    """
    order = order or ideal.ring.order
    return ideal.memo(("initial", order), lambda: _initial_ideal(ideal, order))


def _initial_ideal(ideal, order):
    ring = ideal.ring
    if ideal.is_zero():
        return MonomialIdeal(ring, [])
    if ideal.contains_unit():
        return MonomialIdeal(ring, [ring.unit_monomial()])
    mono = ideal.monomial_image()
    if mono is not None:
        return mono
    if ring.is_exterior:  # E_d = 0 for d > n: the pivots of I_0..I_n are in(I)
        pivots = [
            ideal.piece(d).pivots if order == ring.order
            else _degree_pivot_monomials(ring, ideal.generators, d, order)
            for d in range(ring.n + 1)
        ]
        return minimal_generators(ring, set().union(*pivots))
    gb = buchberger(ideal, order)
    return minimal_generators(
        ring, [g.leading_monomial(order) for g in gb.elements]
    )


def _initial_ideal_degreewise(
    ring, gens, order, numerator, max_scan_degree=None, dims=None,
    engine=IntRank,
):
    """A gin trial's in(span of gens) by degree_scan; (ideal, truncated_at).

    Every monomial found is a true leading monomial, so the accumulating
    candidate ideal sits inside the initial ideal.  The scan stops, over S
    and E alike, once the candidate has numerator, the Hilbert numerator
    of the span, which is exact: equal Hilbert series plus containment
    force equality in every degree.  engine is the elimination of
    _degree_pivot_monomials: IntRank over QQ, or ModRank over F_p for
    generators reduced mod p.

    dims(d), when given, is the dimension of the degree-d piece of the
    span and the target rank of that degree's elimination.  A degree
    whose one-variable multiples of the degree below already number it is
    all multiples, since they lie in the initial ideal, and is not
    eliminated.  Without dims every degree is eliminated in full.
    """

    def piece(d, grown):
        target = dims(d) if dims else None
        if target == len(grown):
            return grown
        return _degree_pivot_monomials(ring, gens, d, order, target, engine)

    start = min(g.degree() for g in gens)
    return degree_scan(ring, piece, start, max_scan_degree, numerator)


# ---------------------------------------------------------------------------
# generic initial ideals


@dataclass(frozen=True)
class GinCertificate:
    """How a gin was certified.

    matrices holds one (p, rows) pair per trial: the prime of the round
    and the upper-unitriangular matrix mod p the trial computed with.
    failure_bound bounds the probability that one trial of the round
    returns less than the gin: min(1, sum d dim I_d / p) over the degrees
    d where the (possibly truncated) gin has generators.  In degree d the
    Pluecker coordinate p_gin of gin(I)_d, a polynomial of degree at most
    d dim I_d in the entries of g, is nonzero on a nonempty open set of
    flags, which meets the unitriangular cell; so its restriction to the
    n(n - 1)/2 entries above the diagonal is nonzero, of no larger degree.
    Unless p divides every coefficient of that restriction (a bad prime;
    there are finitely many), Schwartz-Zippel bounds its zeros by
    d dim I_d / p.
    """

    order: str
    seed: object
    coeff_bound: int
    trials: int
    escalations: int
    matrices: tuple
    strongly_stable: bool
    truncated_at: int = None  # generators above this degree were not scanned
    failure_bound: Fraction = Fraction(0)

    def describe(self):
        lines = [
            f"order:           {self.order}",
            f"seed:            {self.seed}",
            f"coeff bound:     {self.coeff_bound}",
            f"trials agreeing: {self.trials}",
            f"escalations:     {self.escalations}",
            f"strongly stable: {'yes' if self.strongly_stable else 'no'}",
            f"failure bound:   {float(self.failure_bound):.3g} per trial",
        ]
        if self.truncated_at is not None:
            lines.append(f"truncated at:    degree {self.truncated_at}")
        for t, (p, rows) in enumerate(self.matrices):
            lines.append(f"matrix {t} mod {p}: {list(map(list, rows))}")
        return "\n".join(lines)


def gin(
    ideal,
    order=None,
    seed=0,
    coeff_bound=PRIME_BOUND,
    trials=2,
    max_scan_degree=None,
):
    """Generic initial ideal with a reproducible certificate.

    Runs its trials on the draws of rings.certified_draw from the bound
    coeff_bound, and accepts only if all trials agree and the result is
    strongly stable; otherwise the next round runs and the failure is loud.

    max_scan_degree truncates the degreewise scan: the result then holds
    exactly the generators of the gin of degree <= max_scan_degree, and
    the certificate records the truncation.  The pair is kept in
    Ideal.memo under every argument.
    """
    order = order or DEGREVLEX
    key = ("gin", order, seed, coeff_bound, trials, max_scan_degree)
    return ideal.memo(key, lambda: _certified_gin(ideal, *key[1:]))


def _scan_plan(ideal, max_scan_degree):
    """(numerator, dims) for the scans of gin and Lex(I); dims(d) = dim I_d
    is also the p = 0 row of annihilators._prefix_dims.

    For every invertible g, in(g.I) has the Hilbert series of I
    (Bayer-Stillman; Eisenbud 15.9; over E, Aramova-Herzog-Hibi 2000), as
    has Lex(I), so all scans of one ideal share one stop and one target
    rank dims(d) per degree, whatever the order, read off the Hilbert
    numerator of in_revlex(I), both kept in Ideal.memo.  Both are exact
    over QQ, so a trial mod p that stops below dims(d) met a bad prime or
    point, and the certificate's failure bound reads dims(d).

    A scan that provably passes the cap is refused here, before any
    coordinate change, by two bounds on the top generator degree of
    in(g.I): the top degree of a minimal generating set of a monomial
    input, which is its own in_revlex (a Groebner basis generates I), and
    ceil(deg N / n) for the numerator N, since a monomial ideal generated
    in degrees <= e has lcms, and so a numerator, of degree <= n e.  Over
    E deg N <= 2n, so the second bound never fires.
    """
    ring = ideal.ring
    init = initial_ideal(ideal, DEGREVLEX)
    if ideal.monomial_image() is not None:
        check_scan_reach(init.max_gen_degree(), max_scan_degree)
    numerator = ideal.memo(("numerator",), lambda: hilbert_numerator(init))
    # ceil(deg N / n)
    check_scan_reach(-(-(len(numerator) - 1) // ring.n), max_scan_degree)

    def dims(d):
        return ring.dim(d) - quotient_dim_from_numerator(numerator, ring.n, d)

    return numerator, dims


def _certified_gin(ideal, order, seed, coeff_bound, trials, max_scan_degree):
    ring = ideal.ring
    if trials < 2:
        raise ValueError("at least two trials are required")
    check_bound(coeff_bound)
    if ideal.contains_unit():
        raise ValueError("proper ideal expected")
    if ideal.is_zero():
        cert = GinCertificate(order, seed, coeff_bound, trials, 0, (), True)
        return MonomialIdeal(ring, []), cert

    numerator, dims = _scan_plan(ideal, max_scan_degree)

    def trial(seq):
        p = seq.prime
        J, cut = _initial_ideal_degreewise(
            ring, change_coordinates(ring, ideal.generators, seq.rows, p),
            order, numerator, max_scan_degree, dims, partial(ModRank, p),
        )
        return J, cut, (p, seq.rows)

    runs, escalation, bound = certified_draw(
        ring, seed, coeff_bound, "gin", range(trials), trial,
        key=lambda run: run[0],
        check=lambda J: (
            None if is_strongly_stable(J) else "result not strongly stable"
        ),
    )
    J, cut, (p, _) = runs[0]
    weight = sum(d * dims(d) for d in {sum(m) for m in J.gens})
    failure_bound = min(Fraction(1), Fraction(weight, p))
    cert = GinCertificate(
        order, seed, bound, trials, escalation,
        tuple(run[2] for run in runs), True, cut, failure_bound,
    )
    return J, cert
