"""Initial ideals and generic initial ideals.

Polynomial initial ideals come from a reduced Groebner basis (Buchberger,
normal selection, criteria 1 and 2), exterior ones from the pivot
monomials of the echelonized pieces I_0..I_n (E_d = 0 for d > n).  Both
are exact over QQ.  The per-trial initial ideals inside gin run the one
degree scan of ideals.py, degree_scan, which stops over both ring kinds
and under every term order once the candidate has the Hilbert numerator
of the input, which is exact.

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
from functools import partial

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


def _spoly(f, lmf, g, lmg):
    lcm = monomial_lcm(lmf, lmg)
    sf = f.term_mul(monomial_div(lcm, lmf), g.terms[lmg])
    sg = g.term_mul(monomial_div(lcm, lmg), f.terms[lmf])
    return (sf - sg).normalized_integer()


def _normal_form(f, basis, lms, key):
    """Remainder of f on division by basis (deterministic reducer choice)."""
    work = dict(f.terms)
    out = {}
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        hit = None
        for idx, lm in enumerate(lms):
            if monomial_divides(lm, t):
                hit = idx
                break
        if hit is None:
            out[t] = c
            continue
        g = basis[hit]
        shift = monomial_div(t, lms[hit])
        factor = Fraction(c, 1) / g.terms[lms[hit]]
        for m, gc in g.terms.items():
            if m == lms[hit]:
                continue
            mm = monomial_mul(m, shift)
            s = work.get(mm, 0) - factor * gc
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return Element(f.ring, out)


def buchberger(ideal, order=None):
    """Reduced Groebner basis of a homogeneous polynomial ideal."""
    ring = ideal.ring
    if ring.is_exterior:
        raise ValueError("Buchberger runs over the polynomial ring only")
    order = order or ring.order
    key = order_key(ring, order)

    basis = []
    lms = []
    pairs = set()
    heap = []

    def push_pairs(idx):
        for i in range(idx):
            pairs.add((i, idx))
            heapq.heappush(
                heap, (key(monomial_lcm(lms[i], lms[idx])), (i, idx))
            )

    for f in ideal.generators:
        basis.append(f)
        lms.append(f.leading_monomial(order))
        push_pairs(len(basis) - 1)

    while pairs:
        # normal strategy: smallest lcm first
        while True:
            _, (i, j) = heapq.heappop(heap)
            if (i, j) in pairs:
                break
        pairs.remove((i, j))
        lcm = monomial_lcm(lms[i], lms[j])
        if lcm == monomial_mul(lms[i], lms[j]):
            continue  # coprime leading monomials
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not monomial_divides(lms[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                skip = True
                break
        if skip:
            continue
        s = _spoly(basis[i], lms[i], basis[j], lms[j])
        r = _normal_form(s, basis, lms, key)
        if not r.is_zero():
            r = r.normalized_integer()
            basis.append(r)
            lms.append(r.leading_monomial(order))
            push_pairs(len(basis) - 1)

    # minimalize, then interreduce tails for the unique reduced basis
    order_idx = sorted(range(len(basis)), key=lambda t: key(lms[t]))
    minimal = []
    for t in order_idx:
        if not any(monomial_divides(lms[s], lms[t]) for s in minimal):
            minimal.append(t)
    reduced = []
    for t in minimal:
        others = [basis[s] for s in minimal if s != t]
        other_lms = [lms[s] for s in minimal if s != t]
        r = _normal_form(basis[t], others, other_lms, key)
        reduced.append(r.monic(order))
    reduced.sort(key=lambda f: key(f.leading_monomial(order)))
    return GroebnerBasis(ring, order, tuple(reduced))


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
