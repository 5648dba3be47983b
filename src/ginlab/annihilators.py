"""Generic annihilator numbers and partial Koszul/Cartan homology.

For a generic sequence of linear forms y_1..y_n on M = R/I the
annihilator numbers are the graded dimensions

    alpha_{p,k} = dim ((y_1..y_{p-1})M :_M y_p / (y_1..y_{p-1})M)_k

(over the exterior algebra the denominator also contains v_p).  They are
computed directly from colon quotients, and independently from the
max-variable statistics of the generators of gin(I); the two must agree.
The direct route needs the Hilbert functions of the prefixes
J_p = I + (y_1..y_p), and R/J_p is R'/I', with R' the ring in the
variables left free by the first p forms and I' the image of I there:
_prefix_dims eliminates each prefix on the dim R'_d columns only, and
three exact stops skip the degrees whose answer is already known.

The homology workspace (betti.HomologyWorkspace) computes
H_i(y_1..y_p; M) over a window (profile) together with the delta numbers:
ranks of multiplication by the next form on Koszul homology, resp. of the
connecting map gamma of the Cartan long exact sequence.  A delta whose
source or target homology is 0 is 0 (a zero rule, exact in the field of
the ranks); cycle bases are built only where both ends are nonzero.
verify_homology_formula evaluates the closed formula for h_{i,i+k}(p) in
terms of alpha and delta, and the degreewise recurrences it comes from,
cell by cell.

The forms are the draws of rings.certified_draw (rings.GenericSequence),
and every rank along them, lower-semicontinuous in the forms, is taken
mod their prime p (linalg.ModRank): it can only fall below its value over
QQ, for a minor of degree D with probability at most D / p
(Schwartz-Zippel), unless p is bad.  The forms are unitriangular, each
with lead 1, so only a Piece.den the workspace reads can make p bad: it
raises rings.BadPrime.  The certified routes (direct alpha, partial
homology and delta) run on the sequences a and b of one certified_draw,
the single-draw routes (verify_homology_formula, rigidity.lemma_can_check)
on round 0's sequence a (GenericSequence.first).
The homology state and prefix dimensions of a sequence live on the ideal,
so every route along it shares them.  All read their (k_max, i_max)
window from _windows (the upper-bound check takes only its i_max).
"""

from dataclasses import dataclass, field

from .betti import HomologyWorkspace, betti_table, binom, stable_table
from .groebner import _scan_plan, gin
from .ideals import eliminate_degree
from .linalg import ModRank
from .rings import (
    PRIME_BOUND,
    GenericSequence,
    Ring,
    certified_draw,
    linear_form,
    max_variable,
    substitute,
)


@dataclass
class AnnihilatorTable:
    ring: object
    entries: dict  # (p, k) -> alpha_{p,k}, p 1-based
    provenance: str
    degree_bound: int

    def get(self, p, k):
        return self.entries.get((p, k), 0)

    def same_numbers(self, other):
        return self.entries == other.entries

    def render(self):
        if not self.entries:
            return "(zero annihilator table)"
        kmax = max(k for _, k in self.entries)
        width = max(4, max(len(str(v)) for v in self.entries.values()) + 2)
        lines = ["k:".rjust(6) + "".join(str(k).rjust(width) for k in range(kmax + 1))]
        for p in range(1, self.ring.n + 1):
            row = f"p={p}:".rjust(6)
            for k in range(kmax + 1):
                v = self.get(p, k)
                row += str(v if v else ".").rjust(width)
            lines.append(row)
        return "\n".join(lines)

    def to_json(self):
        return {
            "ring": {"kind": self.ring.kind, "n": self.ring.n},
            "provenance": self.provenance,
            "degree_bound": self.degree_bound,
            "entries": [
                {"p": p, "k": k, "alpha": v}
                for (p, k), v in sorted(self.entries.items())
            ],
        }


def _prefix_dims(ideal, seq, dmax):
    """dims[p][d] = dim (J_p)_d with J_p = I + (y_1..y_p), for d <= dmax.

    p = 0 is dim I_d as the gin scans read it off in_revlex(I)
    (groebner._scan_plan), with no elimination.  For p >= 1, R/J_p = R'/I'
    with R' = R/(y_1..y_p), the ring in the variables x_{p+1}..x_n that
    the unitriangular y_1..y_p leave free, and I' the image of I in R';
    so dim (J_p)_d = dim R_d - dim R'_d + dim I'_d, with dim I'_d
    eliminated mod the sequence's prime on the dim R'_d columns only
    (_quotient, then ideals.eliminate_degree).  At p = n, R/J_n = K.

    Three exact stops skip eliminations: (J_p)_{d-1} = R_{d-1} != 0 gives
    (J_p)_d = R_d, since (J_p)_d contains R_1 R_{d-1}, which is all of R_d
    over S and over E alike; (J_{p-1})_d = R_d gives (J_p)_d = R_d; and
    eliminate_degree feeds no more rows once dim I'_d reaches dim R'_d, at
    once when R'_d = 0 (over E, d above the free count).  The dims, filled
    degree by degree, and the quotients live in Ideal.memo under the
    forms' prime and rows, so each (p, d) is eliminated once per ideal.
    """
    ring = ideal.ring
    n = ring.n
    dims, quotients = ideal.memo(
        ("prefix", seq.prime, seq.rows), lambda: ([[] for _ in range(n + 1)], {})
    )
    _, hilbert = _scan_plan(ideal, None)
    for d in range(len(dims[0]), dmax + 1):
        full = ring.dim(d)
        column = [hilbert(d)]
        for p in range(1, n + 1):
            if column[p - 1] == full or 0 < ring.dim(d - 1) == dims[p][d - 1]:
                column.append(full)
            elif p == n:  # R/J_n = K, and J_{n-1} is not full at d
                column.append(full if d else 0)
            else:
                if p not in quotients:
                    quotients[p] = _quotient(ideal, seq.rows[:p], seq.prime)
                quotient, images = quotients[p]
                monos, eng = eliminate_degree(
                    quotient, images, d, ModRank(seq.prime)
                )
                column.append(full - len(monos) + eng.rank)
        for row, value in zip(dims, column):
            row.append(value)
    return [row[: dmax + 1] for row in dims]


def _quotient(ideal, rows, p):
    """(R', images of the gens of I mod p) for R' = R / (forms) over F_p,
    the forms the unitriangular rows x_t + sum_{s > t} r_s x_s mod p of a
    prefix (GenericSequence.rows[:q]), in the free variables x_{q+1}..x_n:
    back-substituted from the last row, x_t goes to -sum_s r_s x_s."""
    ring = ideal.ring
    q, free = len(rows), ring.n - len(rows)
    form = [None] * q + [[int(j == f) for f in range(free)] for j in range(free)]
    for t in reversed(range(q)):
        row = [(s, r) for s, r in enumerate(rows[t]) if r and s > t]
        form[t] = [-sum(r * form[s][f] for s, r in row) % p for f in range(free)]
    quotient = Ring(ring.kind, free)
    linear = [linear_form(quotient, form[j]) for j in range(ring.n)]
    return quotient, substitute(quotient, ideal.generators, linear, p)


def _alpha_for_sequence(ideal, seq, degree_bound):
    """Annihilator numbers of R/I along one concrete sequence of forms.

    With J_p = I + (y_1..y_p), the colon-quotient dimension in degree k
    reduces to prefix Hilbert functions:

        alpha_{p,k} = dim R_k - dim (J_p)_{k+1} + dim (J_{p-1})_{k+1}
                      - dim (J_{p-1})_k          (polynomial ring)

    with the last term replaced by dim (J_p)_k over the exterior algebra,
    since there the denominator contains v_p as well.
    """
    ring = ideal.ring
    n = ring.n
    dims = _prefix_dims(ideal, seq, degree_bound + 1)
    entries = {}
    for p in range(1, n + 1):
        for k in range(degree_bound + 1):
            total = ring.dim(k)
            if total == 0:
                continue
            val = total - dims[p][k + 1] + dims[p - 1][k + 1]
            val -= dims[p][k] if ring.is_exterior else dims[p - 1][k]
            if val:
                entries[(p, k)] = val
    return entries


def _windows(ideal, seed):
    """(k_max, i_max) of the generic-sequence routes.

    Over E: n and n + 2.  Over S: the top generator degree of gin(I) plus
    2, and n.  Direct alpha, partial homology and delta and the
    homology-formula check take both; upper_bound_check takes only i_max
    and keeps its own degree window (n over E, max(r - 1, 0) over S, r
    the top gin generator degree).
    """
    if ideal.contains_unit():
        raise ValueError("proper ideal expected")
    ring = ideal.ring
    if ring.is_exterior:
        return ring.n, ring.n + 2
    return gin(ideal, seed=seed)[0].max_gen_degree() + 2, ring.n


def _two_sequences(ideal, seed, compute, check=None):
    """compute(seq) on the generic sequences tagged a and b, certified by
    the one escalation loop, rings.certified_draw."""
    results, _, _ = certified_draw(
        ideal.ring, seed, PRIME_BOUND, "forms", "ab", compute, check=check
    )
    return results[0]


def generic_annihilators_direct(ideal, seed=0):
    """Annihilator numbers by the colon definition, two-sequence certified.

    Over S alpha_{p,k} counts gin generators of degree k + 1 <= r, the top
    one, so the entries at k >= k_max - 1 = r + 1 vanish for a generic
    sequence; an entry there fails the round.
    """
    kmax, _ = _windows(ideal, seed)

    def band(entries):
        hit = min((pk for pk in entries if pk[1] >= kmax - 1), default=None)
        if hit is None or ideal.ring.is_exterior:
            return None
        return f"nonzero alpha_(p,k) at {hit}, in the zero band k >= {kmax - 1}"

    entries = _two_sequences(
        ideal, seed, lambda seq: _alpha_for_sequence(ideal, seq, kmax),
        check=band,
    )
    return AnnihilatorTable(ideal.ring, entries, "direct", kmax)


def annihilators_from_gin(ideal, seed=0):
    """alpha_{p,k} = #{u in G(gin I) of degree k+1 with m(u) = n-p+1}."""
    ring = ideal.ring
    J, _ = gin(ideal, seed=seed)
    entries = {}
    for u in J.gens:
        p = ring.n - max_variable(ring, u) + 1
        k = sum(u) - 1
        entries[(p, k)] = entries.get((p, k), 0) + 1
    bound = J.max_gen_degree() + 2
    return AnnihilatorTable(ring, entries, "from-gin", bound)


# ---------------------------------------------------------------------------
# partial homology and delta numbers


def annihilator_index_set(i, p):
    """The pairs (a, b) with 1 <= b <= p-1, max(i-p+b, 1) <= a <= i."""
    return [
        (a, b)
        for b in range(1, p)
        for a in range(max(i - p + b, 1), i + 1)
    ]


def _check_length(p, top):
    """p counts forms of the sequence: 0 <= p <= top."""
    if not 0 <= p <= top:
        raise ValueError(f"p must lie in 0..{top}, got {p}")


def partial_homology(ideal, p, seed=0):
    """Slice of the homology profile at p, two-sequence certified.

    Returns dict (i, j) -> dim H_i(first p forms; R/I)_j, 0 <= p <= n.
    """
    _check_length(p, ideal.ring.n)
    kmax, imax = _windows(ideal, seed)
    return _two_sequences(
        ideal, seed,
        lambda seq: HomologyWorkspace(ideal, seq).profile(p, imax, kmax),
    )


def partial_delta(ideal, p, seed=0):
    """Slice of the delta profile at p, two-sequence certified: (i, k) -> delta.

    delta at p involves the (p+1)-st form, so 0 <= p <= n - 1.
    """
    _check_length(p, ideal.ring.n - 1)
    kmax, imax = _windows(ideal, seed)
    return _two_sequences(
        ideal, seed,
        lambda seq: _delta_slice(HomologyWorkspace(ideal, seq), p, kmax, imax),
    )


def _delta_slice(ws, p, kmax, imax):
    # over S, i > p reads empty eliminations, as in HomologyWorkspace.profile
    cells = [(i, k) for i in range(1, imax + 1) for k in range(i + kmax + 2)]
    return {c: v for c in cells if (v := ws.delta(p, *c))}


# ---------------------------------------------------------------------------
# executable verification of the structural formulas


@dataclass
class FormulaReport:
    ring: object
    window: dict
    cells_checked: int = 0
    recurrences_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def describe(self):
        head = (
            f"homology formula over {self.ring.kind} (n={self.ring.n}): "
            f"{self.cells_checked} cells, {self.recurrences_checked} recurrence"
            f" instances, {len(self.failures)} failures"
        )
        return "\n".join([head] + [str(f) for f in self.failures])


def _alpha_sum(exterior, p, i, k, a):
    """The alpha part of h_{i,i+k}(p): sum_j C(p - j + i - 1, i - 1) a(j, k)
    over E, sum_j C(p - j, i - 1) a(j, k) over S; a(j, k) is alpha_{j,k}."""
    if exterior:
        return sum(binom(p - j + i - 1, i - 1) * a(j, k) for j in range(1, p + 1))
    return sum(binom(p - j, i - 1) * a(j, k) for j in range(1, p - i + 2))


def _delta_sum(ws, p, i, k):
    """The delta part of h_{i,i+k}(p), the delta numbers read off ws: a
    sum over 1 <= s <= i, 1 <= j < p over E, over A_{i,p} over S."""
    if ws.ring.is_exterior:
        return sum(
            binom(p - 1 - j + i - s, i - s)
            * (ws.delta(j, s, s + k) + ws.delta(j, s - 1, s + k))
            for s in range(1, i + 1)
            for j in range(1, p)
        )
    return sum(
        binom(p - b - 1, i - a) * ws.delta(b, a, a + k)
        + binom(p - b - 1, i - a - 1) * ws.delta(b, a, a + k + 1)
        for (a, b) in annihilator_index_set(i, p)
    )


def verify_homology_formula(ideal, seed=0):
    """Check the alpha/delta expression for h_{i,i+k}(p) on every cell.

    Also checks the first/higher homology recurrences the formula is
    derived from; any inequality is recorded as a failure (it falsifies
    the implementation, not the statement).
    """
    ring = ideal.ring
    kmax, imax = _windows(ideal, seed)
    seq = GenericSequence.first(ring, seed)
    ws = HomologyWorkspace(ideal, seq)
    alpha = _alpha_for_sequence(ideal, seq, kmax + 2)

    def a(p, k):
        return alpha.get((p, k), 0)

    n = ring.n
    report = FormulaReport(ring, {"k_max": kmax, "i_max": imax, "n": n})

    for p in range(1, n + 1):
        top = min(imax, ws.top(p))
        h = ws.profile(p, top, kmax)  # one sweep per p, cleared top down
        for i in range(1, top + 1):
            for k in range(0, kmax + 1):
                lhs = h.get((i, i + k), 0)
                rhs = _alpha_sum(ring.is_exterior, p, i, k, a)
                rhs -= _delta_sum(ws, p, i, k)
                report.cells_checked += 1
                if lhs != rhs:
                    report.failures.append(("formula", p, i, k, lhs, rhs))

    # degreewise recurrences of the long exact sequence, from q to q + 1
    # forms; the H_{i-1} term lives on q + 1 forms over E (Cartan) and on
    # q forms over S (Koszul); i stops at the top of the complex on q + 1
    for q in range(1, n):
        for k in range(0, kmax + 2):
            lhs = ws.h(q + 1, 1, k)
            rhs = ws.h(q, 1, k) + a(q + 1, k - 1) - ws.delta(q, 1, k)
            report.recurrences_checked += 1
            if lhs != rhs:
                report.failures.append(("first", q + 1, k, lhs, rhs))
        prev = q + 1 if ring.is_exterior else q
        for i in range(2, min(imax, ws.top(q + 1)) + 1):
            for k in range(0, kmax + 1):
                lhs = ws.h(q + 1, i, i + k)
                rhs = (
                    ws.h(q, i, i + k)
                    + ws.h(prev, i - 1, i - 1 + k)
                    - ws.delta(q, i, i + k)
                    - ws.delta(q, i - 1, i + k)
                )
                report.recurrences_checked += 1
                if lhs != rhs:
                    report.failures.append(("second", q + 1, i, k, lhs, rhs))
    return report


# ---------------------------------------------------------------------------
# the upper bound for graded Betti numbers


@dataclass
class UpperBoundReport:
    ring: object
    window: dict
    cells_checked: int = 0
    failures: list = field(default_factory=list)
    attained_everywhere: bool = False

    @property
    def ok(self):
        return not self.failures


def upper_bound_check(ideal, seed=0):
    """beta_{i,i+k}(R/I) <= sum_j C(...) alpha_{j,k}, with equality for gin.

    Checks the binomial upper bound cellwise, that the bound value equals
    beta_{i,i+k}(R/gin I) exactly, and (polynomial ring) that the first
    Betti numbers at the initial degree agree with sum_j alpha_{j,d0-1}.
    """
    ring = ideal.ring
    n = ring.n
    J, _ = gin(ideal, seed=seed)
    alpha = generic_annihilators_direct(ideal, seed=seed)

    r = J.max_gen_degree()
    _, imax = _windows(ideal, seed)
    kmax = n if ring.is_exterior else max(r - 1, 0)
    bI = betti_table(ideal, seed=seed, i_max=imax, reg_bound=r)
    bG = stable_table(J, i_max=imax)

    report = UpperBoundReport(ring, {"i_max": imax, "k_max": kmax})
    attained = True
    for i in range(1, imax + 1):
        for k in range(0, kmax + 1):
            bound = _alpha_sum(ring.is_exterior, n, i, k, alpha.get)
            left = bI.get(i, i + k)
            right = bG.get(i, i + k)
            report.cells_checked += 1
            if left > bound:
                report.failures.append(("bound", i, k, left, bound))
            if bound != right:
                report.failures.append(("gin-equality", i, k, bound, right))
            if left != bound:
                attained = False
    if not ring.is_exterior and not ideal.is_zero():
        d0 = min((j for (i, j) in bI.entries if i == 1), default=None)
        if d0 is not None:
            total = sum(alpha.get(j, d0 - 1) for j in range(1, n + 1))
            if bI.get(1, d0) != total or bG.get(1, d0) != total:
                report.failures.append(
                    ("initial-degree", d0, bI.get(1, d0), total)
                )
    report.attained_everywhere = attained
    return report
