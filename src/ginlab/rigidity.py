"""Executable verdicts for the Betti-rigidity statements.

Every check compares exact tables: the graded Betti tables of R/I and
R/gin(I), the annihilator numbers, the cancellation numbers.  The Betti
tables are beta(R/I); a statement about beta(I), and the cancellation
numbers, read beta_{i,j}(I) as table.get(i + 1, j).  Statement windows
are finite and recorded in the reports: polynomial tables carry
self-certified strand bounds, exterior checks run to a chosen
homological bound.  A violated verdict means the implementation is falsified (these
are theorems), and carries a reproducible witness.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .annihilators import HomologyWorkspace, annihilator_index_set
from .betti import betti_table, binom, exterior_i_max, stable_table
from .groebner import gin
from .ideals import (
    Ideal,
    MonomialIdeal,
    is_strongly_stable,
    lex_segment_ideal,
    m_leq,
    minimal_generators,
)
from .rings import EXT, LEX, POLY, GenericSequence


class TheoremViolationError(Exception):
    """A proved statement failed on computed tables: implementation falsified."""


@dataclass
class RigidityReport:
    statement: str
    params: dict
    verdict: str  # "holds" or "violated"
    vacuous: bool = False
    hypothesis: dict = field(default_factory=dict)
    conclusion: dict = field(default_factory=dict)
    witness: dict = None
    window: dict = field(default_factory=dict)
    details: str = ""

    @property
    def holds(self):
        return self.verdict == "holds"

    def to_json(self):
        return {
            "statement": self.statement,
            "params": self.params,
            "verdict": self.verdict,
            "vacuous": self.vacuous,
            "hypothesis": _jsonable(self.hypothesis),
            "conclusion": _jsonable(self.conclusion),
            "witness": _jsonable(self.witness),
            "window": _jsonable(self.window),
            "details": self.details,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@dataclass
class CancellationTable:
    """The unique nonnegative c with beta(gin) = beta + c_i + c_{i+1} columnwise.

    Ideal-convention indexing; c_{0,j} = 0 and entries vanish for i >= n.
    """

    ring: object
    entries: dict

    def get(self, i, j):
        return self.entries.get((i, j), 0)

    def is_zero(self):
        return not self.entries

    def render(self):
        if not self.entries:
            return "(no cancellations)"
        return "\n".join(
            f"c[{i},{j}] = {v}" for (i, j), v in sorted(self.entries.items())
        )

    def to_json(self):
        return {
            "ring": {"kind": self.ring.kind, "n": self.ring.n},
            "convention": "ideal",
            "entries": [
                {"i": i, "j": j, "c": v}
                for (i, j), v in sorted(self.entries.items())
            ],
        }


class RigidityContext:
    """The one input of every statement check: the ideal, the seed, the
    homological window, and the tables the checks keep reusing, cached.

    The table of I is homological; every strongly stable ideal the checks
    compare it with, gin(I) included, gets its table from stable_table.
    """

    def __init__(self, ideal, seed=0, i_max=None):
        self.ideal = ideal
        self.ring = ideal.ring
        self.seed = seed
        # homological window; polynomial tables stop at n by Hilbert's
        # syzygy theorem, so only exterior rings read a cutoff
        if ideal.ring.is_exterior:
            self.i_max = exterior_i_max(ideal.ring, i_max)
        else:
            self.i_max = ideal.ring.n
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def gin_ideal(self):
        return gin(self.ideal, seed=self.seed)[0]

    @property
    def gin_certificate(self):
        return gin(self.ideal, seed=self.seed)[1]

    @property
    def reg_bound(self):
        return self.gin_ideal.max_gen_degree()

    @property
    def strand_max(self):
        """Largest strand the tables can support (sweeps go one past it)."""
        if self.ring.is_exterior:
            return self.ring.n
        return max(self.reg_bound, 1)

    @property
    def table(self):
        return self._get(
            "table",
            lambda: betti_table(self.ideal, self.seed, self.i_max, self.reg_bound),
        )

    @property
    def gin_table(self):
        return self.stable_table(self.gin_ideal)

    @property
    def scan_cut(self):
        """Degree through which transfer-target ideals need generators.

        Strand comparisons reach k = strand_max + 1 and the closed-form
        tables read generators of degree k + 1.
        """
        return self.strand_max + 2

    @property
    def lex(self):
        """Lex(I), possibly truncated past every comparison window."""
        return self._get(
            "lex", lambda: lex_segment_ideal(self.ideal, self.scan_cut)[0]
        )

    @property
    def gin_lex(self):
        return gin(
            self.ideal, order=LEX, seed=self.seed, max_scan_degree=self.scan_cut
        )[0]

    def stable_table(self, J):
        """betti.stable_table(J) in this context's window, cached: the
        table of gin(I), Lex(I) and gin_lex(I)."""
        return self._get(
            ("stable_table", J.gens), lambda: stable_table(J, self.i_max)
        )

    def component_gin(self, k):
        """gin(I_<k>) through the truncation identity.

        With I' the subideal generated by the generators of degree <= k,
        the graded pieces of I_<k> and I' agree in every degree >= k, so
        gin(I_<k>) is generated by the degree-k monomials of gin(I')
        together with its generators of higher degree.
        """
        gens = [g for g in self.ideal.generators if g.degree() <= k]
        if not gens:
            return MonomialIdeal(self.ring, [])
        cut = max(g.degree() for g in gens)
        if cut == self.ideal.max_degree():
            J = self.gin_ideal
        else:
            J = self._get(
                ("subgin", cut),
                lambda: gin(Ideal(self.ring, gens), seed=self.seed)[0],
            )
        monos = list(J.monomials(k)) + [m for m in J.gens if sum(m) > k]
        return minimal_generators(self.ring, monos)

    def component_linear(self, k):
        """Whether I_<k> has a linear resolution; the zero ideal does.

        In characteristic 0, reg(I) = reg(gin I) for the reverse
        lexicographic gin: over S by Bayer-Stillman ("A criterion for
        detecting m-regularity", 1987), over E by Aramova-Herzog-Hibi.  A
        strongly stable ideal generated in one degree has a linear
        resolution, so I_<k> is linear exactly when gin(I_<k>), whose
        generators all have degree >= k, is generated in degree k.
        """
        return self._get(
            ("complin", k), lambda: self.component_gin(k).max_gen_degree() <= k
        )

    @property
    def cancellation(self):
        return self._get("cancel", lambda: cancellation_numbers(self))


# ---------------------------------------------------------------------------
# individual statements


def dominance_check(ctx):
    """beta_{ij}(R/I) <= beta_{ij}(R/gin I) entrywise; gate for everything else."""
    bI, bG = ctx.table, ctx.gin_table
    for (i, j), v in bI.entries.items():
        if v > bG.get(i, j):
            return RigidityReport(
                "dominance",
                {},
                "violated",
                witness={"cell": (i, j), "left": v, "right": bG.get(i, j)},
            )
    return RigidityReport("dominance", {}, "holds")


def _strand_mismatch(bI, bJ, k, qs):
    """Witness of the first cell (q, q + k), q in qs, where the tables differ."""
    for q in qs:
        if bI.get(q, q + k) != bJ.get(q, q + k):
            return {
                "cell": (q, q + k),
                "left": bI.get(q, q + k),
                "right": bJ.get(q, q + k),
            }
    return None


def _strand_equal(ctx, k):
    """Strand-k equality of the tables of I and gin(I) for 1 <= i <= i_max."""
    return (
        _strand_mismatch(ctx.table, ctx.gin_table, k, range(1, ctx.i_max + 1))
        is None
    )


def _first_equal(ctx, k):
    """Equal first Betti numbers of I and gin(I) in degrees k + 1 and k + 2."""
    bI, bG = ctx.table, ctx.gin_table
    return all(bI.get(1, j) == bG.get(1, j) for j in (k + 1, k + 2))


def _agreement(statement, params, hypothesis, conclusion, witness=None, window=None):
    """Verdict of an equivalence: it holds iff all the flags agree.

    A violation's witness defaults to every flag of both sides.
    """
    flags = {**hypothesis, **conclusion}
    holds = len(set(flags.values())) == 1
    return RigidityReport(
        statement,
        params,
        "holds" if holds else "violated",
        hypothesis=hypothesis,
        conclusion=conclusion,
        witness=None if holds else witness or flags,
        window=window or {},
    )


def _persists(ctx, report, bJ, i, k, key, conclusion):
    """The paper's conclusion: an equal cell beta_{i,i+k} of I and J forces
    equality along strand k at every q >= i over S, at every q >= 1 over E.

    Records the cell hypothesis under `key`; a report whose cell differs is
    vacuous, the first mismatch in the q-window is the witness of a
    violation, and otherwise `conclusion` is recorded.
    """
    bI = ctx.table
    hyp = bI.get(i, i + k) == bJ.get(i, i + k)
    report.hypothesis[key] = hyp
    if not hyp:
        report.vacuous = True
        return report
    qs = range(1 if ctx.ring.is_exterior else i, ctx.i_max + 1)
    report.witness = _strand_mismatch(bI, bJ, k, qs)
    if report.witness:
        report.verdict = "violated"
    else:
        report.conclusion = conclusion
    return report


def _rigidity(ctx, statement, i, k, conclusion):
    """Persistence of an equal cell of I and gin(I) (both rigidity theorems)."""
    report = RigidityReport(
        statement,
        {"i": i, "k": k},
        "holds",
        hypothesis={"cell": (i, i + k)},
        window={"q_max": ctx.i_max},
    )
    return _persists(ctx, report, ctx.gin_table, i, k, "equal", conclusion)


def rigidity_poly(ctx, i, k):
    """Strand-k equality of beta(S/I) and beta(S/gin I) at i > 1 persists upward."""
    if i <= 1:
        raise ValueError("the statement requires i > 1")
    if ctx.ring.is_exterior:
        raise ValueError("polynomial-ring statement")
    return _rigidity(ctx, "rigidity-poly", i, k, {"equal_for_q_geq": i})


def rigidity_ext(ctx, i, k):
    """Over E the strand-k equality at some i > 1 forces it at every q >= 1."""
    if i <= 1:
        raise ValueError("the statement requires i > 1")
    if not ctx.ring.is_exterior:
        raise ValueError("exterior statement")
    return _rigidity(ctx, "rigidity-ext", i, k, {"equal_for_all_q": True})


def first_strand_criterion(ctx, k):
    """Full strand-k equality iff the two first Betti numbers at k+1, k+2 agree."""
    return _agreement(
        "first-strand",
        {"k": k},
        {"strand_equal": _strand_equal(ctx, k)},
        {"first_betti_equal": _first_equal(ctx, k)},
        window={"i_max": ctx.i_max},
    )


def linear_component_criterion(ctx, k):
    """I_<k> has a linear resolution iff I and gin(I) have equally many
    minimal generators of degree k+1; cross-checked against the generator
    degrees of gin(I_<k>)."""
    bI, bG = ctx.table, ctx.gin_table
    return _agreement(
        "linear-component",
        {"k": k},
        {"first_betti_equal": bI.get(1, k + 1) == bG.get(1, k + 1)},
        {"component_linear": ctx.component_linear(k)},
    )


def dlinear_equivalence(ctx, k):
    """Three-way equivalence: strand-k equality for all i >= 1, linearity of
    I_<k> and I_<k+1>, and the two first-Betti equalities."""
    strand = _strand_equal(ctx, k)
    linear = ctx.component_linear(k) and ctx.component_linear(k + 1)
    first = _first_equal(ctx, k)
    return _agreement(
        "dlinear",
        {"k": k},
        {"strand_equal": strand},
        {"components_linear": linear, "first_betti_equal": first},
        witness={"strand": strand, "linear": linear, "first": first},
        window={"i_max": ctx.i_max},
    )


def cancellation_numbers(ctx):
    """Solve the columnwise recursion for the cancellation numbers.

    Validates nonnegativity and that nothing survives past i = n - 1;
    both failures are uniqueness violations and raise.
    """
    if ctx.ring.is_exterior:
        raise ValueError("cancellation numbers live over the polynomial ring")
    bI, bG = ctx.table, ctx.gin_table
    n = ctx.ring.n
    # beta_{i,j}(I) = beta_{i+1,j}(S/I): the columns of the ideal tables
    columns = {j for t in (bI, bG) for (i, j) in t.entries if i >= 1}
    entries = {}
    for j in sorted(columns):
        prev = 0  # c_{0,j} = 0
        for i in range(0, n + 2):
            c_next = bG.get(i + 1, j) - bI.get(i + 1, j) - prev
            if c_next < 0:
                raise TheoremViolationError(
                    f"negative cancellation number c[{i + 1},{j}] = {c_next}"
                )
            if c_next and i + 1 >= n:
                raise TheoremViolationError(
                    f"cancellation residue c[{i + 1},{j}] = {c_next} past i = n-1"
                )
            if c_next:
                entries[(i + 1, j)] = c_next
            prev = c_next
        if prev:
            raise TheoremViolationError(f"nonzero residue in column {j}")
    return CancellationTable(ctx.ring, entries)


def crigid_check(ctx, i, k):
    """c_{i,i+k} = 0 for some i >= 1 forces c_{q,q+k} = 0 for all q >= i."""
    if i < 1:
        raise ValueError("the statement requires i >= 1")
    c = ctx.cancellation
    hyp = c.get(i, i + k) == 0
    report = RigidityReport(
        "crigid",
        {"i": i, "k": k},
        "holds",
        hypothesis={"cell": (i, i + k), "zero": hyp},
        window={"q_max": ctx.ring.n},
    )
    if not hyp:
        report.vacuous = True
        return report
    for q in range(i, ctx.ring.n + 1):
        if c.get(q, q + k) != 0:
            report.verdict = "violated"
            report.witness = {"cell": (q, q + k), "value": c.get(q, q + k)}
            return report
    return report


def clinear_check(ctx, k):
    """c_{i,i+k} = 0 for all i >= 1 iff I_<k> has a linear resolution."""
    c = ctx.cancellation
    all_zero = all(c.get(i, i + k) == 0 for i in range(1, ctx.ring.n + 1))
    return _agreement(
        "clinear",
        {"k": k},
        {"cancellations_zero": all_zero},
        {"component_linear": ctx.component_linear(k)},
    )


def post_clinear_corollary(ctx, k, q):
    """Once I_<k> is linear, strand equalities transfer between the two
    adjacent cells in columns q+k+2 and q+k-1 (ideal convention)."""
    if not ctx.component_linear(k):
        raise ValueError("requires a component ideal with linear resolution")
    bI, bG = ctx.table, ctx.gin_table

    def eq(i, j):
        """beta_{i,j}(I) = beta_{i,j}(gin I), read in the quotient tables."""
        return bI.get(i + 1, j) == bG.get(i + 1, j)

    part_i_hyp = eq(q, q + k + 2)
    part_i_ok = (not part_i_hyp) or eq(q + 1, q + k + 2)
    part_ii_hyp = eq(q, q + k - 1)
    part_ii_ok = (not part_ii_hyp) or q == 0 or eq(q - 1, q + k - 1)
    ok = part_i_ok and part_ii_ok
    return RigidityReport(
        "post-clinear",
        {"k": k, "q": q},
        "holds" if ok else "violated",
        vacuous=not (part_i_hyp or part_ii_hyp),
        hypothesis={"up_hyp": part_i_hyp, "down_hyp": part_ii_hyp},
        conclusion={"up_ok": part_i_ok, "down_ok": part_ii_ok},
        witness=None if ok else {"k": k, "q": q},
    )


def _transfer_hypothesis(ctx, J, dmax):
    """The first failing hypothesis of a transfer target, or None.

    The package is strong stability, the Hilbert function of I (which
    gin(I) carries) and m_<=q domination by gin(I); a failure is
    (details, witness).  Targets may be truncated past every comparison
    window, so the Hilbert function is compared through dmax only.
    """
    if not is_strongly_stable(J):
        return "target ideal is not strongly stable", {"target": str(J)}
    if any(J.dim(d) != ctx.gin_ideal.dim(d) for d in range(dmax + 1)):
        return "target ideal has a different Hilbert function", {"target": str(J)}
    for q in range(1, ctx.ring.n + 1):
        for d in range(0, dmax + 1):
            if m_leq(J, q, d) > m_leq(ctx.gin_ideal, q, d):
                return "m_<=q domination hypothesis fails", {"q": q, "d": d}
    return None


def trans_check(ctx, target, i, k):
    """Rigidity transfer to Lex(I) or a gin under another order.

    Verifies the hypothesis package (strong stability, equal Hilbert
    function, m_<=q domination by gin(I)), once per target and context,
    and then the transfer of the strand-k equality from homological degree
    i upward (polynomial ring) or to every q >= 1 (exterior algebra).
    """
    if i <= 1:
        raise ValueError("the statement requires i > 1")
    if target == "lex":
        J = ctx.lex
    elif target == "gin_lex":
        J = ctx.gin_lex
    elif target == "gin_degrevlex":
        J = ctx.gin_ideal
    else:
        raise ValueError(f"unknown transfer target {target!r}")

    dmax = ctx.ring.n if ctx.ring.is_exterior else ctx.strand_max + 2
    report = RigidityReport(
        "transfer",
        {"target": target, "i": i, "k": k},
        "holds",
        window={"q_max": ctx.i_max, "d_max": dmax},
    )
    failure = ctx._get(
        ("transfer_hyp", target), lambda: _transfer_hypothesis(ctx, J, dmax)
    )
    if failure:
        report.verdict = "violated"
        report.details, witness = failure
        report.witness = dict(witness)
        return report
    report.hypothesis["domination"] = True
    _persists(
        ctx, report, ctx.stable_table(J), i, k, "cell_equal", {"transfer": True}
    )
    if not report.holds:
        report.details = "rigidity transfer fails"
    return report


def degree_d_componentwise(ctx):
    """Four-way equivalence bounded by the maximal generator degree d:
    componentwise linear; strand equality through d; first-Betti equality
    through d; generator-count equality through d + 1 (ideal convention)."""
    if ctx.ring.is_exterior:
        raise ValueError("polynomial-ring statement")
    bI, bG = ctx.table, ctx.gin_table
    # beta_{i,j}(I) = beta_{i+1,j}(S/I); both quotient tables hold (0, 0): 1
    gen_degrees = [j for (i, j) in bI.entries if i == 1]
    if not gen_degrees:
        return RigidityReport(
            "degree-d-componentwise", {}, "holds", vacuous=True
        )
    d = max(gen_degrees)
    n = ctx.ring.n
    cond_full = bI.entries == bG.entries
    cond_strands = all(
        bI.get(i + 1, i + k) == bG.get(i + 1, i + k)
        for i in range(0, n + 1)
        for k in range(0, d + 1)
    )
    cond_first = all(
        bI.get(2, 1 + k) == bG.get(2, 1 + k) for k in range(0, d + 1)
    )
    cond_gens = all(bI.get(1, k) == bG.get(1, k) for k in range(0, d + 2))
    return _agreement(
        "degree-d-componentwise",
        {"d": d},
        {"componentwise_linear": cond_full},
        {
            "strands_through_d": cond_strands,
            "first_betti_through_d": cond_first,
            "generators_through_d1": cond_gens,
        },
        witness={"flags": [cond_full, cond_strands, cond_first, cond_gens]},
    )


def betti_total_ext_check(ctx, i):
    """Total Betti number equality at one i iff componentwise linear (over E)."""
    if i < 1:
        raise ValueError("requires i >= 1")
    if not ctx.ring.is_exterior:
        raise ValueError("exterior statement")
    bI, bG = ctx.table, ctx.gin_table
    return _agreement(
        "total-betti-componentwise",
        {"i": i},
        {"total_equal": bI.total(i) == bG.total(i)},
        {"componentwise_linear": bI.entries == bG.entries},
        window={"i_max": ctx.i_max},
    )


def lemma_can_check(ctx):
    """Cancellation numbers against the Koszul-homology delta expression:
    c_{i,i+k} = sum over (a,b) in A_{i+1,n} of C(n-b-1, i-a) * delta_{a,b,a+k}."""
    if ctx.ring.is_exterior:
        raise ValueError("polynomial-ring statement")
    n = ctx.ring.n
    c = ctx.cancellation
    ws = HomologyWorkspace(ctx.ideal, GenericSequence.first(ctx.ring, ctx.seed))
    kmax = ctx.reg_bound + 1
    mismatches = []
    for i in range(0, n):
        for k in range(0, kmax + 1):
            rhs = sum(
                binom(n - b - 1, i - a) * ws.delta(b, a, a + k)
                for (a, b) in annihilator_index_set(i + 1, n)
                if binom(n - b - 1, i - a)
            )
            if rhs != c.get(i, i + k):
                mismatches.append(((i, k), c.get(i, i + k), rhs))
    verdict = "holds" if not mismatches else "violated"
    return RigidityReport(
        "cancellation-delta",
        {},
        verdict,
        witness=None if not mismatches else {"mismatches": mismatches[:5]},
        window={"k_max": kmax},
    )


# ---------------------------------------------------------------------------
# the statement registry and the full battery


class Statement(NamedTuple):
    """A statement's check, the ring kinds it holds over, and its parameter
    axes in sweep order, each a (name, window(ctx)) pair."""

    check: Callable
    kinds: tuple = ()
    axes: tuple = ()


def _strands(ctx):
    """Every strand the tables can support, and one past it."""
    return range(0, ctx.strand_max + 2)


_BOTH = (POLY, EXT)
_K = ("k", _strands)
_I_RIGID = ("i", lambda ctx: range(2, ctx.i_max + 1))

STATEMENTS = {
    "dominance": Statement(dominance_check, _BOTH),
    "rigidity-poly": Statement(rigidity_poly, (POLY,), (_I_RIGID, _K)),
    "rigidity-ext": Statement(rigidity_ext, (EXT,), (_I_RIGID, _K)),
    "first-strand": Statement(first_strand_criterion, _BOTH, (_K,)),
    "linear-component": Statement(linear_component_criterion, _BOTH, (_K,)),
    "dlinear": Statement(dlinear_equivalence, _BOTH, (_K,)),
    "crigid": Statement(
        crigid_check, (POLY,), (("i", lambda ctx: range(1, ctx.ring.n + 1)), _K)
    ),
    "clinear": Statement(clinear_check, (POLY,), (_K,)),
    "post-clinear": Statement(
        post_clinear_corollary,
        (POLY,),
        (
            ("k", lambda ctx: [k for k in _strands(ctx) if ctx.component_linear(k)]),
            ("q", lambda ctx: range(1, ctx.ring.n)),
        ),
    ),
    "transfer": Statement(
        trans_check,
        _BOTH,
        (
            ("target", lambda ctx: ("lex", "gin_lex", "gin_degrevlex")),
            ("i", lambda ctx: range(2, min(ctx.i_max, ctx.ring.n + 1) + 1)),
            _K,
        ),
    ),
    "degree-d-componentwise": Statement(degree_d_componentwise, (POLY,)),
    "total-betti-componentwise": Statement(
        betti_total_ext_check, (EXT,), (("i", lambda ctx: range(1, ctx.i_max + 1)),)
    ),
    "cancellation-delta": Statement(lemma_can_check, (POLY,)),
}

# The battery runs these rows in order; the statements of one row step
# through k together.
BATTERY = (
    ("dominance",),
    ("rigidity-poly",),
    ("rigidity-ext",),
    ("first-strand", "linear-component", "dlinear"),
    ("total-betti-componentwise",),
    ("crigid",),
    ("clinear", "post-clinear"),
    ("degree-d-componentwise",),
    ("transfer",),
)


def sweep(ctx, name, fixed=None):
    """Parameter dicts of a statement over its window, in battery order.

    A name in `fixed` (axes pinned to one value each) that is not one of
    the statement's axes, a pinned k or q below 0, or a ring kind the
    statement does not hold over, raises ValueError before any window is
    evaluated.
    """
    fixed = fixed or {}
    statement = STATEMENTS[name]
    axes = statement.axes
    unknown = sorted(set(fixed) - {axis for axis, _ in axes})
    if unknown:
        takes = ", ".join(axis for axis, _ in axes) or "no parameters"
        raise ValueError(
            f"statement {name!r} takes {takes}, not {', '.join(unknown)}"
        )
    for axis in ("k", "q"):
        if fixed.get(axis, 0) < 0:
            raise ValueError(f"{axis} must be nonnegative")
    if ctx.ring.kind not in statement.kinds:
        other = "exterior" if ctx.ring.kind == POLY else "polynomial-ring"
        raise ValueError(f"{other} statement")
    runs = [{}]
    for axis, window in axes:
        values = [fixed[axis]] if axis in fixed else window(ctx)
        runs = [dict(run, **{axis: v}) for run in runs for v in values]
    return runs


def battery(ideal_or_ctx, seed=0, i_max=None):
    """Run every statement of the ring's kind over its full finite window.

    The one entry point that also takes a bare ideal; the checks take a
    RigidityContext.
    """
    ctx = ideal_or_ctx
    if not isinstance(ctx, RigidityContext):
        ctx = RigidityContext(ctx, seed=seed, i_max=i_max)
    reports = []
    for row in BATTERY:
        runs = [
            (STATEMENTS[name].check, params)
            for name in row
            if ctx.ring.kind in STATEMENTS[name].kinds
            for params in sweep(ctx, name)
        ]
        if len(row) > 1:
            runs.sort(key=lambda run: run[1]["k"])
        reports += [check(ctx, **params) for check, params in runs]
    return reports
