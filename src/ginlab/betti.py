"""Graded Betti tables by independent routes.

Homological route: Koszul complex on the coordinate forms over S (Cartan
complex over E), exact ranks of the differentials per internal degree.
HomologyWorkspace builds that complex on any sequence of linear forms; a
Betti table is its homology on all n coordinates, exact over QQ, and the
partial homology of generic sequences in annihilators.py runs on the same
workspace over F_p, where a rank can only fall below its generic value.
What a workspace computes is kept on the ideal (Ideal.memo), one state
per set of forms, beside the coordinate multiplication tables (mult_var)
that every workspace on the ideal reads.  Each boundary elimination skips
the columns at the pivots of the differential above it, the clearing of
persistent homology (Chen-Kerber, EuroCG 2011; Bauer-Kerber-Reininghaus,
TopoInVis 2014); those pivot sets stay on the workspace, not in the memo.

A monomial exterior ideal J skips the workspace.  Its Cartan complex
splits by multidegree, and the strand at a depends only on F = supp(a):
it is the cochain complex of the standard monomials supported in F, so
beta_{i,i+l}(E/J) = sum over F != {} of C(i+l-1, |F|-1) times
dim H~^{l-1} of that complex (Aramova-Avramov-Herzog, Trans. AMS 352,
2000).  Those 2^n small complexes are ranked once per ideal, exactly over
QQ, from the same multiplication tables; the table then holds for every
i, and the window only cuts it.  Over E every monomial is squarefree.

Closed forms for strongly stable monomial ideals: Eliahou-Kervaire,
Bigatti's count in terms of m_<=q, and the Aramova-Herzog-Hibi formula
over the exterior algebra.  The homological and combinatorial routes stay
independent so they can act as oracles for each other.

Every table is beta(R/I), the convention the homology computes and the
paper states its theorems in; BettiTable.as_convention is the one place
that re-indexes, to beta_{i,j}(I) = beta_{i+1,j}(R/I).

Polynomial tables carry a self-certifying window: strands run up to the
top generator degree r of the generic initial ideal, and the strand at r
is computed and required to vanish identically.

Before the Koszul complex is built, the trailing variables that form a
regular sequence on S/I are cut away.  If x_n is regular on S/I, then
beta^S(S/I) = beta^{S/x_n}(S/(I + x_n)) (Bruns-Herzog, Cohen-Macaulay
Rings, 1.1); x_n is regular on S/I exactly when it is regular on
S/in_revlex(I), and then in_revlex(I + x_n) = in_revlex(I) + (x_n)
(Bayer-Stillman 1987; Eisenbud, Commutative Algebra, Prop. 15.12).  So
the trailing variables dividing no minimal generator of in_revlex(I) can
be set to zero.  E has no regular elements, so exterior tables keep all
n variables.
"""

from dataclasses import dataclass, field
from math import inf

from .groebner import gin, initial_ideal
from .ideals import (
    Ideal,
    ImplementationFault,
    MonomialIdeal,
    is_strongly_stable,
    m_leq,
)
from .linalg import IntRank, ModRank
from .rings import (
    DEGREVLEX,
    BadPrime,
    Element,
    binom,
    exponent_vectors,
    max_variable,
    monomial_product,
    polynomial_ring,
)

IDEAL = "ideal"
QUOTIENT = "quotient"


class NotStronglyStableError(ImplementationFault):
    """A closed form got an ideal that is not strongly stable; indicates a bug.

    Every caller passes a certified gin or a lexsegment ideal.
    """


class WindowError(ImplementationFault):
    """The self-certifying degree bound failed; indicates a bug."""


@dataclass
class BettiTable:
    """beta_{i,j} of R/I (QUOTIENT) or of I (IDEAL), complete in its window:
    strands j - i <= strand_max and i <= i_max."""

    ring: object
    convention: str
    entries: dict
    window: dict = field(default_factory=dict)

    def get(self, i, j):
        return self.entries.get((i, j), 0)

    def strand(self, k):
        """betas along j - i = k, as dict i -> value."""
        return {i: b for (i, j), b in self.entries.items() if j - i == k}

    def strands(self):
        return sorted({j - i for (i, j) in self.entries})

    def total(self, i):
        return sum(b for (t, _), b in self.entries.items() if t == i)

    def max_strand(self):
        """Largest nonzero strand; for the ideal convention this is reg."""
        ks = self.strands()
        return max(ks) if ks else None

    def as_convention(self, convention):
        """This table as beta(I) (IDEAL) or beta(R/I) (QUOTIENT), where
        beta_{i,j}(I) = beta_{i+1,j}(R/I); the window moves with the entries."""
        if convention not in (IDEAL, QUOTIENT):
            raise ValueError(f"unknown Betti convention {convention!r}")
        if convention == self.convention:
            return self
        if convention == IDEAL:
            shift = 1
            entries = {
                (i - 1, j): b for (i, j), b in self.entries.items() if i >= 1
            }
        else:
            shift = -1
            entries = {(i + 1, j): b for (i, j), b in self.entries.items()}
            entries[(0, 0)] = 1
        window = dict(self.window)
        if window:
            window["strand_max"] += shift
            window["i_max"] -= shift
        return BettiTable(self.ring, convention, entries, window)

    def __eq__(self, other):
        return (
            isinstance(other, BettiTable)
            and self.ring == other.ring
            and self.convention == other.convention
            and self.entries == other.entries
        )

    def render(self):
        if not self.entries:
            return "(empty Betti table)"
        imax = max(i for i, _ in self.entries)
        ks = self.strands()
        kmin, kmax = min(ks), max(ks)
        width = max(5, max(len(str(b)) for b in self.entries.values()) + 2)
        head = "".join(str(i).rjust(width) for i in range(imax + 1))
        lines = [" " * 7 + head]
        totals = "".join(
            str(self.total(i) or ".").rjust(width) for i in range(imax + 1)
        )
        lines.append("total:".rjust(7) + totals)
        for k in range(kmin, kmax + 1):
            row = [str(k).rjust(6) + ":"]
            for i in range(imax + 1):
                b = self.get(i, i + k)
                row.append(str(b if b else ".").rjust(width))
            lines.append("".join(row))
        return "\n".join(lines)

    def to_json(self):
        return {
            "ring": {
                "kind": self.ring.kind,
                "n": self.ring.n,
            },
            "convention": self.convention,
            "entries": [
                {"i": i, "j": j, "beta": b}
                for (i, j), b in sorted(self.entries.items())
            ],
        }


# ---------------------------------------------------------------------------
# multiplication tables


def mult_var(ideal, t, d):
    """Multiplication by variable t on (R/I)_d, in the standard monomial
    bases of ideal.piece(d) and piece(d + 1): int coordinates scaled by
    piece(d + 1).den, so all columns a differential or a cycle image reads
    land in one degree and no rank, pivot or kernel moves.  Built once per
    ideal (Ideal.memo), for the coordinate workspace and every sequence."""
    if d < 0:
        return []

    def build():
        target = ideal.piece(d + 1)
        tgt_index = target._std_index
        (var,) = ideal.ring.variable(t).terms
        cols = []
        for u in ideal.piece(d).std_monomials:
            sgn, up = monomial_product(ideal.ring.is_exterior, u, var)
            nf = target.nf_monomial(up) if sgn else {}
            cols.append({tgt_index[m]: sgn * c for m, c in nf.items()})
        return cols

    return ideal.memo(("mult", t, d), build)


# ---------------------------------------------------------------------------
# homological route


class HomologyWorkspace:
    """Koszul (or Cartan) homology of partial sequences of linear forms on R/I.

    seq=None stands for the coordinate forms, eliminated over QQ
    (IntRank); at p = n their homology is the graded Betti table.  Along
    a GenericSequence everything runs mod its prime (ModRank), on the
    forms of its rows.  Cycle spaces come from kernel computations so that
    images of induced maps can be reduced against boundaries, only for a
    delta whose source and target homology are both nonzero.
    Differentials are streamed: each call that eliminates one feeds its
    columns to a fresh engine, sparsest first.  Rank, pivot columns and
    the span of the kernel of an elimination do not depend on the order
    of its rows, so the order changes no number.  The ranks,
    cycle bases, delta numbers and mod-p multiplication columns depend on
    I and the draw alone, so they live in Ideal.memo under the draw's
    prime and rows (("workspace",) on the coordinates), shared by every
    workspace on the same ideal and forms; that state holds no reference
    back to the ideal.

    Of a differential itself a workspace keeps only its pivot set, for
    the clearing of the one below (_eliminate): the elimination of d_{i,j}
    skips the columns at the pivots of d_{i+1,j} (Chen-Kerber, Persistent
    homology computation with a twist, EuroCG 2011; Bauer-Kerber-
    Reininghaus, Clear and compress, TopoInVis 2014).  The sets are plain
    sets on the workspace, not in Ideal.memo, each dropped once the
    differential below has used it; h and profile rank each degree j from
    the top i down, so that the sets are there when needed.

    Chains of both complexes are exponent vectors of the dual ring
    (chain_sets): exterior monomials over S, divided powers over E
    (Aramova-Avramov-Herzog, Trans. AMS 352, 2000).
    """

    def __init__(self, ideal, seq=None):
        self.ideal = ideal
        self.ring = ideal.ring
        self.seq = seq
        key = ("workspace",) if seq is None else ("workspace", seq.prime, seq.rows)
        self._rank, self._delta, self._cycles, self._mult = ideal.memo(
            key, lambda: ({}, {}, {}, {})
        )
        self._sets = {}
        self._pivots = {}  # (p, i, j) -> pivot set of d_{i,j}, until d_{i-1,j}

    def dim(self, d):
        """dim (R/I)_d, the standard monomials of ideal.piece(d)."""
        return len(self.ideal.piece(d).std_monomials) if d >= 0 else 0

    def mult(self, t, d):
        """Multiplication by the form t on M_d: mult_var on the coordinates,
        along a sequence the combination mod p by its row t, where
        p | piece(d + 1).den is bad."""
        if self.seq is None:
            return mult_var(self.ideal, t, d)
        key = (t, d)
        if key not in self._mult:
            p = self.seq.prime
            den = self.ideal.piece(d + 1).den
            if not den % p:
                raise BadPrime(p, f"it divides the denominator {den} of I_{d + 1}")
            out = [{} for _ in range(self.dim(d))]
            for s, c in enumerate(self.seq.rows[t]):
                if not c:
                    continue
                for col, add in zip(out, mult_var(self.ideal, s, d)):
                    for idx, v in add.items():
                        val = (col.get(idx, 0) + c * v) % p
                        if val:
                            col[idx] = val
                        else:
                            col.pop(idx, None)
            self._mult[key] = out
        return self._mult[key]

    def chain_sets(self, p, i):
        """The chain basis of C_i(p): the degree-i monomials of the dual ring
        in p variables, 0/1 vectors over S and divided powers over E, in
        the exponent_vectors order that indexes every elimination."""
        key = (p, i)
        if key not in self._sets:
            self._sets[key] = exponent_vectors(p, i, not self.ring.is_exterior)
        return self._sets[key]

    def chain_dim(self, p, i, j):
        return len(self.chain_sets(p, i)) * self.dim(j - i)

    def top(self, p):
        """The top i of the complex on p forms: p over S, where C_i(p) = 0
        for i > p, unbounded (inf) over E."""
        return inf if self.ring.is_exterior else p

    def _columns(self, p, i, j, skip=()):
        """Yield (index, column) for C_{i,j}(p) -> C_{i-1,j}(p), sparsest first.

        index is the column's position in the chain basis; the indices in
        skip are left out before their columns are built.  The terms of
        one column land in distinct target blocks, so its length is the sum
        of the lengths of its multiplication columns and is known before
        the column is built; the columns come in a stable order of
        increasing length, the fill-in rule of sparse elimination
        (Markowitz 1957).
        """
        src_deg = j - i
        dim_src = self.dim(src_deg)
        if i < 1 or dim_src == 0 or i > self.top(p):
            return
        tgt_sets = {s: idx for idx, s in enumerate(self.chain_sets(p, i - 1))}
        block = self.dim(src_deg + 1)
        mult = [self.mult(t, src_deg) for t in range(p)]
        sizes = [[len(c) for c in mt] for mt in mult]
        # the drop s -> s - e_t has sign (-1)^(variables of s before t)
        # over S, +1 over E: the parity flips per variable only over S
        flip = not self.ring.is_exterior
        chain_drops = []
        lengths = []
        for s in self.chain_sets(p, i):
            drops = []
            odd = False
            for t in range(p):
                if s[t]:
                    down = s[:t] + (s[t] - 1,) + s[t + 1 :]
                    drops.append((tgt_sets[down] * block, -1 if odd else 1, t))
                    odd ^= flip
            chain_drops.append(drops)
            lengths.extend(map(sum, zip(*(sizes[t] for _, _, t in drops))))
        for idx in sorted(range(len(lengths)), key=lengths.__getitem__):
            if idx in skip:
                continue
            s_idx, u_idx = divmod(idx, dim_src)
            col = {}
            for base, sgn, t in chain_drops[s_idx]:
                for v_idx, c in mult[t][u_idx].items():
                    col[base + v_idx] = sgn * c
            yield idx, col

    def _eliminate(self, p, i, j, ncols=None):
        """A fresh engine(ncols) fed the columns of C_{i,j}(p) -> C_{i-1,j}(p).

        The columns go in sparsest first.  Rank, pivot columns and the span
        of the kernel do not depend on that order; each kernel relation is
        mapped back from insertion positions to chain-basis indices.  The
        first elimination of a differential records its rank.  An empty
        column is fed only to a kernel engine, where it is a cycle.

        A boundary engine (ncols None) is cleared: it skips the columns at
        the pivots that the boundary engine of d_{i+1,j} left, and leaves
        its own for d_{i-1,j}.  Each pivot row of d_{i+1,j} has its pivot
        for smallest column, so those rows and the unit vectors off the
        pivots are a basis of C_{i,j}; d_{i,j} vanishes on the rows, so its
        columns off the pivots span its image, which clears d_{i-1,j} in
        turn.  The pivot keys of d_{i+1,j} are the indices _columns(p, i, j)
        yields, and over F_p all of this holds of the spans mod p.  A
        kernel engine is fed every column, so its kernel is all of Z_i.
        """
        seq = self.seq
        eng = IntRank(ncols) if seq is None else ModRank(seq.prime, ncols)
        skip = () if ncols is not None else self._pivots.pop((p, i + 1, j), ())
        order = []
        for idx, col in self._columns(p, i, j, skip):
            if col or ncols is not None:
                eng.add(col)
                order.append(idx)
        eng.kernel = [{order[t]: v for t, v in z.items()} for z in eng.kernel]
        self._rank.setdefault((p, i, j), eng.rank)
        if ncols is None and i > 1:
            self._pivots[(p, i, j)] = set(eng.pivots)
        return eng

    def boundary_rank(self, p, i, j):
        key = (p, i, j)
        if key not in self._rank:
            self._eliminate(p, i, j)
        return self._rank[key]

    def h(self, p, i, j):
        """dim H_i(y_1..y_p; M)_j."""
        if i < 0:
            return 0
        if i == 0:
            return self.dim(j) - self.boundary_rank(p, 1, j)
        above = self.boundary_rank(p, i + 1, j)  # first: it clears d_{i,j}
        return self.chain_dim(p, i, j) - self.boundary_rank(p, i, j) - above

    def profile(self, p, i_max, k_max):
        """The nonzero h(p, i, i + k), i <= i_max and k <= k_max, keyed
        (i, i + k) in order of i, then k: the one sweep of a window, for
        Betti tables and partial homology.  The cells are evaluated from
        the top i down, so each differential is cleared by the one above
        it.  Over S, i > p reads empty eliminations (_columns)."""
        cells = [(i, i + k) for i in range(i_max + 1) for k in range(k_max + 1)]
        values = {c: self.h(p, *c) for c in reversed(cells)}
        return {c: v for c in cells if (v := values[c])}

    def cycles(self, p, i, j):
        """Basis of Z_i(p)_j as coefficient dicts over the chain basis."""
        key = (p, i, j)
        if key not in self._cycles:
            if i == 0:
                self._cycles[key] = [{t: 1} for t in range(self.dim(j))]
            else:
                ncols = self.chain_dim(p, i - 1, j)
                self._cycles[key] = self._eliminate(p, i, j, ncols).kernel
        return self._cycles[key]

    def _push(self, z, d, mt, reindex=None):
        """Image of a chain z with coefficients in M_d under mt : M_d -> M_{d+1}.

        reindex[s] is the target index of source chain s, or None to drop
        that chain; without it every chain keeps its index.
        """
        dim_src = self.dim(d)
        block = self.dim(d + 1)
        out = {}
        for idx, c in z.items():
            s_idx, u_idx = divmod(idx, dim_src)
            if reindex is not None:
                s_idx = reindex[s_idx]
                if s_idx is None:
                    continue
            base = s_idx * block
            for v_idx, mc in mt[u_idx].items():
                key = base + v_idx
                val = out.get(key, 0) + c * mc
                if val:
                    out[key] = val
                else:
                    del out[key]
        return out

    def delta(self, p, i, k):
        """Rank of the map into H_i(p)_k from the long exact sequence at p.

        Polynomial: multiplication by y_{p+1}, H_i(p)_{k-1} -> H_i(p)_k.
        Exterior: the connecting map gamma_{i,p} : H_i(p+1)_{k-1} ->
        H_i(p)_k, which keeps the x_{p+1}-free part of a cycle and wedges
        its coefficients with v_{p+1} (zero for i = 0 by convention).
        Either way the rank is what the images of the source cycles add
        to the boundaries of C_{i+1,k}(p).

        Zero rule: a map from or to a zero space has rank 0, so where the
        source (H_i(p)_{k-1} over S, H_i(p+1)_{k-1} over E) or the target
        H_i(p)_k is 0, delta is 0, and no cycle basis, multiplication table
        or boundary engine is built.  Both h are ranks in the field of
        delta (F_p along a sequence, QQ on the coordinates), so the rule is
        exact; cycle bases are built only where both ends are nonzero.
        """
        d = k - 1 - i
        if i < 1 or d < 0 or self.dim(d) == 0:
            return 0
        key = (p, i, k)
        if key in self._delta:
            return self._delta[key]
        sp = p + 1 if self.ring.is_exterior else p
        if self.h(sp, i, k - 1) == 0 or self.h(p, i, k) == 0:
            self._delta[key] = 0
            return 0
        reindex = None
        if self.ring.is_exterior:
            tgt = {s: idx for idx, s in enumerate(self.chain_sets(p, i))}
            reindex = [
                None if a[p] else tgt[a[:p]] for a in self.chain_sets(sp, i)
            ]
        src = self.cycles(sp, i, k - 1)
        eng = self._eliminate(p, i + 1, k)
        rank0 = eng.rank
        # y_{p+1}, resp. v_{p+1}, on M_d; read only when a cycle exists
        images = [self._push(z, d, self.mult(p, d), reindex) for z in src]
        for img in sorted(images, key=len):
            eng.add(img)
        self._delta[key] = eng.rank - rank0
        return self._delta[key]


def _homology_table(ideal, i_max, k_max, cert_strand=None):
    """Entries (i, i + k) -> dim H_i(x_1..x_n; R/I)_{i+k}, the table of R/I:
    the profile of the coordinate workspace at p = n.  The coordinate
    workspace keeps the ranks, so reading a window again costs only lookups.
    """
    entries = HomologyWorkspace(ideal).profile(ideal.ring.n, i_max, k_max)
    return _checked(ideal.ring, entries, cert_strand)


def _squarefree_counts(ideal):
    """c[m][l] = sum over |F| = m of dim H~^{l-1}(Delta_F), for a monomial
    exterior ideal J, where Delta_F is the complex of standard monomials
    supported in F.

    The Cartan complex of E/J is Z^n-graded.  Its strand at a multidegree
    a has the standard monomials u with support in F = supp(a) for basis,
    u in homological degree |a| - |u|, and u -> u * sum_{t in F} e_t for
    differential: the cochain complex of Delta_F, so its homology at
    |u| = l is H~^{l-1}(Delta_F) (Aramova-Avramov-Herzog, Trans. AMS 352,
    2000).  Each column is the sum over t in F of the mult_var columns,
    +-1 entries in the standard bases of the pieces, and each rank is
    exact over QQ.  A face set is closed under subsets, so the sweep of
    one F stops at the first l with no face.
    """
    n = ideal.ring.n
    faces = []  # per degree l: (index, support bitmask) of the std monomials
    for l in range(n + 1):
        faces.append([
            (idx, sum(1 << t for t in range(n) if u[t]))
            for idx, u in enumerate(ideal.piece(l).std_monomials)
        ])
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for F in range(1 << n):
        members = [t for t in range(n) if F >> t & 1]
        m = len(members)
        into = 0  # rank of the differential into degree l
        for l in range(m + 1):
            inside = [idx for idx, mask in faces[l] if not mask & ~F]
            if not inside:
                break
            out = 0
            if l < m:
                mult = [mult_var(ideal, t, l) for t in members]
                eng = IntRank()
                for idx in inside:
                    col = {}
                    for mt in mult:
                        col.update(mt[idx])
                    eng.add(col)
                out = eng.rank
            counts[m][l] += len(inside) - out - into
            into = out
    return counts


def _compositions(j, m):
    """The multidegrees of degree j with support a fixed m-set: C(j-1, m-1),
    and the one multidegree 0 for m = 0."""
    return binom(j - 1, m - 1) if m else int(j == 0)


def _squarefree_table(ideal, i_max):
    """The table of E/J for a monomial exterior ideal J, i <= i_max, from
    its induced subcomplexes: beta_{i,i+l}(E/J) = sum over m of
    C(i+l-1, m-1) * c[m][l] (_squarefree_counts), F = {} giving only
    (0, 0).  The counts are built once per ideal (Ideal.memo) and serve
    every window; every strand l <= n is read."""
    counts = ideal.memo(("squarefree",), lambda: _squarefree_counts(ideal))
    n = ideal.ring.n
    entries = {}
    for i in range(i_max + 1):
        for l in range(n + 1):
            b = sum(
                _compositions(i + l, m) * counts[m][l] for m in range(n + 1)
            )
            if b:
                entries[(i, i + l)] = b
    return _checked(ideal.ring, entries)


def _checked(ring, entries, cert_strand=None):
    """entries, once the window is certified: a negative entry, a nonzero
    entry with i >= 1 on cert_strand, or an H_0 other than K means the
    window was wrong."""
    name = "Cartan" if ring.is_exterior else "Koszul"
    for (i, j), b in entries.items():
        if b < 0:
            raise WindowError("negative homology dimension")
        if i >= 1 and j - i == cert_strand:
            raise WindowError(
                f"certification strand {j - i} is nonzero at i={i}"
            )
    if {c: b for c, b in entries.items() if c[0] == 0} != {(0, 0): 1}:
        raise WindowError(f"H_0 of the {name} complex is not K")
    return entries


def _regular_section(ideal):
    """I modulo its trailing regular variables, in K[x_1..x_m]; m >= 1.

    x_m is dropped while it divides no minimal generator of in_revlex(I)
    in the given coordinates, whatever the ring's order; the dropped
    variables are set to zero in the generators.  The ideal itself comes
    back when nothing is dropped; Ideal.memo then holds None.
    """
    section = ideal.memo(("section",), lambda: _drop_regular_variables(ideal))
    return ideal if section is None else section


def _drop_regular_variables(ideal):
    """The section of _regular_section, or None when nothing is dropped."""
    ring = ideal.ring
    init = initial_ideal(ideal, DEGREVLEX)
    m = ring.n
    while m > 1 and not any(u[m - 1] for u in init.gens):
        m -= 1
    if m == ring.n:
        return None
    small = polynomial_ring(m, ring.order)
    gens = []
    for g in ideal.generators:
        terms = {u[:m]: c for u, c in g.terms.items() if not any(u[m:])}
        if terms:
            gens.append(Element(small, terms))
    section = Ideal(small, gens)
    # in_revlex(I + (x_n)) = in_revlex(I) + (x_n) (Eisenbud 15.12), so the
    # section's in_revlex is in_revlex(I) with the dropped variables cut off
    cut = MonomialIdeal(small, [u[:m] for u in init.gens])
    section.memo(("initial", DEGREVLEX), lambda: cut)
    return section


def koszul_betti(ideal, reg_bound=None, seed=0):
    """Betti table of R/I from Koszul homology on the coordinate forms.

    The homology runs on _regular_section(I), which has the same table:
    a regular linear form leaves beta unchanged (Bruns-Herzog 1.1), and
    in_revlex detects the trailing ones (Bayer-Stillman; Eisenbud 15.12).
    The strand window [0, r] comes from the top generator degree r of
    gin(I), read off the gin of the section when reg_bound is not given:
    reg survives a regular linear section, and in characteristic 0 it is
    the top generator degree of gin_revlex.  The strand at r itself must
    vanish, which certifies that the table is complete.
    """
    ring = ideal.ring
    if ring.is_exterior:
        raise ValueError("use cartan_betti over the exterior algebra")
    if ideal.contains_unit():
        raise ValueError("proper ideal expected")
    section = _regular_section(ideal)
    if reg_bound is None:
        reg_bound = gin(section, seed=seed)[0].max_gen_degree()
    entries = _homology_table(section, section.ring.n, reg_bound, reg_bound)
    return BettiTable(
        ring, QUOTIENT, entries, {"strand_max": reg_bound - 1, "i_max": ring.n}
    )


def exterior_i_max(ring, i_max=None):
    """The homological window of exterior tables: i_max, n + 3 by default.

    Betti numbers over E live in unbounded homological degree, so every
    exterior table, closed form and statement is cut at some i_max.
    """
    if i_max is None:
        return ring.n + 3
    if i_max < 0:
        raise ValueError("i_max must be nonnegative")
    return i_max


def cartan_betti(ideal, i_max=None):
    """Betti table of E/J from Cartan homology, up to homological degree i_max.

    The window in i defaults to exterior_i_max.  Internal degrees
    j <= n + i are complete for each computed i.  A monomial ideal reads
    its table off its induced subcomplexes (_squarefree_table); any other
    runs the Cartan complex on the coordinates.
    """
    ring = ideal.ring
    if not ring.is_exterior:
        raise ValueError("use koszul_betti over the polynomial ring")
    if ideal.contains_unit():
        raise ValueError("proper ideal expected")
    n = ring.n
    i_max = exterior_i_max(ring, i_max)
    if ideal.monomial_image() is not None:
        entries = _squarefree_table(ideal, i_max)
    else:
        entries = _homology_table(ideal, i_max, n)
    return BettiTable(ring, QUOTIENT, entries, {"strand_max": n, "i_max": i_max})


# ---------------------------------------------------------------------------
# closed forms for strongly stable ideals


def _require_strongly_stable(J):
    if not isinstance(J, MonomialIdeal):
        raise TypeError("monomial ideal expected")
    if not is_strongly_stable(J):
        raise NotStronglyStableError(f"{J} is not strongly stable")


def ek_betti(J):
    """Eliahou-Kervaire in beta(S/J): beta_{i+1,i+d}(S/J) = beta_{i,i+d}(J)
    = sum over G(J)_d of C(m(u)-1, i)."""
    _require_strongly_stable(J)
    ring = J.ring
    if ring.is_exterior:
        raise ValueError("polynomial-ring ideal expected")
    entries = {(0, 0): 1}
    for u in J.gens:
        d = sum(u)
        m = max_variable(ring, u)
        for i in range(m):
            entries[(i + 1, i + d)] = entries.get((i + 1, i + d), 0) + binom(m - 1, i)
    r = J.max_gen_degree()
    return BettiTable(ring, QUOTIENT, entries, {"strand_max": r - 1, "i_max": ring.n})


def bigatti_betti(J):
    """Strongly stable Betti numbers from the m_<=q counts.

    The closed form reads, for s >= 0 and strand k,

        dim J_{k+1} * C(n-1, s)
          - sum_{q=s}^{n-1} m_<=q(J, k+1) * C(q-1, s-1)
          - sum_{q=s+1}^{n} m_<=q(J, k)   * C(q-1, s)

    and counts the minimal-resolution contribution of the degree-(k+1)
    generators at homological position s of the ideal resolution, i.e. the
    quotient-convention entry beta_{s+1, s+1+k}(S/J).
    """
    _require_strongly_stable(J)
    ring = J.ring
    if ring.is_exterior:
        raise ValueError("polynomial-ring ideal expected")
    n = ring.n
    r = J.max_gen_degree()
    mcounts = {}

    def mq(q, k):
        if (q, k) not in mcounts:
            mcounts[(q, k)] = m_leq(J, q, k)
        return mcounts[(q, k)]

    entries = {(0, 0): 1}
    for s in range(0, n):
        for k in range(0, r):
            val = J.dim(k + 1) * binom(n - 1, s)
            val -= sum(
                mq(q, k + 1) * binom(q - 1, s - 1)
                for q in range(max(s, 1), n)
                if binom(q - 1, s - 1)
            )
            val -= sum(
                mq(q, k) * binom(q - 1, s)
                for q in range(s + 1, n + 1)
                if binom(q - 1, s)
            )
            if val < 0:
                raise WindowError("negative Betti number from m-counts")
            if val:
                entries[(s + 1, s + 1 + k)] = val
    return BettiTable(ring, QUOTIENT, entries, {"strand_max": r - 1, "i_max": n})


def ahh_betti(J, i_max=None):
    """Aramova-Herzog-Hibi closed form over the exterior algebra.

    beta_{i,i+k}(E/J) = sum over G(J)_{k+1} of C(m(u)+i-2, i-1), i >= 1.
    """
    _require_strongly_stable(J)
    ring = J.ring
    if not ring.is_exterior:
        raise ValueError("exterior ideal expected")
    i_max = exterior_i_max(ring, i_max)
    entries = {(0, 0): 1}
    for u in J.gens:
        k = sum(u) - 1
        m = max_variable(ring, u)
        for i in range(1, i_max + 1):
            c = binom(m + i - 2, i - 1)
            if c:
                entries[(i, i + k)] = entries.get((i, i + k), 0) + c
    return BettiTable(
        ring, QUOTIENT, entries, {"strand_max": ring.n, "i_max": i_max}
    )


def stable_table(J, i_max=None):
    """Quotient-convention table of a strongly stable monomial ideal.

    The one route to the table of a gin (or of Lex(I), gin_lex(I)) outside
    oracles.py: the Eliahou-Kervaire closed form over S, the
    Aramova-Herzog-Hibi one over E, cut at i_max.  oracle_equivalences
    checks it against the Koszul homology (resp. the induced subcomplexes)
    of gin(I) on every corpus ideal.
    """
    if J.ring.is_exterior:
        return ahh_betti(J, i_max=i_max)
    return ek_betti(J)


# ---------------------------------------------------------------------------
# regularity and linearity predicates


def betti_table(ideal, seed=0, i_max=None, reg_bound=None):
    """The honest (homological-route) Betti table of R/I for either ring kind."""
    if ideal.ring.is_exterior:
        return cartan_betti(ideal, i_max=i_max)
    return koszul_betti(ideal, reg_bound=reg_bound, seed=seed)


def regularity(ideal, seed=0):
    """reg(I) = max{k : beta_{i,i+k}(I) != 0}, ideal convention."""
    if ideal.is_zero():
        raise ValueError("regularity of the zero ideal is undefined")
    return betti_table(ideal, seed=seed).as_convention(IDEAL).max_strand()


def has_linear_resolution(ideal, seed=0, i_max=None, reg_bound=None):
    """Equigenerated in degree d with reg = d; the zero ideal passes vacuously."""
    if ideal.is_zero():
        return True
    table = betti_table(ideal, seed, i_max, reg_bound).as_convention(IDEAL)
    gen_degrees = {j for (i, j) in table.entries if i == 0}
    return len(gen_degrees) == 1 and table.max_strand() == gen_degrees.pop()


def is_componentwise_linear(ideal, seed=0):
    """Entrywise equality of the Betti tables of I and gin(I)."""
    if ideal.is_zero():
        return True
    J, _ = gin(ideal, seed=seed)
    a = betti_table(ideal, seed=seed, reg_bound=J.max_gen_degree())
    return a.entries == stable_table(J).entries
