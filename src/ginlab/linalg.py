"""Sparse exact linear algebra over QQ, on integer rows, and over F_p.

Vectors are dicts column -> nonzero coefficient.  Columns are plain ints;
callers index them so that column 0 is the most significant (for monomial
matrices: the largest monomial in the term order), which makes echelon
pivots coincide with leading monomials.

IntRank is the one elimination loop over QQ, keyed col -> row, on one
fraction-free step, _cancel.  It gives exact ranks and, with each row
augmented by a unit column, left kernels.  Rref is IntRank plus one
method for the graded pieces, where coordinates matter: after the last
row, reduced() back-substitutes the stored rows once, with the same step,
into the reduced echelon form (primitive integer rows, positive lead).

IntRank strips a working row's content whenever its largest entry passes
256 bits.  It decides that from an exact bound on the row's bit length,
carried from step to step, and scans the row only when the bound passes
256 bits; the rows it stores are those of a scan after every step.

ModRank, IntRank's interface over F_p, runs what is drawn mod a round
prime (gin trials, generic sequences); its pivot rows have lead 1 and
entries below p, so nothing grows and no content is stripped.  Its rank
of integer rows is at most their rank over QQ, since a minor that
vanishes over QQ vanishes mod p: a route mod p errs one way only.
"""

from math import gcd, lcm


def _cancel(row, prow, col):
    """One step, in place: row := pf * row - vf * prow cancels column col,
    the lead of prow.  Returns the coprime (pf, vf); pf > 0 when that lead
    is positive."""
    p, v = prow[col], row[col]
    g = gcd(p, v)
    pf, vf = p // g, v // g
    if pf != 1:
        for c in row:
            row[c] *= pf
    get = row.get
    for c, x in prow.items():
        s = get(c, 0) - vf * x
        if s:
            row[c] = s
        else:
            del row[c]
    return pf, vf


def _divide_content(row):
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _max_bits(row):
    """Bit length of the largest absolute entry of a nonempty integer row."""
    return max(max(row.values()), -min(row.values())).bit_length()


def scale_to_int(row):
    """Clear denominators and strip content; returns dict col -> int."""
    den = 1
    for v in row.values():
        if type(v) is not int:
            den = lcm(den, v.denominator)
    if den == 1:
        out = {c: v if type(v) is int else int(v) for c, v in row.items() if v}
    else:
        out = {c: int(v * den) for c, v in row.items() if v}
    g = gcd(*out.values())
    if g > 1:
        for c in out:
            out[c] //= g
    return out


class IntRank:
    """Fraction-free Gaussian elimination: ranks and left kernels.

    With ncols given, the t-th row added carries the unit column ncols + t.
    Those columns never become pivots, so a row whose columns below ncols
    cancel is a relation among the rows added; it lands in `kernel` as an
    integer dict over row indices (scaled by a nonzero rational).

    Each reduction step (_cancel) replaces the working row, in place, by
    pf * row - vf * pivot, and divides out its content when its largest
    entry passes 256 bits.  Rather than scan the row after every step, the
    loop carries an upper bound on that bit length: exact after a scan,
    with the exact value stored for each pivot row, and
    max(bits + pf.bit_length(), pivot bits + vf.bit_length()) + 1 after a
    step.  It scans only when the bound passes 256, so the content is
    stripped at exactly the steps where the largest entry passes 256 bits,
    and the stored rows equal those of a scan after every step.  A row
    stored with no step keeps the scan made before the loop: scale_to_int
    has already stripped its content, so that scan is exact.
    """

    def __init__(self, ncols=None):
        self.ncols = ncols
        self.pivots = {}  # col -> row dict with that leading col
        self.kernel = []
        self._bits = {}  # col -> bit length of the pivot row's largest entry

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row):
        """Insert a vector (int or Fraction coeffs); True if rank grew."""
        ncols = self.ncols
        if ncols is not None:
            row = dict(row)
            row[ncols + len(self.pivots) + len(self.kernel)] = 1
        out = scale_to_int(row)
        if not out:
            return False
        pivots, pivot_bits = self.pivots, self._bits
        bits = _max_bits(out)
        stepped = False
        while True:
            lead = min(out)
            prow = pivots.get(lead)
            if prow is None:
                if ncols is not None and lead >= ncols:
                    self.kernel.append({c - ncols: v for c, v in out.items()})
                    return False
                if stepped:
                    # store a compact copy with the content stripped: the
                    # in-place updates below leave slack in the working
                    # dict's table, and dict(out) would clone that table
                    g = gcd(*out.values())
                    if g > 1:
                        out = {c: x // g for c, x in out.items()}
                    else:
                        out = {c: x for c, x in out.items()}
                    bits = _max_bits(out)
                # else scale_to_int built out compact and primitive, and
                # its scan above is exact
                pivots[lead] = out
                pivot_bits[lead] = bits
                return True
            stepped = True
            pf, vf = _cancel(out, prow, lead)
            if not out:
                return False
            bits = max(bits + pf.bit_length(),
                       pivot_bits[lead] + vf.bit_length()) + 1
            if bits > 256:
                bits = _max_bits(out)
                if bits > 256:
                    _divide_content(out)
                    bits = _max_bits(out)


class Rref(IntRank):
    """A graded piece's elimination: IntRank's add, then its reduced
    echelon basis once, after the last row."""

    def reduced(self):
        """{lead: primitive integer row with a positive lead}, the reduced
        row echelon form of the span: the stored rows back-substituted
        from the last pivot to the first, each against the reduced rows
        after it, which hold no pivot column but their own lead."""
        out = {}
        for col in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[col])
            for c in [c for c in row if c in out]:
                _cancel(row, out[c], c)
            g = gcd(*row.values())
            if row[col] < 0:
                g = -g
            out[col] = {c: v // g for c, v in row.items()}
        return out


class ModRank:
    """Gaussian elimination over F_p, p prime: IntRank's add, rank, pivots
    and ncols unit-column kernel on integer rows, reduced mod p.

    A pivot row is scaled to lead 1 and stored without its lead, reduced
    mod p, so a reduction step is one multiply-subtract per entry.  The
    working row is reduced mod p lazily: an entry only when it becomes
    the lead, so a lead is always a unit mod p, and one divisible by p is
    dropped.  A kernel relation is stored reduced mod p.
    """

    def __init__(self, p, ncols=None):
        self.p = p
        self.ncols = ncols
        self.pivots = {}  # col -> {c: x} with c > col: the row is 1 at col
        self.kernel = []

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row):
        """Insert a vector of integers; True if the rank mod p grew."""
        p, pivots, ncols = self.p, self.pivots, self.ncols
        out = dict(row)
        if ncols is not None:
            out[ncols + len(pivots) + len(self.kernel)] = 1
        while out:
            lead = min(out)
            f = out.pop(lead) % p
            if not f:
                continue
            if ncols is not None and lead >= ncols:
                out[lead] = f
                self.kernel.append(
                    {c - ncols: y for c, x in out.items() if (y := x % p)}
                )
                return False
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(f, -1, p)
                pivots[lead] = {c: y for c, x in out.items() if (y := x * inv % p)}
                return True
            get = out.get
            for c, x in prow.items():
                out[c] = get(c, 0) - f * x
        return False


def left_kernel(vectors, ncols):
    """Basis of {x : sum_i x_i * vectors[i] = 0} over QQ.

    Combos are integer dicts over row indices, scaled by nonzero rationals
    (only their span matters to callers); ncols bounds the column indices
    used by the vectors.
    """
    eng = IntRank(ncols)
    for v in vectors:
        eng.add(v)
    return eng.kernel
