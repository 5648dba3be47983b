"""Sparse exact linear algebra over QQ.

Vectors are dicts column -> nonzero coefficient (int or Fraction).  Columns
are plain ints; callers index them so that column 0 is the most significant
(for monomial matrices: the largest monomial in the term order), which makes
echelon pivots coincide with leading monomials.

Two engines.  IntRank is the one fraction-free elimination on integer
rows: it gives the ranks of the homology and initial-ideal computations
and, with each row augmented by a unit column, their left kernels (the
cycle spaces).  Rref keeps a fully reduced basis (deterministic pivots,
rational tails) for the graded pieces, where actual coordinates matter.

IntRank strips a working row's content whenever its largest entry passes
256 bits.  It decides that from an exact bound on the row's bit length,
carried from step to step, and scans the row only when the bound passes
256 bits; the rows it stores are those of a scan after every step.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm


class Rref:
    """Incremental reduced row echelon basis."""

    def __init__(self):
        self.pivots = {}  # col -> index into rows
        self.rows = []  # each dict col -> coeff, leading coeff 1

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row):
        """Fully reduce a vector against the current basis."""
        out = {c: v for c, v in row.items() if v}
        heap = list(out)
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            v = out.get(c)
            if not v:
                continue
            r = self.pivots.get(c)
            if r is None:
                continue
            for cc, pv in self.rows[r].items():
                s = out.get(cc, 0) - v * pv
                if s:
                    if cc not in out and cc != c:
                        heapq.heappush(heap, cc)
                    out[cc] = s
                else:
                    out.pop(cc, None)
        return out

    def add(self, row):
        """Insert a vector; returns the new pivot column, or None for a
        vector already in the span."""
        res = self.reduce(row)
        if not res:
            return None
        lead = min(res)
        inv = Fraction(1, 1) / res[lead]
        new = {c: v * inv for c, v in res.items()}
        new[lead] = 1
        idx = len(self.rows)
        # keep the basis fully reduced
        for r in self.rows:
            v = r.get(lead)
            if v:
                for cc, nv in new.items():
                    s = r.get(cc, 0) - v * nv
                    if s:
                        r[cc] = s
                    else:
                        r.pop(cc, None)
        self.rows.append(new)
        self.pivots[lead] = idx
        return lead

    def contains(self, row):
        return not self.reduce(row)


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

    Each reduction step replaces the working row, in place, by
    pf * row - vf * pivot, and divides out its content when its largest
    entry passes 256 bits.  Rather than scan the row after every step, the
    loop carries an upper bound on that bit length: exact after a scan,
    with the exact value stored for each pivot row, and
    max(bits + pf.bit_length(), pivot bits + vf.bit_length()) + 1 after a
    step.  It scans only when the bound passes 256, so the content is
    stripped at exactly the steps where the largest entry passes 256 bits,
    and the stored rows equal those of a scan after every step.
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
        get = out.get
        bits = _max_bits(out)
        while True:
            lead = min(out)
            prow = pivots.get(lead)
            if prow is None:
                if ncols is not None and lead >= ncols:
                    self.kernel.append({c - ncols: v for c, v in out.items()})
                    return False
                # store a compact copy with the content stripped: the
                # in-place updates below leave slack in the working dict's
                # table, and dict(out) would clone that table
                g = gcd(*out.values())
                if g > 1:
                    out = {c: x // g for c, x in out.items()}
                else:
                    out = {c: x for c, x in out.items()}
                pivots[lead] = out
                pivot_bits[lead] = _max_bits(out)
                return True
            p, v = prow[lead], out[lead]
            g = gcd(p, v)
            pf, vf = p // g, v // g
            if pf != 1:
                for c in out:
                    out[c] *= pf
            for c, x in prow.items():
                s = get(c, 0) - vf * x
                if s:
                    out[c] = s
                else:
                    del out[c]
            if not out:
                return False
            bits = max(bits + pf.bit_length(),
                       pivot_bits[lead] + vf.bit_length()) + 1
            if bits > 256:
                bits = _max_bits(out)
                if bits > 256:
                    _divide_content(out)
                    bits = _max_bits(out)


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
