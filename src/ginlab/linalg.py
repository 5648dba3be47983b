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
"""

import heapq
from fractions import Fraction
from functools import reduce
from math import gcd


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
    g = reduce(gcd, row.values(), 0)
    if g > 1:
        for c in row:
            row[c] //= g


def scale_to_int(row):
    """Clear denominators and strip content; returns dict col -> int."""
    if not row:
        return {}
    den = 1
    for v in row.values():
        if isinstance(v, Fraction):
            d = v.denominator
            den = den * d // gcd(den, d)
    out = {}
    g = 0
    for c, v in row.items():
        iv = int(v * den)
        if iv:
            out[c] = iv
            g = gcd(g, iv)
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
    """

    def __init__(self, ncols=None):
        self.ncols = ncols
        self.pivots = {}  # col -> row dict with that leading col
        self.kernel = []

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row):
        """Insert a vector (int or Fraction coeffs); True if rank grew."""
        if self.ncols is not None:
            row = dict(row)
            row[self.ncols + len(self.pivots) + len(self.kernel)] = 1
        out = scale_to_int(row)
        while out:
            lead = min(out)
            prow = self.pivots.get(lead)
            if prow is None:
                if self.ncols is not None and lead >= self.ncols:
                    self.kernel.append({c - self.ncols: v for c, v in out.items()})
                    return False
                _divide_content(out)
                self.pivots[lead] = out
                return True
            p, v = prow[lead], out[lead]
            g = gcd(p, v)
            pf, vf = p // g, v // g
            nxt = {}
            for c in out.keys() | prow.keys():
                s = pf * out.get(c, 0) - vf * prow.get(c, 0)
                if s:
                    nxt[c] = s
            out = nxt
            if out and max(abs(x) for x in out.values()).bit_length() > 256:
                _divide_content(out)
        return False


def rank_of(vectors):
    """Exact rank of the span of the given vectors."""
    eng = IntRank()
    for v in vectors:
        eng.add(v)
    return eng.rank


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
