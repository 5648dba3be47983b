import heapq
from fractions import Fraction
from functools import reduce
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ginlab import ideals, linalg
from ginlab.corpus import ACCEPTANCE_SPECS, generate
from ginlab.linalg import IntRank, ModRank, Rref, left_kernel, scale_to_int


def brute_rank(rows, ncols):
    """Reference rank by plain fraction Gaussian elimination."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] * inv
                for c in range(col, ncols):
                    mat[i][c] -= f * mat[rank][c]
        rank += 1
    return rank


rows_strategy = st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-9, 9), max_size=6),
    min_size=0,
    max_size=8,
)


@given(rows_strategy)
@settings(max_examples=200)
def test_int_rank_matches_brute_force(rows):
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    eng = IntRank()
    for r in rows:
        eng.add(r)
    assert eng.rank == brute_rank(rows, 6)


def brute_pivots_mod(rows, ncols, p):
    """Reference pivot columns of the row space mod p, by dense
    elimination (the leading columns of its reduced echelon form)."""
    mat = [[r.get(c, 0) % p for c in range(ncols)] for r in rows]
    pivots, rank = [], 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] * inv
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    return pivots


@given(rows_strategy, st.sampled_from([2, 3, 5, 7, (1 << 61) - 1]))
@settings(max_examples=300)
def test_mod_rank_matches_brute_force(rows, p):
    # entries divisible by p (zeros mod p, rows that vanish) and negative
    # entries included: a lead is always a unit, so nothing raises
    eng = ModRank(p)
    grew = [eng.add(r) for r in rows]
    assert sorted(eng.pivots) == brute_pivots_mod(rows, 6, p)
    assert sum(grew) == eng.rank
    for col, rest in eng.pivots.items():  # the row is 1 at col
        assert all(c > col and 0 < x < p for c, x in rest.items())


@given(rows_strategy)
@settings(max_examples=200)
def test_rref_rank_matches(rows):
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    eng = Rref()
    for r in rows:
        eng.add(r)
    assert eng.rank == brute_rank(rows, 6)


# rational entries, and empty rows (zero columns of a differential, which
# are cycles) drawn often
fraction_rows_strategy = st.lists(
    st.dictionaries(
        st.integers(0, 5),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        max_size=6,
    )
    | st.just({}),
    min_size=0,
    max_size=8,
)


@given(fraction_rows_strategy)
@settings(max_examples=150)
def test_left_kernel(rows):
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    kernel = left_kernel(rows, 6)
    # every combo really kills the rows
    for combo in kernel:
        acc = {}
        for idx, coef in combo.items():
            for c, v in rows[idx].items():
                acc[c] = acc.get(c, 0) + coef * v
        assert all(v == 0 for v in acc.values())
    # the kernel has the right dimension
    assert len(kernel) == len(rows) - brute_rank(rows, 6)
    # and is independent
    independent = IntRank()
    for combo in kernel:
        independent.add(combo)
    assert independent.rank == len(kernel)
    # an empty row is a relation by itself
    for t, row in enumerate(rows):
        if not row:
            assert {t: 1} in kernel
    # the augmented engine splits the rows into pivots and relations
    eng = IntRank(6)
    for row in rows:
        eng.add(row)
    assert eng.kernel == kernel
    assert eng.rank == brute_rank(rows, 6)
    assert eng.rank + len(eng.kernel) == len(rows)


def test_rref_reduces_members():
    eng = Rref()
    eng.add({0: 2, 1: 4})
    eng.add({1: 1, 2: 1})
    assert eng.reduced() == {0: {0: 1, 2: -2}, 1: {1: 1, 2: 1}}


def test_rref_pivot_normalization():
    for lead in (3, -3):
        eng = Rref()
        eng.add({0: lead, 2: 6})
        assert eng.reduced() == {0: {0: 1, 2: 6 // lead}}


def test_rref_is_intrank_loop():
    # one reduction loop over QQ: Rref adds only the back-substitution
    assert Rref.add is IntRank.add
    assert Rref.rank is IntRank.rank
    assert Rref.__init__ is IntRank.__init__
    assert not hasattr(Rref, "reduce")


class ReferenceRref:
    """Rref as first written: rows over QQ with leading coefficient 1, the
    basis kept fully reduced, and a heap of the columns still to reduce."""

    def __init__(self):
        self.pivots = {}  # col -> index into rows
        self.rows = []  # each dict col -> coeff, leading coeff 1

    def reduce(self, row):
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
        res = self.reduce(row)
        if not res:
            return None
        lead = min(res)
        inv = Fraction(1, 1) / res[lead]
        new = {c: v * inv for c, v in res.items()}
        new[lead] = 1
        for r in self.rows:
            v = r.get(lead)
            if v:
                for cc, nv in new.items():
                    s = r.get(cc, 0) - v * nv
                    if s:
                        r[cc] = s
                    else:
                        r.pop(cc, None)
        self.pivots[lead] = len(self.rows)
        self.rows.append(new)
        return lead

    def contains(self, row):
        return not self.reduce(row)


@given(fraction_rows_strategy, fraction_rows_strategy)
@settings(max_examples=200, deadline=None)
def test_rref_matches_reference(rows, probes):
    eng, ref = Rref(), ReferenceRref()
    for row in rows:
        eng.add(row)
        ref.add(row)
    reduced = eng.reduced()
    # the same pivot columns
    assert sorted(reduced) == sorted(ref.pivots)
    for col, row in reduced.items():
        ref_row = ref.rows[ref.pivots[col]]
        # a primitive integer row with a positive lead ...
        assert min(row) == col and row[col] > 0
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1
        # ... that is a positive multiple of the reference row (lead 1)
        assert row.keys() == ref_row.keys()
        assert all(v == row[col] * ref_row[c] for c, v in row.items())
    # the rows span the same space: a probe is a member iff it adds no rank
    for probe in rows + probes:
        span = IntRank()
        for row in reduced.values():
            span.add(row)
        span.add(probe)
        assert (span.rank == len(reduced)) == ref.contains(probe)


def reference_scale_to_int(row):
    """scale_to_int as first written: an isinstance test and v * den always."""
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


class ReferenceIntRank:
    """IntRank.add as first written: a fresh row over the union of columns
    at every step, and a scan of the whole row for the 256-bit guard."""

    def __init__(self, ncols=None):
        self.ncols = ncols
        self.pivots = {}
        self.kernel = []
        self.fired = []  # the rows the guard stripped, as they stood

    def add(self, row):
        if self.ncols is not None:
            row = dict(row)
            row[self.ncols + len(self.pivots) + len(self.kernel)] = 1
        out = reference_scale_to_int(row)
        while out:
            lead = min(out)
            prow = self.pivots.get(lead)
            if prow is None:
                if self.ncols is not None and lead >= self.ncols:
                    self.kernel.append({c - self.ncols: v for c, v in out.items()})
                    return False
                g = reduce(gcd, out.values(), 0)
                if g > 1:
                    for c in out:
                        out[c] //= g
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
                self.fired.append(dict(out))
                g = reduce(gcd, out.values(), 0)
                if g > 1:
                    for c in out:
                        out[c] //= g
        return False


# each row, and what it scales to (as scale_to_int was first written)
SCALE_CASES = [
    ({0: 4, 1: 6}, {0: 2, 1: 3}),  # int-only, content 2
    ({0: 4, 1: -6, 3: 10}, {0: 2, 1: -3, 3: 5}),
    ({2: 7, 0: -3}, {2: 7, 0: -3}),  # int-only, content 1
    ({0: Fraction(4), 1: Fraction(-6)}, {0: 2, 1: -3}),  # denominator 1
    ({0: Fraction(1, 2), 1: Fraction(3, 4)}, {0: 2, 1: 3}),
    ({1: 3, 0: Fraction(-1, 6), 2: Fraction(5)}, {1: 18, 0: -1, 2: 30}),
    ({0: 0, 1: 4, 2: Fraction(0), 3: -2}, {1: 2, 3: -1}),  # zero entries
    ({0: 0, 1: Fraction(0)}, {}),
    ({}, {}),
]


def test_scale_to_int():
    for row, expected in SCALE_CASES:
        out = scale_to_int(row)
        assert out == expected, row
        assert list(out.items()) == list(reference_scale_to_int(row).items())
        assert all(type(v) is int for v in out.values())


# integers of every bit length up to 300, so that reduction steps land on
# both sides of the 256-bit guard
big = st.integers(0, 300).flatmap(lambda b: st.integers(-(2**b), 2**b))
mixed_entry = (
    st.integers(-9, 9)
    | big
    | st.fractions(min_value=-9, max_value=9, max_denominator=6)
    | big.map(lambda v: Fraction(v, 7))
)


@st.composite
def mixed_rows_strategy(draw):
    """Rows over columns 0..3, then big-integer combinations of them, so
    that relations are common and their rows pass the 256-bit guard."""
    base = draw(
        st.lists(
            st.dictionaries(st.integers(0, 3), mixed_entry, max_size=4)
            | st.just({}),
            max_size=5,
        )
    )
    rows = list(base)
    for _ in range(draw(st.integers(0, 4)) if base else 0):
        k, m = draw(big), draw(big)
        a = base[draw(st.integers(0, len(base) - 1))]
        b = base[draw(st.integers(0, len(base) - 1))]
        combo = {c: k * a.get(c, 0) + m * b.get(c, 0) for c in a.keys() | b.keys()}
        rows.append({c: v for c, v in combo.items() if v})
    return draw(st.permutations(rows))


def run_both(rows, ncols):
    """Feed the rows to IntRank and to the reference; compare everything,
    including the rows at which the 256-bit guard fired."""
    fired = []
    strip = linalg._divide_content

    def record(row):
        fired.append(dict(row))
        strip(row)

    ref, eng = ReferenceIntRank(ncols), IntRank(ncols)
    with mock.patch.object(linalg, "_divide_content", record):
        for row in rows:
            assert eng.add(row) == ref.add(row)
    assert list(eng.pivots.items()) == list(ref.pivots.items())
    assert eng.kernel == ref.kernel
    assert fired == ref.fired
    for col, prow in eng.pivots.items():
        assert eng._bits[col] == max(abs(v) for v in prow.values()).bit_length()
    return fired


@given(mixed_rows_strategy(), st.sampled_from([None, 4]))
@settings(max_examples=200, deadline=None)
def test_int_rank_matches_reference(rows, ncols):
    run_both(rows, ncols)


@pytest.mark.parametrize("ncols", [None, 3])
def test_int_rank_guard_fires(ncols):
    """A row that grows past 256 bits over several steps is stripped at
    the step where it passes, as the reference does."""
    rows = [
        {0: 2**100 + 1, 1: 3, 2: 5},
        {0: 3, 1: 2**100 + 7, 2: 1},
        {0: 6 * 2**40, 1: 2**41, 2: 2**90},
        {0: 2**70 + 5, 1: 2**60, 2: 9},
    ]
    fired = run_both(rows, ncols)
    assert fired
    assert all(max(map(abs, row.values())).bit_length() > 256 for row in fired)


def test_stored_bits_are_exact_on_the_corpus_pieces(monkeypatch):
    """Every pivot's stored bit length is its row's, after the graded pieces
    of the acceptance corpus are built: also for a row stored with no
    reduction step, which keeps its scan from before the loop."""
    engines = []

    class Recorded(Rref):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(ideals, "Rref", Recorded)
    for spec in ACCEPTANCE_SPECS:
        for I in generate(spec):
            for d in range(I.max_degree() + 2):
                I.piece(d)
    assert engines
    for eng in engines:
        for col, prow in eng.pivots.items():
            assert eng._bits[col] == linalg._max_bits(prow)


def test_int_rank_big_entries():
    eng = IntRank()
    eng.add({0: 10**40, 1: 1})
    eng.add({0: 1, 1: 10**40})
    eng.add({0: 10**40 + 1, 1: 10**40 + 1})
    assert eng.rank == 2
