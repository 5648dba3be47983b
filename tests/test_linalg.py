from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ginlab.linalg import IntRank, Rref, left_kernel, rank_of, scale_to_int


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
    assert rank_of(rows) == brute_rank(rows, 6)


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
    assert rank_of(kernel) == len(kernel)
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
    assert eng.contains({0: 1, 1: 2})
    assert eng.contains({0: 1, 1: 3, 2: 1})
    assert not eng.contains({2: 1})


def test_rref_pivot_normalization():
    eng = Rref()
    eng.add({0: 3, 2: 6})
    row = eng.rows[eng.pivots[0]]
    assert row[0] == 1 and row[2] == 2


def test_scale_to_int():
    assert scale_to_int({0: Fraction(1, 2), 1: Fraction(3, 4)}) == {0: 2, 1: 3}
    assert scale_to_int({0: 4, 1: 6}) == {0: 2, 1: 3}


def test_int_rank_big_entries():
    eng = IntRank()
    eng.add({0: 10**40, 1: 1})
    eng.add({0: 1, 1: 10**40})
    eng.add({0: 10**40 + 1, 1: 10**40 + 1})
    assert eng.rank == 2
