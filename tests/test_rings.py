from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ginlab.rings import (
    Element,
    apply_linear_change,
    compare_monomials,
    exterior_ring,
    matrix_det,
    max_variable,
    monomial_mul,
    polynomial_ring,
    wedge_supports,
)

R3 = polynomial_ring(3)
E4 = exterior_ring(4)


def mono(*exps):
    return tuple(exps)


class TestCompare:
    def test_variable_order(self):
        assert compare_monomials(R3, mono(1, 0, 0), mono(0, 1, 0)) == 1

    def test_revlex_tiebreak(self):
        # x2^2 beats x1*x3: the latter touches the last variable
        assert compare_monomials(R3, mono(0, 2, 0), mono(1, 0, 1)) == 1

    def test_revlex_tiebreak_two_vars(self):
        assert compare_monomials(R3, mono(2, 1, 0), mono(1, 2, 0)) == 1

    def test_degree_first(self):
        assert compare_monomials(R3, mono(0, 0, 3), mono(1, 1, 0)) == 1

    def test_lex(self):
        assert compare_monomials(R3, mono(1, 0, 1), mono(0, 2, 0), "lex") == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compare_monomials(R3, mono(1, 0), mono(0, 1, 0))


exps3 = st.tuples(*[st.integers(0, 4)] * 3)


@given(exps3, exps3)
@settings(max_examples=200)
def test_compare_antisymmetric(a, b):
    assert compare_monomials(R3, a, b) == -compare_monomials(R3, b, a)


@given(exps3, exps3, exps3)
@settings(max_examples=200)
def test_compare_transitive(a, b, c):
    if compare_monomials(R3, a, b) >= 0 and compare_monomials(R3, b, c) >= 0:
        assert compare_monomials(R3, a, c) >= 0


@given(exps3, exps3, exps3)
@settings(max_examples=200)
def test_compare_multiplicative(a, b, c):
    cmp_ab = compare_monomials(R3, a, b)
    assert cmp_ab == compare_monomials(R3, monomial_mul(a, c), monomial_mul(b, c))


class TestWedge:
    def test_disjoint(self):
        assert wedge_supports((0, 1), (2,)) == (1, (0, 1, 2))

    def test_transposition_sign(self):
        assert wedge_supports((1,), (0,)) == (-1, (0, 1))

    def test_square_zero(self):
        assert wedge_supports((0,), (0,)) == (0, None)

    def test_anticommutative(self):
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                s1, m1 = wedge_supports((i,), (j,))
                s2, m2 = wedge_supports((j,), (i,))
                assert m1 == m2 and s1 == -s2


@given(st.permutations(list(range(4))))
@settings(max_examples=50)
def test_wedge_associative_signs(perm):
    # multiply e_{perm} one factor at a time; sign must match parity
    sign = 1
    support = ()
    for i in perm:
        s, support = wedge_supports(support, (i,))
        sign *= s
    inversions = sum(
        1 for a in range(4) for b in range(a + 1, 4) if perm[a] > perm[b]
    )
    assert sign == (-1) ** (inversions % 2)
    assert support == (0, 1, 2, 3)


class TestMaxVariable:
    def test_poly(self):
        assert max_variable(R3, mono(1, 0, 2)) == 3

    def test_ext(self):
        assert max_variable(E4, (0, 3)) == 4

    def test_unit(self):
        assert max_variable(R3, mono(0, 0, 0)) == 0
        assert max_variable(E4, ()) == 0


class TestLinearChange:
    def test_binomial_expansion(self):
        ring = polynomial_ring(2)
        f = Element.monomial(ring, (2, 0))
        g = [[1, 0], [1, 1]]  # x1 -> x1 + x2
        out = apply_linear_change(f, g)
        assert out.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_identity_exterior(self):
        f = Element.monomial(E4, (0, 1))
        out = apply_linear_change(f, [[int(i == j) for j in range(4)] for i in range(4)])
        assert out == f

    def test_swap_exterior(self):
        ring = exterior_ring(2)
        f = Element.monomial(ring, (0,))
        out = apply_linear_change(f, [[0, 1], [1, 0]])
        assert out.terms == {(1,): 1}

    def test_singular_rejected(self):
        f = Element.monomial(R3, mono(1, 0, 0))
        with pytest.raises(ValueError):
            apply_linear_change(f, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_degree_preserved(self):
        ring = polynomial_ring(2)
        f = Element(ring, {(2, 1): 3, (0, 3): Fraction(1, 2)})
        out = apply_linear_change(f, [[2, 1], [1, 1]])
        assert out.degree() == 3


small_matrix = st.lists(
    st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2
)


@given(small_matrix, small_matrix, st.tuples(st.integers(0, 2), st.integers(0, 2)))
@settings(max_examples=60)
def test_linear_change_composition(g1, g2, exps):
    if matrix_det(g1) == 0 or matrix_det(g2) == 0:
        return
    ring = polynomial_ring(2)
    f = Element.monomial(ring, exps)
    prod = [
        [sum(g1[i][t] * g2[t][j] for t in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert apply_linear_change(f, prod) == apply_linear_change(
        apply_linear_change(f, g2), g1
    )


@given(small_matrix, st.tuples(st.integers(0, 1), st.integers(0, 1)))
@settings(max_examples=60)
def test_linear_change_composition_exterior(g, supp):
    if matrix_det(g) == 0:
        return
    ring = exterior_ring(2)
    support = tuple(sorted(set(i for i, flag in enumerate(supp) if flag)))
    f = Element.monomial(ring, support)
    out = apply_linear_change(f, g)
    if support:
        assert out.is_homogeneous()
        assert out.is_zero() or out.degree() == len(support)
