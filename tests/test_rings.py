import ast
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ginlab import rings
from ginlab.corpus import ACCEPTANCE_SPECS, generate
from ginlab.groebner import gin, initial_ideal
from ginlab.ideals import MonomialIdeal, lex_ideal
from ginlab.rings import (
    PRIME_LIMIT,
    TERM_ORDERS,
    Element,
    GenericSequence,
    Ring,
    apply_linear_change,
    change_coordinates,
    compare_monomials,
    exponent_vectors,
    exterior_ring,
    is_prime,
    linear_form,
    max_variable,
    monomial_mul,
    monomial_product,
    order_key,
    polynomial_ring,
    random_prime,
    random_unitriangular_matrix_mod,
    wedge_supports,
)

from conftest import CRITERION_6, ext, fraction_det

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

    def test_exterior(self):
        # e1*e2 beats e1*e3 in degrevlex, and e2 loses to e1 in lex
        assert compare_monomials(E4, ext(4, 0, 1), ext(4, 0, 2)) == 1
        assert compare_monomials(E4, ext(4, 1), ext(4, 0), "lex") == -1

    def test_exterior_dimension_mismatch(self):
        # a tuple of length 2 is no monomial of E in three variables,
        # whatever its entries
        E3 = exterior_ring(3)
        with pytest.raises(ValueError, match="different ring"):
            compare_monomials(E3, (1, 0), (1, 0, 0))
        with pytest.raises(ValueError, match="different ring"):
            compare_monomials(E3, (0, 5), (0, 1))

    def test_exterior_exponent_above_one(self):
        with pytest.raises(ValueError, match="not a monomial of the ext ring"):
            compare_monomials(exterior_ring(3), (0, 2, 0), (1, 0, 0))


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


class TestMonomials:
    def test_descending_in_every_order_and_built_once(self):
        for ring in (R3, E4, polynomial_ring(2, "lex")):
            assert ring.monomials(2) is ring.monomials(2, ring.order)
            for order in TERM_ORDERS:
                for d in range(5):
                    if ring.is_exterior:
                        every = (
                            ext(ring.n, *c)
                            for c in combinations(range(ring.n), d)
                        )
                    else:
                        every = (
                            e for e in product(range(d + 1), repeat=ring.n)
                            if sum(e) == d
                        )
                    want = sorted(
                        every, key=order_key(ring, order), reverse=True
                    )
                    monos = ring.monomials(d, order)
                    assert monos == tuple(want), (ring, order, d)
                    assert ring.monomials(d, order) is monos
                    vectors = exponent_vectors(ring.n, d, ring.is_exterior)
                    assert sorted(vectors) == sorted(monos), (ring, d)
        # the memo is not part of a ring's value
        assert R3 == polynomial_ring(3) and hash(R3) == hash(polynomial_ring(3))

    @pytest.mark.parametrize("squarefree", [True, False])
    def test_exponent_vectors_in_no_variables(self, squarefree):
        assert exponent_vectors(0, 0, squarefree) == [()]
        assert exponent_vectors(0, 2, squarefree) == []


class TestWedge:
    def test_disjoint(self):
        assert wedge_supports(ext(3, 0, 1), ext(3, 2)) == (1, ext(3, 0, 1, 2))

    def test_transposition_sign(self):
        assert wedge_supports(ext(2, 1), ext(2, 0)) == (-1, ext(2, 0, 1))

    def test_square_zero(self):
        assert wedge_supports(ext(2, 0), ext(2, 0)) == (0, None)

    def test_anticommutative(self):
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                s1, m1 = wedge_supports(ext(4, i), ext(4, j))
                s2, m2 = wedge_supports(ext(4, j), ext(4, i))
                assert m1 == m2 and s1 == -s2

    @pytest.mark.parametrize("ring", [polynomial_ring(3), exterior_ring(3)])
    def test_monomial_product_is_the_one_rule(self, ring):
        monos = [m for d in range(3) for m in ring.monomials(d)]
        for a in monos:
            for b in monos:
                got = monomial_product(ring.is_exterior, a, b)
                if ring.is_exterior:
                    assert got == wedge_supports(a, b), (a, b)
                else:
                    assert got == (1, monomial_mul(a, b)), (a, b)


@pytest.mark.parametrize("ring", [polynomial_ring(4), exterior_ring(4)])
def test_term_mul_is_the_product_by_one_term(ring):
    # term_mul is __mul__ by one term, and coefficient 0 gives the zero
    # element: _times once deleted a key it never stored (KeyError)
    monos = [m for d in range(3) for m in ring.monomials(d)]
    f = Element(ring, {m: i - 3 for i, m in enumerate(ring.monomials(2))})
    f = f + Element(ring, {ring.unit_monomial(): 5})
    for m in monos:
        for c in (1, -2):
            assert f.term_mul(m, c) == f * Element.monomial(ring, m, c), (m, c)
        assert f.term_mul(m, 0).is_zero()
    assert Element(R3, {(1, 0, 0): 2}).term_mul((0, 1, 0), 0).is_zero()


@given(st.permutations(list(range(4))))
@settings(max_examples=50)
def test_wedge_associative_signs(perm):
    # multiply e_{perm} one factor at a time; sign must match parity
    sign = 1
    support = ext(4)
    for i in perm:
        s, support = wedge_supports(support, ext(4, i))
        sign *= s
    inversions = sum(
        1 for a in range(4) for b in range(a + 1, 4) if perm[a] > perm[b]
    )
    assert sign == (-1) ** (inversions % 2)
    assert support == ext(4, 0, 1, 2, 3)


class TestOneFormat:
    """Exterior monomials are 0/1 exponent vectors of length n wherever
    they are handed out, so a squarefree monomial is one tuple in S and E."""

    def test_exterior_corpora_hand_out_vectors(self):
        ideals = [
            ideal
            for spec in ACCEPTANCE_SPECS + CRITERION_6
            if spec.kind == "ext"
            for ideal in generate(spec)
        ]
        assert len(ideals) == 56
        for ideal in ideals:
            ring = ideal.ring
            monos = [m for g in ideal.generators for m in g.terms]
            for order in TERM_ORDERS:
                for d in range(ring.n + 1):
                    monos += ring.monomials(d, order)
            for J in (gin(ideal)[0], initial_ideal(ideal), lex_ideal(ideal)):
                monos += J.gens
            assert all(
                len(m) == ring.n and set(m) <= {0, 1} for m in monos
            ), ideal

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_squarefree_ideals_agree_over_S_and_E(self, data):
        n = data.draw(st.integers(1, 6))
        supports = data.draw(st.lists(st.sets(st.integers(0, n - 1)), max_size=5))
        gens = [ext(n, *s) for s in supports]
        S = MonomialIdeal(polynomial_ring(n), gens)
        E = MonomialIdeal(exterior_ring(n), gens)
        assert S.gens == E.gens
        for m in product((0, 1), repeat=n):
            assert S.contains(m) == E.contains(m), (gens, m)


class TestMaxVariable:
    def test_poly(self):
        assert max_variable(R3, mono(1, 0, 2)) == 3

    def test_ext(self):
        assert max_variable(E4, ext(4, 0, 3)) == 4

    def test_unit(self):
        assert max_variable(R3, mono(0, 0, 0)) == 0
        assert max_variable(E4, ext(4)) == 0


class TestLinearChange:
    def test_binomial_expansion(self):
        ring = polynomial_ring(2)
        f = Element.monomial(ring, (2, 0))
        g = [[1, 0], [1, 1]]  # x1 -> x1 + x2
        out = apply_linear_change(f, g)
        assert out.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_identity_exterior(self):
        f = Element.monomial(E4, ext(4, 0, 1))
        out = apply_linear_change(f, [[int(i == j) for j in range(4)] for i in range(4)])
        assert out == f

    def test_swap_exterior(self):
        ring = exterior_ring(2)
        f = Element.monomial(ring, ext(2, 0))
        out = apply_linear_change(f, [[0, 1], [1, 0]])
        assert out.terms == {ext(2, 1): 1}

    def test_singular_rejected(self):
        f = Element.monomial(R3, mono(1, 0, 0))
        with pytest.raises(ValueError):
            apply_linear_change(f, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="singular"):
            change_coordinates(R3, [f, f], [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
        half = Fraction(1, 2)
        with pytest.raises(ValueError, match="singular"):
            change_coordinates(R3, [f], [[half, 1, 0], [1, 2, 0], [0, 0, 3]])

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
    if fraction_det(g1) == 0 or fraction_det(g2) == 0:
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


@st.composite
def exterior_changes(draw):
    """Two n x n integer matrices and a 0/1 exponent vector, n = 2 or 3."""
    n = draw(st.sampled_from([2, 3]))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    matrix = st.lists(row, min_size=n, max_size=n)
    support = draw(st.sets(st.integers(0, n - 1)))
    return draw(matrix), draw(matrix), ext(n, *support)


@given(exterior_changes())
@settings(max_examples=60)
def test_linear_change_composition_exterior(changes):
    g1, g2, exps = changes
    if fraction_det(g1) == 0 or fraction_det(g2) == 0:
        return
    n = len(exps)
    f = Element.monomial(exterior_ring(n), exps)
    prod = [
        [sum(g1[i][t] * g2[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert apply_linear_change(f, prod) == apply_linear_change(
        apply_linear_change(f, g2), g1
    )


entries = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def square_matrices(draw, sizes=st.integers(0, 4)):
    """Integer and rational matrices; some made singular by a scaled row."""
    n = draw(sizes)
    rows = draw(st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ))
    if n >= 2 and draw(st.booleans()):
        scale = draw(entries)
        rows[0] = [scale * x for x in rows[-1]]
    return rows


def substituted(f, g):
    """The substitution term by term, each monomial's image a product of
    the linear images: the reference for change_coordinates."""
    ring = f.ring
    images = [linear_form(ring, [row[i] for row in g]) for i in range(ring.n)]
    out = Element.zero(ring)
    for m, c in f.terms.items():
        acc = Element.monomial(ring, ring.unit_monomial())
        factors = [i for i, e in enumerate(m) for _ in range(e)]
        for i in factors:
            acc = acc * images[i]
        out = out + acc.scale(c)
    return out


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_batched_change_matches_each_element(data):
    kind = data.draw(st.sampled_from(["poly", "ext"]))
    n = data.draw(st.integers(2, 4))
    ring = Ring(kind, n)
    g = data.draw(square_matrices(st.just(n)))
    elements = []
    for _ in range(data.draw(st.integers(1, 4))):
        monos = ring.monomials(data.draw(st.integers(1, min(n, 3))))
        support = data.draw(
            st.lists(st.sampled_from(monos), min_size=1, max_size=4)
        )
        elements.append(Element(ring, {m: data.draw(entries) for m in support}))
    if fraction_det(g) == 0:
        with pytest.raises(ValueError, match="singular"):
            change_coordinates(ring, elements, g)
        return
    batched = change_coordinates(ring, elements, g)
    assert batched == [apply_linear_change(f, g) for f in elements]
    assert batched == [substituted(f, g) for f in elements]


class TestPrimes:
    """The primes of the gin rounds and their matrices mod p."""

    def test_small_numbers_match_trial_division(self):
        def trial_division(n):
            return n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))

        assert [n for n in range(20000) if is_prime(n)] == [
            n for n in range(20000) if trial_division(n)
        ]

    def test_known_primes_and_strong_pseudoprimes(self):
        for n in ((1 << 61) - 1, (1 << 64) - 59, (1 << 64) + 13):
            assert is_prime(n), n
        for n in (
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # ... to the primes up to 23, below 2^64
            318665857834031151167461,  # ... to the primes up to 37
            ((1 << 31) - 1) ** 2,
            ((1 << 61) - 1) * ((1 << 19) - 1),
        ):
            assert not is_prime(n), n
        with pytest.raises(ValueError, match="certified below"):
            is_prime(PRIME_LIMIT)

    def test_random_prime_range(self):
        for lo in (2, 3, 100, 1 << 60, 1 << 64):
            rng = random.Random(f"primes:{lo}")
            for _ in range(5):
                p = random_prime(rng, lo)
                assert lo <= p < 2 * lo and is_prime(p)
        # odd primes only: [2, 4) gives 3, [3, 6) both of its primes
        assert {random_prime(random.Random(s), 2) for s in range(20)} == {3}
        assert {random_prime(random.Random(s), 3) for s in range(20)} == {3, 5}

    @pytest.mark.parametrize("p", [2, 3, (1 << 61) - 1])
    def test_matrices_invertible_mod_p(self, p):
        # unitriangular, so invertible mod p with no singular draw to reject
        rng = random.Random(p)
        for n in range(1, 5):
            for _ in range(10):
                mat = random_unitriangular_matrix_mod(rng, n, p)
                assert all(0 <= x < p for row in mat for x in row)
                assert fraction_det(mat) == 1


class TestEchelon:
    """GenericSequence.draw draws the echelon basis of a generic flag: the
    one matrix that the certificates name and every route computes with."""

    @pytest.mark.parametrize("kind", ["poly", "ext"])
    def test_draws(self, kind):
        # the forms x_t + sum_{s > t} c_{t,s} x_s, entries in [0, p)
        for n in range(2, 7):
            for seed in range(10):
                seq = GenericSequence.first(Ring(kind, n), seed)
                assert len(seq.rows) == n and seq.prime > 2
                for t, row in enumerate(seq.rows):
                    assert len(row) == n
                    assert row[:t + 1] == (0,) * t + (1,), (seq, t)
                    assert all(0 <= c < seq.prime for c in row[t + 1:])
                assert any(c > 1 for row in seq.rows for c in row)

    def test_same_draw_same_rows(self):
        # the rows depend on (seed, key, bound, label) alone: a fresh ring
        # draws them again, and another tag, bound or label draws others
        seq = GenericSequence.draw(polynomial_ring(4), 3, "3:0:a")
        assert GenericSequence.draw(polynomial_ring(4), 3, "3:0:a") == seq
        bound = rings.PRIME_BOUND << 1
        for other in (
            GenericSequence.draw(polynomial_ring(4), 3, "3:0:b"),
            GenericSequence.draw(polynomial_ring(4), 3, "3:0:a", bound),
            GenericSequence.draw(polynomial_ring(4), 3, "3:0:a", label="gin"),
        ):
            assert other.rows != seq.rows


def test_draws_have_one_home():
    # rings.certified_draw draws every generic matrix and corpus.py its
    # inputs: no other module of the package imports random
    package = Path(rings.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "random" in names:
                importers.add(path.name)
    assert importers == {"corpus.py", "rings.py"}


def test_the_product_rule_has_one_home():
    # rings.monomial_product is the one product of monomials: no other
    # module of the package names wedge_supports (__init__ re-exports it),
    # and betti.py enumerates its chains with rings.exponent_vectors
    package = Path(rings.__file__).parent
    users = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "name", None)
            if name == "wedge_supports":
                users.add(path.name)
            if path.name == "betti.py" and isinstance(
                node, (ast.Import, ast.ImportFrom)
            ):
                modules = [a.name for a in node.names]
                modules.append(getattr(node, "module", None))
                assert "itertools" not in modules
    assert users == {"__init__.py", "rings.py"}
