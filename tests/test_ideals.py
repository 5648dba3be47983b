import hashlib
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from ginlab import groebner, linalg, rings
from ginlab.corpus import ACCEPTANCE_SPECS, generate
from ginlab.groebner import gin, initial_ideal
from ginlab.ideals import (
    SCAN_CAP,
    ComputationLimit,
    Ideal,
    ImplementationFault,
    MonomialIdeal,
    component_ideal,
    graded_piece_basis,
    hilbert_function,
    hilbert_numerator,
    is_strongly_stable,
    lex_ideal,
    lex_segment_ideal,
    m_leq,
    minimal_generators,
    quotient_dim_from_numerator,
)
from ginlab.parsing import parse_ideal
from ginlab.rigidity import RigidityContext
from ginlab.rings import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    Element,
    exterior_ring,
    polynomial_ring,
)

from conftest import CANCEL_GIN, STAIRCASE_3, ext


def brute_ideal_monomials(gens, n, d):
    """Enumeration oracle: degree-d monomials divisible by some generator."""
    out = set()
    for c in combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in c:
            exps[i] += 1
        if any(all(g[i] <= exps[i] for i in range(n)) for g in gens):
            out.add(tuple(exps))
    return out


class TestGradedPieces:
    def test_principal(self):
        I = parse_ideal("ring poly 2 QQ\nx1\n")
        assert len(graded_piece_basis(I, 2)) == 2

    def test_exterior_principal(self):
        I = parse_ideal("ring ext 3 QQ\ne1*e2\n")
        assert I.dim_piece(3) == 1

    def test_staircase_degree2(self):
        I = parse_ideal(STAIRCASE_3)
        assert I.dim_piece(2) == 2

    def test_staircase_dims_by_enumeration(self):
        # oracle: count degree-d multiples of the four generators directly
        I = parse_ideal(STAIRCASE_3)
        gens = [(2, 0, 0), (0, 2, 0), (1, 1, 2), (0, 0, 5)]
        for d in range(2, 7):
            assert I.dim_piece(d) == len(brute_ideal_monomials(gens, 3, d))

    def test_basis_is_reduced_echelon(self):
        I = parse_ideal("ring poly 2 QQ\nx1^2 + x2^2\nx1*x2\n")
        basis = graded_piece_basis(I, 3)
        leads = [f.leading_monomial() for f in basis]
        assert len(set(leads)) == len(basis)
        for f in basis:
            tail = {m for m in f.terms if m != f.leading_monomial()}
            assert not (tail & set(leads))

    def test_full_piece_stops_feeding_rows(self, monkeypatch):
        # the 6 monomial rows x1*m, x2*m fill R_3 (dim 4), so the 3 rows
        # of x1 + x2 are never fed
        rows = []
        add = linalg.Rref.add

        def counted(self, row):
            rows.append(row)
            return add(self, row)

        monkeypatch.setattr(linalg.Rref, "add", counted)
        piece = parse_ideal("ring poly 2 QQ\nx1 + x2\nx1\nx2\n").piece(3)
        assert len(rows) == 6
        assert (piece.dim, piece.den) == (4, 1)


class TestRepr:
    def test_generators_in_order(self):
        I = parse_ideal("ring poly 3 QQ\nx1^2 + x1*x2\nx3\n")
        assert repr(I) == "(x1^2 + x1*x2, x3)"
        assert repr(Ideal.zero(I.ring)) == "(0)"

    def test_matches_monomial_ideal_on_acceptance_gins(self):
        gins = [gin(I)[0] for spec in ACCEPTANCE_SPECS for I in generate(spec)]
        assert len(gins) == 100
        for J in gins:
            assert repr(J.to_ideal()) == repr(J)


class TestMonomialsChecked:
    """The entry points take only monomials of their ring: n nonnegative
    ints, each at most 1 over E."""

    def test_exterior_square_refused(self):
        E3 = exterior_ring(3)
        with pytest.raises(ValueError, match="not a monomial of the ext ring"):
            MonomialIdeal(E3, [(2, 0, 0)])
        with pytest.raises(ValueError, match="not a monomial of the ext ring"):
            Ideal(E3, [Element(E3, {(2, 0, 0): 1})])

    def test_negative_exponent_refused(self):
        with pytest.raises(ValueError, match="not a monomial of the poly ring"):
            MonomialIdeal(polynomial_ring(2), [(-1, 3)])


class TestHilbert:
    def test_zero_ideal(self):
        ring = polynomial_ring(3)
        hf = hilbert_function(Ideal.zero(ring), 4)
        assert all(hf[d] == 0 for d in range(5))

    def test_whole_ring(self):
        I = parse_ideal("ring poly 2 QQ\n1\n")
        hf = hilbert_function(I, 3)
        assert [hf[d] for d in range(4)] == [1, 2, 3, 4]

    def test_staircase_values(self):
        # frozen from the enumeration oracle above
        I = parse_ideal(STAIRCASE_3)
        hf = hilbert_function(I, 5)
        assert [hf[d] for d in (2, 3, 4, 5)] == [2, 6, 12, 19]

    def test_quotient_flag(self):
        I = parse_ideal(STAIRCASE_3)
        hf = hilbert_function(I, 4, quotient=True)
        assert [hf[d] for d in range(5)] == [1, 3, 4, 4, 3]

    def test_numerator_expansion(self):
        # one convention for both kinds, N(t) = HS_{R/J}(t) (1 - t)^n, so
        # over E the expansion reads 0 past degree n; the zero and the
        # unit ideal included
        cases = (
            (polynomial_ring(3), [(2, 0, 0), (0, 2, 0), (1, 0, 3)], 8),
            (exterior_ring(5), [ext(5, 0, 1), ext(5, 2, 3), ext(5, 1, 2, 4)], 7),
            (exterior_ring(4), [], 6),
            (exterior_ring(4), [ext(4)], 6),
        )
        for ring, gens, top in cases:
            J = MonomialIdeal(ring, gens)
            num = hilbert_numerator(J)
            for d in range(top + 1):
                assert quotient_dim_from_numerator(num, ring.n, d) == (
                    ring.dim(d) - J.dim(d)
                )


@given(st.lists(st.sets(st.integers(0, 5), min_size=1), max_size=5))
@settings(max_examples=80, deadline=None)
def test_exterior_numerator_random(supports):
    ring = exterior_ring(6)
    J = minimal_generators(ring, [ext(ring.n, *s) for s in supports])
    num = hilbert_numerator(J)
    assert len(num) <= 2 * ring.n + 1
    for d in range(ring.n + 3):
        assert quotient_dim_from_numerator(num, ring.n, d) == (
            ring.dim(d) - J.dim(d)
        )


class TestMinimalGenerators:
    def test_redundant(self):
        ring = polynomial_ring(2)
        J = minimal_generators(ring, [(1, 0), (2, 0)])
        assert J.gens == ((1, 0),)

    def test_gin_generators_already_minimal(self):
        I = parse_ideal("ring poly 4 QQ\n" + "\n".join(CANCEL_GIN) + "\n")
        J = I.monomial_image()
        assert len(J.gens) == 7

    def test_exterior(self):
        ring = exterior_ring(3)
        J = minimal_generators(ring, [ext(3, 0, 1), ext(3, 0, 1, 2)])
        assert J.gens == (ext(3, 0, 1),)


class TestStronglyStable:
    def test_positive(self):
        ring = polynomial_ring(2)
        assert is_strongly_stable(MonomialIdeal(ring, [(2, 0), (1, 1)]))

    def test_negative(self):
        ring = polynomial_ring(2)
        assert not is_strongly_stable(MonomialIdeal(ring, [(0, 1)]))

    def test_staircase_gin(self):
        from conftest import STAIRCASE_GIN

        I = parse_ideal("ring poly 3 QQ\n" + "\n".join(STAIRCASE_GIN) + "\n")
        assert is_strongly_stable(I.monomial_image())

    def test_exterior(self):
        ring = exterior_ring(3)
        assert is_strongly_stable(MonomialIdeal(ring, [ext(3, 0, 1)]))
        assert not is_strongly_stable(MonomialIdeal(ring, [ext(3, 1, 2)]))

    def test_generator_test_matches_full_membership(self):
        # exchange closure checked monomial by monomial in low degrees
        ring = polynomial_ring(3)
        J = MonomialIdeal(ring, [(2, 0, 0), (1, 1, 0), (0, 3, 0)])
        assert is_strongly_stable(J)
        for d in range(1, 6):
            for u in J.monomials(d):
                for j in range(3):
                    if not u[j]:
                        continue
                    for i in range(j):
                        moved = list(u)
                        moved[j] -= 1
                        moved[i] += 1
                        assert J.contains(tuple(moved))


class TestComponentIdeal:
    def test_mixed(self):
        I = parse_ideal("ring poly 2 QQ\nx1\nx2^2\n")
        comp = component_ideal(I, 2)
        assert len(comp.generators) == 3  # all of degree 2

    def test_below_min_degree(self):
        I = parse_ideal("ring poly 2 QQ\nx1^2\n")
        assert component_ideal(I, 1).is_zero()

    def test_degreewise_containment(self):
        I = parse_ideal(STAIRCASE_3)
        comp = component_ideal(I, 3)
        assert comp.dim_piece(3) == I.dim_piece(3)
        for d in range(3, 7):
            assert comp.dim_piece(d) <= I.dim_piece(d)


class TestMLeq:
    def test_principal(self):
        ring = polynomial_ring(2)
        J = MonomialIdeal(ring, [(1, 0)])
        assert m_leq(J, 1, 3) == 1
        assert m_leq(J, 2, 2) == 2

    def test_cancel_gin(self):
        I = parse_ideal("ring poly 4 QQ\n" + "\n".join(CANCEL_GIN) + "\n")
        assert m_leq(I.monomial_image(), 2, 3) == 4

    def test_full_q_is_dimension(self):
        I = parse_ideal("ring poly 3 QQ\n" + "\n".join(["x1^2", "x1*x2"]) + "\n")
        J = I.monomial_image()
        for k in range(5):
            assert m_leq(J, 3, k) == J.dim(k)


class TestLex:
    def test_two_vars(self):
        I = parse_ideal("ring poly 2 QQ\nx1*x2\n")
        assert lex_ideal(I).gens == ((2, 0),)

    def test_fixed_point(self):
        I = parse_ideal("ring poly 2 QQ\nx1\n")
        assert lex_ideal(I).gens == ((1, 0),)

    def test_exterior(self):
        I = parse_ideal("ring ext 3 QQ\ne2*e3\n")
        assert lex_ideal(I).gens == (ext(3, 0, 1),)

    def test_idempotent_and_stable(self):
        I = parse_ideal(STAIRCASE_3)
        L = lex_ideal(I)
        assert is_strongly_stable(L)
        again = lex_ideal(L.to_ideal())
        assert again == L

    def test_same_hilbert_function(self):
        I = parse_ideal(STAIRCASE_3)
        L = lex_ideal(I)
        for d in range(9):
            assert L.dim(d) == I.dim_piece(d)

    def test_truncated_prefix(self):
        I = parse_ideal(STAIRCASE_3)
        L = lex_ideal(I)
        trunc, complete = lex_segment_ideal(I, 4)
        assert not complete
        want = tuple(m for m in L.gens if sum(m) <= 4)
        assert trunc.gens == want


class TestDegreeScan:
    """The one degree scan behind in, gin and Lex."""

    @pytest.fixture(scope="class")
    def scans(self):
        """One repr line per acceptance ideal, and the draws of its gins."""
        lines, draws = [], []
        for spec in ACCEPTANCE_SPECS:
            for ideal in generate(spec):
                cut = RigidityContext(ideal, seed=0).scan_cut
                row = [initial_ideal(ideal), lex_ideal(ideal)]
                row += [lex_segment_ideal(ideal, up_to) for up_to in (cut, 2)]
                gins = [
                    gin(ideal, order=order, max_scan_degree=cut)
                    for order in (DEGREVLEX, LEX, DEGLEX)
                ] + [gin(ideal)]
                for J, cert in gins:
                    row.append((J, cert.truncated_at, cert.escalations))
                    draws.append(
                        repr((cert.coeff_bound, cert.escalations, cert.matrices))
                    )
                lines.append(repr(row))
        return lines, draws

    def test_acceptance_outputs_unchanged(self, scans):
        # in, Lex, truncated Lex and truncated and full gins of the 100
        # acceptance ideals, as computed before the scans were merged; the
        # Hilbert stop changed only the truncated_at of 17 truncated
        # degrevlex gins, which are complete at the cut (None), and over E
        # the complete flag of 32 exterior Lex(I) truncated at 2 (True)
        text = "\n".join(scans[0])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5da026f1a7c6a664f4a9eea92c7b7e2bc26030c85dcd892858d99a73064fc562"
        )

    def test_acceptance_gin_draws_unchanged(self, scans):
        # the coefficient bound, escalation count, and prime and matrix of
        # every trial of those gins, as drawn since the trials run mod p
        text = "\n".join(scans[1])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b2ae01a12affe6e4a8fdd27698f10d839078db87193e91ac93099896f5b8f743"
        )

    def test_truncated_at_none_exactly_when_complete(self):
        # a gin truncated at cut, over S or E, reports no truncation
        # exactly when the full gin has no generator above cut
        for spec in ACCEPTANCE_SPECS:
            for ideal in generate(spec):
                top = gin(ideal)[0].max_gen_degree()
                for cut in (2, 3, RigidityContext(ideal, seed=0).scan_cut):
                    _, cert = gin(ideal, max_scan_degree=cut)
                    assert (cert.truncated_at is None) == (top <= cut)

    def test_exterior_truncation(self):
        I = parse_ideal("ring ext 4 QQ\ne1*e2+e3*e4\ne1*e3*e4\n")
        full, cert = gin(I)
        assert repr(full) == "(e1*e2, e1*e3*e4, e2*e3*e4)"
        assert cert.truncated_at is None
        for cut, want in ((1, "(0)"), (2, "(e1*e2)")):
            J, cert = gin(I, max_scan_degree=cut)
            assert (repr(J), cert.truncated_at) == (want, cut)
        # complete at its top generator degree 3, below n = 4
        for cut in (3, 4):
            J, cert = gin(I, max_scan_degree=cut)
            assert (J, cert.truncated_at) == (full, None)

    def test_cap_refused_before_any_coordinate_change(self, monkeypatch):
        # the Hilbert stop ends at the top generator degree, here the cap
        at = parse_ideal(f"ring poly 2 QQ\nx1^{SCAN_CAP}\n")
        assert gin(at)[0] == at.monomial_image()

        def no_draw(*args):
            raise AssertionError("prime or matrix drawn for a scan past the cap")

        monkeypatch.setattr(rings, "round_prime", no_draw)
        monkeypatch.setattr(rings, "random_unitriangular_matrix_mod", no_draw)
        # a monomial input is refused by its top generator degree; the
        # numerator 1 - t^200 of the binomial needs a generator of degree
        # >= 200 / 2, since one generated in degrees <= e has lcms, and so
        # a numerator, of degree <= n e
        above = parse_ideal(f"ring poly 2 QQ\nx1^{SCAN_CAP + 1}\n")
        binomial = parse_ideal("ring poly 2 QQ\nx1^200 + x2^200\n")
        for I in (above, binomial):
            for order in (DEGREVLEX, LEX, DEGLEX):
                with pytest.raises(ComputationLimit):
                    gin(I, order=order)
            with pytest.raises(ComputationLimit):
                gin(I, max_scan_degree=SCAN_CAP + 1)
        # Lex stops at the top generator degree of in(I), which may be the cap
        assert lex_ideal(at) == at.monomial_image()
        with pytest.raises(ComputationLimit):
            lex_ideal(above)

    def test_truncation_at_the_cap_never_fails(self):
        I = parse_ideal(f"ring poly 2 QQ\nx1^{SCAN_CAP + 6}\n")
        J, cert = gin(I, max_scan_degree=SCAN_CAP)
        assert J.is_zero() and cert.truncated_at == SCAN_CAP + 5
        L, complete = lex_segment_ideal(I, SCAN_CAP)
        assert L.is_zero() and not complete

    def test_lost_multiple_is_a_fault(self, monkeypatch, staircase3):
        pivots = groebner._degree_pivot_monomials

        def dropping(*args):
            return {m for m in pivots(*args) if m[0] < 3}

        monkeypatch.setattr(groebner, "_degree_pivot_monomials", dropping)
        with pytest.raises(ImplementationFault, match="misses multiples"):
            gin(staircase3)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_lex_properties_random(exp_pairs):
    ring = polynomial_ring(2)
    gens = []
    for a, b in exp_pairs:
        if a + b > 0:
            gens.append(Element.monomial(ring, (a, b)))
    if not gens:
        return
    I = Ideal(ring, gens)
    L = lex_ideal(I)
    assert is_strongly_stable(L)
    for d in range(7):
        assert L.dim(d) == I.dim_piece(d)


def test_hilbert_function_invariance_chain():
    # I, in(I), gin(I) and Lex(I) share every graded dimension
    from ginlab.groebner import gin, initial_ideal

    I = parse_ideal("ring poly 3 QQ\nx1^2 + x2*x3\nx2^2 - x1*x3\nx3^3\n")
    J_in = initial_ideal(I)
    J_gin, _ = gin(I, seed=0)
    L = lex_ideal(I)
    for d in range(9):
        dim = I.dim_piece(d)
        assert J_in.dim(d) == dim
        assert J_gin.dim(d) == dim
        assert L.dim(d) == dim
